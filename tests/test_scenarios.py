"""Tests for the workload scenarios (``repro.scenarios``).

The contracts under test: field-level corruption and time-mode
streaming are seed-deterministic; scenario reports separate
byte-reproducible content from wall-clock timings (two runs of the same
``(spec, seed)`` serialize to identical timings-free JSON, including
under the process executor); the streaming scenario asserts exact-mode
parity with a fresh union fit; the robustness grid emits one
quality×latency cell per (corruption level × component spec); and the
perf harness gates the headline scenarios on wall time and macro F1.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.data.records import Dataset, Record
from repro.datasets import (
    DEFAULT_FIELD_ALIASES,
    CorpusChunk,
    FieldCorruptionConfig,
    RecordPerturber,
    stream_chunks,
    typo_edit,
)
from repro.exceptions import DataError, ScenarioError
from repro.perf.bench import check_regression
from repro.registry import SCENARIOS
from repro.scenarios import (
    NAMED_SCENARIOS,
    IntentDriftScenario,
    RobustnessGridScenario,
    ScenarioReport,
    StreamingScenario,
    build_scenario,
    load_scenario_report,
    named_scenario,
    scenario_names,
    timestamped_chunks,
)


def _records(count: int, fields: int = 3) -> list[Record]:
    names = ("title", "brand", "category", "model")[:fields]
    return [
        Record(
            record_id=f"r{index}",
            values={name: f"{name}-{index}" for name in names},
        )
        for index in range(count)
    ]


# ---------------------------------------------------------------------------
# field-level corruption (datasets.perturb)


class TestTypoEdit:
    def test_deterministic_pure_function(self):
        assert typo_edit("keyboard", 0, 0.5) == typo_edit("keyboard", 0, 0.5)

    def test_short_tokens_pass_through(self):
        assert typo_edit("ab", 0, 0.5) == "ab"

    def test_kinds_change_token(self):
        for kind in (0, 1, 2):  # delete / transpose / duplicate
            assert typo_edit("keyboard", kind, 0.4) != "keyboard"

    def test_kind_semantics(self):
        assert len(typo_edit("keyboard", 0, 0.0)) == len("keyboard") - 1
        assert sorted(typo_edit("keyboard", 1, 0.0)) == sorted("keyboard")
        assert len(typo_edit("keyboard", 2, 0.0)) == len("keyboard") + 1


class TestRecordPerturber:
    def test_same_seed_same_output(self):
        records = _records(40)
        config = FieldCorruptionConfig(
            p_drop_field=0.3, p_swap_fields=0.3, p_rename_field=0.3, p_value_typo=0.5
        )
        first = RecordPerturber(config, np.random.default_rng(7)).corrupt_all(records)
        second = RecordPerturber(config, np.random.default_rng(7)).corrupt_all(records)
        assert [record.values for record in first] == [
            record.values for record in second
        ]

    def test_different_seed_differs(self):
        records = _records(40)
        config = FieldCorruptionConfig(p_drop_field=0.5, p_value_typo=0.5)
        first = RecordPerturber(config, np.random.default_rng(1)).corrupt_all(records)
        second = RecordPerturber(config, np.random.default_rng(2)).corrupt_all(records)
        assert [record.values for record in first] != [
            record.values for record in second
        ]

    def test_zero_probabilities_are_identity(self):
        records = _records(10)
        corrupted = RecordPerturber(FieldCorruptionConfig()).corrupt_all(records)
        assert [record.values for record in corrupted] == [
            record.values for record in records
        ]

    def test_rename_moves_value_under_alias(self):
        records = _records(30)
        config = FieldCorruptionConfig(p_rename_field=1.0)
        corrupted = RecordPerturber(config, np.random.default_rng(0)).corrupt_all(
            records
        )
        renamed = [
            record
            for record in corrupted
            if set(record.values) - {"title", "brand", "category"}
        ]
        assert renamed, "forced renames must introduce alias keys"
        aliases = set(DEFAULT_FIELD_ALIASES.values())
        for record in renamed:
            assert set(record.values) - {"title", "brand", "category"} <= aliases

    def test_drop_nulls_a_field(self):
        records = _records(20)
        config = FieldCorruptionConfig(p_drop_field=1.0)
        corrupted = RecordPerturber(config, np.random.default_rng(0)).corrupt_all(
            records
        )
        assert all(
            any(value is None for value in record.values.values())
            for record in corrupted
        )

    def test_corrupt_dataset_reinfers_schema(self):
        dataset = Dataset(
            records=_records(25), name="toy", attributes=("title", "brand", "category")
        )
        config = FieldCorruptionConfig(p_rename_field=1.0)
        corrupted = RecordPerturber(config, np.random.default_rng(3)).corrupt_dataset(
            dataset, name="toy-corrupted"
        )
        assert corrupted.name == "toy-corrupted"
        assert set(corrupted.attributes) - set(dataset.attributes or ())
        assert [record.record_id for record in corrupted.records] == [
            record.record_id for record in dataset.records
        ]

    def test_scaled_caps_probabilities(self):
        config = FieldCorruptionConfig(p_drop_field=0.5, p_value_typo=0.9)
        heavy = config.scaled(4.0)
        assert heavy.p_drop_field == 1.0
        assert heavy.p_value_typo == 1.0
        clean = config.scaled(0.0)
        assert clean.p_drop_field == 0.0


# ---------------------------------------------------------------------------
# time-mode streaming (datasets.stream)


class TestStreamByTime:
    def _stamped(self, timestamps):
        return [
            Record(record_id=f"r{index}", values={"title": f"t{index}", "ts": str(ts)})
            for index, ts in enumerate(timestamps)
        ]

    def test_windows_anchor_at_min_timestamp(self):
        chunks = list(
            stream_chunks(
                self._stamped([10.0, 11.0, 13.5, 14.0, 20.0]),
                timestamp_attribute="ts",
                window=2.0,
            )
        )
        assert [chunk.timestamp for chunk in chunks] == [10.0, 12.0, 14.0, 20.0]
        assert [len(chunk.records) for chunk in chunks] == [2, 1, 1, 1]

    def test_empty_windows_skipped_and_indexes_contiguous(self):
        chunks = list(
            stream_chunks(
                self._stamped([0.0, 100.0]), timestamp_attribute="ts", window=1.0
            )
        )
        assert [chunk.index for chunk in chunks] == [0, 1]

    def test_stable_within_window(self):
        chunks = list(
            stream_chunks(
                self._stamped([5.0, 5.0, 5.0]), timestamp_attribute="ts", window=10.0
            )
        )
        assert [record.record_id for record in chunks[0].records] == ["r0", "r1", "r2"]

    def test_missing_timestamp_raises(self):
        records = [Record(record_id="a", values={"title": "x"})]
        with pytest.raises(DataError):
            list(stream_chunks(records, timestamp_attribute="ts", window=1.0))

    def test_mode_exclusivity(self):
        records = self._stamped([1.0])
        with pytest.raises(DataError):
            list(stream_chunks(records, 2, timestamp_attribute="ts", window=1.0))
        with pytest.raises(DataError):
            list(stream_chunks(records))
        with pytest.raises(DataError):
            list(stream_chunks(records, timestamp_attribute="ts"))

    def test_timestamped_chunks_return_original_records(self):
        records = _records(7)
        chunks = timestamped_chunks(records, chunk_size=3)
        assert [len(chunk.records) for chunk in chunks] == [3, 3, 1]
        flattened = [record for chunk in chunks for record in chunk.records]
        assert flattened == records  # identity, not stamped copies
        assert all("arrival" not in record.values for record in flattened)
        assert [chunk.timestamp for chunk in chunks] == [0.0, 3.0, 6.0]


# ---------------------------------------------------------------------------
# report schema and determinism plumbing


class TestScenarioReport:
    def _report(self) -> ScenarioReport:
        return ScenarioReport(
            name="toy",
            scenario={"type": "streaming", "params": {"chunk_size": 2}},
            seed=0,
            matrix=[
                {"cell": "a", "macro_f1": 0.5, "f1": {"equivalence": 0.5}},
                {"cell": "b", "macro_f1": 0.75, "f1": {"equivalence": 0.75}},
            ],
            summary={"final_macro_f1": 0.75},
            timings={"cells": {"a": {"wall_seconds": 0.1}}, "total_seconds": 0.2},
        )

    def test_duplicate_cells_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioReport(
                name="x", scenario={}, seed=0, matrix=[{"cell": "a"}, {"cell": "a"}]
            )

    def test_missing_cell_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioReport(name="x", scenario={}, seed=0, matrix=[{"macro_f1": 1.0}])

    def test_timings_excluded_from_deterministic_document(self):
        report = self._report()
        document = json.loads(report.to_json(include_timings=False))
        assert "timings" not in document
        assert json.loads(report.to_json())["timings"]["total_seconds"] == 0.2

    def test_roundtrip_through_file(self, tmp_path):
        report = self._report()
        path = report.write(tmp_path / "report.json")
        document = load_scenario_report(path)
        assert document["name"] == "toy"
        assert document["matrix"][1]["macro_f1"] == 0.75

    def test_load_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "not_a_report.json"
        path.write_text(json.dumps({"kind": "other"}), encoding="utf-8")
        with pytest.raises(ScenarioError):
            load_scenario_report(path)

    def test_matrix_table_joins_quality_and_latency(self):
        table = self._report().matrix_table()
        assert "f1::equivalence" in table
        assert "wall_seconds" in table
        lines = table.splitlines()
        assert any(line.startswith("a") for line in lines)


# ---------------------------------------------------------------------------
# registry family and presets


class TestScenarioRegistry:
    def test_family_registered(self):
        keys = set(SCENARIOS.keys())
        assert {"streaming", "intent_drift", "robustness_grid"} <= keys

    def test_spec_roundtrip(self):
        scenario = build_scenario(
            {"type": "streaming", "params": {"chunk_size": 3, "stream_records": 9}}
        )
        assert isinstance(scenario, StreamingScenario)
        spec = scenario.to_spec()
        assert spec["params"]["chunk_size"] == 3
        rebuilt = build_scenario(spec)
        assert rebuilt.to_spec() == spec

    def test_presets_build(self):
        for name in scenario_names():
            scenario = named_scenario(name)
            assert scenario.to_spec()["type"] == NAMED_SCENARIOS[name]["spec"]["type"]

    def test_unknown_preset_raises(self):
        with pytest.raises(ScenarioError):
            named_scenario("no-such-scenario")

    def test_invalid_params_raise(self):
        with pytest.raises(ScenarioError):
            StreamingScenario(compact="sometimes")
        with pytest.raises(ScenarioError):
            RobustnessGridScenario(levels=[])
        with pytest.raises(ScenarioError):
            RobustnessGridScenario(solver_specs=[], blocker_specs=[], retriever_specs=[])
        with pytest.raises(ScenarioError):
            RobustnessGridScenario(
                levels=[{"name": "a", "scale": 0.0}, {"name": "a", "scale": 1.0}]
            )

    def test_drift_is_a_streaming_scenario(self):
        assert issubclass(IntentDriftScenario, StreamingScenario)


# ---------------------------------------------------------------------------
# end-to-end scenario runs (tiny scales)


TINY_STREAMING = {
    "type": "streaming",
    "params": {
        "num_pairs": 60,
        "products": 6,
        "matcher_epochs": 1,
        "gnn_epochs": 1,
        "probe_count": 4,
        "stream_records": 6,
        "chunk_size": 3,
        "query_k": 3,
    },
}

TINY_GRID = {
    "type": "robustness_grid",
    "params": {
        "num_pairs": 60,
        "products": 6,
        "matcher_epochs": 1,
        "gnn_epochs": 1,
        "levels": [
            {"name": "clean", "scale": 0.0},
            {"name": "heavy", "scale": 2.0},
        ],
        "solver_specs": ["in_parallel", "naive"],
    },
}


class TestStreamingScenarioRun:
    def test_report_content_is_deterministic_and_parity_holds(self):
        first = build_scenario(TINY_STREAMING).run(seed=0, name="tiny")
        second = build_scenario(TINY_STREAMING).run(seed=0, name="tiny")
        assert first.summary["final_exact_parity"] is True
        assert first.to_json(include_timings=False) == second.to_json(
            include_timings=False
        )
        # Timings exist but never leak into the deterministic document.
        assert "cells" in first.timings
        cells = [row["cell"] for row in first.matrix]
        assert cells[0] == "initial"
        assert len(cells) == 1 + 2  # initial + ceil(6 / 3) chunks
        for row in first.matrix[1:]:
            assert set(row) >= {
                "records",
                "new_pairs",
                "compacted",
                "macro_f1",
                "staleness",
            }

    def test_report_content_is_identical_under_the_process_executor(self):
        serial = build_scenario(TINY_STREAMING).run(seed=0, name="tiny")
        processes = build_scenario(TINY_STREAMING).run(
            seed=0, executor={"type": "processes", "workers": 2}, name="tiny"
        )
        assert processes.summary["final_exact_parity"] is True
        assert serial.to_json(include_timings=False) == processes.to_json(
            include_timings=False
        )

    def test_staleness_chains_quality_deltas(self):
        report = build_scenario(TINY_STREAMING).run(seed=0)
        rows = report.matrix
        for previous, current in zip(rows, rows[1:]):
            assert current["staleness"] == pytest.approx(
                current["macro_f1"] - previous["macro_f1"], abs=1e-6
            )


class TestRobustnessGridRun:
    def test_grid_shape_and_determinism(self):
        first = build_scenario(TINY_GRID).run(seed=0, name="tiny-grid")
        second = build_scenario(TINY_GRID).run(seed=0, name="tiny-grid")
        assert first.to_json(include_timings=False) == second.to_json(
            include_timings=False
        )
        assert len(first.matrix) == 2 * 2  # levels x solvers
        assert {row["level"] for row in first.matrix} == {"clean", "heavy"}
        assert first.summary["num_cells"] == 4
        assert set(first.summary["per_level_macro_f1"]) == {"clean", "heavy"}
        for row in first.matrix:
            assert first.cell_timings(row["cell"]).get("wall_seconds", 0) > 0


# ---------------------------------------------------------------------------
# perf regression gate on the scenarios section


def _perf_report(wall: float, macro: float) -> dict:
    return {
        "schema_version": 1,
        "kind": "repro-perf",
        "workloads": [
            {
                "workload": {"name": "w"},
                "vectorized": {"end_to_end_wall_seconds": 1.0},
            }
        ],
        "scenarios": {
            "seed": 0,
            "scenarios": {
                "streaming-smoke": {
                    "report": {},
                    "headline_macro_f1": macro,
                    "wall_seconds": wall,
                }
            },
        },
    }


class TestScenarioRegressionGate:
    def test_clean_pass(self):
        problems = check_regression(_perf_report(10.0, 0.5), _perf_report(10.0, 0.5))
        assert problems == []

    def test_wall_regression_flagged(self):
        problems = check_regression(_perf_report(20.0, 0.5), _perf_report(10.0, 0.5))
        assert any("wall time regressed" in problem for problem in problems)

    def test_macro_f1_regression_flagged(self):
        problems = check_regression(_perf_report(10.0, 0.2), _perf_report(10.0, 0.5))
        assert any("macro F1 regressed" in problem for problem in problems)

    def test_missing_section_ignored(self):
        current = _perf_report(10.0, 0.5)
        del current["scenarios"]
        assert check_regression(current, _perf_report(10.0, 0.5)) == []


# ---------------------------------------------------------------------------
# chunk container sanity


def test_corpus_chunk_is_reused_by_time_mode():
    chunks = list(stream_chunks(_records(4), 2))
    assert all(isinstance(chunk, CorpusChunk) for chunk in chunks)
    assert [chunk.timestamp for chunk in chunks] == [0.0, 1.0]
