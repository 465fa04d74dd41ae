"""Tests of the performance-tracking subsystem (`repro.perf`)."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core import FlexERTimings
from repro.perf import bench as perf_bench
from repro.perf.bench import (
    REPORT_KIND,
    SCHEMA_VERSION,
    PerfWorkload,
    check_regression,
    load_report,
    run_perf_suite,
    write_report,
)
from repro.perf.cli import main as perf_main
from repro.perf.instrument import PerfSession, rss_bytes
from repro.pipeline import (
    STAGE_GNN,
    STAGE_GRAPH_BUILD,
    STAGE_MATCHER_FIT,
    STAGE_MODEL,
    STAGE_REPRESENTATION,
    STATUS_COMPUTED,
    STATUS_HIT,
    PipelineResult,
    StageEvent,
)

TINY_WORKLOAD = PerfWorkload(
    name="tiny_unit_test",
    dataset="amazon_mi",
    num_pairs=40,
    products_per_domain=6,
    matcher_epochs=1,
    gnn_epochs=1,
    k_neighbors=2,
    seed=7,
)


class TestInstrumentation:
    def test_rss_is_positive(self):
        assert rss_bytes() > 0

    def test_session_stage_records_wall_and_rss(self):
        session = PerfSession()
        with session.stage("work", items=10):
            sum(range(1000))
        assert len(session.records) == 1
        record = session.records[0]
        assert record.name == "work"
        assert record.wall_seconds >= 0
        assert record.items == 10
        assert record.throughput_items_per_second is not None
        assert record.rss_after_bytes >= record.rss_before_bytes >= 0

    def test_record_appends_an_externally_timed_stage(self):
        session = PerfSession()
        session.record("stage", 0.25, items=4)
        session.record("other", 0.5)
        assert session.total_seconds("stage") == 0.25
        assert session.total_seconds() == 0.75
        assert session.stage_names() == ["stage", "other"]
        first = session.as_dicts()[0]
        assert first["name"] == "stage"
        assert first["items"] == 4
        assert first["rss_before_bytes"] == first["rss_after_bytes"] > 0


class TestFlexerTimings:
    def test_timings_are_a_view_of_the_stage_events(self):
        events = [
            StageEvent(STAGE_MATCHER_FIT, "k1", STATUS_COMPUTED, 1.0),
            StageEvent(STAGE_REPRESENTATION, "k2", STATUS_HIT, 2.0),
            StageEvent(STAGE_GRAPH_BUILD, "k3", STATUS_COMPUTED, 3.0),
            StageEvent(f"{STAGE_GNN}:equivalence", "k4", STATUS_COMPUTED, 4.0),
            StageEvent(f"{STAGE_GNN}:brand", "k5", STATUS_HIT, 5.0),
            StageEvent(STAGE_MODEL, "k6", STATUS_COMPUTED, 100.0),
        ]
        timings = PipelineResult(solution=None, graph=None, events=events).timings
        assert timings == FlexERTimings(
            matcher_training_seconds=1.0,
            representation_seconds=2.0,
            graph_build_seconds=3.0,
            gnn_seconds_per_intent={"equivalence": 4.0, "brand": 5.0},
        )
        assert list(timings.gnn_seconds_per_intent) == ["equivalence", "brand"]
        assert timings.gnn_total_seconds == 9.0
        assert timings.total_seconds == 15.0
        assert timings.as_dict()["total_seconds"] == 15.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            timings.graph_build_seconds = 0.0


@pytest.fixture(scope="module")
def suite_report():
    """One tiny suite run shared by the report/regression/CLI tests."""
    return run_perf_suite(workloads=(TINY_WORKLOAD,))


class TestPerfSuite:
    def test_report_schema(self, suite_report):
        assert suite_report["schema_version"] == SCHEMA_VERSION
        assert suite_report["kind"] == REPORT_KIND
        assert suite_report["summary"]["num_workloads"] == 1
        entry = suite_report["workloads"][0]
        assert entry["workload"]["name"] == "tiny_unit_test"
        assert entry["vectorized"]["end_to_end_wall_seconds"] > 0
        stage_names = {stage["name"] for stage in entry["vectorized"]["stages"]}
        assert "pipeline-cold" in stage_names
        assert "blocking-end-to-end" in stage_names
        assert any(name.startswith("flexer:") for name in stage_names)

    def test_stages_are_the_timed_calls_plus_one_record_per_cold_event(self, suite_report):
        vectorized = suite_report["workloads"][0]["vectorized"]
        timings = vectorized["flexer_timings"]
        intents = list(timings["gnn_seconds_per_intent"])
        assert len(intents) == 5  # amazon_mi's intents
        cold_stages = [STAGE_MATCHER_FIT, STAGE_REPRESENTATION, STAGE_GRAPH_BUILD]
        cold_stages += [f"{STAGE_GNN}:{intent}" for intent in intents]
        names = [stage["name"] for stage in vectorized["stages"]]
        assert names == [
            "blocking-end-to-end",
            "pipeline-cold",
            *(f"flexer:{stage}" for stage in cold_stages),
            "pipeline-warm",
        ]
        flexer_seconds = sum(stage["wall_seconds"] for stage in vectorized["stages"][2:-1])
        assert flexer_seconds == pytest.approx(timings["total_seconds"])

    def test_kernels_are_equivalent(self, suite_report):
        kernels = suite_report["workloads"][0]["kernels"]
        names = {kernel["name"] for kernel in kernels}
        assert {
            "pair-feature-encode",
            "qgram-block-join",
            "graph-edge-construction",
            "levenshtein-batch",
        } <= names
        assert all(kernel["equivalent"] for kernel in kernels)

    def test_report_is_json_serializable_and_round_trips(self, suite_report, tmp_path):
        path = write_report(suite_report, tmp_path / "BENCH_perf.json")
        loaded = load_report(path)
        assert loaded["summary"] == json.loads(json.dumps(suite_report["summary"]))

    def test_load_report_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text("{}", encoding="utf-8")
        with pytest.raises(ValueError):
            load_report(path)


class TestRegressionCheck:
    def test_no_regression_against_itself(self, suite_report):
        assert check_regression(suite_report, suite_report) == []

    def test_detects_wall_time_regression(self, suite_report):
        slower = json.loads(json.dumps(suite_report))
        entry = slower["workloads"][0]["vectorized"]
        entry["end_to_end_wall_seconds"] = entry["end_to_end_wall_seconds"] * 10
        problems = check_regression(slower, suite_report, max_regression=0.5)
        assert len(problems) == 1
        assert "regressed" in problems[0]

    def test_schema_mismatch_is_flagged(self, suite_report):
        other = json.loads(json.dumps(suite_report))
        other["schema_version"] = SCHEMA_VERSION + 1
        problems = check_regression(other, suite_report)
        assert problems and "schema version" in problems[0]

    def test_disjoint_workloads_are_flagged(self, suite_report):
        other = json.loads(json.dumps(suite_report))
        other["workloads"][0]["workload"]["name"] = "different"
        problems = check_regression(other, suite_report)
        assert problems and "no workloads in common" in problems[0]


class TestCli:
    @pytest.fixture(autouse=True)
    def tiny_smoke(self, monkeypatch):
        monkeypatch.setattr(perf_bench, "SMOKE_WORKLOADS", (TINY_WORKLOAD,))

    def test_cli_writes_report_and_passes_check(self, tmp_path, capsys):
        output = tmp_path / "BENCH_perf.json"
        assert perf_main(["--smoke", "--output", str(output)]) == 0
        report = load_report(output)
        assert report["smoke"] is True
        assert "end_to_end_speedup" not in report["workloads"][0]
        assert "report written" in capsys.readouterr().out

    def test_cli_regression_exit_code(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        assert perf_main(["--smoke", "--output", str(baseline_path)]) == 0
        baseline = load_report(baseline_path)
        baseline["workloads"][0]["vectorized"]["end_to_end_wall_seconds"] = 1e-9
        baseline["summary"]["end_to_end_wall_seconds"] = 1e-9
        write_report(baseline, baseline_path)
        exit_code = perf_main(
            [
                "--smoke",
                "--output",
                str(tmp_path / "current.json"),
                "--check-against",
                str(baseline_path),
            ]
        )
        assert exit_code == 2

    @pytest.mark.parametrize(
        "value", ["1,x", "-3,0", "0", ""], ids=["word", "negative", "zero", "empty"]
    )
    @pytest.mark.parametrize(
        "section, option",
        [("--scaling", "--scaling-workers"), ("--retrieval-scale", "--retrieval-scale-sizes")],
        ids=["scaling-workers", "retrieval-scale-sizes"],
    )
    def test_bad_count_list_is_a_usage_error(self, tmp_path, section, option, value):
        output = tmp_path / "BENCH_perf.json"
        with pytest.raises(SystemExit) as raised:
            perf_main(["--smoke", "--output", str(output), section, f"{option}={value}"])
        assert raised.value.code == 2
        assert not output.exists()

    def test_scaling_section_shape(self, tmp_path):
        output = tmp_path / "BENCH_perf.json"
        argv = ["--smoke", "--output", str(output), "--scaling", "--scaling-workers", "1,2"]
        assert perf_main(argv + ["--scaling-executor", "threads"]) == 0
        scaling = load_report(output)["workloads"][0]["scaling"]
        assert scaling["executor"] == "threads"
        assert scaling["worker_counts"] == [1, 2]
        entries = scaling["entries"]
        assert [entry["workers"] for entry in entries] == [1, 2]
        assert [entry["executor"] for entry in entries] == ["serial", "threads"]
        assert entries[0]["end_to_end_speedup"] == 1.0
        for entry in entries:
            assert entry["end_to_end_speedup"] > 0
            assert set(entry["stage_speedups"]) == set(entry["stages"])
            assert "merge_overhead_seconds" not in entry
