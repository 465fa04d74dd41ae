"""Tests of the performance-tracking subsystem (`repro.perf`)."""

from __future__ import annotations

import json

import pytest

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
from repro.perf.instrument import PerfSession, active_session, observe, profiled, rss_bytes

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

    def test_profiled_is_noop_without_session(self):
        calls = []

        @profiled("demo")
        def work(x):
            calls.append(x)
            return x * 2

        assert active_session() is None
        assert work(3) == 6
        assert calls == [3]

    def test_profiled_records_into_active_session(self):
        @profiled("demo", items_from=lambda n: n)
        def work(n):
            return n

        session = PerfSession()
        with session.activate():
            assert active_session() is session
            work(5)
            work(7)
        assert active_session() is None
        assert session.stage_names() == ["demo"]
        assert [record.items for record in session.records] == [5, 7]

    def test_observe_reports_to_active_session_only(self):
        observe("ignored", 1.0)  # no active session: silently dropped
        session = PerfSession()
        with session.activate():
            observe("stage", 0.25, items=4)
        assert session.total_seconds("stage") == 0.25
        assert session.as_dicts()[0]["name"] == "stage"

    def test_nested_sessions_record_into_innermost(self):
        outer, inner = PerfSession(), PerfSession()
        with outer.activate():
            with inner.activate():
                observe("x", 1.0)
        assert inner.total_seconds() == 1.0
        assert outer.total_seconds() == 0.0


class TestFlexerTimingsHooks:
    def test_record_stage_feeds_session_and_fields(self):
        from repro.core import FlexERTimings

        timings = FlexERTimings()
        session = PerfSession()
        with session.activate():
            timings.record_stage("matcher-fit", 1.0)
            timings.record_stage("representation", 2.0)
            timings.record_stage("graph-build", 3.0)
            timings.record_stage("gnn", 4.0, intent="equivalence")
        assert timings.matcher_training_seconds == 1.0
        assert timings.gnn_seconds_per_intent == {"equivalence": 4.0}
        assert timings.total_seconds == 10.0
        assert session.stage_names() == [
            "flexer:matcher-fit",
            "flexer:representation",
            "flexer:graph-build",
            "flexer:gnn:equivalence",
        ]
        as_dict = timings.as_dict()
        assert as_dict["total_seconds"] == 10.0

    def test_record_stage_rejects_unknown_stage(self):
        from repro.core import FlexERTimings

        with pytest.raises(ValueError):
            FlexERTimings().record_stage("nope", 1.0)


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
