"""Self-tests of the benchmark's outside-in tracer.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

They show that the traced run measures what it claims: every span a
workload lists fires, a missing wrap target fails the run instead of
reporting zero, the untraced run refuses installed wrappers, and a delay
planted in one wrapped function lands in that layer's ``self_ms`` and in
the op latency.
"""

from __future__ import annotations

import time

import pytest

from perfbench import runner
from perfbench.layers import TARGETS, WORKLOAD_SPANS, layer_metrics
from perfbench.tracer import OP_SPAN, Span, Target, Tracer, WrapTargetMissing, installed_wrappers
from perfbench.workloads import WORKLOADS

MISSING = Target("ann.search", "repro.ann.knn", "ExactNearestNeighbors.no_such_method")


def set_up(name: str, workdir):
    workload = WORKLOADS[name](1, workdir)
    workload.setup()
    return workload


def traced_run(workload, seconds: float, tracer: Tracer):
    return workload.run_traced(
        time.perf_counter() + seconds, tracer, lambda: tracer.installed(TARGETS)
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_listed_span_fires(name, tmp_path):
    workload = set_up(name, tmp_path)
    try:
        tracer = Tracer()
        untraced, traced = traced_run(workload, 1.0, tracer)
        assert untraced.latencies and traced.latencies
        assert not untraced.failed and not traced.failed
        assert WORKLOAD_SPANS[name] <= {span.name for span in tracer.spans}
        assert workload.check() == 0
    finally:
        workload.close()
    assert installed_wrappers(TARGETS) == []


def test_missing_wrap_target_patches_nothing():
    tracer = Tracer()
    with pytest.raises(WrapTargetMissing, match="no_such_method"):
        tracer.install([*TARGETS, MISSING])
    assert installed_wrappers(TARGETS) == []


def test_missing_wrap_target_fails_the_traced_run(tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "TARGETS", (*TARGETS, MISSING))
    workload = set_up("update-stream", tmp_path)
    try:
        with pytest.raises(WrapTargetMissing):
            runner.traced_phase(workload, 0.5, tmp_path / "trace")
    finally:
        workload.close()
    assert installed_wrappers(TARGETS) == []


def test_untraced_run_refuses_installed_wrappers():
    with Tracer().installed(TARGETS):
        with pytest.raises(RuntimeError, match="tracer wrappers"):
            runner.timed_phase(None, 1.0)


def test_planted_delay_lands_in_its_layer(tmp_path, monkeypatch):
    delay_s = 0.004

    def measure(workdir):
        workload = set_up("update-stream", workdir)
        try:
            tracer = Tracer()
            _, traced = traced_run(workload, 2.0, tracer)
        finally:
            workload.close()
        metrics = layer_metrics(tracer.spans)
        return metrics, 1e3 * sorted(traced.latencies)[len(traced.latencies) // 2]

    baseline, baseline_p50 = measure(tmp_path / "baseline")

    from repro.ann.knn import ExactNearestNeighbors

    search = ExactNearestNeighbors.search

    def slow_search(self, *args, **kwargs):
        time.sleep(delay_s)
        return search(self, *args, **kwargs)

    monkeypatch.setattr(ExactNearestNeighbors, "search", slow_search)
    planted, planted_p50 = measure(tmp_path / "planted")

    planted_ms = 1e3 * delay_s * planted["ann.search.calls"]
    assert planted["ann.search.self_ms"] - baseline["ann.search.self_ms"] > 0.8 * planted_ms
    assert planted_p50 - baseline_p50 > 0.5 * planted_ms
    for layer in ("model.query.self_ms", "matching.represent.self_ms", "update.apply.self_ms"):
        assert planted[layer] - baseline[layer] < 0.2 * planted_ms


def test_self_time_and_coverage():
    ms = 1_000_000
    spans = [
        Span(1, None, 1, OP_SPAN, 0, 100 * ms, 0),
        Span(2, 1, 1, "graph.build", 10 * ms, 60 * ms, 0),
        Span(3, 2, 1, "ann.search", 20 * ms, 40 * ms, 0, items=8),
        Span(4, 1, 1, "graph.gnn_fit", 70 * ms, 80 * ms, 0),
        Span(5, 4, 1, "graph.sage_forward", 71 * ms, 79 * ms, 0),
    ]
    metrics = layer_metrics(spans)
    assert metrics["graph.build.self_ms"] == pytest.approx(30)
    assert metrics["ann.search.self_ms"] == pytest.approx(20)
    assert metrics["ann.search.rows"] == 8
    # Count-only spans leave their time with their parent.
    assert metrics["graph.gnn_fit.self_ms"] == pytest.approx(10)
    assert metrics["graph.sage_forward.calls"] == 1
    assert metrics["trace.coverage"] == pytest.approx(0.6)


def test_serve_batches_link_to_the_requests_they_served():
    ms = 1_000_000
    spans = [
        Span(1, None, 1, OP_SPAN, 0, 100 * ms, 1),
        Span(2, 1, 1, "serve.request", 1 * ms, 99 * ms, 1, 1, {"ids": ["q1"]}),
        Span(3, None, 3, "model.query", 10 * ms, 90 * ms, 2, 2, {"ids": ["q0", "q1"]}),
        Span(4, 3, 3, "ann.search", 20 * ms, 30 * ms, 2, 1),
    ]
    metrics = layer_metrics(spans)
    assert metrics["serve.queue_wait_ms"] == pytest.approx(9)
    assert metrics["serve.batch_ms"] == pytest.approx(80)
    assert metrics["serve.batch_records"] == 2
    assert metrics["model.query.self_ms"] == pytest.approx(70)
    assert metrics["ann.search.self_ms"] == pytest.approx(10)
    # The request envelope is looked through: its batch covers the op.
    assert metrics["trace.coverage"] == pytest.approx(0.8)
