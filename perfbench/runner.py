"""Run one benchmark workload and print its metrics.

Entry point: ``python3 perfbench/run.py`` (see there).

The run generates the workload's inputs from ``--seed``, sets up three
times (``setup_s`` is the median), runs the timed phase for
``--seconds``, checks the outputs untimed, and prints a human-readable
report followed by one JSON line::

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; no library function may be wrapped.  With
``--trace 1`` the timed phase alternates untraced and traced ops, the
metrics are the per-layer metrics, and the span tree is written as a
Chrome trace-event file under ``perfbench/out/``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from . import host
from .layers import TARGETS, WORKLOAD_SPANS, layer_metrics, serve_links
from .tracer import Tracer, installed_wrappers
from .workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3


def percentile_ms(latencies: list[float], q: float) -> float:
    return float(np.percentile(latencies, q)) * 1e3


def assert_untraced() -> None:
    wrapped = installed_wrappers(TARGETS)
    if wrapped:
        raise RuntimeError(f"untraced phase found tracer wrappers on {wrapped}")


def set_up(name: str, seed: int, workdir: Path):
    """Set the workload up :data:`SETUPS` times; returns it and the median set-up time."""
    seconds, workload = [], None
    for _ in range(SETUPS):
        if workload is not None:
            workload.close()
            workload = None
            host.release_free_memory()
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        start = time.perf_counter()
        workload = WORKLOADS[name](seed, workdir)
        workload.setup()
        seconds.append(time.perf_counter() - start)
    return workload, statistics.median(seconds)


def timed_phase(workload, seconds: float) -> tuple[dict[str, float], int, int]:
    """The untraced timed phase: end-to-end values, completed and raising ops."""
    assert_untraced()
    host.release_free_memory()
    host.reset_peak_rss()
    start = time.perf_counter()
    timed = workload.run(start + seconds)
    elapsed = time.perf_counter() - start
    peak_rss_mb = host.peak_rss_mb()
    assert_untraced()
    if not timed.latencies:
        raise RuntimeError("no op completed in the timed phase")
    values = {
        "op_p50_ms": percentile_ms(timed.latencies, 50),
        "op_p90_ms": percentile_ms(timed.latencies, 90),
        "ops_per_s": len(timed.latencies) / elapsed,
        "peak_rss_mb": peak_rss_mb,
    }
    return values, len(timed.latencies), timed.failed


def traced_phase(workload, seconds: float, stem: Path) -> tuple[dict[str, float], int, int]:
    """The traced timed phase: per-layer values, completed and raising ops.

    Writes the span tree to ``<stem>.trace.json``.
    """
    tracer = Tracer()
    stats = workload.server_stats()
    assert_untraced()
    untraced, traced = workload.run_traced(
        time.perf_counter() + seconds, tracer, lambda: tracer.installed(TARGETS)
    )
    assert_untraced()
    if not (traced.latencies and untraced.latencies):
        raise RuntimeError("the traced run completed no traced or no untraced op")
    missing = sorted(WORKLOAD_SPANS[workload.name] - {span.name for span in tracer.spans})
    if missing:
        raise RuntimeError(f"traced run never fired spans {missing}")
    values = layer_metrics(tracer.spans, traced.labeler_calls)
    values["serve.flushes_on_timer"] = (
        workload.server_stats()["flushes_on_timer"] - stats["flushes_on_timer"] if stats else 0
    )
    traced_p50 = percentile_ms(traced.latencies, 50)
    values["trace.op_p50_ms"] = traced_p50
    values["trace.overhead_pct"] = 100 * (traced_p50 / percentile_ms(untraced.latencies, 50) - 1)
    tracer.write_chrome_trace(stem.with_suffix(".trace.json"), serve_links(tracer.spans))
    completed = len(traced.latencies) + len(untraced.latencies)
    return values, completed, traced.failed + untraced.failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one perfbench workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}"

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workload = None
    try:
        workload, setup_s = set_up(args.workload, args.seed, workdir)
        facts = host.Facts.before()
        if args.trace:
            values, completed, raised = traced_phase(workload, args.seconds, stem)
        else:
            values, completed, raised = timed_phase(workload, args.seconds)
            values["setup_s"] = setup_s
        facts.after()
        check_start = time.perf_counter()
        check_failures = workload.check()
        check_s = time.perf_counter() - check_start
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = completed + raised
    failed = raised + check_failures
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in spec["per_layer" if args.trace else "end_to_end"]
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": facts.as_dict(),
        "check_s": check_s,
        "error_rate": failed / attempted,
    }
    print(json.dumps(report))
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:14.4f} {metric['unit']}")
    if args.trace:
        stem.with_suffix(".layers.json").write_text(json.dumps({**report, "metrics": metrics}))
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0
