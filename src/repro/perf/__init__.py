"""Benchmarking, profiling, and performance-trajectory tracking.

The subsystem has three parts:

* :mod:`repro.perf.instrument` — wall-clock + RSS instrumentation
  (:class:`PerfSession`, the :func:`profiled` stage decorator, and the
  :func:`observe` hook the pipeline timings report through);
* :mod:`repro.perf.bench` — the pinned workload matrix executed through
  the staged :class:`~repro.pipeline.PipelineRunner`, kernel-level
  vectorized-vs-loop micro-benchmarks, and the schema-versioned
  ``BENCH_perf.json`` report with regression checking;
* :mod:`repro.perf.cli` — the ``python -m repro.perf`` entry point.

Only the dependency-free instrumentation layer is imported eagerly; the
benchmark runner (which imports the pipeline) loads lazily so low-level
modules can use :func:`profiled` without import cycles.
"""

from __future__ import annotations

from .instrument import PerfSession, StageRecord, active_session, observe, profiled, rss_bytes

__all__ = [
    "PerfSession",
    "StageRecord",
    "active_session",
    "observe",
    "profiled",
    "rss_bytes",
    "run_perf_suite",
    "scaling_curve",
    "scenario_matrix_profile",
    "write_report",
    "check_regression",
    "SCALING_WORKER_COUNTS",
    "SCHEMA_VERSION",
]

_LAZY = {
    "run_perf_suite": "bench",
    "scaling_curve": "bench",
    "scenario_matrix_profile": "bench",
    "write_report": "bench",
    "check_regression": "bench",
    "SCALING_WORKER_COUNTS": "bench",
    "SCHEMA_VERSION": "bench",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    return getattr(module, name)
