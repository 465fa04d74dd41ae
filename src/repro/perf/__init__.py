"""Benchmarking, profiling, and performance-trajectory tracking.

The subsystem has three parts:

* :mod:`repro.perf.instrument` — wall-clock + RSS records
  (:class:`PerfSession`, a local list of :class:`StageRecord` entries
  that the benchmark runner fills with the calls it times and with the
  pipeline's stage events);
* :mod:`repro.perf.bench` — the pinned workload matrix executed through
  the staged :class:`~repro.pipeline.PipelineRunner`, kernel-level
  vectorized-vs-loop micro-benchmarks, and the schema-versioned
  ``BENCH_perf.json`` report with regression checking;
* :mod:`repro.perf.cli` — the ``python -m repro.perf`` entry point.

Only the dependency-free instrumentation layer is imported eagerly; the
benchmark runner (which imports the pipeline) loads lazily, so importing
this package does not import the pipeline.
"""

from __future__ import annotations

from .instrument import PerfSession, StageRecord, rss_bytes

__all__ = [
    "PerfSession",
    "StageRecord",
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
