"""Sharded parallel execution: shard plans, executors, and stage helpers.

This package is the pipeline's horizontal-scaling seam.  A
:class:`ShardPlan` partitions a stage's work (candidate pairs, blocking
key groups, intents), an :class:`Executor` — ``serial``, ``threads``, or
``processes``, all registered in :data:`repro.registry.EXECUTORS` — runs
the per-shard tasks, and the helpers in :mod:`repro.exec.stages` merge
shard outputs into results bit-identical to the serial path.  Because
results never depend on the executor, executor specs stay out of
pipeline stage fingerprints: artifacts cached by a serial run are hits
for a process-parallel run and vice versa.

>>> import repro
>>> result = repro.resolve(  # doctest: +SKIP
...     benchmark.dataset,
...     labeler=labeler,
...     executor="processes",
...     workers=4,
... )
"""

from ..exceptions import ExecutionError
from .executors import (
    AUTO_WORKERS,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    available_cpus,
    executor_spec,
    make_executor,
)
from .plan import Shard, ShardPlan
from .stages import encode_pairs_sharded, run_classifier_jobs

__all__ = [
    "AUTO_WORKERS",
    "ExecutionError",
    "Executor",
    "ProcessExecutor",
    "SerialExecutor",
    "Shard",
    "ShardPlan",
    "ThreadExecutor",
    "available_cpus",
    "encode_pairs_sharded",
    "executor_spec",
    "make_executor",
    "run_classifier_jobs",
]
