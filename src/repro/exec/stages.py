"""Chunked map/reduce helpers for the embarrassingly parallel stages.

Each helper fans one pipeline stage out over an :class:`Executor` and
merges the shard outputs into a result bit-identical to the serial
computation:

* :func:`encode_pairs_sharded` — pair feature encoding over contiguous
  pair-range shards (row-independent, outputs are vertically stacked);
* :func:`run_classifier_jobs` — per-intent GNN fit/predict, one task per
  intent, with the multiplex graph shipped as plain arrays;
* (blocking joins shard per *key group* inside
  :func:`repro.blocking.base.join_blocks`, which owns the co-occurrence
  reduce step.)

Merge overhead — the wall time spent combining shard outputs back into
one result — is reported to any active
:class:`~repro.perf.instrument.PerfSession` under ``exec:merge:<stage>``
names, so the scaling-curve benchmark can separate parallel compute from
sequential merge cost.

All worker functions here are module-level and take one picklable
payload, as required by the process executor.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

import numpy as np

from ..faults import inject
from ..perf.instrument import observe
from .executors import Executor
from .plan import ShardPlan

#: Stage-name prefix of merge-overhead records in perf sessions.
MERGE_STAGE_PREFIX = "exec:merge:"


def _observe_merge(stage: str, seconds: float, items: int | None = None) -> None:
    observe(f"{MERGE_STAGE_PREFIX}{stage}", seconds, items=items)


# -------------------------------------------------------- pair feature encoding


def _encode_shard_worker(payload):
    """Encode one contiguous shard of candidate pairs (executor task)."""
    # Imported lazily: repro.matching imports this package at start-up.
    from ..matching.features import PairFeatureEncoder

    inject("exec.encode")
    feature_config, dataset, pairs = payload
    encoder = PairFeatureEncoder(feature_config)
    return encoder.encode_batch(dataset, list(pairs))


def encode_pairs_sharded(
    feature_config,
    dataset,
    pairs: Sequence,
    executor: Executor,
) -> np.ndarray:
    """Batch-encode ``pairs`` across ``executor`` workers, preserving order.

    Each shard runs :meth:`PairFeatureEncoder.encode_batch` on a fresh
    encoder (no shared caches between workers); since every feature row
    depends only on its own pair, stacking the shard matrices in plan
    order is bit-identical to one unsharded batch encode.
    """
    plan = ShardPlan.contiguous(len(pairs), executor.workers)
    payloads = [
        (feature_config, dataset, tuple(shard_pairs)) for shard_pairs in plan.take(list(pairs))
    ]
    matrices = executor.map(_encode_shard_worker, payloads)
    start = time.perf_counter()
    merged = np.vstack(matrices) if matrices else None
    _observe_merge("encode", time.perf_counter() - start, items=len(pairs))
    if merged is None:
        raise ValueError("encode_pairs_sharded requires at least one pair")
    return merged


# ------------------------------------------------------------ per-intent GNNs


def _classifier_job_worker(payload):
    """Train one per-intent GNN from shipped arrays (executor task)."""
    # Imported lazily so spawned workers resolve the full package first.
    from ..graph.sage import run_classifier_job

    inject("exec.gnn")
    graph_payload, classifier_spec, gnn_config, job = payload
    return run_classifier_job(graph_payload, classifier_spec, gnn_config, job)


def run_classifier_jobs(
    graph,
    classifier_spec: dict[str, object],
    gnn_config,
    jobs: Sequence,
    executor: Executor,
) -> list[tuple[np.ndarray, float, float]]:
    """Run one GNN fit/predict task per job (intent) through ``executor``.

    The graph ships once per task as its
    :meth:`~repro.graph.multiplex.MultiplexGraph.to_payload` arrays;
    every result tuple is ``(layer_probabilities, best_validation_f1,
    elapsed_seconds, model_state)`` in job order.
    """
    if not jobs:
        return []
    graph_payload = graph.to_payload()
    payloads = [(graph_payload, classifier_spec, gnn_config, job) for job in jobs]
    results = executor.map(_classifier_job_worker, payloads)
    _observe_merge("gnn", 0.0, items=len(jobs))
    return results
