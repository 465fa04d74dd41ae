"""Chunked map/reduce helpers for the embarrassingly parallel stages.

Each helper fans one pipeline stage out over an :class:`Executor` and
merges the shard outputs into a result bit-identical to the serial
computation:

* :func:`encode_pairs_sharded` — pair feature encoding over contiguous
  pair-range shards (row-independent, outputs are vertically stacked);
* :func:`run_classifier_jobs` — per-intent GNN fit/predict, one task per
  intent, with the multiplex graph shipped as plain arrays.

(The per-intent matchers fan out inside
:class:`repro.matching.solvers.InParallelSolver`; blocking always runs
its serial join.)

All worker functions here are module-level and take one picklable
payload, as required by the process executor.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..faults import inject
from .executors import Executor


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

    The pairs are split into at most ``executor.workers`` contiguous
    ranges whose sizes differ by at most one.  Each range runs
    :meth:`PairFeatureEncoder.encode_batch` on a fresh encoder (no
    shared caches between workers); since every feature row depends only
    on its own pair, stacking the range matrices in order is
    bit-identical to one unsharded batch encode.
    """
    if not pairs:
        raise ValueError("encode_pairs_sharded requires at least one pair")
    num_shards = min(executor.workers, len(pairs))
    base, extra = divmod(len(pairs), num_shards)
    bounds = [shard * base + min(shard, extra) for shard in range(num_shards + 1)]
    payloads = [
        (feature_config, dataset, tuple(pairs[start:stop]))
        for start, stop in zip(bounds, bounds[1:])
    ]
    return np.vstack(executor.map(_encode_shard_worker, payloads))


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
    return executor.map(_classifier_job_worker, payloads)
