"""The FlexER pipeline (Section 4).

FlexER solves MIER in three phases:

1. **Intent-based representations** — per-intent matchers (the
   In-parallel solver by default, or the multi-task Multi-label solver)
   are trained on the training pairs and produce a latent representation
   of every candidate pair under every intent.
2. **Graph creation** — a multiplex intent graph is built over all
   candidate pairs (training, validation, and test), with intra-layer kNN
   edges and inter-layer peer edges.
3. **Message propagation and prediction per intent** — one GraphSAGE
   model per target intent is trained with supervision on the training
   pairs of that intent's layer (validation pairs select the best epoch)
   and scores every pair of the layer; test-pair predictions form the
   intent's resolution.

This module holds the pieces those phases share:
:func:`combine_candidate_sets` (the canonical candidate order),
:func:`compute_representations` (phase 1's output), and the Table 9
timing view.  :class:`repro.pipeline.PipelineRunner` runs the phases on
a split as cached, addressable stages; :func:`repro.fit` and
:func:`repro.resolve` go through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from ..data.pairs import CandidateSet
from ..exceptions import MatchingError


def combine_candidate_sets(
    parts: Sequence[CandidateSet],
) -> tuple[CandidateSet, list[np.ndarray]]:
    """Concatenate candidate sets sharing a dataset; return index ranges.

    This is the pipeline's canonical ordering contract: representations,
    graph nodes, and GNN supervision indices all refer to positions in
    the combined candidate set returned here.
    """
    non_empty = [part for part in parts if len(part) > 0]
    if not non_empty:
        raise MatchingError("cannot combine empty candidate sets")
    dataset = non_empty[0].dataset
    intents = non_empty[0].intents
    combined = CandidateSet(dataset, intents=intents)
    ranges: list[np.ndarray] = []
    cursor = 0
    for part in parts:
        indices = np.arange(cursor, cursor + len(part), dtype=np.int64)
        ranges.append(indices)
        for labeled in part:
            combined.add(labeled)
        cursor += len(part)
    return combined, ranges


def compute_representations(
    solver,
    candidates: CandidateSet,
    augment_with_scores: bool = True,
    *,
    one_shot: bool = False,
) -> dict[str, np.ndarray]:
    """Per-intent representations of ``candidates`` from a fitted solver.

    When ``augment_with_scores`` is true each intent's latent matrix is
    concatenated with the matcher's likelihood score for that intent, so
    message propagation starts from the matcher's decision (Section
    4.1.1).  Both come from the solver's ``intent_outputs``: one encode
    and one forward pass.

    The online query path passes ``one_shot=True`` for a batch that
    will not recur: each row's values then equal a one-pair call's,
    whatever else is in the batch, and its texts stay out of the
    encoder's caches.  Fit, exact replay and update keep the default.
    """
    representations, probabilities = solver.intent_outputs(candidates, one_shot=one_shot)
    if not augment_with_scores:
        return representations
    return {
        intent: np.hstack([matrix, probabilities[intent][:, np.newaxis]])
        for intent, matrix in representations.items()
    }


@dataclass(frozen=True)
class FlexERTimings:
    """Wall-clock timings of a FlexER run (the Table 9 analysis).

    A read-only view of a run's stage events: build it from
    :attr:`repro.pipeline.PipelineResult.timings`.  Each field is the
    stage's original compute time, also when the run restored the
    stage's artifact from the cache.
    """

    matcher_training_seconds: float = 0.0
    representation_seconds: float = 0.0
    graph_build_seconds: float = 0.0
    gnn_seconds_per_intent: dict[str, float] = field(default_factory=dict)

    @property
    def gnn_total_seconds(self) -> float:
        """Total GNN training + testing time over all intents."""
        return float(sum(self.gnn_seconds_per_intent.values()))

    @property
    def total_seconds(self) -> float:
        """Total wall time across all recorded stages."""
        return (
            self.matcher_training_seconds
            + self.representation_seconds
            + self.graph_build_seconds
            + self.gnn_total_seconds
        )

    def as_dict(self) -> dict[str, object]:
        """JSON-serializable stage breakdown (used by ``BENCH_perf.json``)."""
        return {
            "matcher_training_seconds": self.matcher_training_seconds,
            "representation_seconds": self.representation_seconds,
            "graph_build_seconds": self.graph_build_seconds,
            "gnn_seconds_per_intent": dict(self.gnn_seconds_per_intent),
            "gnn_total_seconds": self.gnn_total_seconds,
            "total_seconds": self.total_seconds,
        }
