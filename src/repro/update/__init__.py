"""Incremental corpus maintenance for fitted resolver models.

``repro.update`` lets a fitted :class:`~repro.model.ResolverModel`
absorb corpus **upserts** and **deletes** without a refit
(:meth:`~repro.model.ResolverModel.update`): retriever indexes are
delta-maintained, new candidate pairs are appended to the multiplex
graph, and per-intent GraphSAGE hidden states are refreshed only for
the touched neighbourhoods.  Each applied delta is recorded as a
fingerprint-chained :class:`UpdateSegment`, so ``save()`` appends
small sidecar segments next to the unchanged base artifact and
``load()`` replays them deterministically.  Accumulated drift
(:class:`DriftMetrics`) triggers a full compaction refit through
:class:`CompactionPolicy`.
"""

from .delta import (
    UPDATE_SEGMENT_KIND,
    CorpusDelta,
    TornSegmentWarning,
    UpdateSegment,
    build_delta,
    fingerprint_segment,
    read_segment_chain,
)
from .drift import CompactionPolicy, DriftMetrics
from .engine import (
    UpdateResult,
    apply_delta_to_model,
    compact_model,
    corpus_pair_order,
    refit_live_corpus,
)

__all__ = [
    "UPDATE_SEGMENT_KIND",
    "CompactionPolicy",
    "CorpusDelta",
    "DriftMetrics",
    "TornSegmentWarning",
    "UpdateResult",
    "UpdateSegment",
    "apply_delta_to_model",
    "build_delta",
    "compact_model",
    "corpus_pair_order",
    "fingerprint_segment",
    "read_segment_chain",
    "refit_live_corpus",
]
