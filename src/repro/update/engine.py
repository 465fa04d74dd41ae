"""The incremental maintenance engine of :meth:`ResolverModel.update`.

Applying a :class:`~repro.update.delta.CorpusDelta` to a fitted model
delta-maintains every fitted component instead of refitting:

1. the corpus dataset is rewritten in place — modified records keep
   their position, new records append, deleted records stay as
   *tombstones* (so every persisted row index remains valid) and the
   labeled split parts are re-anchored onto the new dataset;
2. the candidate retriever absorbs the delta
   (:meth:`~repro.retrieval.candidates.CandidateRetriever.apply_delta`)
   and filters tombstones out of every ranking;
3. the representation rows of every pair a changed record belongs to
   are recomputed, and pairs the upserted records introduce (their
   retrieved corpus neighbours) are appended to the representation
   matrices and the multiplex-graph edge log, with existing node ids
   renumbered for the grown pair axis; both kinds of row come from
   stacked, row-invariant representation passes;
4. per-intent GraphSAGE corpus hidden states are refreshed only for the
   touched neighbourhoods — the frozen weights re-propagate through the
   closure of nodes whose inputs changed, level by level, leaving every
   untouched row bit-identical.

Deliberate approximations of the incremental path (each repaired by
compaction): existing nodes are not re-wired to newly introduced pairs,
tombstoned pairs keep their graph nodes, and supervision referencing
modified records goes stale.  :func:`compact_model` discards all of it
with a fresh pipeline refit over the live corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from ..ann.knn import ExactNearestNeighbors
from ..core.flexer import compute_representations
from ..data.pairs import CandidateSet, LabeledPair, RecordPair
from ..data.records import Dataset, Record
from ..data.splits import DatasetSplit
from ..exceptions import SchemaError, UpdateError
from ..graph.multiplex import MultiplexGraph, renumber_pair_nodes
from ..graph.sage import FrozenSAGE
from .delta import CorpusDelta
from .drift import DriftMetrics

__all__ = ["UpdateResult", "apply_delta_to_model", "compact_model", "corpus_pair_order"]


@dataclass
class UpdateResult:
    """Outcome of one applied delta (returned by ``model.update()``).

    Attributes
    ----------
    upserts, deletes:
        Sizes of the applied delta.
    added_records, modified_records, resurrected_records:
        How the upserts decomposed: brand-new ids, replaced ids, and
        previously tombstoned ids brought back.
    new_pairs:
        Candidate pairs the upserted records introduced into the graph.
    refreshed_pairs:
        Existing pairs whose representations (and dependent hidden
        states) were recomputed because a member record changed.
    drift:
        Post-update drift snapshot.
    compacted:
        Whether this update triggered a compaction refit.
    compaction_reasons:
        The thresholds that triggered it (empty when ``compacted`` is
        ``False``).
    """

    upserts: int
    deletes: int
    added_records: list[str]
    modified_records: list[str]
    resurrected_records: list[str]
    new_pairs: list[RecordPair]
    refreshed_pairs: list[RecordPair]
    drift: DriftMetrics
    compacted: bool = False
    compaction_reasons: list[str] = field(default_factory=list)

    def to_document(self) -> dict[str, object]:
        """JSON-plain summary (printed by the ``update`` CLI subcommand)."""
        return {
            "upserts": self.upserts,
            "deletes": self.deletes,
            "added_records": list(self.added_records),
            "modified_records": list(self.modified_records),
            "resurrected_records": list(self.resurrected_records),
            "new_pairs": [list(pair.as_tuple()) for pair in self.new_pairs],
            "refreshed_pairs": [list(pair.as_tuple()) for pair in self.refreshed_pairs],
            "drift": self.drift.to_document(),
            "compacted": self.compacted,
            "compaction_reasons": list(self.compaction_reasons),
        }


def corpus_pair_order(model) -> list[RecordPair]:
    """The canonical pair order of the model's per-pair matrices.

    Row ``i`` of every representation matrix (and pair ``i`` of every
    graph layer) corresponds to this order: the pipeline's combined
    candidate order — train, valid (when non-empty), test — followed by
    every pair appended by incremental updates.
    """
    pairs: list[RecordPair] = list(model.split.train.pairs)
    if len(model.split.valid) > 0:
        pairs.extend(model.split.valid.pairs)
    pairs.extend(model.split.test.pairs)
    pairs.extend(model.update_pairs)
    return pairs


def _split_record_ids(split: DatasetSplit) -> set[str]:
    """Every record id referenced by a labeled split pair."""
    ids: set[str] = set()
    for part in split:
        for pair in part.pairs:
            ids.add(pair.left_id)
            ids.add(pair.right_id)
    return ids


def _rebuilt_dataset(model, delta: CorpusDelta) -> Dataset:
    """The post-delta corpus: replacements in place, additions appended."""
    replacements = {record.record_id: record for record in delta.upserts}
    records: list[Record] = []
    for record in model.corpus:
        records.append(replacements.pop(record.record_id, record))
    records.extend(replacements[rid] for rid in delta.upserted_ids if rid in replacements)
    try:
        return Dataset(
            records=records,
            name=model.corpus.name,
            attributes=model.corpus.attributes,
        )
    except SchemaError as error:
        raise UpdateError(
            f"upserted records do not conform to the corpus schema: {error}"
        ) from error


def _reanchor_split(split: DatasetSplit, dataset: Dataset, intents) -> DatasetSplit:
    """The same labeled pairs, re-anchored onto the updated dataset."""

    def rebuilt(part: CandidateSet) -> CandidateSet:
        return CandidateSet(dataset, pairs=list(part), intents=intents)

    return DatasetSplit(
        train=rebuilt(split.train), valid=rebuilt(split.valid), test=rebuilt(split.test)
    )


#: Pairs per representation pass of an update: bounds the encoder's
#: temporaries (about 24 KB per pair) on a large delta.
REPRESENTATION_CHUNK_PAIRS = 256


def _pair_representations(
    model, dataset: Dataset, pairs: Sequence[RecordPair]
) -> dict[str, np.ndarray]:
    """Per-intent representation rows of ``pairs`` from one stacked pass.

    The pass is ``one_shot``: each row equals a one-pair call's bit for
    bit, whatever else the pass holds, so update replay stays
    bit-identical however deltas were batched or chunked, and the
    pairs' texts, which never recur, stay out of the encoder's text
    cache.
    """
    zeros = {intent: 0 for intent in model.intents}
    pair_set = CandidateSet(
        dataset,
        pairs=[LabeledPair(pair=pair, labels=zeros) for pair in pairs],
        intents=model.intents,
    )
    return compute_representations(
        model.solver, pair_set, model.augment_with_scores, one_shot=True
    )


def _introduced_pairs(
    model, delta: CorpusDelta, existing: set[RecordPair], pair_k: int
) -> list[RecordPair]:
    """Candidate pairs the upserted records introduce, in a stable order.

    Each upserted record is retrieved against the updated corpus
    individually (tombstones already filtered by the retriever); pairs
    already present in the split or a previous update are skipped.
    """
    if pair_k <= 0:
        return []
    introduced: list[RecordPair] = []
    seen = set(existing)
    for record in delta.upserts:
        for corpus_id in model.retriever.retrieve([record], pair_k)[0]:
            if corpus_id == record.record_id:
                continue
            pair = RecordPair(record.record_id, corpus_id)
            if pair in seen:
                continue
            seen.add(pair)
            introduced.append(pair)
    return introduced


def _append_graph_pairs(
    model,
    representations: dict[str, np.ndarray],
    old_num_pairs: int,
    new_num_pairs: int,
) -> MultiplexGraph:
    """Rebuild the graph with the grown pair axis and attach the new nodes.

    Existing edges are renumbered for the new layer stride (their order,
    and hence every old node's aggregation, is preserved exactly).  Each
    new pair receives the builder's edge pattern *as a target only*:
    intra-layer edges from its ``k`` nearest same-layer neighbours and
    inter-layer edges from its own peers in every other layer.  Existing
    nodes are deliberately not re-wired — their persisted hidden states
    must stay valid — which is the documented approximation compaction
    repairs.
    """
    payload = model.graph_payload
    num_layers = len(model.intents)
    feature_dim = int(np.asarray(payload["features"]).shape[1])
    features = np.empty((num_layers, new_num_pairs, feature_dim), dtype=np.float64)
    for layer, intent in enumerate(model.intents):
        features[layer] = representations[intent]
    graph = MultiplexGraph(
        intents=model.intents,
        num_pairs=new_num_pairs,
        features=features.reshape(num_layers * new_num_pairs, feature_dim),
        intra_edge_count=int(payload["intra_edge_count"]),
        inter_edge_count=int(payload["inter_edge_count"]),
    )
    graph.add_edges(
        renumber_pair_nodes(payload["sources"], old_num_pairs, new_num_pairs),
        renumber_pair_nodes(payload["targets"], old_num_pairs, new_num_pairs),
    )
    num_new = new_num_pairs - old_num_pairs
    if num_new == 0:
        return graph
    new_pair_indexes = np.arange(old_num_pairs, new_num_pairs, dtype=np.int64)
    k_graph = min(int(model.config.graph.k_neighbors), new_num_pairs - 1)
    if k_graph > 0:
        for layer, intent in enumerate(model.intents):
            matrix = representations[intent]
            index = ExactNearestNeighbors(metric=model.config.graph.metric).fit(matrix)
            result = index.search(
                matrix[old_num_pairs:],
                k_graph,
                exclude_self=True,
                query_offset=old_num_pairs,
            )
            effective_k = result.indices.shape[1]
            layer_start = layer * new_num_pairs
            graph.add_edges(
                layer_start + result.indices.ravel(),
                layer_start + np.repeat(new_pair_indexes, effective_k),
            )
            graph.intra_edge_count += num_new * effective_k
    for target_layer in range(num_layers):
        for source_layer in range(num_layers):
            if source_layer == target_layer:
                continue
            graph.add_edges(
                source_layer * new_num_pairs + new_pair_indexes,
                target_layer * new_num_pairs + new_pair_indexes,
            )
    graph.inter_edge_count += num_new * num_layers * (num_layers - 1)
    return graph


def _closure(operator, touched: np.ndarray) -> np.ndarray:
    """Nodes whose next-level hidden state depends on a touched node.

    ``operator[v, u] != 0`` means ``u`` sends messages to ``v``; the
    next level must be recomputed for every touched node and every node
    receiving from one.
    """
    if touched.size == 0:
        return touched
    receivers = operator[:, touched].nonzero()[0]
    return np.unique(np.concatenate([touched, receivers]))


def _refresh_hidden_states(
    model,
    graph: MultiplexGraph,
    old_num_pairs: int,
    touched_pair_indexes: Sequence[int],
) -> None:
    """Recompute per-intent hidden levels for the touched neighbourhoods.

    New pairs (indexes ``>= old_num_pairs``) have no stored state and
    are always computed; existing rows are recomputed only inside the
    propagation closure of the touched nodes.  The closure recompute is
    row-for-row the same arithmetic as a full forward pass (a CSR row
    slice aggregates exactly like the full operator), so refreshed rows
    match a from-scratch propagation bit-for-bit and untouched rows are
    left physically untouched.
    """
    num_layers = graph.num_intents
    new_num_pairs = graph.num_pairs
    pair_indexes = np.concatenate(
        [
            np.asarray(sorted(touched_pair_indexes), dtype=np.int64),
            np.arange(old_num_pairs, new_num_pairs, dtype=np.int64),
        ]
    )
    if pair_indexes.size == 0:
        return
    operator = graph.aggregation_operator(model.config.gnn.aggregator)
    features = np.asarray(graph.features, dtype=np.float64)
    layer_offsets = np.arange(num_layers, dtype=np.int64)[:, np.newaxis] * new_num_pairs
    touched_nodes = np.unique((layer_offsets + pair_indexes[np.newaxis, :]).ravel())

    for intent in model.intents:
        frozen = FrozenSAGE(model.gnn_states[intent], model.config.gnn)
        # Grow every stored level to the new pair axis; new slots start
        # at zero and are filled by the propagation below.
        expanded: list[np.ndarray] = []
        for stored in model.gnn_hiddens[intent]:
            stored = np.asarray(stored, dtype=np.float64)
            width = stored.shape[1]
            grown = np.zeros((num_layers * new_num_pairs, width), dtype=np.float64)
            grown.reshape(num_layers, new_num_pairs, width)[
                :, :old_num_pairs, :
            ] = stored.reshape(num_layers, old_num_pairs, width)
            expanded.append(grown)
        levels: list[np.ndarray] = [features, *expanded]
        changed = touched_nodes
        for level in range(frozen.num_convolutions - 1):
            changed = _closure(operator, changed)
            if changed.size == 0:
                break
            aggregated = np.asarray(operator[changed] @ levels[level])
            levels[level + 1][changed] = frozen.convolve(
                level, levels[level][changed], aggregated
            )
        model.gnn_hiddens[intent] = levels[1:]


def apply_delta_to_model(model, delta: CorpusDelta, pair_k: int | None = None) -> UpdateResult:
    """Absorb one validated delta into ``model`` in place.

    Parameters
    ----------
    model:
        The fitted :class:`~repro.model.ResolverModel` to maintain.
    delta:
        A delta validated by :func:`~repro.update.delta.build_delta`
        against the model's current corpus state.
    pair_k:
        Corpus neighbours retrieved per upserted record when
        introducing new candidate pairs; defaults to the graph's
        ``k_neighbors``.

    Segment recording and compaction-policy decisions belong to the
    caller (:meth:`ResolverModel.update`); this function performs the
    state mutation and drift bookkeeping only.
    """
    if pair_k is None:
        pair_k = int(model.config.graph.k_neighbors)

    old_corpus = model.corpus
    added = [rid for rid in delta.upserted_ids if rid not in old_corpus]
    resurrected = [rid for rid in delta.upserted_ids if rid in model.tombstones]
    modified = [
        rid
        for rid in delta.upserted_ids
        if rid in old_corpus and rid not in model.tombstones
    ]

    # 1. Corpus, split, and tombstone bookkeeping.
    dataset = _rebuilt_dataset(model, delta)
    model.tombstones -= set(resurrected)
    model.tombstones |= set(delta.deletes)
    split_ids = _split_record_ids(model.split)
    stale = (set(modified) | set(resurrected) | set(delta.deletes)) & split_ids
    model._stale_supervision += len(stale)
    model.split = _reanchor_split(model.split, dataset, model.intents)
    model.corpus = dataset

    # 2. Retriever delta.
    model.retriever.apply_delta(dataset, list(delta.upserted_ids), model.tombstones)

    # 3. Representations: refresh touched rows, append introduced pairs.
    pair_order = corpus_pair_order(model)
    old_num_pairs = int(model.graph_payload["num_pairs"])
    if len(pair_order) != old_num_pairs:
        raise UpdateError(
            f"model pair bookkeeping is inconsistent: {len(pair_order)} canonical "
            f"pairs vs {old_num_pairs} graph pairs"
        )
    changed_ids = set(modified) | set(resurrected)
    touched_pair_indexes = [
        index
        for index, pair in enumerate(pair_order)
        if pair.left_id in changed_ids or pair.right_id in changed_ids
    ]
    refreshed_pairs = [pair_order[index] for index in touched_pair_indexes]
    new_pairs = _introduced_pairs(model, delta, set(pair_order), pair_k)
    new_num_pairs = old_num_pairs + len(new_pairs)

    representations: dict[str, np.ndarray] = {}
    for intent in model.intents:
        stored = np.asarray(model.representations[intent], dtype=np.float64)
        representations[intent] = np.empty((new_num_pairs, stored.shape[1]), dtype=np.float64)
        representations[intent][:old_num_pairs] = stored
    # Refreshed rows in touched order, then the new pairs' appended rows.
    computed_pairs = refreshed_pairs + new_pairs
    row_indexes = touched_pair_indexes + list(range(old_num_pairs, new_num_pairs))
    for start in range(0, len(computed_pairs), REPRESENTATION_CHUNK_PAIRS):
        chunk = slice(start, start + REPRESENTATION_CHUNK_PAIRS)
        rows = _pair_representations(model, dataset, computed_pairs[chunk])
        for intent in model.intents:
            representations[intent][row_indexes[chunk]] = rows[intent]
    model.representations = representations
    model.update_pairs.extend(new_pairs)

    # 4. Graph append + touched-neighbourhood hidden refresh.
    graph = _append_graph_pairs(model, representations, old_num_pairs, new_num_pairs)
    _refresh_hidden_states(model, graph, old_num_pairs, touched_pair_indexes)
    model.graph_payload = graph.to_payload()

    # 5. Drift bookkeeping + cache invalidation.
    model._touched_ids |= set(added) | changed_ids | set(delta.deletes)
    model._update_generation += 1
    model._fingerprint = None
    model._default_session = None
    return UpdateResult(
        upserts=len(delta.upserts),
        deletes=len(delta.deletes),
        added_records=added,
        modified_records=modified,
        resurrected_records=resurrected,
        new_pairs=new_pairs,
        refreshed_pairs=refreshed_pairs,
        drift=model.drift_metrics(),
    )


def refit_live_corpus(model, cache=None):
    """A fresh model fitted on the live corpus with the model's supervision.

    Tombstoned records are dropped for real, split pairs referencing
    them are removed, the remaining pairs are re-anchored onto the live
    records, and the staged pipeline fits a new model from scratch with
    the model's configuration and retriever spec.  This is both the
    compaction refit and the oracle of the exact-mode parity contract:
    an updated model must answer exact queries byte-identically to it.

    ``cache`` is the :class:`~repro.pipeline.cache.ArtifactCache` the
    fit runs through; ``None`` uses a fresh private in-memory one.
    """
    # Imported lazily: repro.pipeline.runner imports repro.model at
    # start-up, which must not require this module first.
    from ..pipeline.cache import ArtifactCache
    from ..pipeline.runner import PipelineRunner

    tombstones = set(model.tombstones)
    live_records = [
        record for record in model.corpus if record.record_id not in tombstones
    ]
    if not live_records:
        raise UpdateError("a refit would leave an empty corpus")
    dataset = Dataset(
        records=live_records, name=model.corpus.name, attributes=model.corpus.attributes
    )

    def rebuilt(part: CandidateSet) -> CandidateSet:
        kept = [
            labeled
            for labeled in part
            if labeled.pair.left_id not in tombstones
            and labeled.pair.right_id not in tombstones
        ]
        return CandidateSet(dataset, pairs=kept, intents=model.intents)

    split = DatasetSplit(
        train=rebuilt(model.split.train),
        valid=rebuilt(model.split.valid),
        test=rebuilt(model.split.test),
    )
    if len(split.train) == 0 or len(split.test) == 0:
        raise UpdateError(
            "the deletes dropped every train or test pair; too little "
            "supervision is left for a refit"
        )
    runner = PipelineRunner(
        cache=cache if cache is not None else ArtifactCache(),
        augment_with_scores=model.augment_with_scores,
        feature_config=model.feature_config,
    )
    return runner.fit_model(
        split, model.intents, config=model.config, retriever=model.retriever_spec
    ).model


def compact_model(model) -> None:
    """Discard incremental state with a full refit over the live corpus.

    The model's state is replaced in place by :func:`refit_live_corpus`
    (deterministic, through a fresh private cache); update pairs,
    touched ids, stale-supervision counters, and pending segments are
    all reset, and the model is marked rebased so the next ``save()``
    writes a full artifact instead of appending segments.
    """
    fresh = refit_live_corpus(model)
    model.corpus = fresh.corpus
    model.split = fresh.split
    model.solver = fresh.solver
    model.representations = fresh.representations
    model.graph_payload = fresh.graph_payload
    model.gnn_states = fresh.gnn_states
    model.gnn_hiddens = fresh.gnn_hiddens
    model.retriever = fresh.retriever
    model.tombstones = set()
    model.update_pairs = []
    model.update_segments = []
    model._touched_ids = set()
    model._stale_supervision = 0
    model._persisted_segments = 0
    model._rebased = True
    model._update_generation += 1
    model._fingerprint = None
    model._default_session = None
