"""The persistable fit artifact and the online query path.

The one-shot API (:func:`repro.resolve`) fits and predicts in a single
call, so every new record costs a full re-run.  This module provides the
production lifecycle split:

1. **fit** — :meth:`repro.Resolver.fit` (or
   :meth:`~repro.pipeline.PipelineRunner.fit_model`) trains the staged
   pipeline once over a corpus and returns a :class:`ResolverModel` — a
   self-contained, versioned artifact bundling the fitted per-intent
   matcher ``state_dict``s, the corpus representations, the multiplex
   graph payload, per-intent trained GNN parameters (plus their corpus
   hidden states), a fitted candidate retriever, and the originating
   :class:`~repro.config.FlexERConfig`;
2. **persist** — :meth:`ResolverModel.save` / :meth:`ResolverModel.load`
   round-trip the model through the fingerprinted artifact format of
   :mod:`repro.data.serialization`;
3. **serve** — :meth:`ResolverModel.query` (or a reusable
   :class:`QuerySession` for repeated micro-batches) resolves *new*
   records against the fitted corpus without refitting any component,
   using a :data:`repro.registry.CANDIDATE_RETRIEVERS` component instead
   of full-corpus blocking.

Two query modes trade parity for latency:

``"exact"`` (default)
    Replays the transductive pipeline over the corpus plus the query
    pairs with every *fitted* component restored from the model (the
    matcher-fit stage is a seeded cache hit — never a re-fit).  The
    output is bit-identical to a full ``repro.resolve()`` re-run whose
    candidate set includes the query pairs.
``"online"``
    Frozen inference: only the new pairs are encoded, the new graph
    nodes attach to their nearest corpus neighbours (corpus topology
    unchanged), and the persisted GraphSAGE weights propagate messages
    through the touched subgraph only.  A micro-batch runs as one
    stacked pass whose products are row-invariant, so each pair's
    result equals querying it alone, whatever else is in its batch.
"""

from __future__ import annotations

import json
import numbers
import time
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Mapping, Sequence

import numpy as np

from . import __version__ as _library_version
from .config import FlexERConfig
from .core.flexer import compute_representations
from .data.pairs import CandidateSet, LabeledPair, RecordPair
from .data.records import Dataset, Record
from .data.serialization import (
    artifact_base_path,
    clear_segment_paths,
    list_segment_paths,
    read_artifact,
    read_artifact_lazy,
    segment_path,
    serialize_record,
    write_artifact,
)
from .data.splits import DatasetSplit
from .exceptions import IntentError, ModelError, QueryError, SchemaError, UpdateError
from .graph.multiplex import MultiplexGraph
from .graph.sage import FrozenSAGE, GraphAggregation, GraphSAGE
from .ann.knn import ExactNearestNeighbors
from .matching.features import PairFeatureConfig
from .nn import Tensor
from .pipeline.cache import ArtifactCache
from .pipeline.fingerprint import digest, fingerprint_array
from .pipeline.runner import STAGE_MATCHER_FIT, PipelineResult, PipelineRunner, StageEvent
from .registry import CANDIDATE_RETRIEVERS, MODELS, SOLVERS
from .retrieval.candidates import CandidateRetriever, record_content_key

#: Version of the ResolverModel payload layout.  Bumped when the bundled
#: components change incompatibly; :meth:`ResolverModel.load` rejects
#: newer payloads with a clear error.
MODEL_SCHEMA_VERSION = 1

#: Document kind marker of persisted models.
MODEL_KIND = "resolver-model"

#: Separator of namespaced array keys inside the model payload.
_KEY_SEP = "::"


def fingerprint_corpus(dataset: Dataset) -> str:
    """Content fingerprint of a corpus dataset (records, schema, sources)."""
    return digest(
        "corpus",
        dataset.name,
        list(dataset.attributes or ()),
        [
            (record.record_id, record.source, serialize_record(record))
            for record in dataset
        ],
    )


def _json_plain(value: object) -> object:
    """Round-trip a document through JSON so tuples/np-scalars normalize."""
    return json.loads(json.dumps(value, sort_keys=True))


def _pairs_to_array(pairs: Sequence[RecordPair]) -> np.ndarray:
    if not pairs:
        return np.zeros((0, 2), dtype=np.str_)
    return np.array([list(pair.as_tuple()) for pair in pairs], dtype=np.str_)


@dataclass
class QueryResult:
    """Outcome of one :meth:`ResolverModel.query` micro-batch.

    Attributes
    ----------
    pairs:
        The scored (query record, corpus record) candidate pairs, in
        query-record order with each record's candidates ranked by the
        retriever.
    record_ids:
        The query record ids, in input order.
    intents:
        The intents that were predicted.
    probabilities, predictions:
        Per-intent positive-class likelihoods and binary predictions
        aligned with ``pairs``.
    candidates_per_record:
        Retrieval provenance: the ranked corpus ids of each query record.
    mode:
        ``"exact"`` or ``"online"``.
    events:
        Stage events of the exact-mode pipeline replay (``None`` for
        online inference).
    elapsed_seconds:
        Wall time of the query call.
    """

    pairs: list[RecordPair]
    record_ids: tuple[str, ...]
    intents: tuple[str, ...]
    probabilities: dict[str, np.ndarray]
    predictions: dict[str, np.ndarray]
    candidates_per_record: dict[str, list[str]]
    mode: str
    events: list[StageEvent] | None = None
    elapsed_seconds: float = 0.0

    def __len__(self) -> int:
        return len(self.pairs)

    def matches(self, intent: str, threshold: float | None = None) -> list[RecordPair]:
        """The pairs predicted positive for ``intent``."""
        if intent not in self.intents:
            raise IntentError(f"intent {intent!r} was not predicted by this query")
        if threshold is None:
            mask = self.predictions[intent] == 1
        else:
            mask = self.probabilities[intent] >= threshold
        return [pair for pair, keep in zip(self.pairs, mask.tolist()) if keep]

    def pairs_for(self, record_id: str) -> list[RecordPair]:
        """The scored pairs of one query record."""
        if record_id not in self.record_ids:
            raise QueryError(f"record {record_id!r} was not part of this query")
        return [pair for pair in self.pairs if record_id in pair.as_tuple()]

    def as_arrays(self) -> tuple[dict[str, np.ndarray], dict[str, object]]:
        """Deterministic ``(arrays, metadata)`` view for result artifacts.

        Only result content is included — never timings or stage events
        — so two runs that predict identically dump byte-identical
        artifacts (the basis of the ``query-smoke`` CI comparison).
        """
        arrays: dict[str, np.ndarray] = {"pairs": _pairs_to_array(self.pairs)}
        for intent in self.intents:
            arrays[f"probabilities::{intent}"] = self.probabilities[intent]
            arrays[f"predictions::{intent}"] = self.predictions[intent]
        metadata = {
            "intents": list(self.intents),
            "mode": self.mode,
            "num_pairs": len(self.pairs),
            "record_ids": list(self.record_ids),
            "candidates_per_record": {
                record_id: list(ids)
                for record_id, ids in self.candidates_per_record.items()
            },
        }
        return arrays, metadata


class ResolverModel:
    """A fitted, persistable FlexER resolution model.

    Instances are produced by :meth:`repro.Resolver.fit` /
    :meth:`~repro.pipeline.PipelineRunner.fit_model` or restored with
    :meth:`load`; the constructor wires already-fitted components
    together and is not meant to be called with unfitted parts.
    """

    #: Registry key in :data:`repro.registry.MODELS`.
    spec_type = "flexer"

    def __init__(
        self,
        *,
        config: FlexERConfig,
        intents: tuple[str, ...],
        corpus: Dataset,
        split: DatasetSplit,
        solver: object,
        representations: Mapping[str, np.ndarray],
        graph_payload: Mapping[str, object],
        gnn_states: Mapping[str, Mapping[str, np.ndarray]],
        gnn_hiddens: Mapping[str, Sequence[np.ndarray]],
        retriever: object,
        retriever_spec: Mapping[str, object],
        augment_with_scores: bool = True,
        feature_config: PairFeatureConfig | None = None,
    ) -> None:
        if not intents:
            raise ModelError("a resolver model needs at least one intent")
        missing = [intent for intent in intents if intent not in gnn_states]
        if missing:
            raise ModelError(f"model is missing trained GNN state for intents {missing}")
        self.config = config
        self.intents = tuple(intents)
        self.corpus = corpus
        self.split = split
        self.solver = solver
        self.representations = {
            intent: np.asarray(matrix) for intent, matrix in representations.items()
        }
        self.graph_payload = dict(graph_payload)
        self.gnn_states = {
            intent: dict(state) for intent, state in gnn_states.items()
        }
        self.gnn_hiddens = {
            intent: [np.asarray(h) for h in hiddens]
            for intent, hiddens in gnn_hiddens.items()
        }
        self.retriever = retriever
        self.retriever_spec = dict(retriever_spec)
        self.augment_with_scores = bool(augment_with_scores)
        self.feature_config = feature_config
        #: The corpus :class:`~repro.resolver.ResolverResult` of the fit
        #: that produced this model (``None`` on a loaded model).
        self.fit_result = None
        self._default_session: QuerySession | None = None
        # The fingerprint — a hash over every payload array — is
        # memoized; incremental updates (the only mutation path) reset
        # it along with every other derived cache.
        self._fingerprint: str | None = None
        # ----- incremental-update state (see repro.update) -----
        #: Deleted record ids still occupying corpus/index rows.
        self.tombstones: set[str] = set()
        #: Pairs appended by updates, after the canonical split order.
        self.update_pairs: list[RecordPair] = []
        #: Fingerprint-chained deltas applied since the last full save
        #: (or load); ``save()`` persists the yet-unwritten suffix.
        self.update_segments: list = []
        self._touched_ids: set[str] = set()
        self._stale_supervision = 0
        self._update_generation = 0
        #: Fingerprint of the base artifact the segment chain anchors to
        #: (set by ``load()``/full ``save()``; captured lazily on the
        #: first ``update()`` of a never-saved model).
        self._base_fingerprint: str | None = None
        #: How many of ``update_segments`` already exist on disk.
        self._persisted_segments = 0
        #: Set by compaction: the next ``save()`` must write a full
        #: artifact (and clear stale sidecar segments) instead of
        #: appending.
        self._rebased = False

    # ------------------------------------------------------------ construction

    @classmethod
    def from_fit(
        cls,
        *,
        config: FlexERConfig,
        intents: tuple[str, ...],
        split: DatasetSplit,
        solver: object,
        representations: Mapping[str, np.ndarray],
        graph: MultiplexGraph,
        gnn_states: Mapping[str, Mapping[str, np.ndarray]],
        retriever: CandidateRetriever,
        retriever_spec: Mapping[str, object],
        augment_with_scores: bool = True,
        feature_config: PairFeatureConfig | None = None,
    ) -> "ResolverModel":
        """Assemble a model from the internals of a staged pipeline run.

        Besides bundling the fitted state, this computes what the frozen
        online path needs ahead of time: the per-convolution corpus
        hidden states of every intent's trained GraphSAGE, and a fitted
        candidate retriever over the corpus: ``retriever`` arrives built
        from ``retriever_spec`` but not yet fitted.
        """
        corpus = split.train.dataset
        aggregation = GraphAggregation.from_graph(graph, mode=config.gnn.aggregator)
        features = Tensor(graph.features)
        hiddens: dict[str, list[np.ndarray]] = {}
        for intent in intents:
            sage = GraphSAGE(graph.feature_dim, config.gnn)
            sage.load_state_dict(dict(gnn_states[intent]))
            sage.eval()
            # The last level feeds only the prediction head; aggregation
            # during online attachment needs levels 0..L-1 (level 0 is
            # the feature matrix, stored with the graph payload).
            hiddens[intent] = sage.hidden_states(features, aggregation)[:-1]
        retriever.fit(corpus)
        return cls(
            config=config,
            intents=tuple(intents),
            corpus=corpus,
            split=split,
            solver=solver,
            representations=representations,
            graph_payload=graph.to_payload(),
            gnn_states=gnn_states,
            gnn_hiddens=hiddens,
            retriever=retriever,
            retriever_spec=CANDIDATE_RETRIEVERS.normalize(retriever_spec),
            augment_with_scores=augment_with_scores,
            feature_config=feature_config,
        )

    # -------------------------------------------------------------- payload

    def _document(self) -> dict[str, object]:
        """The JSON-plain model document (everything but the arrays)."""
        feature_doc = None
        if self.feature_config is not None:
            feature_doc = {
                "n_features": self.feature_config.n_features,
                "use_interaction_features": self.feature_config.use_interaction_features,
                "use_similarity_features": self.feature_config.use_similarity_features,
                "attributes": (
                    list(self.feature_config.attributes)
                    if self.feature_config.attributes is not None
                    else None
                ),
            }
        return _json_plain(
            {
                "schema_version": MODEL_SCHEMA_VERSION,
                "library_version": _library_version,
                "config": self.config.to_dict(),
                "intents": list(self.intents),
                "augment_with_scores": self.augment_with_scores,
                "feature_config": feature_doc,
                "retriever": self.retriever_spec,
                "corpus": {
                    "name": self.corpus.name,
                    "attributes": list(self.corpus.attributes or ()),
                    "records": [
                        {
                            "record_id": record.record_id,
                            "source": record.source,
                            "values": dict(record.values),
                        }
                        for record in self.corpus
                    ],
                },
                "graph": {
                    "num_pairs": int(self.graph_payload["num_pairs"]),
                    "intra_edge_count": int(self.graph_payload["intra_edge_count"]),
                    "inter_edge_count": int(self.graph_payload["inter_edge_count"]),
                },
                "gnn_hidden_levels": {
                    intent: len(hiddens) for intent, hiddens in self.gnn_hiddens.items()
                },
                "update": {
                    "tombstones": sorted(self.tombstones),
                    "pairs": [list(pair.as_tuple()) for pair in self.update_pairs],
                    "touched": sorted(self._touched_ids),
                    "stale_supervision": int(self._stale_supervision),
                    "generation": int(self._update_generation),
                },
            }
        )

    def payload_arrays(self) -> dict[str, np.ndarray]:
        """Every persisted array of the model, under namespaced keys."""
        arrays: dict[str, np.ndarray] = {}
        for name, array in self.solver.state_dict().items():
            arrays[f"solver{_KEY_SEP}{name}"] = array
        for intent in self.intents:
            arrays[f"repr{_KEY_SEP}{intent}"] = self.representations[intent]
            for name, array in self.gnn_states[intent].items():
                arrays[f"gnn{_KEY_SEP}{intent}{_KEY_SEP}{name}"] = array
            for level, hidden in enumerate(self.gnn_hiddens[intent], start=1):
                arrays[f"hidden{_KEY_SEP}{intent}{_KEY_SEP}{level}"] = hidden
        arrays["graph::features"] = np.asarray(self.graph_payload["features"])
        arrays["graph::sources"] = np.asarray(self.graph_payload["sources"])
        arrays["graph::targets"] = np.asarray(self.graph_payload["targets"])
        for part_name, part in (
            ("train", self.split.train),
            ("valid", self.split.valid),
            ("test", self.split.test),
        ):
            arrays[f"split{_KEY_SEP}{part_name}{_KEY_SEP}pairs"] = _pairs_to_array(part.pairs)
            arrays[f"split{_KEY_SEP}{part_name}{_KEY_SEP}labels"] = part.label_matrix(
                self.intents
            )
        for name, array in self.retriever.state_arrays().items():
            arrays[f"retriever{_KEY_SEP}{name}"] = array
        return arrays

    @staticmethod
    def _fingerprint_of(
        document: Mapping[str, object], arrays: Mapping[str, np.ndarray]
    ) -> str:
        return digest(
            "resolver-model",
            document,
            sorted((key, fingerprint_array(array)) for key, array in arrays.items()),
        )

    def fingerprint(self) -> str:
        """Content fingerprint of the model (document + every array).

        Memoized: the model is immutable after construction and hashing
        every payload array is the dominant cost of persisting it, so
        ``save()`` followed by ``describe()`` pays it once.
        """
        if self._fingerprint is None:
            self._fingerprint = self._fingerprint_of(
                self._document(), self.payload_arrays()
            )
        return self._fingerprint

    def to_payload(self) -> tuple[dict[str, np.ndarray], dict[str, object]]:
        """The ``(arrays, metadata)`` pair persisted by :meth:`save`."""
        metadata = {
            "kind": MODEL_KIND,
            "model": self._document(),
            "fingerprint": self.fingerprint(),
        }
        return self.payload_arrays(), metadata

    def to_spec(self) -> dict[str, object]:
        """Registry spec of the model: its JSON document as parameters.

        Together with :meth:`payload_arrays` this is the full model;
        ``MODELS.create(model.to_spec(), arrays=model.payload_arrays())``
        rebuilds an equivalent instance.
        """
        return {"type": self.spec_type, "params": {"document": self._document()}}

    @classmethod
    def from_spec(
        cls, params: Mapping[str, object], *, arrays: Mapping[str, np.ndarray]
    ) -> "ResolverModel":
        """Rebuild the model from its spec document plus payload arrays."""
        return cls._restore(dict(params["document"]), dict(arrays))

    # ------------------------------------------------------------- persistence

    def save(self, path: str | Path) -> Path:
        """Persist the model as a fingerprinted ``.npz`` artifact.

        A model that has absorbed incremental updates since it was
        loaded from (or fully saved to) ``path`` does **not** rewrite
        the base artifact: the pending
        :class:`~repro.update.UpdateSegment`\\ s are appended as tiny
        ``<stem>.upd-NNNN.npz`` sidecar files instead, leaving the base
        bytes untouched.  :meth:`load` replays the chain
        deterministically, so the round-trip is bit-identical to the
        in-memory state.  A full artifact is written whenever appending
        is not provably safe — new path, missing/mismatched base, a
        compaction rebase — and stale sidecars are cleared.
        """
        base = artifact_base_path(path)
        if self._can_append_segments(base):
            for segment in self.update_segments[self._persisted_segments :]:
                write_artifact(segment_path(base, segment.index), {}, segment.to_metadata())
            self._persisted_segments = len(self.update_segments)
            return base
        arrays, metadata = self.to_payload()
        result = write_artifact(base, arrays, metadata)
        clear_segment_paths(base)
        # The written artifact *contains* every applied delta, so the
        # chain restarts from this file as the new base.
        self._base_fingerprint = str(metadata["fingerprint"])
        self.update_segments = []
        self._persisted_segments = 0
        self._rebased = False
        return result

    def _can_append_segments(self, base: Path) -> bool:
        """Whether ``save(base)`` may append segments instead of rewriting.

        Requires an un-rebased model whose known base fingerprint
        matches the artifact on disk, with the on-disk segment chain
        exactly matching the already-persisted prefix of
        ``update_segments`` — anything else falls back to a full write.
        """
        if self._rebased or self._base_fingerprint is None:
            return False
        if not base.exists():
            return False
        try:
            _, metadata = read_artifact_lazy(base)
        except Exception:
            return False
        if metadata.get("fingerprint") != self._base_fingerprint:
            return False
        on_disk = list_segment_paths(base)
        if len(on_disk) != self._persisted_segments:
            return False
        for position, segment_file in enumerate(on_disk):
            try:
                _, segment_meta = read_artifact(segment_file)
            except Exception:
                return False
            if segment_meta.get("fingerprint") != self.update_segments[position].fingerprint:
                return False
        return True

    @classmethod
    def load(
        cls, path: str | Path, mmap: bool = False, verify: bool | None = None
    ) -> "ResolverModel":
        """Load a model persisted by :meth:`save`.

        Raises :class:`~repro.exceptions.ModelError` with a clear message
        when the file is not a resolver model, was written by a newer
        model schema, or fails fingerprint verification.

        Parameters
        ----------
        path:
            The ``.npz`` artifact written by :meth:`save`.
        mmap:
            Load the payload arrays as read-only memory maps instead of
            materializing them (``np.savez`` members are stored
            uncompressed, so they map in place).  Pages are faulted in
            on demand and stay evictable, which keeps resident memory
            bounded when many models are co-resident — the mode the
            :class:`repro.serve.ModelRegistry` uses.  Query outputs are
            byte-identical to an eager load (asserted in tests).
        verify:
            Whether to recompute and check the content fingerprint.
            Defaults to ``not mmap``: verification must read every
            payload byte, which would defeat lazy mapping.

        Example
        -------
        >>> model = ResolverModel.load("resolver_model.npz")  # doctest: +SKIP
        >>> served = ResolverModel.load("resolver_model.npz", mmap=True)  # doctest: +SKIP
        """
        if mmap:
            arrays, metadata = read_artifact_lazy(path)
        else:
            arrays, metadata = read_artifact(path)
        if verify is None:
            verify = not mmap
        if metadata.get("kind") != MODEL_KIND:
            raise ModelError(f"{path} is not a resolver model artifact")
        # Schema compatibility is reported before fingerprint integrity:
        # a newer release may legitimately fingerprint its payload
        # differently, and "upgrade the library" is the actionable error.
        document = metadata.get("model")
        if isinstance(document, Mapping):
            version = document.get("schema_version")
            if not isinstance(version, int) or version > MODEL_SCHEMA_VERSION:
                raise ModelError(
                    f"model {path} was written with schema version {version!r}, "
                    f"but this build reads versions up to {MODEL_SCHEMA_VERSION}; "
                    f"upgrade the repro library (or re-fit the model) to use it"
                )
        expected = metadata.get("fingerprint")
        if expected is None:
            # Every save() stamps a fingerprint; its absence is itself
            # evidence the artifact was modified.
            raise ModelError(
                f"model artifact {path} carries no fingerprint; the file was "
                f"modified after saving"
            )
        if verify:
            # Verify the *stored* document and arrays exactly as persisted —
            # recomputing from a restored model would re-stamp the current
            # library version and spuriously reject artifacts saved by an
            # older (schema-compatible) release.
            actual = (
                cls._fingerprint_of(document, arrays)
                if isinstance(document, Mapping)
                else "<no document>"
            )
            if expected != actual:
                raise ModelError(
                    f"model artifact {path} failed fingerprint verification "
                    f"(stored {str(expected)[:12]}…, recomputed {actual[:12]}…); "
                    f"the file is corrupt or was modified after saving"
                )
        model = cls.from_payload(arrays, metadata, source=str(path))
        model._base_fingerprint = str(expected)
        model._replay_segments(artifact_base_path(path))
        return model

    def _replay_segments(self, base: Path) -> None:
        """Replay the on-disk update-segment chain over the base state.

        Each sidecar is fingerprint-verified and must anchor to this
        base and chain to its predecessor; the recorded deltas are then
        re-applied through the deterministic update engine, so the
        restored model is bit-identical to the one that wrote the
        segments.  Legacy artifacts (no sidecars) skip this entirely.

        A torn *trailing* segment — a crash mid-append left a truncated
        file — is quarantined by :func:`repro.update.read_segment_chain`
        and the chain recovers at its last valid link (with a
        :class:`~repro.update.TornSegmentWarning`) instead of failing
        the load; tampered or out-of-order segments still raise.
        """
        from .update.delta import read_segment_chain
        from .update.engine import apply_delta_to_model

        chain, _recovered = read_segment_chain(base)
        previous = self._base_fingerprint
        for position, (segment_file, segment) in enumerate(chain, start=1):
            if segment.index != position:
                raise ModelError(
                    f"update segment {segment_file} carries index {segment.index}, "
                    f"expected {position}"
                )
            if segment.base_fingerprint != self._base_fingerprint:
                raise ModelError(
                    f"update segment {segment_file} anchors to base "
                    f"{segment.base_fingerprint[:12]}…, but {base} has fingerprint "
                    f"{str(self._base_fingerprint)[:12]}…"
                )
            if segment.parent_fingerprint != previous:
                raise ModelError(
                    f"update segment {segment_file} does not chain to its "
                    f"predecessor (expected parent {str(previous)[:12]}…, found "
                    f"{segment.parent_fingerprint[:12]}…)"
                )
            apply_delta_to_model(self, segment.delta)
            self.update_segments.append(segment)
            previous = segment.fingerprint
        self._persisted_segments = len(chain)

    @classmethod
    def from_payload(
        cls,
        arrays: Mapping[str, np.ndarray],
        metadata: Mapping[str, object],
        source: str = "<payload>",
    ) -> "ResolverModel":
        """Rebuild a model from ``(arrays, metadata)`` (no fingerprint check)."""
        document = metadata.get("model")
        if not isinstance(document, Mapping):
            raise ModelError(f"{source} carries no model document")
        version = document.get("schema_version")
        if not isinstance(version, int) or version > MODEL_SCHEMA_VERSION:
            raise ModelError(
                f"model {source} was written with schema version {version!r}, but "
                f"this build reads versions up to {MODEL_SCHEMA_VERSION}; upgrade "
                f"the repro library (or re-fit the model) to use it"
            )
        return cls._restore(dict(document), dict(arrays))

    @classmethod
    def _restore(
        cls, document: dict[str, object], arrays: dict[str, np.ndarray]
    ) -> "ResolverModel":
        config = FlexERConfig.from_dict(document["config"])
        intents = tuple(document["intents"])
        corpus_doc = document["corpus"]
        corpus = Dataset(
            records=[
                Record(
                    record_id=entry["record_id"],
                    values=entry["values"],
                    source=entry["source"],
                )
                for entry in corpus_doc["records"]
            ],
            name=corpus_doc["name"],
            attributes=tuple(corpus_doc["attributes"]) or None,
        )
        feature_doc = document.get("feature_config")
        feature_config = None
        if feature_doc is not None:
            feature_config = PairFeatureConfig(
                n_features=feature_doc["n_features"],
                use_interaction_features=feature_doc["use_interaction_features"],
                use_similarity_features=feature_doc["use_similarity_features"],
                attributes=(
                    tuple(feature_doc["attributes"])
                    if feature_doc["attributes"] is not None
                    else None
                ),
            )

        def part(name: str) -> CandidateSet:
            """Rebuild one labeled split part from its serialized arrays."""
            pair_array = arrays[f"split{_KEY_SEP}{name}{_KEY_SEP}pairs"]
            label_array = arrays[f"split{_KEY_SEP}{name}{_KEY_SEP}labels"]
            candidates = CandidateSet(corpus, intents=intents)
            for row in range(pair_array.shape[0]):
                labels = {
                    intent: int(label_array[row, column])
                    for column, intent in enumerate(intents)
                }
                candidates.add(
                    LabeledPair(
                        pair=RecordPair(str(pair_array[row, 0]), str(pair_array[row, 1])),
                        labels=labels,
                    )
                )
            return candidates

        split = DatasetSplit(train=part("train"), valid=part("valid"), test=part("test"))

        solver = SOLVERS.create(
            config.solver,
            intents=intents,
            matcher_config=config.matcher,
            feature_config=feature_config,
        )
        solver_state = {
            key[len(f"solver{_KEY_SEP}") :]: array
            for key, array in arrays.items()
            if key.startswith(f"solver{_KEY_SEP}")
        }
        if not solver_state:
            raise ModelError("model payload carries no fitted solver state")
        solver.load_state_dict(solver_state)

        representations = {
            intent: arrays[f"repr{_KEY_SEP}{intent}"] for intent in intents
        }
        graph_doc = document["graph"]
        graph_payload = {
            "intents": list(intents),
            "num_pairs": int(graph_doc["num_pairs"]),
            "features": arrays["graph::features"],
            "sources": arrays["graph::sources"],
            "targets": arrays["graph::targets"],
            "intra_edge_count": int(graph_doc["intra_edge_count"]),
            "inter_edge_count": int(graph_doc["inter_edge_count"]),
        }
        gnn_states = {
            intent: {
                key[len(f"gnn{_KEY_SEP}{intent}{_KEY_SEP}") :]: array
                for key, array in arrays.items()
                if key.startswith(f"gnn{_KEY_SEP}{intent}{_KEY_SEP}")
            }
            for intent in intents
        }
        hidden_levels = document.get("gnn_hidden_levels", {})
        gnn_hiddens = {
            intent: [
                arrays[f"hidden{_KEY_SEP}{intent}{_KEY_SEP}{level}"]
                for level in range(1, int(hidden_levels.get(intent, 0)) + 1)
            ]
            for intent in intents
        }
        retriever_spec = CANDIDATE_RETRIEVERS.normalize(document["retriever"])
        retriever = CANDIDATE_RETRIEVERS.create(retriever_spec)
        retriever.load_state(
            {
                key[len(f"retriever{_KEY_SEP}") :]: array
                for key, array in arrays.items()
                if key.startswith(f"retriever{_KEY_SEP}")
            },
            corpus,
        )
        # Incremental-update state (absent on legacy artifacts).
        update_doc = document.get("update") or {}
        tombstones = set(update_doc.get("tombstones", ()))
        if tombstones:
            retriever.set_tombstones(tombstones)
        model = cls(
            config=config,
            intents=intents,
            corpus=corpus,
            split=split,
            solver=solver,
            representations=representations,
            graph_payload=graph_payload,
            gnn_states=gnn_states,
            gnn_hiddens=gnn_hiddens,
            retriever=retriever,
            retriever_spec=retriever_spec,
            augment_with_scores=bool(document["augment_with_scores"]),
            feature_config=feature_config,
        )
        model.tombstones = tombstones
        model.update_pairs = [
            RecordPair(str(left), str(right))
            for left, right in update_doc.get("pairs", ())
        ]
        model._touched_ids = set(update_doc.get("touched", ()))
        model._stale_supervision = int(update_doc.get("stale_supervision", 0))
        model._update_generation = int(update_doc.get("generation", 0))
        return model

    # ------------------------------------------------------------------ query

    def session(self) -> "QuerySession":
        """A reusable query session (shared caches across micro-batches)."""
        return QuerySession(self)

    def query(
        self,
        records: Sequence[Record],
        intents: Sequence[str] | None = None,
        k: int = 5,
        mode: str = "exact",
    ) -> QueryResult:
        """Resolve new ``records`` against the fitted corpus.

        See :meth:`QuerySession.query`; repeated micro-batches should go
        through one :meth:`session` — this convenience keeps a default
        session alive behind the scenes.
        """
        if self._default_session is None:
            self._default_session = self.session()
        return self._default_session.query(records, intents=intents, k=k, mode=mode)

    # ----------------------------------------------------------------- update

    def drift_metrics(self):
        """Current :class:`~repro.update.DriftMetrics` snapshot."""
        # Imported lazily: repro.update reaches back into the pipeline
        # (and hence this module) at import time.
        from .update import DriftMetrics

        return DriftMetrics(
            corpus_records=len(self.corpus),
            tombstone_records=len(self.tombstones),
            touched_records=len(self._touched_ids),
            update_generations=self._update_generation,
            stale_supervision=self._stale_supervision,
        )

    def update(
        self,
        upserts: Sequence[Record] = (),
        deletes: Sequence[str] = (),
        *,
        policy=None,
        compact: str = "auto",
    ):
        """Absorb corpus upserts and deletes without refitting.

        Modified records are re-encoded in place, new records are
        indexed and paired against the corpus (their pairs join the
        multiplex graph), deleted records become tombstones filtered
        from retrieval, and the per-intent GraphSAGE hidden states are
        refreshed only for the touched neighbourhoods.  Each applied
        delta is recorded as a fingerprint-chained segment so
        :meth:`save` can append it next to the unchanged base artifact.

        Parameters
        ----------
        upserts:
            Records to insert (new ids) or replace (existing ids).
        deletes:
            Existing record ids to delete.
        policy:
            :class:`~repro.update.CompactionPolicy` deciding when
            accumulated drift triggers a full refit; ``None`` uses the
            default thresholds.
        compact:
            ``"auto"`` (refit when the policy says so), ``"never"``
            (only incremental maintenance), or ``"force"`` (refit after
            applying this delta regardless of drift).

        Returns the :class:`~repro.update.UpdateResult` of the applied
        delta.  Raises :class:`~repro.exceptions.UpdateError` for
        invalid deltas (unknown deletes, duplicate ids, schema
        violations, ...).
        """
        from .update import CompactionPolicy, UpdateSegment, build_delta
        from .update.engine import apply_delta_to_model, compact_model

        if compact not in ("auto", "never", "force"):
            raise UpdateError(f"unknown compact setting: {compact!r}")
        delta = build_delta(self.corpus, self.tombstones, upserts=upserts, deletes=deletes)
        if self._base_fingerprint is None:
            # Never persisted: anchor the chain to the pre-update state
            # (what save() would have stamped before this delta).
            self._base_fingerprint = self.fingerprint()
        parent = (
            self.update_segments[-1].fingerprint
            if self.update_segments
            else self._base_fingerprint
        )
        index = len(self.update_segments) + 1
        result = apply_delta_to_model(self, delta)
        self.update_segments.append(
            UpdateSegment.build(index, delta, self._base_fingerprint, parent)
        )
        if compact != "never":
            effective_policy = policy if policy is not None else CompactionPolicy()
            reasons = (
                ["forced"]
                if compact == "force"
                else effective_policy.reasons(result.drift)
            )
            if reasons:
                compact_model(self)
                result.compacted = True
                result.compaction_reasons = reasons
                result.drift = self.drift_metrics()
        return result

    def compact(self) -> None:
        """Refit over the live corpus, discarding all incremental state.

        See :func:`repro.update.compact_model`; the next :meth:`save`
        writes a full (rebased) artifact.
        """
        from .update.engine import compact_model

        compact_model(self)

    def describe(self) -> dict[str, object]:
        """Summary of the fitted model (sizes, components, update state)."""
        drift = self.drift_metrics()
        return {
            "intents": list(self.intents),
            "corpus_records": len(self.corpus),
            "corpus_live_records": drift.live_records,
            "corpus_pairs": {
                "train": len(self.split.train),
                "valid": len(self.split.valid),
                "test": len(self.split.test),
            },
            "update_pairs": len(self.update_pairs),
            "solver": str(SOLVERS.normalize(self.config.solver)["type"]),
            "retriever": str(self.retriever_spec["type"]),
            "graph_nodes": int(self.graph_payload["num_pairs"]) * len(self.intents),
            "schema_version": MODEL_SCHEMA_VERSION,
            "fingerprint": self.fingerprint(),
            "base_fingerprint": self._base_fingerprint,
            "update_generations": drift.update_generations,
            "tombstone_ratio": drift.tombstone_ratio,
            "stale_supervision": drift.stale_supervision,
        }


MODELS.register(ResolverModel.spec_type, ResolverModel)


class QuerySession:
    """Serve repeated query micro-batches from one fitted model.

    The session owns the state that should persist *across* queries: the
    exact-mode pipeline runner (whose artifact cache is seeded with the
    model's matcher state, so the matcher-fit stage always hits), the
    per-layer nearest-neighbour indexes over the corpus representations,
    and the frozen per-intent GraphSAGE states.

    Parameters
    ----------
    model:
        The fitted model to serve.
    """

    #: In-memory artifact bound of the exact-mode replay cache.  Each
    #: distinct micro-batch leaves representation/graph/GNN artifacts
    #: behind (that is what makes *repeated* batches cache hits); once
    #: the cache exceeds this many artifacts it is pruned back to the
    #: seeded matcher state so a long-lived session cannot grow without
    #: bound.
    EXACT_CACHE_MAX_ARTIFACTS = 64

    def __init__(self, model: ResolverModel) -> None:
        self.model = model
        self._runner: PipelineRunner | None = None
        self._layer_indexes: dict[str, ExactNearestNeighbors] = {}
        self._frozen: dict[str, FrozenSAGE] = {}
        self._model_generation = model._update_generation

    # -------------------------------------------------------------- plumbing

    def _sync_generation(self) -> None:
        """Drop caches derived from model state an update has replaced.

        Incremental updates (and compaction refits) mutate the model in
        place and bump its generation counter; a long-lived session must
        then rebuild its seeded exact-mode runner, per-layer kNN
        indexes, and frozen GNN states from the current state.  In-flight
        queries are unaffected — they hold references to the arrays they
        started with.
        """
        if self._model_generation != self.model._update_generation:
            self._runner = None
            self._layer_indexes.clear()
            self._frozen.clear()
            self._model_generation = self.model._update_generation

    def _exact_runner(self) -> PipelineRunner:
        """The seeded pipeline runner of the exact replay path."""
        if self._runner is None:
            model = self.model
            runner = PipelineRunner(
                cache=ArtifactCache(),
                augment_with_scores=model.augment_with_scores,
                feature_config=model.feature_config,
                executor="serial",
            )
            runner.seed_matcher_artifact(
                model.split.train,
                model.intents,
                model.config,
                model.solver.state_dict(),
            )
            self._runner = runner
        return self._runner

    def _layer_index(self, intent: str) -> ExactNearestNeighbors:
        index = self._layer_indexes.get(intent)
        if index is None:
            index = ExactNearestNeighbors(metric=self.model.config.graph.metric)
            index.fit(self.model.representations[intent])
            self._layer_indexes[intent] = index
        return index

    def _frozen_sage(self, intent: str) -> FrozenSAGE:
        frozen = self._frozen.get(intent)
        if frozen is None:
            frozen = FrozenSAGE(self.model.gnn_states[intent], self.model.config.gnn)
            self._frozen[intent] = frozen
        return frozen

    def validate(
        self,
        records: Sequence[Record],
        intents: Sequence[str] | None = None,
        k: int = 5,
    ) -> list[Record]:
        """Validate a query batch without running it.

        Raises what :meth:`query` raises for the same arguments, so a
        server can reject a bad request before admitting it to a batch.
        """
        records = self._validate_records(records)
        self._resolve_intents(intents)
        self._validate_k(k)
        return records

    def _validate_records(self, records: Sequence[Record]) -> list[Record]:
        records = list(records)
        if not records:
            raise QueryError("query requires at least one record")
        seen: set[str] = set()
        for record in records:
            if not isinstance(record, Record):
                raise QueryError(
                    f"query accepts Record objects, got {type(record).__name__}"
                )
            if record.record_id in seen:
                raise QueryError(f"duplicate query record id: {record.record_id!r}")
            if record.record_id in self.model.corpus:
                raise QueryError(
                    f"record {record.record_id!r} is already part of the fitted "
                    f"corpus; query() resolves *new* records"
                )
            seen.add(record.record_id)
        return records

    @staticmethod
    def _validate_k(k: object) -> None:
        # bool is an Integral too; floats and strings are never truncated.
        if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
            raise QueryError(f"k must be an integer >= 1, got {k!r}")

    def _resolve_intents(self, intents: Sequence[str] | None) -> tuple[str, ...]:
        if intents is None:
            return self.model.intents
        unknown = set(intents) - set(self.model.intents)
        if unknown:
            raise IntentError(
                f"requested intents {sorted(unknown)} are not part of the model "
                f"(available: {sorted(self.model.intents)})"
            )
        return tuple(intents)

    def _extended_dataset(self, records: Sequence[Record]) -> Dataset:
        corpus = self.model.corpus
        try:
            return Dataset(
                records=list(corpus.records) + list(records),
                name=corpus.name,
                attributes=corpus.attributes,
            )
        except SchemaError as error:
            raise QueryError(
                f"query records do not conform to the corpus schema: {error}"
            ) from error

    def _retrieve(
        self, records: Sequence[Record], k: int
    ) -> tuple[list[RecordPair], dict[str, list[str]]]:
        # Retrieval ranks by record *content* only, so duplicate records
        # inside one batch (common under high-QPS serving where many
        # clients ask about the same entity) share one ranking instead of
        # being re-ranked per occurrence.
        unique_records: list[Record] = []
        slot_by_content: dict[tuple, int] = {}
        slots: list[int] = []
        for record in records:
            key = record_content_key(record)
            slot = slot_by_content.get(key)
            if slot is None:
                slot = len(unique_records)
                slot_by_content[key] = slot
                unique_records.append(record)
            slots.append(slot)
        candidates = self.model.retriever.retrieve(unique_records, k)
        pairs: list[RecordPair] = []
        per_record: dict[str, list[str]] = {}
        for record, slot in zip(records, slots):
            corpus_ids = candidates[slot]
            per_record[record.record_id] = list(corpus_ids)
            for corpus_id in corpus_ids:
                pairs.append(RecordPair(record.record_id, corpus_id))
        return pairs, per_record

    def _query_candidates(
        self, extended: Dataset, pairs: Sequence[RecordPair]
    ) -> CandidateSet:
        """Query pairs as a zero-labeled candidate set (labels unused)."""
        zeros = {intent: 0 for intent in self.model.intents}
        candidates = CandidateSet(extended, intents=self.model.intents)
        for pair in pairs:
            candidates.add(LabeledPair(pair=pair, labels=zeros))
        return candidates

    def _empty_result(
        self,
        records: Sequence[Record],
        intents: tuple[str, ...],
        per_record: dict[str, list[str]],
        mode: str,
        start: float,
    ) -> QueryResult:
        empty = np.zeros(0, dtype=np.float64)
        return QueryResult(
            pairs=[],
            record_ids=tuple(record.record_id for record in records),
            intents=intents,
            probabilities={intent: empty.copy() for intent in intents},
            predictions={intent: empty.astype(np.int64) for intent in intents},
            candidates_per_record=per_record,
            mode=mode,
            elapsed_seconds=time.perf_counter() - start,
        )

    # ----------------------------------------------------------------- query

    def query(
        self,
        records: Sequence[Record],
        intents: Sequence[str] | None = None,
        k: int = 5,
        mode: str = "exact",
    ) -> QueryResult:
        """Resolve a micro-batch of new records against the corpus.

        Parameters
        ----------
        records:
            New records (ids must not collide with corpus record ids).
        intents:
            Intents to predict; defaults to every model intent.
        k:
            Candidate corpus records retrieved per query record: an
            integer >= 1, else :class:`~repro.exceptions.QueryError`.
        mode:
            ``"exact"`` (transductive replay, bit-identical to a full
            re-run including these pairs) or ``"online"`` (frozen-GNN
            incremental inference over the touched subgraph).
        """
        if mode not in ("exact", "online"):
            raise QueryError(f"unknown query mode: {mode!r}")
        start = time.perf_counter()
        self._sync_generation()
        records = self._validate_records(records)
        requested = self._resolve_intents(intents)
        self._validate_k(k)
        pairs, per_record = self._retrieve(records, k)
        if not pairs:
            return self._empty_result(records, requested, per_record, mode, start)
        extended = self._extended_dataset(records)
        query_candidates = self._query_candidates(extended, pairs)
        if mode == "exact":
            probabilities, events = self._query_exact(
                extended, query_candidates, requested
            )
        else:
            probabilities = self._query_online(query_candidates, requested)
            events = None
        return QueryResult(
            pairs=pairs,
            record_ids=tuple(record.record_id for record in records),
            intents=requested,
            probabilities=probabilities,
            predictions={
                intent: (probabilities[intent] >= 0.5).astype(np.int64)
                for intent in requested
            },
            candidates_per_record=per_record,
            mode=mode,
            events=events,
            elapsed_seconds=time.perf_counter() - start,
        )

    # ------------------------------------------------------------ exact mode

    def _query_exact(
        self,
        extended: Dataset,
        query_candidates: CandidateSet,
        requested: tuple[str, ...],
    ) -> tuple[dict[str, np.ndarray], list[StageEvent]]:
        """Replay the transductive pipeline over corpus + query pairs.

        The corpus split is rebuilt over the extended dataset (same
        pairs, same labels — fingerprints are unchanged), the query
        pairs are appended to the test part, and the staged pipeline
        runs with the matcher-fit stage seeded from the model's solver
        state.  The stage hit is asserted: the exact path must *restore*
        matchers, never re-fit them.
        """
        model = self.model
        runner = self._exact_runner()
        if runner.cache.memory_artifacts > self.EXACT_CACHE_MAX_ARTIFACTS:
            runner.cache.prune_memory(keep_stages=(STAGE_MATCHER_FIT,))

        def rebuilt(part: CandidateSet) -> CandidateSet:
            """Re-anchor a split part onto the query-extended corpus."""
            return CandidateSet(extended, pairs=list(part), intents=model.intents)

        test = rebuilt(model.split.test)
        for labeled in query_candidates:
            test.add(labeled)
        split = DatasetSplit(
            train=rebuilt(model.split.train),
            valid=rebuilt(model.split.valid),
            test=test,
        )
        result: PipelineResult = runner.run(
            split, model.intents, config=model.config, target_intents=requested
        )
        matcher_event = result.event(STAGE_MATCHER_FIT)
        if not matcher_event.cached:
            raise ModelError(
                "exact query replay re-fitted the matchers instead of restoring "
                "them from the model (stage fingerprint drift) — this is a bug"
            )
        num_query = len(query_candidates)
        probabilities = {
            intent: result.solution.probabilities[intent][-num_query:]
            for intent in requested
        }
        return probabilities, result.events

    # ----------------------------------------------------------- online mode

    def _query_online(
        self,
        query_candidates: CandidateSet,
        requested: tuple[str, ...],
    ) -> dict[str, np.ndarray]:
        """Frozen inference over the touched subgraph only.

        The new pairs are encoded with the fitted matchers, their
        per-layer nodes attach to their ``k_neighbors`` nearest corpus
        nodes (corpus topology unchanged — corpus hidden states stay
        exactly as persisted), and the stored GraphSAGE weights
        propagate messages through the touched subgraph alone.

        The whole micro-batch runs in one pass over ``(B, P, d)`` stacks
        of its B pairs' P layer nodes: one representation call, one kNN
        probe per layer, and per target intent one frozen convolution
        per level plus the head.  Every dense product runs one pair at a
        time (``one_shot`` representations, ``row_invariant`` probes;
        :class:`~repro.graph.sage.FrozenSAGE` multiplies stacks block by
        block), so a pair's result is bit-identical to querying it
        alone, whatever else is in the batch.  This is what makes
        repeated queries reproducible and coalesced batches
        bit-identical to serial ones.
        """
        model = self.model
        config = model.config
        num_query = len(query_candidates)
        num_corpus = int(model.graph_payload["num_pairs"])
        num_layers = len(model.intents)
        inter = config.graph.include_inter_layer and num_layers > 1
        k_graph = min(config.graph.k_neighbors, num_corpus)
        mean_aggregation = config.gnn.aggregator == "mean"
        corpus_features = np.asarray(model.graph_payload["features"], dtype=np.float64)

        features = compute_representations(
            model.solver,
            query_candidates,
            model.augment_with_scores,
            one_shot=True,
        )
        # (B, P, d): row ℓ of pair b's block is its node in layer ℓ.
        hidden0 = np.stack([features[intent] for intent in model.intents], axis=1)
        if k_graph > 0:
            neighbors = np.stack(
                [
                    layer * num_corpus
                    + self._layer_index(intent)
                    .search(hidden0[:, layer], k_graph, row_invariant=True)
                    .indices
                    for layer, intent in enumerate(model.intents)
                ],
                axis=1,
            )
        else:
            neighbors = np.zeros((num_query, num_layers, 0), dtype=np.int64)
        degree = neighbors.shape[2] + (num_layers - 1 if inter else 0)

        probabilities: dict[str, np.ndarray] = {}
        for target in requested:
            frozen = self._frozen_sage(target)
            corpus_levels = [corpus_features] + list(model.gnn_hiddens[target])
            if len(corpus_levels) < frozen.num_convolutions:
                raise ModelError(
                    f"model stores {len(corpus_levels) - 1} hidden levels for "
                    f"intent {target!r} but its GNN has "
                    f"{frozen.num_convolutions} convolutions"
                )
            hidden = hidden0
            for level in range(frozen.num_convolutions):
                aggregated = np.zeros_like(hidden)
                if degree > 0:
                    if neighbors.shape[2] > 0:
                        aggregated += corpus_levels[level][neighbors].sum(axis=2)
                    if inter:
                        aggregated += hidden.sum(axis=1, keepdims=True) - hidden
                    # Match the trained aggregation semantics: "sum"
                    # models saw unnormalized neighbourhood sums.
                    if mean_aggregation:
                        aggregated /= degree
                hidden = frozen.convolve(level, hidden, aggregated)
            target_layer = model.intents.index(target)
            probabilities[target] = frozen.probabilities(
                hidden[:, target_layer : target_layer + 1]
            )[:, 0]
        return probabilities


def load_model(path: str | Path, mmap: bool = False) -> ResolverModel:
    """Load a persisted :class:`ResolverModel` (module-level convenience).

    Parameters
    ----------
    path:
        A model artifact written by :meth:`ResolverModel.save`.
    mmap:
        Memory-map the payload arrays instead of materializing them;
        see :meth:`ResolverModel.load`.

    Example
    -------
    >>> model = repro.load_model("resolver_model.npz")  # doctest: +SKIP
    >>> model.query(new_records, k=5)                   # doctest: +SKIP
    """
    return ResolverModel.load(path, mmap=mmap)
