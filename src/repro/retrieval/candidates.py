"""Candidate retrieval for the online query path.

One-shot resolution generates candidates by blocking the *whole* corpus
against itself.  The serve path cannot afford that: a micro-batch of new
records must be paired with a handful of likely corpus matches in
(amortized) constant time per record.  A :class:`CandidateRetriever`
is fitted once over the corpus a :class:`~repro.model.ResolverModel`
was trained on and then answers ``retrieve(records, k)`` — the ranked
corpus record ids each new record should be scored against.

Four built-in retrievers are registered in
:data:`repro.registry.CANDIDATE_RETRIEVERS`; this module defines two of
them, and :mod:`repro.retrieval.hnsw` / :mod:`repro.retrieval.lsh` the
sub-linear ``hnsw`` and ``lsh``, which share :class:`HashedVectorRetriever`
with ``ann_knn``:

``ann_knn``
    Exact nearest-neighbour retrieval over hashed n-gram record vectors
    through :class:`~repro.ann.knn.ExactNearestNeighbors` (the
    library's Faiss substitute).  The corpus vector matrix is part of
    the persisted model state, so a loaded model serves queries without
    re-vectorizing the corpus.
``blocker``
    Reuse of the fitted blocking strategy: the corpus inverted index of
    a key-based (``qgram``/``token``) blocker is probed with the query
    record's keys, derived by the blocker's own ``record_keys``, and
    candidates are ranked by shared-key count, honouring the blocker's
    ``min_shared``/``max_block_size``/``cross_source_only`` semantics.
"""

from __future__ import annotations

import abc
import inspect
from collections.abc import Mapping, Sequence

import numpy as np

from ..ann.knn import ExactNearestNeighbors, NeighborResult
from ..blocking.base import KeyBlocker, sources_admissible
from ..data.records import Dataset, Record
from ..exceptions import ConfigurationError, NotFittedError
from ..text.vectorizers import HashingVectorizer, HashingVectorizerConfig


def record_content_key(record: Record) -> tuple:
    """Hashable retrieval fingerprint of a query record's *content*.

    Every built-in retriever ranks candidates from a record's attribute
    values and source alone — never its id (query ids are validated to
    be outside the corpus, so the self-match filter can never fire).
    Records with equal content keys therefore receive identical
    candidate rankings, which lets a batch de-duplicate retrieval work
    (:meth:`repro.QuerySession._retrieve`) without changing any result.
    """
    return (tuple(record.values.items()), record.source)


class CandidateRetriever(abc.ABC):
    """Base class of online candidate retrievers.

    Every concrete retriever is registered in
    :data:`repro.registry.CANDIDATE_RETRIEVERS` under :attr:`spec_type`
    and round-trips through ``to_spec`` / ``from_spec`` like every other
    pipeline component.  Fitted state is exposed as plain numpy arrays
    (:meth:`state_arrays` / :meth:`load_state`) so the model artifact
    can bundle it.
    """

    #: Registry key of the concrete retriever (set by subclasses).
    spec_type: str = ""

    @abc.abstractmethod
    def fit(self, dataset: Dataset) -> "CandidateRetriever":
        """Index the corpus ``dataset`` the retriever will answer against."""

    @abc.abstractmethod
    def retrieve(self, records: Sequence[Record], k: int) -> list[list[str]]:
        """Ranked corpus record ids for each query record (best first).

        Each inner list holds at most ``k`` ids; fewer when the corpus
        (or the retriever's admissibility rule) cannot supply ``k``.
        """

    @abc.abstractmethod
    def to_spec(self) -> dict[str, object]:
        """Serialize the retriever configuration into a registry spec."""

    @classmethod
    def from_spec(cls, params: Mapping[str, object]) -> "CandidateRetriever":
        """Construct the retriever from the parameters of a spec."""
        return cls(**params)

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Fitted state as plain arrays (empty when state is derivable)."""
        return {}

    def load_state(self, arrays: Mapping[str, np.ndarray], dataset: Dataset) -> None:
        """Restore fitted state from :meth:`state_arrays` output.

        The default rebuilds the index from the corpus records — every
        retriever's indexing is deterministic, so the restored retriever
        answers identically to the originally fitted one.
        """
        del arrays
        self.fit(dataset)

    @property
    def tombstones(self) -> frozenset[str]:
        """Corpus record ids excluded from retrieval (deleted, not compacted)."""
        return frozenset(getattr(self, "_tombstones", ()))

    def set_tombstones(self, record_ids: Sequence[str] | frozenset[str]) -> None:
        """Install the set of deleted-but-still-indexed record ids.

        Tombstoned records stay in the index (their rows keep every
        other record's position stable) but are filtered out of every
        ranked candidate list, so retrieval behaves as if they were
        gone.  Compaction removes them for real.
        """
        self._tombstones = set(record_ids)

    def apply_delta(
        self,
        dataset: Dataset,
        upserted_ids: Sequence[str],
        tombstones: Sequence[str] | frozenset[str] = (),
    ) -> None:
        """Absorb a corpus delta into the fitted index.

        ``dataset`` is the post-update corpus: previously indexed records
        keep their position (modified ones replaced in place), new ones
        appended at the end.  The default implementation refits from
        scratch — indexing is deterministic, so subclass fast paths and
        this fallback produce identical retrieval state.
        """
        del upserted_ids
        self.fit(dataset)
        self.set_tombstones(tombstones)

    def _require_fitted(self) -> None:
        if not getattr(self, "_fitted", False):
            raise NotFittedError(f"{type(self).__name__} must be fitted before retrieving")


class HashedVectorRetriever(CandidateRetriever):
    """Shared machinery of retrievers ranking hashed n-gram record vectors.

    Concrete subclasses (:class:`AnnKnnRetriever` and the sub-linear
    ``hnsw``/``lsh`` retrievers) differ only in the index that ranks
    corpus rows for a query vector.  Everything else lives here, once:
    the text-to-vector encoding, the corpus bookkeeping (record ids,
    sources), fitting, persistence, delta updates, the over-fetch rule
    and the candidate filtering rules (self-match, tombstones,
    ``cross_source_only``).

    A subclass creates its index (``self._index``) in its constructor
    and implements :meth:`_replace_rows` and :meth:`_append_rows`; it
    overrides :meth:`_encode`, :meth:`_build_index`, :meth:`_search` or
    :meth:`_cross_source_fetch` only where its index differs from the
    defaults.  The index must offer ``fit(vectors)``, ``search(queries,
    k)`` returning a :class:`~repro.ann.knn.NeighborResult`,
    ``export_arrays()`` with the corpus vectors under ``"vectors"``, and
    ``num_indexed``.  A retriever's spec is its constructor parameters,
    read back from the attributes of the same names.

    Parameters
    ----------
    n_features:
        Buckets of the hashing vectorizer encoding each record's text.
    attributes:
        Record attributes included in the text; ``None`` uses all.
    cross_source_only:
        Restrict candidates to records from a different source than the
        query record (clean-clean resolution).
    """

    def __init__(
        self,
        n_features: int = 256,
        attributes: Sequence[str] | None = None,
        cross_source_only: bool = False,
    ) -> None:
        if n_features <= 0:
            raise ConfigurationError("n_features must be positive")
        if isinstance(attributes, str):
            # tuple() would split the name into single characters.
            raise ConfigurationError(
                f"attributes must be a list of attribute names, not the string {attributes!r}"
            )
        self.n_features = int(n_features)
        self.attributes = tuple(attributes) if attributes is not None else None
        self.cross_source_only = cross_source_only
        self._vectorizer = HashingVectorizer(HashingVectorizerConfig(n_features=self.n_features))
        self._record_ids: list[str] = []
        self._sources: list[str | None] = []
        self._tombstones: set[str] = set()
        self._fitted = False

    def to_spec(self) -> dict[str, object]:
        """Serialize the constructor parameters into a registry spec."""
        params = {name: getattr(self, name) for name in inspect.signature(type(self)).parameters}
        if self.attributes is not None:
            params["attributes"] = list(self.attributes)
        return {"type": self.spec_type, "params": params}

    def fit(self, dataset: Dataset) -> "HashedVectorRetriever":
        """Encode every corpus record and index the vectors."""
        self._register_corpus(dataset)
        self._build_index(self._encode(list(dataset)), {})
        self._tombstones = set()
        self._fitted = True
        return self

    def state_arrays(self) -> dict[str, np.ndarray]:
        """The index's arrays: ``vectors`` (row order = corpus order) and its own."""
        self._require_fitted()
        return self._index.export_arrays()

    def load_state(self, arrays: Mapping[str, np.ndarray], dataset: Dataset) -> None:
        """Restore the index from persisted arrays (no re-encoding).

        A ``vectors`` matrix whose rows match ``dataset`` is indexed as
        :meth:`_build_index` allows: restored from the index's own
        arrays when they are present, rebuilt from the vectors alone
        otherwise (deterministic, so the answers match the fit's).
        Anything else falls back to a fresh :meth:`fit`.
        """
        vectors = arrays.get("vectors")
        if vectors is None or vectors.shape[0] != len(dataset):
            self.fit(dataset)
            return
        self._register_corpus(dataset)
        self._build_index(np.asarray(vectors, dtype=np.float64), arrays)
        self._tombstones = set()
        self._fitted = True

    def apply_delta(
        self,
        dataset: Dataset,
        upserted_ids: Sequence[str],
        tombstones: Sequence[str] | frozenset[str] = (),
    ) -> None:
        """Encode only the upserted records; keep every other row.

        Modified records replace their existing rows
        (:meth:`_replace_rows`) and new records append rows in corpus
        order (:meth:`_append_rows`), at the cost of encoding only the
        delta.  Each row is the deterministic encoding of that record's
        text alone, so an index derived from its rows alone (``ann_knn``,
        ``lsh``) ends up bit-identical to a fresh :meth:`fit` over
        ``dataset``.
        """
        self._require_fitted()
        positions = {rid: row for row, rid in enumerate(self._record_ids)}
        new_ids = list(dataset.record_ids)
        if new_ids[: len(positions)] != self._record_ids:
            # Indexed prefix moved (should not happen via the update
            # engine); a full refit is deterministic and always correct.
            self.fit(dataset)
            self.set_tombstones(tombstones)
            return
        changed = [rid for rid in upserted_ids if rid in positions]
        added = new_ids[len(positions) :]
        if changed:
            rows = np.array([positions[rid] for rid in changed], dtype=np.int64)
            self._replace_rows(rows, self._encode([dataset[rid] for rid in changed]))
        if added:
            self._append_rows(self._encode([dataset[rid] for rid in added]), added)
        self._register_corpus(dataset)
        self.set_tombstones(tombstones)

    def retrieve(self, records: Sequence[Record], k: int) -> list[list[str]]:
        """Ranked admissible corpus ids of each query record (best first).

        The whole batch is ranked in one index search that over-fetches
        by the self-match slot and the tombstone count (plus
        :meth:`_cross_source_fetch` under ``cross_source_only``); the
        admissibility rules then cut each list to ``k``.  Every index
        ranks each query row independently of the rest of the batch, so
        a record's candidates never depend on how the batch is cut.
        """
        self._require_fitted()
        if k <= 0:
            raise ConfigurationError("k must be positive")
        if not records:
            return []
        search_k = k + 1 + len(self._tombstones)
        if self.cross_source_only:
            search_k += self._cross_source_fetch(k)
        search_k = max(min(search_k, self._index.num_indexed), 1)
        ranked = self._search(self._encode(records), search_k).neighbor_lists()
        return [
            self._filter_positions(record, positions, k)
            for record, positions in zip(records, ranked)
        ]

    def _encode(self, records: Sequence[Record]) -> np.ndarray:
        """The index's vectors of ``records``: their hashed n-gram vectors."""
        # Texts are looked up but never inserted.  Corpus vectors live in
        # the index after fit and apply_delta, and queries are new records.
        # Only an update's upserts recur, hashed once more when the update
        # retrieves their candidate pairs; that costs less than keeping
        # every text.
        names = list(self.attributes) if self.attributes is not None else None
        return self._vectorizer.transform(
            [record.text(names) for record in records], cache_texts=False
        )

    def _build_index(self, vectors: np.ndarray, arrays: Mapping[str, np.ndarray]) -> None:
        """Index the corpus ``vectors``; ``arrays`` are persisted index arrays.

        A fit passes no arrays.  The default rebuilds from the vectors.
        """
        del arrays
        self._index.fit(vectors)

    @abc.abstractmethod
    def _replace_rows(self, rows: np.ndarray, vectors: np.ndarray) -> None:
        """Overwrite the indexed ``rows`` with new ``vectors``."""

    @abc.abstractmethod
    def _append_rows(self, vectors: np.ndarray, record_ids: Sequence[str]) -> None:
        """Index ``vectors`` (of the records ``record_ids``) as new rows."""

    def _search(self, queries: np.ndarray, k: int) -> NeighborResult:
        """The index's ``k`` best-ranked rows for each query vector."""
        return self._index.search(queries, k)

    def _cross_source_fetch(self, k: int) -> int:
        """Extra ranked rows fetched under ``cross_source_only``.

        Same-source rows may fill any part of a ranking, so a search
        that can rank only a prefix over-fetches by ``k`` more.
        """
        return k

    def _register_corpus(self, dataset: Dataset) -> None:
        """Record the corpus id/source layout the index rows map onto."""
        self._record_ids = list(dataset.record_ids)
        self._sources = [record.source for record in dataset]

    def _filter_positions(self, record: Record, positions: Sequence[int], k: int) -> list[str]:
        """Apply the admissibility rules to ranked index positions.

        Walks ``positions`` best-first, dropping padding (``-1``), the
        query record itself, tombstoned ids, and — under
        ``cross_source_only`` — same-source records, until ``k``
        admissible ids are collected.
        """
        ids: list[str] = []
        for position in positions:
            if position < 0:
                continue
            corpus_id = self._record_ids[position]
            if corpus_id == record.record_id:
                continue
            if corpus_id in self._tombstones:
                continue
            if not sources_admissible(
                record.source, self._sources[position], self.cross_source_only
            ):
                continue
            ids.append(corpus_id)
            if len(ids) >= k:
                break
        return ids


class AnnKnnRetriever(HashedVectorRetriever):
    """Exact nearest-neighbour retrieval over hashed n-gram record vectors.

    Parameters
    ----------
    metric:
        Distance of the kNN search (``"l2"`` or ``"cosine"``).
    n_features:
        Buckets of the hashing vectorizer encoding each record's text.
    attributes:
        Record attributes included in the text; ``None`` uses all.
    cross_source_only:
        Restrict candidates to records from a different source than the
        query record (clean-clean resolution).
    """

    spec_type = "ann_knn"

    def __init__(
        self,
        metric: str = "l2",
        n_features: int = 256,
        attributes: Sequence[str] | None = None,
        cross_source_only: bool = False,
    ) -> None:
        super().__init__(
            n_features=n_features, attributes=attributes, cross_source_only=cross_source_only
        )
        self.metric = metric
        self._index = ExactNearestNeighbors(metric=metric)

    # Defined in this class's own namespace, not only inherited: tracing
    # tools (the repository benchmark's tracer among them) wrap these
    # ``AnnKnnRetriever`` methods by name and look them up in this class
    # alone.
    fit = HashedVectorRetriever.fit
    retrieve = HashedVectorRetriever.retrieve
    apply_delta = HashedVectorRetriever.apply_delta

    def _replace_rows(self, rows: np.ndarray, vectors: np.ndarray) -> None:
        data = np.array(self._index._data, dtype=np.float64)
        data[rows] = vectors
        self._index.fit(data)

    def _append_rows(self, vectors: np.ndarray, record_ids: Sequence[str]) -> None:
        self._index.fit(np.concatenate([self._index._data, vectors], axis=0))

    def _search(self, queries: np.ndarray, k: int) -> NeighborResult:
        # Row-invariant: a batched BLAS product can change a row's last
        # bits with the batch's row count, which would make near-tie
        # rankings depend on micro-batch composition, so each row's
        # distances are computed as a one-row search computes them.
        return self._index.search(queries, k, row_invariant=True)

    def _cross_source_fetch(self, k: int) -> int:
        # The source filter can eat arbitrarily many of the top results,
        # so rank the full corpus; the search is exact (O(n) per query)
        # either way.
        return self._index.num_indexed


class BlockerRetriever(CandidateRetriever):
    """Reuse a fitted blocker's inverted index for online retrieval.

    The corpus index of a :class:`~repro.blocking.base.KeyBlocker`
    (``qgram`` or ``token``) is built once at fit time; each query
    record's keys — derived by the blocker's own ``record_keys``, as the
    offline join derives them — probe the postings lists, and candidates
    are ranked by the number of shared keys: exactly the co-occurrence
    count the offline blocker thresholds with ``min_shared``.

    Parameters
    ----------
    blocker:
        Registry spec of the wrapped blocker (must be key-based; the
        ``full`` cross-product blocker has no inverted index and is
        rejected).
    """

    spec_type = "blocker"

    def __init__(self, blocker: object = "qgram") -> None:
        # Imported lazily: repro.registry imports this module at start-up.
        from ..registry import BLOCKERS

        self._blocker_spec = BLOCKERS.normalize(blocker)
        self.blocker = BLOCKERS.create(self._blocker_spec)
        if not isinstance(self.blocker, KeyBlocker):
            raise ConfigurationError(
                f"blocker {self._blocker_spec['type']!r} exposes no inverted index; "
                f"use a key-based blocker (qgram/token) for online retrieval"
            )
        self._index: dict[str, list[str]] = {}
        self._dataset: Dataset | None = None
        self._tombstones: set[str] = set()
        self._fitted = False

    def to_spec(self) -> dict[str, object]:
        """Serialize the retriever (and its wrapped blocker) into a spec."""
        return {"type": self.spec_type, "params": {"blocker": self._blocker_spec}}

    def fit(self, dataset: Dataset) -> "BlockerRetriever":
        """Build the wrapped blocker's inverted index over the corpus."""
        self._dataset = dataset
        self._index = dict(self.blocker.index(dataset))
        self._tombstones = set()
        self._fitted = True
        return self

    def apply_delta(
        self,
        dataset: Dataset,
        upserted_ids: Sequence[str],
        tombstones: Sequence[str] | frozenset[str] = (),
    ) -> None:
        """Patch only the postings of the upserted records.

        A modified record's old keys are recomputed from the previous
        corpus snapshot and its id removed from those postings before
        the new keys are added, so the index ends up key-for-key
        equivalent to a fresh fit over ``dataset`` (member order within
        a posting may differ; ranking sorts by count then id, so
        retrieval is unaffected).
        """
        self._require_fitted()
        assert self._dataset is not None
        previous = self._dataset
        for record_id in upserted_ids:
            if record_id in previous:
                for key in self.blocker.record_keys(previous[record_id]):
                    members = self._index.get(key)
                    if members is None or record_id not in members:
                        continue
                    members.remove(record_id)
                    if not members:
                        del self._index[key]
            record = dataset[record_id]
            for key in sorted(self.blocker.record_keys(record)):
                members = self._index.setdefault(key, [])
                if record_id not in members:
                    members.append(record_id)
        self._dataset = dataset
        self.set_tombstones(tombstones)

    def retrieve(self, records: Sequence[Record], k: int) -> list[list[str]]:
        """Corpus records sharing ≥ ``min_shared`` keys, ranked by overlap."""
        self._require_fitted()
        if k <= 0:
            raise ConfigurationError("k must be positive")
        assert self._dataset is not None
        min_shared = self.blocker.min_shared
        max_block_size = self.blocker.max_block_size
        cross_source_only = self.blocker.cross_source_only
        candidates: list[list[str]] = []
        for record in records:
            counts: dict[str, int] = {}
            for key in self.blocker.record_keys(record):
                members = self._index.get(key)
                if members is None:
                    continue
                # Oversized postings behave as stop-keys offline; skip
                # them online too so the two paths agree on candidates.
                if max_block_size is not None and len(members) > max_block_size:
                    continue
                for corpus_id in members:
                    counts[corpus_id] = counts.get(corpus_id, 0) + 1
            ranked = sorted(
                (
                    (corpus_id, count)
                    for corpus_id, count in counts.items()
                    if count >= min_shared
                    and corpus_id != record.record_id
                    and corpus_id not in self._tombstones
                    and sources_admissible(
                        record.source, self._dataset[corpus_id].source, cross_source_only
                    )
                ),
                key=lambda item: (-item[1], item[0]),
            )
            candidates.append([corpus_id for corpus_id, _ in ranked[:k]])
        return candidates


# Re-exported for the registry module's registration pass.
BUILTIN_RETRIEVERS: dict[str, type] = {
    AnnKnnRetriever.spec_type: AnnKnnRetriever,
    BlockerRetriever.spec_type: BlockerRetriever,
}


__all__ = [
    "AnnKnnRetriever",
    "BlockerRetriever",
    "BUILTIN_RETRIEVERS",
    "CandidateRetriever",
    "HashedVectorRetriever",
    "record_content_key",
]
