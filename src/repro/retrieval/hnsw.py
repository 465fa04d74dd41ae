"""Sub-linear candidate retrieval through an HNSW-style neighbour graph.

Registered as ``hnsw`` in :data:`repro.registry.CANDIDATE_RETRIEVERS`.
Where ``ann_knn`` scans every corpus vector per query (exact, O(n)),
this retriever descends the layered graph of
:class:`~repro.ann.hnsw.HnswGraphIndex` with a beam of width
``ef_search`` — near-logarithmic query time at a small, tunable recall
cost.  Record levels come from :func:`~repro.ann.hnsw.seeded_levels`
over the record *ids*, so the hierarchy is identical whether a record
was present at fit time or arrived later through
:meth:`HnswRetriever.apply_delta`.

The persisted state (hashed vectors, levels, stacked layer adjacency)
round-trips bit-for-bit through ``ResolverModel.save``/``load`` and
memory-mapped loading: a loaded retriever answers byte-identically to
the fitted one.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from ..ann.hnsw import HnswGraphIndex, seeded_levels
from ..data.records import Record
from ..exceptions import ConfigurationError
from .candidates import HashedVectorRetriever


class HnswRetriever(HashedVectorRetriever):
    """Approximate nearest-neighbour retrieval over a layered graph.

    Delta updates insert appended records incrementally (at the seeded
    level a fresh fit would assign them) and relink modified ones.  The
    resulting graph is *equivalent* to — but, unlike ``ann_knn``, not
    necessarily bit-identical with — a fresh fit; compaction
    (``repro.update --compact force``) rebuilds it exactly.  A search
    widens its beam to the over-fetched candidate count when that
    exceeds ``ef_search``.

    Parameters
    ----------
    metric:
        ``"l2"`` ranks raw hashed vectors by squared Euclidean distance;
        ``"cosine"`` normalizes vectors first (squared L2 on unit
        vectors orders exactly like cosine distance).
    n_features:
        Buckets of the hashing vectorizer encoding each record's text.
    attributes:
        Record attributes included in the text; ``None`` uses all.
    cross_source_only:
        Restrict candidates to records from a different source than the
        query record (clean-clean resolution).
    m_neighbors:
        Graph out-degree; the stored adjacency keeps ``2 * m_neighbors``
        edges per node.
    ef_search:
        Bottom-layer beam width — the recall/latency dial.
    ef_descent:
        Beam width while descending the upper layers.
    level_p:
        Geometric decay of the layer hierarchy.
    seed:
        Seed of level assignment and graph construction randomness.
    """

    spec_type = "hnsw"

    def __init__(
        self,
        metric: str = "l2",
        n_features: int = 256,
        attributes: Sequence[str] | None = None,
        cross_source_only: bool = False,
        m_neighbors: int = 8,
        ef_search: int = 96,
        ef_descent: int = 16,
        level_p: float = 0.5,
        seed: int = 0,
    ) -> None:
        super().__init__(
            n_features=n_features, attributes=attributes, cross_source_only=cross_source_only
        )
        if metric not in ("l2", "cosine"):
            raise ConfigurationError(f"unsupported metric: {metric!r}")
        self.metric = metric
        self.m_neighbors = int(m_neighbors)
        self.ef_search = int(ef_search)
        self.ef_descent = int(ef_descent)
        self.level_p = float(level_p)
        self.seed = int(seed)
        self._index = HnswGraphIndex(
            m_neighbors=self.m_neighbors,
            ef_search=self.ef_search,
            ef_descent=self.ef_descent,
            level_p=self.level_p,
            seed=self.seed,
        )

    def _encode(self, records: Sequence[Record]) -> np.ndarray:
        """Hashed (and, for cosine, normalized) vectors of ``records``."""
        vectors = super()._encode(records)
        if self.metric == "cosine":
            norms = np.linalg.norm(vectors, axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            vectors = vectors / norms
        return vectors

    def _levels_of(self, record_ids: Sequence[str]) -> np.ndarray:
        return seeded_levels(record_ids, seed=self.seed, level_p=self.level_p)

    def _build_index(self, vectors: np.ndarray, arrays: Mapping[str, np.ndarray]) -> None:
        """Restore the exact graph from ``levels`` and ``adjacency`` arrays.

        Without them the graph is rebuilt from the vectors — the same
        graph a fit builds.
        """
        levels = arrays.get("levels")
        adjacency = arrays.get("adjacency")
        if levels is not None and adjacency is not None:
            self._index.import_arrays(vectors, levels, adjacency)
        else:
            self._index.fit(vectors, self._levels_of(self._record_ids))

    def _replace_rows(self, rows: np.ndarray, vectors: np.ndarray) -> None:
        self._index.replace_vectors(rows, vectors)
        self._index.relink(rows.tolist())

    def _append_rows(self, vectors: np.ndarray, record_ids: Sequence[str]) -> None:
        self._index.insert(vectors, self._levels_of(record_ids))


__all__ = ["HnswRetriever"]
