"""Exact nearest-neighbour search (the Faiss substitute).

The paper connects every intent-layer node to its ``k`` nearest
neighbours computed with Faiss over L2 distance, using only the
exhaustive (exact) index.  This module provides the same computation in
numpy, for L2 and cosine distances, with optional self-exclusion and
chunked evaluation to bound memory.

Results are ordered by ``(distance, index)``, as a stable sort of each
distance row would order them.  The ``k`` columns are selected in linear
time (:func:`smallest_k`) and only those are sorted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigurationError


@dataclass(frozen=True)
class NeighborResult:
    """Indices and distances of the nearest neighbours of each query row."""

    indices: np.ndarray
    distances: np.ndarray

    def neighbors_of(self, row: int) -> list[int]:
        """Neighbour indices of query ``row`` in increasing distance order."""
        return self.indices[row].tolist()

    def neighbor_lists(self) -> list[list[int]]:
        """All neighbour index lists at once (one ``tolist`` conversion)."""
        return self.indices.tolist()


def _dot(queries: np.ndarray, data_t: np.ndarray, row_invariant: bool) -> np.ndarray:
    """``queries @ data_t``, optionally one query row per BLAS call.

    A ``(m, 1, d)`` stack makes numpy's matmul loop issue, for each row,
    exactly the product a one-row query issues.
    """
    if not row_invariant:
        return queries @ data_t
    return (queries[:, np.newaxis, :] @ data_t)[:, 0, :]


def smallest_k(distances: np.ndarray, k: int) -> np.ndarray:
    """Column indices of each row's ``k`` smallest values, smallest first.

    Equal to ``np.argsort(distances, axis=1, kind="stable")[:, :k]`` —
    ties (and NaNs, which sort last) keep index order — without sorting
    whole rows: ``np.partition`` finds each row's k-th smallest value,
    every column strictly below it is kept plus the lowest-index columns
    tied with it, and only those ``k`` columns are stable-sorted.
    """
    num_columns = distances.shape[1]
    if k >= num_columns:
        return np.argsort(distances, axis=1, kind="stable")[:, :k]
    kth = np.partition(distances, k - 1, axis=1)[:, k - 1 : k]
    kth_nan = np.isnan(kth)
    if kth_nan.any():
        # NaN compares false to everything but sorts after every number.
        is_nan = np.isnan(distances)
        below = np.where(kth_nan, ~is_nan, distances < kth)
        tied = np.where(kth_nan, is_nan, distances == kth)
    else:
        below = distances < kth
        tied = distances == kth
    keep = below | tied
    crowded = np.flatnonzero(keep.sum(axis=1) > k)
    if crowded.size:
        # More columns tie with the k-th value than there are slots left:
        # keep the lowest-index ones, as a stable sort would.
        slots = k - below[crowded].sum(axis=1, keepdims=True)
        ties = tied[crowded]
        keep[crowded] = below[crowded] | (ties & (np.cumsum(ties, axis=1) <= slots))
    columns = np.nonzero(keep)[1].reshape(-1, k)
    order = np.argsort(np.take_along_axis(distances, columns, axis=1), axis=1, kind="stable")
    return np.take_along_axis(columns, order, axis=1)


class ExactNearestNeighbors:
    """Brute-force exact kNN index.

    Parameters
    ----------
    metric:
        ``"l2"`` (squared Euclidean, as in the paper) or ``"cosine"``
        (one minus cosine similarity).
    chunk_size:
        Number of query rows scored per block, bounding peak memory.
    """

    #: Distance entries per block of a row-invariant search.  Its rows do
    #: not depend on how they are blocked, so blocks shrink as the index
    #: grows: against a million rows, one query row is scored at a time.
    ROW_INVARIANT_BLOCK_ENTRIES = 1 << 20

    def __init__(self, metric: str = "l2", chunk_size: int = 1024) -> None:
        if metric not in ("l2", "cosine"):
            raise ConfigurationError(f"unsupported metric: {metric!r}")
        if chunk_size <= 0:
            raise ConfigurationError("chunk_size must be positive")
        self.metric = metric
        self.chunk_size = chunk_size
        self._data: np.ndarray | None = None
        self._normalized: np.ndarray | None = None

    def fit(self, data: np.ndarray) -> "ExactNearestNeighbors":
        """Index the rows of ``data`` (shape ``(n, d)``)."""
        array = np.asarray(data, dtype=np.float64)
        if array.ndim != 2:
            raise ConfigurationError("index data must be a 2-D array")
        self._data = array
        if self.metric == "cosine":
            norms = np.linalg.norm(array, axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            self._normalized = array / norms
        return self

    @property
    def num_indexed(self) -> int:
        """Number of indexed rows."""
        return 0 if self._data is None else self._data.shape[0]

    def export_arrays(self) -> dict[str, np.ndarray]:
        """The indexed rows as plain arrays (everything :meth:`fit` needs)."""
        if self._data is None:
            raise ConfigurationError("the index must be fitted before exporting state")
        return {"vectors": self._data}

    def _distances(self, queries: np.ndarray, row_invariant: bool = False) -> np.ndarray:
        assert self._data is not None
        if self.metric == "l2":
            # ||q - x||^2 = ||q||^2 - 2 q.x + ||x||^2
            query_norms = (queries**2).sum(axis=1, keepdims=True)
            data_norms = (self._data**2).sum(axis=1)[np.newaxis, :]
            products = _dot(queries, self._data.T, row_invariant)
            distances = query_norms - 2.0 * products + data_norms
            return np.maximum(distances, 0.0)
        assert self._normalized is not None
        norms = np.linalg.norm(queries, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        normalized_queries = queries / norms
        return 1.0 - _dot(normalized_queries, self._normalized.T, row_invariant)

    def search(
        self,
        queries: np.ndarray,
        k: int,
        exclude_self: bool = False,
        query_offset: int = 0,
        row_invariant: bool = False,
    ) -> NeighborResult:
        """Find the ``k`` nearest indexed rows of each query row.

        Parameters
        ----------
        queries:
            Query matrix of shape ``(m, d)``.
        k:
            Number of neighbours to return per query.
        exclude_self:
            When true, the indexed row whose position equals
            ``query_offset + row`` is excluded — used when querying the
            index with its own rows.
        query_offset:
            Offset applied to query rows for self-exclusion.
        row_invariant:
            Make each row's result independent of the other query rows:
            the dot products run one query row at a time, as a one-row
            search would run them (a batched BLAS product can change a
            row's last bits with the batch's row count).  Online callers
            set it so a record's neighbours do not depend on its batch.
        """
        if self._data is None:
            raise ConfigurationError("the index must be fitted before searching")
        if k <= 0:
            raise ConfigurationError("k must be positive")
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != self._data.shape[1]:
            raise ConfigurationError("queries must match the indexed dimensionality")

        n_indexed = self.num_indexed
        num_queries = queries.shape[0]
        effective_k = min(k, n_indexed - (1 if exclude_self else 0))
        effective_k = max(effective_k, 0)
        if effective_k == 0 or num_queries == 0:
            return NeighborResult(
                indices=np.zeros((num_queries, effective_k), dtype=np.int64),
                distances=np.zeros((num_queries, effective_k), dtype=np.float64),
            )

        block_rows = self.chunk_size
        if row_invariant:
            block_rows = max(1, min(block_rows, self.ROW_INVARIANT_BLOCK_ENTRIES // n_indexed))
        index_blocks: list[np.ndarray] = []
        distance_blocks: list[np.ndarray] = []
        for start in range(0, num_queries, block_rows):
            stop = min(start + block_rows, num_queries)
            distances = self._distances(queries[start:stop], row_invariant)
            if exclude_self:
                rows = np.arange(start, stop, dtype=np.int64)
                self_indices = query_offset + rows
                in_range = (self_indices >= 0) & (self_indices < n_indexed)
                distances[rows[in_range] - start, self_indices[in_range]] = np.inf
            order = smallest_k(distances, effective_k)
            index_blocks.append(order)
            distance_blocks.append(np.take_along_axis(distances, order, axis=1))

        # A single chunk (the common case when chunk_size >= the query
        # count) is returned as-is instead of being copied into a freshly
        # allocated full result matrix.
        if len(index_blocks) == 1:
            return NeighborResult(indices=index_blocks[0], distances=distance_blocks[0])
        return NeighborResult(
            indices=np.concatenate(index_blocks, axis=0),
            distances=np.concatenate(distance_blocks, axis=0),
        )

    def kneighbors_graph(self, k: int) -> list[list[int]]:
        """Adjacency list of the kNN graph of the indexed data (self excluded)."""
        if self._data is None:
            raise ConfigurationError("the index must be fitted before searching")
        result = self.search(self._data, k, exclude_self=True)
        return result.neighbor_lists()
