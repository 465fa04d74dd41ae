"""Tests for the exact nearest-neighbour index (Faiss substitute)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.ann import ExactNearestNeighbors
from repro.ann.knn import smallest_k
from repro.exceptions import ConfigurationError


class TestExactNearestNeighbors:
    def test_requires_fit(self):
        with pytest.raises(ConfigurationError):
            ExactNearestNeighbors().search(np.zeros((1, 2)), k=1)

    def test_rejects_invalid_metric_and_chunk(self):
        with pytest.raises(ConfigurationError):
            ExactNearestNeighbors(metric="hamming")
        with pytest.raises(ConfigurationError):
            ExactNearestNeighbors(chunk_size=0)

    def test_nearest_point_is_itself_when_not_excluded(self):
        data = np.array([[0.0, 0.0], [1.0, 1.0], [5.0, 5.0]])
        index = ExactNearestNeighbors().fit(data)
        result = index.search(data, k=1)
        assert result.indices[:, 0].tolist() == [0, 1, 2]
        assert np.allclose(result.distances[:, 0], 0.0)

    def test_exclude_self_skips_the_query_row(self):
        data = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]])
        index = ExactNearestNeighbors().fit(data)
        result = index.search(data, k=1, exclude_self=True)
        assert result.indices[0, 0] == 1
        assert result.indices[1, 0] == 0
        assert result.indices[2, 0] == 1

    def test_k_is_capped_by_index_size(self):
        data = np.array([[0.0], [1.0], [2.0]])
        index = ExactNearestNeighbors().fit(data)
        result = index.search(data, k=10, exclude_self=True)
        assert result.indices.shape == (3, 2)

    def test_cosine_metric_prefers_direction(self):
        data = np.array([[1.0, 0.0], [10.0, 0.5], [0.0, 1.0]])
        index = ExactNearestNeighbors(metric="cosine").fit(data)
        result = index.search(np.array([[2.0, 0.0]]), k=1)
        assert result.indices[0, 0] == 0 or result.indices[0, 0] == 1

    def test_chunked_search_matches_unchunked(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(50, 8))
        chunked = ExactNearestNeighbors(chunk_size=7).fit(data).search(data, k=3)
        whole = ExactNearestNeighbors(chunk_size=1024).fit(data).search(data, k=3)
        assert np.array_equal(chunked.indices, whole.indices)
        # Distances agree up to BLAS rounding (block sizes differ per chunk).
        assert np.allclose(chunked.distances, whole.distances)

    def test_chunked_self_exclusion_matches_unchunked(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(23, 5))
        chunked = ExactNearestNeighbors(chunk_size=4).fit(data).search(
            data, k=4, exclude_self=True
        )
        whole = ExactNearestNeighbors(chunk_size=64).fit(data).search(
            data, k=4, exclude_self=True
        )
        assert np.array_equal(chunked.indices, whole.indices)
        assert all(row not in neighbors for row, neighbors in enumerate(chunked.neighbor_lists()))

    def test_neighbor_lists_matches_neighbors_of(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(12, 3))
        result = ExactNearestNeighbors().fit(data).search(data, k=2, exclude_self=True)
        lists = result.neighbor_lists()
        assert lists == [result.neighbors_of(row) for row in range(len(lists))]

    def test_kneighbors_graph_shape(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(10, 4))
        graph = ExactNearestNeighbors().fit(data).kneighbors_graph(k=3)
        assert len(graph) == 10
        assert all(len(neighbors) == 3 for neighbors in graph)
        assert all(row not in neighbors for row, neighbors in enumerate(graph))

    def test_dimensionality_mismatch_rejected(self):
        index = ExactNearestNeighbors().fit(np.zeros((3, 4)))
        with pytest.raises(ConfigurationError):
            index.search(np.zeros((1, 5)), k=1)

    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(3, 12), st.integers(2, 5)),
            elements=st.floats(-5, 5, allow_nan=False),
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_l2_search_matches_argmin_property(self, data):
        """The top-1 neighbour equals the argmin of pairwise distances."""
        index = ExactNearestNeighbors().fit(data)
        result = index.search(data, k=1, exclude_self=True)
        for row in range(data.shape[0]):
            distances = ((data - data[row]) ** 2).sum(axis=1)
            distances[row] = np.inf
            best = distances.min()
            found = ((data[result.indices[row, 0]] - data[row]) ** 2).sum()
            assert found == pytest.approx(best, abs=1e-9)


def stable_top_k(distances: np.ndarray, k: int) -> np.ndarray:
    """The reference selection: a full stable sort of every row."""
    return np.argsort(distances, axis=1, kind="stable")[:, :k]


#: Tie-heavy values: small integers, both zeros, inf and NaN.
TIE_HEAVY = st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, 4.0, np.inf, np.nan])


class TestSmallestK:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_stable_argsort(self, data):
        rows = data.draw(st.integers(1, 6))
        columns = data.draw(st.integers(1, 14))
        distances = data.draw(hnp.arrays(np.float64, (rows, columns), elements=TIE_HEAVY))
        k = data.draw(st.integers(1, columns + 2))
        assert np.array_equal(smallest_k(distances, k), stable_top_k(distances, k))

    def test_rows_with_fewer_than_k_finite_values(self):
        distances = np.array(
            [
                [np.nan, 3.0, np.inf, np.nan, 1.0, np.inf],
                [np.nan, np.nan, np.nan, np.nan, np.nan, 0.0],
                [np.inf, np.inf, np.inf, 2.0, np.inf, np.inf],
            ]
        )
        for k in range(1, 8):
            assert np.array_equal(smallest_k(distances, k), stable_top_k(distances, k))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_chunked_search_equals_stable_sort_of_exact_distances(self, data):
        """Integer points give exact distances, so every tie is real."""
        num_points = data.draw(st.integers(2, 20))
        dim = data.draw(st.integers(1, 3))
        points = data.draw(
            hnp.arrays(np.float64, (num_points, dim), elements=st.integers(-2, 2).map(float))
        )
        k = data.draw(st.integers(1, num_points + 1))
        chunk_size = data.draw(st.integers(1, 5))
        exclude_self = data.draw(st.booleans())
        row_invariant = data.draw(st.booleans())
        index = ExactNearestNeighbors(chunk_size=chunk_size).fit(points)
        result = index.search(points, k, exclude_self=exclude_self, row_invariant=row_invariant)
        exact = ((points[:, np.newaxis, :] - points[np.newaxis, :, :]) ** 2).sum(axis=2)
        if exclude_self:
            np.fill_diagonal(exact, np.inf)
        effective_k = min(k, num_points - (1 if exclude_self else 0))
        expected = stable_top_k(exact, effective_k)
        assert np.array_equal(result.indices, expected)
        assert np.array_equal(result.distances, np.take_along_axis(exact, expected, axis=1))


class TestRowInvariantSearch:
    @pytest.mark.parametrize("metric", ["l2", "cosine"])
    @pytest.mark.parametrize("block_entries", [1 << 20, 3 * 300])
    def test_each_row_equals_its_one_row_search(self, metric, block_entries, monkeypatch):
        rng = np.random.default_rng(11)
        index = ExactNearestNeighbors(metric=metric).fit(rng.normal(size=(300, 13)))
        blocks: list[int] = []
        distances = index._distances

        def recorded(queries, *args):
            blocks.append(len(queries))
            return distances(queries, *args)

        monkeypatch.setattr(index, "_distances", recorded)
        monkeypatch.setattr(index, "ROW_INVARIANT_BLOCK_ENTRIES", block_entries)
        queries = rng.normal(size=(40, 13))
        batch = index.search(queries, 7, row_invariant=True)
        # No distance block holds more than the budget's entries.
        assert max(blocks) == min(40, block_entries // 300)
        for row in range(len(queries)):
            alone = index.search(queries[row : row + 1], 7)
            assert batch.indices[row].tobytes() == alone.indices[0].tobytes()
            assert batch.distances[row].tobytes() == alone.distances[0].tobytes()
