"""Vectorized-vs-scalar equivalence of every swept hot path.

The vectorization sweep kept the original loop implementations as
reference oracles (``encode_loop``, ``block_loop``, the builder's
per-edge passes, the scalar similarity functions).  These property-style
tests assert, on randomized inputs, that every batched kernel reproduces
its oracle exactly — bit-identical where the arithmetic is exact integer
sums, which covers all of them — and that the resolver produces identical
predictions end to end when :func:`loop_oracles` routes the library's
entry points onto the oracles.
"""

from __future__ import annotations

import gc
import random
import warnings
import weakref
from collections.abc import Iterator
from contextlib import contextmanager

import numpy as np
import pytest

import repro
from repro import FlexERConfig, GNNConfig, GraphConfig, MatcherConfig
from repro.blocking import (
    BlockingStats,
    OversizedBlockWarning,
    QGramBlocker,
    TokenBlocker,
)
from repro.data.pairs import RecordPair
from repro.data.records import Dataset, Record
from repro.datasets import BENCHMARK_LABELERS
from repro.graph.builder import IntentGraphBuilder
from repro.matching.features import PairFeatureConfig, PairFeatureEncoder
from repro.pipeline import ArtifactCache
from repro.text.similarity import (
    _jaro_similarity_fast,
    jaro_similarity,
    jaro_winkler_similarity,
    jaro_winkler_similarity_fast,
    levenshtein_distance,
    levenshtein_distances_batch,
    levenshtein_similarities_batch,
    levenshtein_similarity,
)
from repro.text.vectorizers import HashingVectorizer, HashingVectorizerConfig

VOCABULARY = [
    "nike",
    "air",
    "max",
    "ultra",
    "pro",
    "2021",
    "red",
    "blue",
    "shoe",
    "größe",
    "men's",
    "xx",
    "a",
    "",
]


@contextmanager
def loop_oracles() -> Iterator[None]:
    """Route the vectorized entry points onto their loop oracles.

    Pair encoding, the q-gram and token block joins, and both graph edge
    passes run their retained per-item loop implementations inside the
    block; everything is restored on exit.
    """

    def intra_layer_loop(builder, graph, matrices):
        # The loop pass has no k=0 shortcut of its own.
        if builder.config.k_neighbors == 0:
            return 0
        return IntentGraphBuilder._add_intra_layer_edges_loop(builder, graph, matrices)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PairFeatureEncoder, "encode_batch", PairFeatureEncoder.encode_loop)
        patch.setattr(QGramBlocker, "block", QGramBlocker.block_loop)
        patch.setattr(TokenBlocker, "block", TokenBlocker.block_loop)
        patch.setattr(IntentGraphBuilder, "_add_intra_layer_edges", intra_layer_loop)
        patch.setattr(
            IntentGraphBuilder,
            "_add_inter_layer_edges",
            IntentGraphBuilder._add_inter_layer_edges_loop,
        )
        yield


def random_text(rng: random.Random, max_words: int = 8) -> str:
    return " ".join(rng.choice(VOCABULARY) for _ in range(rng.randint(0, max_words)))


def random_dataset(rng: random.Random, size: int, with_sources: bool = False) -> Dataset:
    records = []
    for index in range(size):
        source = ("s" + str(index % 2)) if with_sources else None
        records.append(
            Record(
                f"r{index:03d}",
                {"title": random_text(rng), "brand": random_text(rng, 2) or None},
                source=source,
            )
        )
    return Dataset(records)


def random_pairs(rng: random.Random, dataset: Dataset, count: int) -> list[RecordPair]:
    ids = dataset.record_ids
    pairs: list[RecordPair] = []
    seen: set[RecordPair] = set()
    while len(pairs) < count:
        left, right = rng.sample(ids, 2)
        pair = RecordPair(left, right)
        if pair not in seen:
            seen.add(pair)
            pairs.append(pair)
    return pairs


class TestStringKernels:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_levenshtein_batch_matches_scalar(self, seed):
        rng = random.Random(seed)
        lefts = [random_text(rng) for _ in range(120)]
        rights = [random_text(rng) for _ in range(120)]
        lefts += ["", "abc", "", "same"]
        rights += ["abc", "", "", "same"]
        distances = levenshtein_distances_batch(lefts, rights)
        similarities = levenshtein_similarities_batch(lefts, rights)
        for index, (left, right) in enumerate(zip(lefts, rights)):
            assert distances[index] == levenshtein_distance(left, right)
            assert similarities[index] == levenshtein_similarity(left, right)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_fast_jaro_matches_reference(self, seed):
        rng = random.Random(seed)
        for _ in range(300):
            left = random_text(rng, 4)
            right = random_text(rng, 4)
            assert _jaro_similarity_fast(left, right) == jaro_similarity(left, right)
            assert jaro_winkler_similarity_fast(left, right) == jaro_winkler_similarity(
                left, right
            )

    def test_fast_jaro_edge_cases(self):
        cases = [("", ""), ("", "a"), ("a", ""), ("ab", "ba"), ("aaa", "aaa"), ("abcd", "dcba")]
        for left, right in cases:
            assert _jaro_similarity_fast(left, right) == jaro_similarity(left, right)

    def test_empty_batch(self):
        assert levenshtein_distances_batch([], []).shape == (0,)


class TestHashingVectorizer:
    @pytest.mark.parametrize(
        "config",
        [
            HashingVectorizerConfig(n_features=32),
            HashingVectorizerConfig(n_features=16, signed=False, normalize=False),
            HashingVectorizerConfig(n_features=8, char_ngram_sizes=(2,), use_word_tokens=False),
        ],
    )
    def test_transform_matches_transform_one(self, config):
        rng = random.Random(11)
        texts = [random_text(rng) for _ in range(40)] + ["", "x"]
        vectorizer = HashingVectorizer(config)
        expected = np.stack([vectorizer.transform_one(text) for text in texts])
        assert np.array_equal(vectorizer.transform(texts), expected)
        # Warm text cache must return the same rows.
        assert np.array_equal(vectorizer.transform(texts), expected)


class TestBatchedEncoder:
    @pytest.mark.parametrize("seed", [21, 22])
    def test_encode_batch_bit_identical_to_loop(self, seed):
        rng = random.Random(seed)
        dataset = random_dataset(rng, 30)
        pairs = random_pairs(rng, dataset, 80)
        encoder = PairFeatureEncoder(PairFeatureConfig(n_features=32))
        loop = encoder.encode_loop(dataset, pairs)
        batch = encoder.encode_batch(dataset, pairs)
        assert np.array_equal(loop, batch)
        # Warm caches (memo, similarity rows, text cache) stay identical.
        assert np.array_equal(encoder.encode_batch(dataset, pairs), loop)

    def test_encode_dispatches_on_flag(self):
        rng = random.Random(31)
        dataset = random_dataset(rng, 10)
        pairs = random_pairs(rng, dataset, 12)
        config = PairFeatureConfig(n_features=16)
        vectorized = PairFeatureEncoder(config).encode(dataset, pairs)
        with loop_oracles():
            reference = PairFeatureEncoder(config).encode(dataset, pairs)
        assert np.array_equal(vectorized, reference)

    def test_encode_without_optional_blocks(self):
        rng = random.Random(41)
        dataset = random_dataset(rng, 12)
        pairs = random_pairs(rng, dataset, 20)
        config = PairFeatureConfig(
            n_features=16, use_interaction_features=False, use_similarity_features=False
        )
        encoder = PairFeatureEncoder(config)
        assert np.array_equal(
            encoder.encode_loop(dataset, pairs), encoder.encode_batch(dataset, pairs)
        )

    @pytest.mark.parametrize("one_shot", [False, True])
    def test_encoder_keeps_no_feature_matrix(self, one_shot):
        # A long-lived encoder (a fitted model's) must not pin its last
        # encoded batch in memory once the caller drops it.
        rng = random.Random(51)
        dataset = random_dataset(rng, 8)
        pairs = random_pairs(rng, dataset, 10)
        encoder = PairFeatureEncoder(PairFeatureConfig(n_features=16))
        matrix = encoder.encode(dataset, pairs, one_shot=one_shot)
        released = weakref.ref(matrix)
        del matrix
        gc.collect()
        assert released() is None


class TestBlockingJoins:
    @pytest.mark.parametrize("seed", [61, 62])
    @pytest.mark.parametrize("cross_source_only", [False, True])
    def test_qgram_join_matches_loop(self, seed, cross_source_only):
        rng = random.Random(seed)
        dataset = random_dataset(rng, 40, with_sources=True)
        blocker = QGramBlocker(
            q=3, min_shared=2, cross_source_only=cross_source_only, max_block_size=None
        )
        vectorized = blocker.block(dataset)
        vectorized_stats = blocker.last_stats
        loop = blocker.block_loop(dataset)
        assert vectorized == loop
        assert vectorized_stats == blocker.last_stats

    @pytest.mark.parametrize("seed", [71, 72])
    def test_token_join_matches_loop(self, seed):
        rng = random.Random(seed)
        dataset = random_dataset(rng, 40)
        blocker = TokenBlocker(min_shared=1, min_token_length=2, max_block_size=None)
        vectorized = blocker.block(dataset)
        vectorized_stats = blocker.last_stats
        loop = blocker.block_loop(dataset)
        assert vectorized == loop
        assert vectorized_stats == blocker.last_stats

    def test_oversized_blocks_warn_and_count(self):
        records = [Record(f"r{i}", {"title": "shared common text"}) for i in range(12)]
        dataset = Dataset(records)
        blocker = QGramBlocker(q=4, max_block_size=5)
        with pytest.warns(OversizedBlockWarning):
            pairs = blocker.block(dataset)
        assert pairs == []
        assert blocker.last_stats.num_oversized_blocks > 0
        assert blocker.last_stats.num_blocks >= blocker.last_stats.num_oversized_blocks

    def test_max_block_size_guard_equivalent_to_loop(self):
        records = [Record(f"r{i}", {"title": "shared common text"}) for i in range(12)] + [
            Record(f"u{i}", {"title": f"unique item number {i}"}) for i in range(8)
        ]
        dataset = Dataset(records)
        blocker = QGramBlocker(q=4, max_block_size=10)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OversizedBlockWarning)
            vectorized = blocker.block(dataset)
        assert vectorized == blocker.block_loop(dataset)

    def test_stats_dataclass_defaults(self):
        stats = BlockingStats()
        assert stats.num_blocks == 0 and stats.num_candidate_pairs == 0


class TestGraphEdgeConstruction:
    @pytest.mark.parametrize("k_neighbors", [0, 2, 4])
    @pytest.mark.parametrize("include_inter_layer", [True, False])
    def test_vectorized_edges_match_loop(self, k_neighbors, include_inter_layer):
        rng = np.random.default_rng(5)
        representations = {
            intent: rng.normal(size=(15, 6)) for intent in ("equivalence", "brand", "model")
        }
        config = GraphConfig(
            k_neighbors=k_neighbors, include_inter_layer=include_inter_layer
        )
        builder = IntentGraphBuilder(config)
        vectorized = builder.build(representations)
        with loop_oracles():
            loop = builder.build(representations)
        assert vectorized.num_edges == loop.num_edges
        assert vectorized.intra_edge_count == loop.intra_edge_count
        assert vectorized.inter_edge_count == loop.inter_edge_count
        assert vectorized.in_neighbors == loop.in_neighbors
        for mode in ("mean", "sum"):
            for left, right in zip(vectorized.edge_arrays(mode), loop.edge_arrays(mode)):
                assert np.array_equal(left, right)
        assert np.array_equal(
            vectorized.aggregation_matrix("mean"), loop.aggregation_matrix("mean")
        )

    def test_layer_adjacency_covers_intra_edges(self):
        rng = np.random.default_rng(6)
        representations = {intent: rng.normal(size=(10, 4)) for intent in ("a", "b")}
        builder = IntentGraphBuilder(GraphConfig(k_neighbors=3))
        graph = builder.build(representations)
        block = graph.layer_adjacency("a", mode="sum")
        assert block.shape == (10, 10)
        # Intra-layer edges split evenly across the two layers.
        assert int(block.sum()) == graph.intra_edge_count // 2


class TestEndToEndEquivalence:
    @pytest.fixture(scope="class")
    def mier_benchmark(self):
        return repro.load_benchmark("amazon_mi", num_pairs=60, products_per_domain=8, seed=13)

    @pytest.fixture(scope="class")
    def config(self):
        return FlexERConfig(
            matcher=MatcherConfig(hidden_dims=(8,), n_features=32, epochs=2, seed=3),
            graph=GraphConfig(k_neighbors=2),
            gnn=GNNConfig(hidden_dim=8, epochs=2, seed=3),
            blocker={"type": "token", "min_shared": 1},
        )

    @staticmethod
    def _resolve(mier_benchmark, config, cache):
        labeler = BENCHMARK_LABELERS["amazon_mi"]
        products = mier_benchmark.record_products

        def label(left, right):
            return labeler.label_pair(products[left.record_id], products[right.record_id])

        return repro.resolve(
            mier_benchmark.dataset,
            intents=mier_benchmark.intents,
            labeler=label,
            config=config,
            target_intents=("equivalence",),
            cache=cache,
        )

    def test_vectorized_and_reference_resolutions_match(self, mier_benchmark, config):
        vectorized = self._resolve(mier_benchmark, config, ArtifactCache())
        with loop_oracles():
            reference = self._resolve(mier_benchmark, config, ArtifactCache())
        for intent in vectorized.solution.intents:
            assert np.array_equal(
                vectorized.solution.prediction(intent),
                reference.solution.prediction(intent),
            )
            np.testing.assert_allclose(
                vectorized.solution.probabilities[intent],
                reference.solution.probabilities[intent],
                atol=1e-9,
            )

    def test_warm_cache_byte_identity(self, mier_benchmark, config):
        cache = ArtifactCache()
        cold = self._resolve(mier_benchmark, config, cache)
        warm = self._resolve(mier_benchmark, config, cache)
        for intent in cold.solution.intents:
            assert np.array_equal(
                cold.solution.prediction(intent), warm.solution.prediction(intent)
            )
            assert np.array_equal(
                cold.solution.probabilities[intent], warm.solution.probabilities[intent]
            )
