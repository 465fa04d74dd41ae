"""Batch invariance of the online query path.

The online path scores a whole micro-batch in one stacked pass.  Each
record's answer must still be byte-identical to querying it alone —
whatever batch size, order or neighbouring records it rides with — and
to the one-pair-at-a-time loop the stacked pass replaced.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.config import FlexERConfig, GNNConfig, GraphConfig, MatcherConfig
from repro.core.flexer import compute_representations
from repro.data.records import Dataset, Record
from repro.datasets import BENCHMARK_LABELERS, load_benchmark
from repro.text.vectorizers import HashingVectorizer

#: Query width of every test query.
K = 4

#: Model grid: every registered solver, both aggregators, inter-layer
#: edges on and off, ``k_neighbors=0``, both kNN metrics, and a single
#: intent layer (where a pair's frozen convolution is a one-row product,
#: which a product over the whole batch does not reproduce bit for bit).
GRID = {
    "in_parallel-mean-inter-l2": ("in_parallel", "mean", True, "l2", 2, None),
    "multi_label-sum-intra-cosine": ("multi_label", "sum", False, "cosine", 2, None),
    "naive-mean-inter-l2-k0": ("naive", "mean", True, "l2", 0, None),
    "in_parallel-sum-intra-cosine-k0": ("in_parallel", "sum", False, "cosine", 0, None),
    "one-intent-multi_label-mean-l2": ("multi_label", "mean", True, "l2", 3, ("brand",)),
}


@pytest.fixture(scope="module")
def corpus_world():
    benchmark = load_benchmark("amazon_mi", num_pairs=80, products_per_domain=8, seed=7)
    labeler = BENCHMARK_LABELERS["amazon_mi"]
    products = benchmark.record_products

    def label_pair(left, right):
        return labeler.label_pair(products[left.record_id], products[right.record_id])

    records = list(benchmark.dataset.records)
    holdout = records[-9:]
    corpus = Dataset(
        records=records[:-9],
        name=benchmark.dataset.name,
        attributes=benchmark.dataset.attributes,
    )
    return corpus, holdout, labeler.intent_names, label_pair


@pytest.fixture(scope="module")
def models(corpus_world):
    corpus, holdout, intents, label_pair = corpus_world
    fitted = {}
    for name, (solver, aggregator, inter, metric, k_neighbors, subset) in GRID.items():
        config = FlexERConfig(
            matcher=MatcherConfig(hidden_dims=(24, 12), n_features=96, epochs=2, seed=5),
            graph=GraphConfig(k_neighbors=k_neighbors, metric=metric, include_inter_layer=inter),
            gnn=GNNConfig(hidden_dim=16, epochs=3, seed=5, aggregator=aggregator),
            solver=solver,
        )
        model = repro.fit(corpus, intents=subset or intents, labeler=label_pair, config=config)
        alone = {}
        for record in holdout:
            result = model.session().query([record], k=K, mode="online")
            alone[record.record_id] = answers(result)[record.record_id]
        fitted[name] = (model, model.session(), alone)
    return fitted


def answers(result) -> dict[str, tuple]:
    """Each record's candidates, probability bytes and prediction bytes."""
    out: dict[str, tuple] = {}
    start = 0
    for record_id in result.record_ids:
        candidates = tuple(result.candidates_per_record[record_id])
        rows = slice(start, start + len(candidates))
        start += len(candidates)
        out[record_id] = (
            candidates,
            tuple(result.pairs[rows]),
            {i: result.probabilities[i][rows].tobytes() for i in result.intents},
            {i: result.predictions[i][rows].tobytes() for i in result.intents},
        )
    assert start == len(result.pairs)
    return out


def duplicate(record: Record, tag: int) -> Record:
    """The same content under another id."""
    return Record(f"dup{tag}-{record.record_id}", dict(record.values), record.source)


@pytest.mark.parametrize("name", sorted(GRID))
class TestBatchInvariance:
    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_answer_does_not_depend_on_the_batch(self, models, corpus_world, name, data):
        model, session, alone = models[name]
        holdout = corpus_world[1]
        order = data.draw(st.permutations(holdout))
        size = data.draw(st.sampled_from([1, 2, 7, len(holdout)]) | st.integers(1, 12))
        copies = data.draw(st.lists(st.integers(0, len(holdout) - 1), max_size=4))
        records = list(order)
        for tag, position in enumerate(copies):
            records.insert(position, duplicate(order[position], tag))
        for start in range(0, len(records), size):
            batch = records[start : start + size]
            served = answers(session.query(batch, k=K, mode="online"))
            for record in batch:
                if record.record_id in alone:
                    assert served[record.record_id] == alone[record.record_id]

    def test_permuted_full_batch_matches_alone(self, models, corpus_world, name):
        model, session, alone = models[name]
        records = list(reversed(corpus_world[1]))
        served = answers(session.query(records, k=K, mode="online"))
        assert {rid: served[rid] for rid in alone} == alone

    def test_neighbours_ignore_batch_shaped_products(
        self, models, corpus_world, name, monkeypatch
    ):
        """The kNN probe must take the row-invariant products.

        A batched BLAS product may round a row differently with the
        batch's row count, but such last-bit differences rarely flip a
        neighbour ranking, so the batched products are made strongly
        batch-dependent here.  The row-invariant products stay exact.
        """
        from repro.ann import knn

        exact_dot = knn._dot

        def batch_dependent_dot(queries, data_t, row_invariant):
            products = exact_dot(queries, data_t, row_invariant)
            if row_invariant:
                return products
            noise = np.random.default_rng(len(queries)).normal(size=products.shape)
            return products + noise * np.abs(products).max()

        monkeypatch.setattr(knn, "_dot", batch_dependent_dot)
        model, session, alone = models[name]
        served = answers(session.query(corpus_world[1], k=K, mode="online"))
        assert {rid: served[rid] for rid in alone} == alone

    def test_stacked_pass_matches_per_pair_loop(self, models, corpus_world, name):
        model, session, _ = models[name]
        holdout = corpus_world[1]
        records = holdout + [duplicate(record, 0) for record in holdout[:3]]
        pairs, _ = session._retrieve(records, K)
        candidates = session._query_candidates(session._extended_dataset(records), pairs)
        batched = session._query_online(candidates, model.intents)
        looped = per_pair_oracle(session, candidates, model.intents)
        for intent in model.intents:
            assert batched[intent].dtype == looped[intent].dtype
            assert batched[intent].tobytes() == looped[intent].tobytes()


def per_pair_oracle(session, query_candidates, requested) -> dict[str, np.ndarray]:
    """Online inference one pair at a time: the loop the stacked pass replaced.

    Each pair gets its own representation call, one kNN probe per layer
    and one tiny forward per intent, so nothing in it can depend on the
    batch.
    """
    model = session.model
    config = model.config
    num_query = len(query_candidates)
    num_corpus = int(model.graph_payload["num_pairs"])
    num_layers = len(model.intents)
    inter = config.graph.include_inter_layer and num_layers > 1
    k_graph = min(config.graph.k_neighbors, num_corpus)
    mean_aggregation = config.gnn.aggregator == "mean"
    corpus_features = np.asarray(model.graph_payload["features"], dtype=np.float64)

    probabilities = {intent: np.zeros(num_query, dtype=np.float64) for intent in requested}
    for row in range(num_query):
        pair_set = query_candidates.subset([row])
        features = compute_representations(model.solver, pair_set, model.augment_with_scores)
        hidden0 = np.stack(
            [np.asarray(features[intent][0], dtype=np.float64) for intent in model.intents]
        )
        if k_graph > 0:
            neighbors = np.stack(
                [
                    layer * num_corpus
                    + session._layer_index(intent)
                    .search(hidden0[layer : layer + 1], k_graph)
                    .indices[0]
                    for layer, intent in enumerate(model.intents)
                ]
            )
        else:
            neighbors = np.zeros((num_layers, 0), dtype=np.int64)
        degree = neighbors.shape[1] + (num_layers - 1 if inter else 0)

        for target in requested:
            frozen = session._frozen_sage(target)
            corpus_levels = [corpus_features] + list(model.gnn_hiddens[target])
            hidden = hidden0
            for level in range(frozen.num_convolutions):
                aggregated = np.zeros_like(hidden)
                if degree > 0:
                    if neighbors.shape[1] > 0:
                        aggregated += corpus_levels[level][neighbors].sum(axis=1)
                    if inter:
                        aggregated += hidden.sum(axis=0) - hidden
                    if mean_aggregation:
                        aggregated /= degree
                hidden = frozen.convolve(level, hidden, aggregated)
            target_layer = model.intents.index(target)
            probabilities[target][row] = frozen.probabilities(
                hidden[target_layer : target_layer + 1]
            )[0]
    return probabilities


class TestOneShotTexts:
    @pytest.fixture()
    def transform_log(self, monkeypatch):
        """(vectorizer, cache size before, cache size after) per transform."""
        log = []
        original = HashingVectorizer.transform

        def logged(self, texts, *args, **kwargs):
            before = len(self._text_cache)
            matrix = original(self, texts, *args, **kwargs)
            log.append((self, before, len(self._text_cache)))
            return matrix

        monkeypatch.setattr(HashingVectorizer, "transform", logged)
        return log

    @staticmethod
    def fresh(corpus_world, prefix: str) -> list[Record]:
        """Records no cache has seen: held-out records with a suffix."""
        records = []
        for record in corpus_world[1][:3]:
            values = {name: f"{value} {prefix}" for name, value in record.values.items()}
            records.append(Record(f"{prefix}-{record.record_id}", values, record.source))
        return records

    def test_online_query_caches_no_text(self, models, corpus_world, transform_log):
        model, session, _ = models["in_parallel-mean-inter-l2"]
        encoder_cache = model.solver.encoder._vectorizer._text_cache
        retriever_cache = model.retriever._vectorizer._text_cache
        sizes = (len(encoder_cache), len(retriever_cache))
        session.query(self.fresh(corpus_world, "online"), k=K, mode="online")
        assert (len(encoder_cache), len(retriever_cache)) == sizes
        vectorizers = {id(vectorizer) for vectorizer, _, _ in transform_log}
        assert id(model.solver.encoder._vectorizer) in vectorizers
        assert id(model.retriever._vectorizer) in vectorizers
        assert all(before == after for _, before, after in transform_log)

    def test_exact_query_still_caches_its_texts(self, models, corpus_world, transform_log):
        model, session, _ = models["in_parallel-mean-inter-l2"]
        retriever_cache = model.retriever._vectorizer._text_cache
        size = len(retriever_cache)
        session.query(self.fresh(corpus_world, "exact"), k=K, mode="exact")
        assert len(retriever_cache) == size
        assert any(after > before for _, before, after in transform_log)
