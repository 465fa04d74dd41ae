"""Update rows against the per-pair oracle.

``model.update()`` computes the representation rows of a delta's
refreshed and new pairs in stacked, row-invariant passes of a bounded
chunk size.  Every row, and everything grown from the rows (hidden
states, graph payload, fingerprint), must equal what the one-pair loop
the stacked pass replaced computes, whatever the delta's mix of edits,
additions, deletes and resurrections, and wherever chunk boundaries
fall.  The pass's texts never recur, so none may enter the encoder's
text cache.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.config import FlexERConfig, GNNConfig, GraphConfig, MatcherConfig
from repro.core.flexer import compute_representations
from repro.data.pairs import CandidateSet, LabeledPair
from repro.data.records import Dataset, Record
from repro.datasets import BENCHMARK_LABELERS, load_benchmark
from repro.model import ResolverModel
from repro.registry import MODELS
from repro.text.vectorizers import HashingVectorizer
from repro.update import engine

SOLVERS = ("in_parallel", "multi_label", "naive")


@pytest.fixture(scope="module")
def world():
    """A small corpus, its intents and labeler, and held-out records."""
    benchmark = load_benchmark("amazon_mi", num_pairs=40, products_per_domain=6, seed=7)
    labeler = BENCHMARK_LABELERS["amazon_mi"]
    products = benchmark.record_products

    def label_pair(left, right):
        return labeler.label_pair(products[left.record_id], products[right.record_id])

    records = list(benchmark.dataset.records)
    holdout = records[-6:]
    corpus = Dataset(
        records=records[:-6],
        name=benchmark.dataset.name,
        attributes=benchmark.dataset.attributes,
    )
    return corpus, holdout, labeler.intent_names, label_pair


def fit_model(world, solver: str = "in_parallel", augment: bool = True) -> ResolverModel:
    """A briefly trained model over the corpus."""
    corpus, _, intents, label_pair = world
    config = FlexERConfig(
        matcher=MatcherConfig(hidden_dims=(24, 12), n_features=96, epochs=1, seed=5),
        graph=GraphConfig(k_neighbors=2),
        gnn=GNNConfig(hidden_dim=16, epochs=2, seed=5),
        solver=solver,
    )
    resolver = repro.Resolver(config=config, augment_with_scores=augment)
    return resolver.fit(corpus, intents=intents, labeler=label_pair)


@pytest.fixture(scope="module")
def models(world):
    """One fitted model per (solver, augment_with_scores)."""
    return {
        (solver, augment): fit_model(world, solver, augment)
        for solver in SOLVERS
        for augment in (True, False)
    }


def clone(model: ResolverModel) -> ResolverModel:
    """An independent, mutation-safe copy via the MODELS registry."""
    return MODELS.create(model.to_spec(), arrays=model.payload_arrays())


def per_pair_representations(model, dataset, pair) -> dict[str, np.ndarray]:
    """Per-intent representation row of one pair, computed in isolation."""
    zeros = {intent: 0 for intent in model.intents}
    pair_set = CandidateSet(
        dataset, pairs=[LabeledPair(pair=pair, labels=zeros)], intents=model.intents
    )
    features = compute_representations(model.solver, pair_set, model.augment_with_scores)
    return {intent: np.asarray(features[intent][0], dtype=np.float64) for intent in model.intents}


def per_pair_oracle(model, dataset, pairs) -> dict[str, np.ndarray]:
    """Update rows one pair per call: the loop the stacked pass replaced."""
    rows = [per_pair_representations(model, dataset, pair) for pair in pairs]
    return {intent: np.stack([row[intent] for row in rows]) for intent in model.intents}


def edited(record: Record, tag: str) -> Record:
    """The same record id with a changed title."""
    values = dict(record.values)
    values["title"] = f"{values['title']} {tag}"
    return Record(record.record_id, values, record.source)


@st.composite
def delta_streams(draw, corpus: Dataset, holdout: list[Record]):
    """Valid upsert/delete deltas over the corpus, in any order.

    Each delta may edit fitted records (refreshing their pairs), add
    held-out records, resurrect tombstoned records and delete live ones.
    """
    fitted = [record.record_id for record in corpus]
    originals = {record.record_id: record for record in [*corpus, *holdout]}
    unused = list(holdout)
    live: list[str] = list(fitted)
    tombstones: list[str] = []
    deltas = []
    for step in range(draw(st.integers(1, 3))):
        upserts: dict[str, Record] = {}
        for index in draw(st.lists(st.integers(0, len(fitted) - 1), max_size=2)):
            if fitted[index] in live:
                upserts[fitted[index]] = edited(originals[fitted[index]], f"edit{step}")
        for _ in range(draw(st.integers(0, min(2, len(unused))))):
            record = unused.pop(0)
            upserts[record.record_id] = record
        if tombstones and draw(st.booleans()):
            record_id = tombstones.pop(draw(st.integers(0, len(tombstones) - 1)))
            upserts[record_id] = originals[record_id]
        deletable = [record_id for record_id in live if record_id not in upserts]
        picks = draw(st.lists(st.integers(0, len(deletable) - 1), max_size=2, unique=True))
        deletes = [deletable[index] for index in sorted(picks)]
        if not upserts and not deletes:
            continue
        order = draw(st.permutations(list(upserts.values())))
        for record_id in upserts:
            if record_id not in live:
                live.append(record_id)
        for record_id in deletes:
            live.remove(record_id)
            tombstones.append(record_id)
        deltas.append((order, deletes))
    return deltas


def assert_same_rows(left: ResolverModel, right: ResolverModel) -> None:
    """Representations, hidden states, graph payload and fingerprint, byte for byte."""
    for intent in left.intents:
        mine, theirs = left.representations[intent], right.representations[intent]
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes(), intent
        assert len(left.gnn_hiddens[intent]) == len(right.gnn_hiddens[intent])
        for level, other in zip(left.gnn_hiddens[intent], right.gnn_hiddens[intent]):
            assert np.asarray(level).tobytes() == np.asarray(other).tobytes(), intent
    assert sorted(left.graph_payload) == sorted(right.graph_payload)
    for name, value in left.graph_payload.items():
        assert np.asarray(value).tobytes() == np.asarray(right.graph_payload[name]).tobytes()
    assert left.fingerprint() == right.fingerprint()


@pytest.mark.parametrize("augment", [True, False], ids=["augment", "plain"])
@pytest.mark.parametrize("solver", SOLVERS)
@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_update_rows_match_per_pair_oracle(models, world, solver, augment, data):
    corpus, holdout = world[0], world[1]
    deltas = data.draw(delta_streams(corpus, holdout))
    stacked = clone(models[solver, augment])
    looped = clone(models[solver, augment])
    for upserts, deletes in deltas:
        with pytest.MonkeyPatch.context() as patch:
            # Chunks of three put chunk boundaries inside a delta's pairs.
            patch.setattr(engine, "REPRESENTATION_CHUNK_PAIRS", 3)
            result = stacked.update(upserts=upserts, deletes=deletes, compact="never")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "_pair_representations", per_pair_oracle)
            oracle = looped.update(upserts=upserts, deletes=deletes, compact="never")
        assert result.refreshed_pairs == oracle.refreshed_pairs
        assert result.new_pairs == oracle.new_pairs
        assert_same_rows(stacked, looped)


def test_update_caches_no_text(world, monkeypatch):
    model = fit_model(world)
    vectorizer = model.solver.encoder._vectorizer
    corpus, holdout = world[0], world[1]
    sizes = []
    original = HashingVectorizer.transform

    def logged(self, texts, *args, **kwargs):
        before = len(self._text_cache)
        matrix = original(self, texts, *args, **kwargs)
        if self is vectorizer:
            sizes.append((before, len(self._text_cache)))
        return matrix

    monkeypatch.setattr(HashingVectorizer, "transform", logged)
    cached = len(vectorizer._text_cache)
    assert cached > 0, "the fit cached its texts"
    result = model.update(
        upserts=[edited(corpus.records[0], "cache"), *holdout[:2]], compact="never"
    )
    assert result.refreshed_pairs and result.new_pairs
    assert sizes, "the update encoded no pair"
    assert all(before == after for before, after in sizes)
    assert len(vectorizer._text_cache) == cached
