"""Tests of the hashed-vector candidate retrievers (ann_knn / hnsw / lsh).

The contract suite runs identically over the exact ``ann_knn`` and the
sub-linear ``hnsw``/``lsh`` retrievers: admissibility filtering,
tombstones, delta updates, batch-order independence, and byte-identical
persistence round-trips (including memory-mapped loading).
Retriever-specific classes cover what differs — fresh-fit
bit-identity under deltas for ``ann_knn`` and ``lsh``, HNSW's seeded
level hierarchy — and the model-level class exercises the retrievers
through ``repro.fit`` / ``save`` / ``load`` / ``update``.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.ann import seeded_levels
from repro.data.records import Dataset, Record
from repro.data.serialization import read_artifact_lazy, write_artifact
from repro.datasets import BENCHMARK_LABELERS, load_benchmark
from repro.datasets.scale import ScaleWorkloadConfig, make_scale_workload
from repro.evaluation import evaluate_candidates
from repro.exceptions import ConfigurationError, NotFittedError
from repro.registry import CANDIDATE_RETRIEVERS
from repro.retrieval import AnnKnnRetriever, HnswRetriever, LshRetriever

RETRIEVER_NAMES = ("ann_knn", "hnsw", "lsh")

#: A non-default constructor parameter of each retriever, for spec round trips.
SPEC_PARAMS = {"ann_knn": {"metric": "cosine"}, "hnsw": {"seed": 9}, "lsh": {"seed": 9}}


def make_retriever(name: str, **overrides):
    """A small-corpus-friendly instance of the named retriever."""
    if name == "ann_knn":
        return AnnKnnRetriever(n_features=64, **overrides)
    if name == "hnsw":
        return HnswRetriever(n_features=64, ef_search=64, **overrides)
    # Short bands keep buckets populated on the few-hundred-record
    # corpora of this suite (the defaults target million-record scale).
    return LshRetriever(n_features=64, num_bands=48, rows_per_band=6, **overrides)


@pytest.fixture(scope="module")
def cluster_world():
    """A 400-record clustered corpus plus out-of-corpus query records."""
    workload = make_scale_workload(
        ScaleWorkloadConfig(num_records=400, num_queries=30, seed=1)
    )
    return workload.corpus, list(workload.queries)


@pytest.fixture
def tiny_corpus() -> Dataset:
    records = [
        Record(record_id="c1", values={"title": "nike air max 2016 running shoe"}),
        Record(record_id="c2", values={"title": "nike air max 2016 running"}),
        Record(record_id="c3", values={"title": "adidas boost primeknit basketball"}),
    ]
    return Dataset(records=records, name="tiny", attributes=("title",))


@pytest.fixture
def query_record() -> Record:
    return Record(record_id="q1", values={"title": "nike air max 2016 running shoes"})


@pytest.mark.parametrize("name", RETRIEVER_NAMES)
class TestSublinearContract:
    def test_recall_against_exact_oracle(self, name, cluster_world):
        corpus, queries = cluster_world
        oracle = AnnKnnRetriever(n_features=64).fit(corpus)
        retriever = make_retriever(name).fit(corpus)
        quality = evaluate_candidates(retriever, oracle, queries, ks=(10,))
        assert quality.recall[10] >= 0.85
        assert quality.empty_candidate_queries == 0

    def test_requires_fit_and_positive_k(self, name, tiny_corpus, query_record):
        retriever = make_retriever(name)
        with pytest.raises(NotFittedError):
            retriever.retrieve([query_record], k=1)
        retriever.fit(tiny_corpus)
        with pytest.raises(ConfigurationError):
            retriever.retrieve([query_record], k=0)
        assert retriever.retrieve([], k=3) == []

    def test_excludes_query_self_id(self, name, tiny_corpus):
        retriever = make_retriever(name).fit(tiny_corpus)
        clone = Record(record_id="c1", values={"title": "nike air max 2016 running shoe"})
        (ids,) = retriever.retrieve([clone], k=10)
        assert "c1" not in ids

    def test_corpus_smaller_than_k(self, name, tiny_corpus, query_record):
        retriever = make_retriever(name).fit(tiny_corpus)
        (ids,) = retriever.retrieve([query_record], k=50)
        assert len(ids) <= len(tiny_corpus)
        assert len(set(ids)) == len(ids)
        singleton = Dataset(
            records=[Record(record_id="only", values={"title": "nike air max"})],
            name="one",
            attributes=("title",),
        )
        lone = make_retriever(name).fit(singleton)
        (ids,) = lone.retrieve([query_record], k=10)
        assert ids in ([], ["only"])

    def test_cross_source_only_filters_same_source(self, name):
        records = [
            Record(record_id="w1", values={"title": "nike air max"}, source="walmart"),
            Record(record_id="a1", values={"title": "nike air max"}, source="amazon"),
        ]
        corpus = Dataset(records=records, name="cc", attributes=("title",))
        retriever = make_retriever(name, cross_source_only=True).fit(corpus)
        query = Record(record_id="w9", values={"title": "nike air max"}, source="walmart")
        (ids,) = retriever.retrieve([query], k=5)
        assert ids == ["a1"]

    def test_all_tombstoned_returns_empty(self, name, tiny_corpus, query_record):
        retriever = make_retriever(name).fit(tiny_corpus)
        retriever.set_tombstones({"c1", "c2", "c3"})
        assert retriever.retrieve([query_record], k=5) == [[]]

    def test_tombstones_are_excluded_not_resurrected(self, name, cluster_world):
        corpus, queries = cluster_world
        retriever = make_retriever(name).fit(corpus)
        (before,) = retriever.retrieve(queries[:1], k=5)
        assert before
        retriever.set_tombstones(set(before))
        (after,) = retriever.retrieve(queries[:1], k=5)
        assert not (set(after) & set(before))

    def test_batch_order_independence(self, name, cluster_world):
        corpus, queries = cluster_world
        retriever = make_retriever(name).fit(corpus)
        batch = queries[:8]
        forward = retriever.retrieve(batch, k=5)
        backward = retriever.retrieve(list(reversed(batch)), k=5)
        assert forward == list(reversed(backward))
        solo = [retriever.retrieve([record], k=5)[0] for record in batch]
        assert forward == solo

    def test_state_round_trip_is_byte_identical(self, name, cluster_world):
        corpus, queries = cluster_world
        fitted = make_retriever(name).fit(corpus)
        restored = make_retriever(name)
        restored.load_state(fitted.state_arrays(), corpus)
        assert fitted.retrieve(queries, k=10) == restored.retrieve(queries, k=10)
        first = fitted.state_arrays()
        second = restored.state_arrays()
        assert sorted(first) == sorted(second)
        for key in first:
            assert np.array_equal(first[key], second[key]), key

    def test_vectors_only_state_rebuilds_deterministically(self, name, cluster_world):
        corpus, queries = cluster_world
        fitted = make_retriever(name).fit(corpus)
        rebuilt = make_retriever(name)
        rebuilt.load_state({"vectors": fitted.state_arrays()["vectors"]}, corpus)
        assert fitted.retrieve(queries, k=10) == rebuilt.retrieve(queries, k=10)

    def test_mmap_state_answers_byte_identically(self, name, cluster_world, tmp_path):
        corpus, queries = cluster_world
        fitted = make_retriever(name).fit(corpus)
        path = tmp_path / f"{name}-state.npz"
        write_artifact(path, dict(fitted.state_arrays()), metadata={})
        arrays, _ = read_artifact_lazy(path)
        restored = make_retriever(name)
        restored.load_state(arrays, corpus)
        assert fitted.retrieve(queries, k=10) == restored.retrieve(queries, k=10)

    def test_registry_round_trip(self, name):
        params = SPEC_PARAMS[name]
        retriever = CANDIDATE_RETRIEVERS.create({"type": name, "n_features": 32, **params})
        spec = CANDIDATE_RETRIEVERS.spec(retriever)
        assert spec["type"] == name
        assert spec["params"]["n_features"] == 32
        rebuilt = CANDIDATE_RETRIEVERS.create(spec)
        assert rebuilt.n_features == 32
        for key, value in params.items():
            assert getattr(rebuilt, key) == value
        assert CANDIDATE_RETRIEVERS.spec(rebuilt) == spec

    def test_string_attributes_are_rejected(self, name):
        # tuple("title") would name the attributes "t", "i", "t", "l", "e",
        # which no record has: every record would hash to a zero vector.
        with pytest.raises(ConfigurationError, match="attributes"):
            CANDIDATE_RETRIEVERS.create({"type": name, "attributes": "title"})
        retriever = CANDIDATE_RETRIEVERS.create({"type": name, "attributes": ["title"]})
        assert retriever.attributes == ("title",)

    def test_apply_delta_insert_then_delete_round_trip(self, name, cluster_world):
        corpus, _ = cluster_world
        retriever = make_retriever(name).fit(corpus)
        new = Record(record_id="fresh-1", values={"title": "zorblatt quantum widget 9000"})
        extended = Dataset(
            records=list(corpus.records) + [new],
            name=corpus.name,
            attributes=corpus.attributes,
        )
        retriever.apply_delta(extended, ["fresh-1"])
        probe = Record(record_id="probe", values={"title": "zorblatt quantum widget 9001"})
        (ids,) = retriever.retrieve([probe], k=5)
        assert "fresh-1" in ids
        retriever.apply_delta(extended, [], tombstones=["fresh-1"])
        (ids,) = retriever.retrieve([probe], k=5)
        assert "fresh-1" not in ids

    def test_apply_delta_modified_record_uses_new_text(self, name, tiny_corpus):
        retriever = make_retriever(name).fit(tiny_corpus)
        modified = Dataset(
            records=[
                Record(record_id="c1", values={"title": "garmin forerunner gps watch"}),
                tiny_corpus["c2"],
                tiny_corpus["c3"],
            ],
            name=tiny_corpus.name,
            attributes=tiny_corpus.attributes,
        )
        retriever.apply_delta(modified, ["c1"])
        probe = Record(record_id="p", values={"title": "garmin forerunner gps watches"})
        (ids,) = retriever.retrieve([probe], k=1)
        assert ids == ["c1"]

    def test_apply_delta_refits_when_prefix_moves(self, name, tiny_corpus, query_record):
        retriever = make_retriever(name).fit(tiny_corpus)
        reordered = Dataset(
            records=[tiny_corpus["c3"], tiny_corpus["c1"], tiny_corpus["c2"]],
            name=tiny_corpus.name,
            attributes=tiny_corpus.attributes,
        )
        retriever.apply_delta(reordered, [])
        fresh = make_retriever(name).fit(reordered)
        assert retriever.retrieve([query_record], k=3) == fresh.retrieve(
            [query_record], k=3
        )


def assert_delta_is_bit_identical_to_fresh_fit(name, cluster_world, **overrides):
    """A delta that edits, appends and deletes leaves a fresh fit's state.

    Holds where the index is derived from each row alone (``ann_knn``,
    ``lsh``); ``hnsw``'s incrementally linked graph is only equivalent.
    """
    corpus, queries = cluster_world
    retriever = make_retriever(name, **overrides).fit(corpus)
    records = list(corpus.records)
    edited = Record(records[3].record_id, {"title": "garmin forerunner gps watch"})
    records[3] = edited
    extra = [
        Record(record_id=f"x{i}", values={"title": f"brand new gadget {i}"})
        for i in range(5)
    ]
    updated = Dataset(
        records=records + extra, name=corpus.name, attributes=corpus.attributes
    )
    (nearest,) = retriever.retrieve(queries[:1], k=1)
    retriever.apply_delta(
        updated, [edited.record_id] + [r.record_id for r in extra], tombstones=nearest
    )
    fresh = make_retriever(name, **overrides).fit(updated)
    fresh.set_tombstones(nearest)
    assert retriever.retrieve(queries, k=10) == fresh.retrieve(queries, k=10)
    incremental = retriever.state_arrays()
    refit = fresh.state_arrays()
    assert sorted(incremental) == sorted(refit)
    for key in refit:
        assert np.array_equal(incremental[key], refit[key]), key


class TestAnnKnnSpecifics:
    @pytest.mark.parametrize("metric", ["l2", "cosine"])
    def test_apply_delta_is_bit_identical_to_fresh_fit(self, cluster_world, metric):
        assert_delta_is_bit_identical_to_fresh_fit("ann_knn", cluster_world, metric=metric)

    def test_cross_source_only_ranks_the_whole_corpus(self):
        # Ten same-source copies of the query outrank the one record from
        # another source; an over-fetch by k would stop short of it.
        records = [
            Record(f"w{i}", {"title": "nike air max"}, source="walmart") for i in range(10)
        ]
        records.append(Record("a1", {"title": "adidas boost"}, source="amazon"))
        corpus = Dataset(records=records, name="cc", attributes=("title",))
        retriever = make_retriever("ann_knn", cross_source_only=True).fit(corpus)
        query = Record("w99", {"title": "nike air max"}, source="walmart")
        assert retriever.retrieve([query], k=1) == [["a1"]]


class TestLshSpecifics:
    def test_apply_delta_is_bit_identical_to_fresh_fit(self, cluster_world):
        assert_delta_is_bit_identical_to_fresh_fit("lsh", cluster_world)

    def test_rejects_out_of_range_rows_per_band(self):
        with pytest.raises(ConfigurationError):
            LshRetriever(rows_per_band=0).fit(
                Dataset(
                    records=[Record(record_id="a", values={"title": "x"})],
                    name="d",
                    attributes=("title",),
                )
            )


class TestHnswSpecifics:
    def test_seeded_levels_are_insertion_order_independent(self):
        ids = [f"rec-{i}" for i in range(500)]
        forward = seeded_levels(ids, seed=3)
        shuffled_ids = list(reversed(ids))
        backward = seeded_levels(shuffled_ids, seed=3)
        assert np.array_equal(forward, backward[::-1])
        # Geometric decay: level 0 holds roughly half the records.
        assert (forward == 0).mean() > 0.3
        assert forward.max() >= 1

    def test_inserted_records_get_their_fresh_fit_levels(self, cluster_world):
        corpus, _ = cluster_world
        retriever = make_retriever("hnsw").fit(corpus)
        extra = [
            Record(record_id=f"y{i}", values={"title": f"novel item number {i}"})
            for i in range(4)
        ]
        extended = Dataset(
            records=list(corpus.records) + extra,
            name=corpus.name,
            attributes=corpus.attributes,
        )
        retriever.apply_delta(extended, [r.record_id for r in extra])
        fresh = make_retriever("hnsw").fit(extended)
        assert np.array_equal(
            retriever.state_arrays()["levels"], fresh.state_arrays()["levels"]
        )

    def test_wider_beam_never_lowers_recall_materially(self, cluster_world):
        corpus, queries = cluster_world
        oracle = AnnKnnRetriever(n_features=64).fit(corpus)
        narrow = HnswRetriever(n_features=64, ef_search=8).fit(corpus)
        wide = HnswRetriever(n_features=64, ef_search=128)
        wide.load_state({"vectors": narrow.state_arrays()["vectors"]}, corpus)
        narrow_q = evaluate_candidates(narrow, oracle, queries, ks=(10,))
        wide_q = evaluate_candidates(wide, oracle, queries, ks=(10,))
        assert wide_q.recall[10] >= narrow_q.recall[10] - 1e-9


@pytest.fixture(scope="module")
def model_config():
    from repro.config import FlexERConfig, GNNConfig, GraphConfig, MatcherConfig

    return FlexERConfig(
        matcher=MatcherConfig(hidden_dims=(24, 12), n_features=96, epochs=2, seed=5),
        graph=GraphConfig(k_neighbors=3),
        gnn=GNNConfig(hidden_dim=16, epochs=4, seed=5),
    )


@pytest.fixture(scope="module", params=RETRIEVER_NAMES)
def sublinear_model(request, model_config):
    """A ResolverModel fitted with the parametrized hashed-vector retriever."""
    benchmark = load_benchmark("amazon_mi", num_pairs=80, products_per_domain=8, seed=7)
    labeler = BENCHMARK_LABELERS["amazon_mi"]
    products = benchmark.record_products

    def label_pair(left, right):
        return labeler.label_pair(products[left.record_id], products[right.record_id])

    records = list(benchmark.dataset.records)
    holdout = records[-4:]
    corpus = Dataset(
        records=records[:-4],
        name=benchmark.dataset.name,
        attributes=benchmark.dataset.attributes,
    )
    spec = {"type": request.param, "n_features": 64}
    if request.param == "lsh":
        spec.update(num_bands=48, rows_per_band=6)
    model = repro.fit(
        corpus,
        intents=labeler.intent_names,
        labeler=label_pair,
        config=model_config,
        retriever=spec,
    )
    return model, holdout


class TestModelIntegration:
    def test_fit_bundles_the_requested_retriever(self, sublinear_model):
        model, holdout = sublinear_model
        assert model.retriever_spec["type"] in RETRIEVER_NAMES
        candidates = model.retriever.retrieve(holdout, k=4)
        assert len(candidates) == len(holdout)

    def test_save_load_mmap_candidates_are_byte_identical(
        self, sublinear_model, tmp_path
    ):
        model, holdout = sublinear_model
        path = model.save(tmp_path / "model.npz")
        eager = repro.load_model(path)
        lazy = repro.load_model(path, mmap=True)
        expected = model.retriever.retrieve(holdout, k=5)
        assert eager.retriever.retrieve(holdout, k=5) == expected
        assert lazy.retriever.retrieve(holdout, k=5) == expected

    def test_update_then_force_compact_matches_refit_retriever(self, sublinear_model):
        model, holdout = sublinear_model
        model.update(upserts=[holdout[0]], compact="force")
        refit = CANDIDATE_RETRIEVERS.create(model.retriever_spec)
        refit.fit(model.corpus)
        refit.set_tombstones(model.tombstones)
        probes = holdout[1:]
        assert model.retriever.retrieve(probes, k=5) == refit.retrieve(probes, k=5)
