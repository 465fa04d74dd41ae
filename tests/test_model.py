"""Tests of the fit/serve lifecycle: ResolverModel, QuerySession, persistence."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.config import FlexERConfig, GNNConfig, GraphConfig, MatcherConfig
from repro.data.pairs import CandidateSet, LabeledPair
from repro.data.records import Dataset, Record
from repro.data.splits import DatasetSplit
from repro.datasets import BENCHMARK_LABELERS, load_benchmark
from repro.exceptions import IntentError, ModelError, QueryError
from repro.matching.solvers import InParallelSolver
from repro.model import MODEL_SCHEMA_VERSION, QuerySession, ResolverModel
from repro.pipeline import STAGE_MATCHER_FIT, STAGE_MODEL
from repro.registry import MODELS
from repro.resolver import Resolver


@pytest.fixture(scope="module")
def model_config() -> FlexERConfig:
    return FlexERConfig(
        matcher=MatcherConfig(hidden_dims=(24, 12), n_features=96, epochs=2, seed=5),
        graph=GraphConfig(k_neighbors=2),
        gnn=GNNConfig(hidden_dim=16, epochs=4, seed=5),
    )


@pytest.fixture(scope="module")
def model_world(model_config):
    """A fitted model plus the held-out records it can be queried with."""
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
    model = repro.fit(
        corpus, intents=labeler.intent_names, labeler=label_pair, config=model_config
    )
    return model, holdout, corpus


class TestFit:
    def test_fit_returns_model_with_corpus_result(self, model_world):
        model, _, corpus = model_world
        assert isinstance(model, ResolverModel)
        assert model.corpus is corpus
        assert model.fit_result is not None
        assert model.fit_result.blocking is not None
        statuses = model.fit_result.pipeline.stage_status()
        assert statuses[STAGE_MODEL] == "computed"
        assert statuses[STAGE_MATCHER_FIT] == "computed"

    def test_model_build_is_a_cacheable_stage(self, model_config, tiny_benchmark):
        from repro.pipeline import PipelineRunner

        runner = PipelineRunner()
        cold = runner.fit_model(tiny_benchmark.split, tiny_benchmark.intents, model_config)
        warm = runner.fit_model(tiny_benchmark.split, tiny_benchmark.intents, model_config)
        assert cold.pipeline.stage_status()[STAGE_MODEL] == "computed"
        assert warm.pipeline.stage_status()[STAGE_MODEL] == "hit"
        assert warm.model.fingerprint() == cold.model.fingerprint()

    def test_gnn_artifact_without_weights_is_retrained(
        self, model_config, tiny_benchmark, tmp_path
    ):
        """A gnn artifact written before weights were persisted is a miss."""
        from repro.data.serialization import write_artifact
        from repro.pipeline import ArtifactCache, PipelineRunner

        split, intents = tiny_benchmark.split, tiny_benchmark.intents
        cold = PipelineRunner().fit_model(split, intents, model_config)
        # A warm on-disk cache whose gnn artifacts carry no state:: arrays.
        warm = PipelineRunner(cache=ArtifactCache(tmp_path)).run(split, intents, model_config)
        gnn_events = [event for event in warm.events if event.stage.startswith("gnn:")]
        assert len(gnn_events) == len(intents)
        disk = ArtifactCache(tmp_path)
        for event in gnn_events:
            artifact = disk.get(event.stage, event.key)
            arrays = {
                name: array
                for name, array in artifact.arrays.items()
                if not name.startswith("state::")
            }
            assert len(arrays) < len(artifact.arrays)
            write_artifact(disk.artifact_path(event.stage, event.key), arrays, artifact.metadata)

        stale_cache = ArtifactCache(tmp_path)
        stale = PipelineRunner(cache=stale_cache).fit_model(split, intents, model_config)
        statuses = stale.pipeline.stage_status()
        assert {statuses[event.stage] for event in gnn_events} == {"computed"}
        assert statuses[STAGE_MATCHER_FIT] == "hit"
        # The discarded artifacts' lookups count as misses, not hits.
        hit_events = sum(status == "hit" for status in statuses.values())
        assert stale_cache.stats.hits == hit_events
        assert stale.model.fingerprint() == cold.model.fingerprint()
        # The retrained artifacts replaced the stale ones on disk.
        again = PipelineRunner(cache=ArtifactCache(tmp_path)).fit_model(
            split, intents, model_config
        )
        assert again.pipeline.computed_stages == ()

    def test_describe(self, model_world):
        model, _, _ = model_world
        description = model.describe()
        assert description["retriever"] == "ann_knn"
        assert description["schema_version"] == MODEL_SCHEMA_VERSION
        assert description["corpus_records"] == len(model.corpus)


class TestQueryBasics:
    def test_query_produces_aligned_outputs(self, model_world):
        model, holdout, _ = model_world
        result = model.query(holdout, k=3, mode="online")
        assert result.record_ids == tuple(r.record_id for r in holdout)
        assert result.intents == model.intents
        for intent in result.intents:
            assert result.probabilities[intent].shape == (len(result.pairs),)
            assert set(np.unique(result.predictions[intent])) <= {0, 1}
        # Every pair relates a query record to a corpus record.
        for pair in result.pairs:
            ids = pair.as_tuple()
            assert any(r.record_id in ids for r in holdout)
            assert any(record_id in model.corpus for record_id in ids)

    def test_intent_subset_query(self, model_world):
        model, holdout, _ = model_world
        target = model.intents[0]
        result = model.query(holdout[:2], intents=[target], k=2, mode="online")
        assert result.intents == (target,)

    def test_query_validation(self, model_world):
        model, holdout, corpus = model_world
        with pytest.raises(QueryError, match="at least one record"):
            model.query([])
        with pytest.raises(QueryError, match="duplicate"):
            model.query([holdout[0], holdout[0]])
        with pytest.raises(QueryError, match="already part of the fitted corpus"):
            model.query([corpus.records[0]])
        with pytest.raises(QueryError, match="mode"):
            model.query(holdout, mode="telepathic")
        with pytest.raises(IntentError):
            model.query(holdout, intents=["nonexistent"])
        with pytest.raises(QueryError, match="schema"):
            model.query([Record(record_id="zzz-new", values={"alien_column": "x"})])

    @pytest.mark.parametrize("mode", ["online", "exact"])
    @pytest.mark.parametrize("k", [0, 2.5, "3", True])
    def test_k_must_be_a_positive_integer(self, model_world, mode, k):
        """A bad ``k`` is a typed input error, never truncated or coerced."""
        model, holdout, _ = model_world
        with pytest.raises(QueryError, match="k must be an integer"):
            model.query(holdout[:1], k=k, mode=mode)
        with pytest.raises(QueryError, match="k must be an integer"):
            model.session().validate(holdout[:1], k=k)

    def test_numpy_integer_k_is_accepted(self, model_world):
        model, holdout, _ = model_world
        plain = model.query(holdout[:1], k=2, mode="online")
        numpy_k = model.query(holdout[:1], k=np.int64(2), mode="online")
        assert plain.candidates_per_record == numpy_k.candidates_per_record

    def test_exact_mode_records_matcher_cache_hit(self, model_world):
        model, holdout, _ = model_world
        result = model.query(holdout[:2], k=2, mode="exact")
        events = {event.stage: event for event in result.events}
        assert events[STAGE_MATCHER_FIT].cached

    def test_query_never_refits_components(self, model_world, monkeypatch):
        """Neither query mode may call any fit() on the fitted components."""
        model, holdout, _ = model_world

        def forbidden_fit(self, *args, **kwargs):  # pragma: no cover - trap
            raise AssertionError("query path re-fitted the solver")

        monkeypatch.setattr(InParallelSolver, "fit", forbidden_fit)
        monkeypatch.setattr(
            type(model.retriever), "fit", lambda *a, **k: pytest.fail("retriever refit")
        )
        exact = model.session()
        online = model.session()
        exact.query(holdout[:2], k=2, mode="exact")
        online.query(holdout[:2], k=2, mode="online")


class TestExactParity:
    def test_exact_query_matches_full_resolve_rerun(self, model_world, model_config):
        """The acceptance criterion: query() == a full repro.resolve() re-run
        whose candidate set includes the query pairs, bit for bit."""
        model, holdout, corpus = model_world
        result = model.query(holdout, k=3, mode="exact")
        assert result.pairs, "retriever produced no candidates"

        extended = Dataset(
            records=list(corpus.records) + holdout,
            name=corpus.name,
            attributes=corpus.attributes,
        )

        def rebuilt(part):
            return CandidateSet(extended, pairs=list(part), intents=model.intents)

        test = rebuilt(model.split.test)
        zeros = {intent: 0 for intent in model.intents}
        for pair in result.pairs:
            test.add(LabeledPair(pair=pair, labels=zeros))
        split = DatasetSplit(
            train=rebuilt(model.split.train), valid=rebuilt(model.split.valid), test=test
        )
        rerun = repro.resolve(split, config=model_config)
        num_query = len(result.pairs)
        for intent in model.intents:
            assert np.array_equal(
                rerun.solution.probabilities[intent][-num_query:],
                result.probabilities[intent],
            ), intent
            assert np.array_equal(
                rerun.solution.predictions[intent][-num_query:],
                result.predictions[intent],
            ), intent

    def test_repeated_exact_queries_hit_the_session_cache(self, model_world):
        model, holdout, _ = model_world
        session = model.session()
        cold = session.query(holdout[:2], k=2, mode="exact")
        warm = session.query(holdout[:2], k=2, mode="exact")
        warm_statuses = {event.stage: event.status for event in warm.events}
        assert set(warm_statuses.values()) == {"hit"}
        for intent in model.intents:
            assert np.array_equal(
                cold.probabilities[intent], warm.probabilities[intent]
            )


class TestPersistence:
    def test_save_load_round_trip_is_byte_identical_in_query(self, model_world, tmp_path):
        """The acceptance criterion: save/load round-trips reproduce query()
        outputs byte-for-byte, in both modes."""
        model, holdout, _ = model_world
        path = model.save(tmp_path / "model.npz")
        loaded = repro.load_model(path)
        assert loaded.fingerprint() == model.fingerprint()
        for mode in ("online", "exact"):
            original = model.query(holdout, k=3, mode=mode)
            restored = loaded.query(holdout, k=3, mode=mode)
            assert [p.as_tuple() for p in original.pairs] == [
                p.as_tuple() for p in restored.pairs
            ]
            for intent in model.intents:
                assert np.array_equal(
                    original.probabilities[intent].view(np.uint64),
                    restored.probabilities[intent].view(np.uint64),
                ), (mode, intent)

    def test_saved_artifact_dump_is_deterministic(self, model_world, tmp_path):
        model, _, _ = model_world
        first = model.save(tmp_path / "a.npz")
        second = model.save(tmp_path / "b.npz")
        assert first.read_bytes() == second.read_bytes()

    def test_load_rejects_non_model_artifacts(self, tmp_path):
        from repro.data.serialization import write_artifact

        path = write_artifact(tmp_path / "other.npz", {"x": np.zeros(3)}, {"kind": "misc"})
        with pytest.raises(ModelError, match="not a resolver model"):
            ResolverModel.load(path)

    def test_load_rejects_newer_model_schema(self, model_world, tmp_path):
        from repro.data.serialization import read_artifact, write_artifact

        model, _, _ = model_world
        path = model.save(tmp_path / "model.npz")
        arrays, metadata = read_artifact(path)
        metadata["model"]["schema_version"] = MODEL_SCHEMA_VERSION + 1
        newer = write_artifact(tmp_path / "newer.npz", arrays, metadata)
        with pytest.raises(ModelError, match="schema version"):
            ResolverModel.load(newer)

    def test_load_survives_library_version_bumps(self, model_world, tmp_path):
        """The fingerprint covers the stored document, not the current
        library version — artifacts keep loading across releases."""
        import repro.model as model_module

        model, holdout, _ = model_world
        path = model.save(tmp_path / "model.npz")
        original_version = model_module._library_version
        model_module._library_version = original_version + ".post1"
        try:
            loaded = ResolverModel.load(path)
        finally:
            model_module._library_version = original_version
        result = loaded.query(holdout[:2], k=2, mode="online")
        assert len(result.record_ids) == 2

    def test_load_requires_a_fingerprint(self, model_world, tmp_path):
        from repro.data.serialization import read_artifact, write_artifact

        model, _, _ = model_world
        path = model.save(tmp_path / "model.npz")
        arrays, metadata = read_artifact(path)
        del metadata["fingerprint"]
        stripped = write_artifact(tmp_path / "stripped.npz", arrays, metadata)
        with pytest.raises(ModelError, match="no fingerprint"):
            ResolverModel.load(stripped)

    def test_load_detects_tampered_payload(self, model_world, tmp_path):
        from repro.data.serialization import read_artifact, write_artifact

        model, _, _ = model_world
        path = model.save(tmp_path / "model.npz")
        arrays, metadata = read_artifact(path)
        key = next(k for k in arrays if k.startswith("repr::"))
        arrays[key] = arrays[key] + 1.0
        tampered = write_artifact(tmp_path / "tampered.npz", arrays, metadata)
        with pytest.raises(ModelError, match="fingerprint"):
            ResolverModel.load(tampered)

    def test_registry_round_trip(self, model_world, tmp_path):
        model, holdout, _ = model_world
        spec = model.to_spec()
        assert spec["type"] == "flexer"
        clone = MODELS.create(spec, arrays=model.payload_arrays())
        original = model.query(holdout[:2], k=2, mode="online")
        cloned = clone.query(holdout[:2], k=2, mode="online")
        for intent in model.intents:
            assert np.array_equal(
                original.probabilities[intent], cloned.probabilities[intent]
            )


class TestBatchIndependence:
    def test_online_results_are_batch_independent(self, model_world):
        """Each record's prediction is independent of its micro-batch."""
        model, holdout, _ = model_world
        batch = model.query(holdout, k=3, mode="online")
        for record in holdout:
            single = model.query([record], k=3, mode="online")
            rows = [
                index
                for index, pair in enumerate(batch.pairs)
                if record.record_id in pair.as_tuple()
            ]
            for intent in batch.intents:
                assert np.array_equal(
                    batch.probabilities[intent][rows], single.probabilities[intent]
                )


class TestQueryResult:
    def test_helpers(self, model_world):
        model, holdout, _ = model_world
        result = model.query(holdout, k=3, mode="online")
        record_id = holdout[0].record_id
        for pair in result.pairs_for(record_id):
            assert record_id in pair.as_tuple()
        intent = model.intents[0]
        matched = result.matches(intent)
        assert len(matched) == int(result.predictions[intent].sum())
        with pytest.raises(QueryError):
            result.pairs_for("not-a-query-record")
        arrays, metadata = result.as_arrays()
        assert metadata["num_pairs"] == len(result)
        assert arrays["pairs"].shape == (len(result), 2)

    def test_empty_retrieval_yields_empty_result(self, model_config, tiny_benchmark):
        """A record with no shared blocking keys retrieves nothing."""
        resolver = Resolver(config=model_config)
        model = resolver.fit(tiny_benchmark.split, retriever="blocker")
        alien = Record(record_id="qqq-alien", values={"title": "zzzzqqqq"})
        result = model.query([alien], k=3, mode="online")
        assert len(result) == 0
        assert result.candidates_per_record["qqq-alien"] == []


class TestSumAggregatorModels:
    def test_online_mode_honours_sum_aggregation(self, tiny_benchmark):
        """Frozen inference must not mean-normalize a sum-aggregator model."""
        config = FlexERConfig(
            matcher=MatcherConfig(hidden_dims=(16, 8), n_features=64, epochs=1, seed=5),
            graph=GraphConfig(k_neighbors=2),
            gnn=GNNConfig(hidden_dim=8, epochs=2, seed=5, aggregator="sum"),
        )
        model = Resolver(config=config).fit(tiny_benchmark.split)
        probe = Record(record_id="zz-probe", values={"title": "nike air max running"})
        session = model.session()
        result = session.query([probe], k=2, mode="online")
        for intent in model.intents:
            assert np.all((result.probabilities[intent] >= 0) & (result.probabilities[intent] <= 1))
        # The sum model's online path must diverge from a mean-normalized
        # replay of the same computation: monkey-free check via a mean
        # model sharing every other hyper-parameter.
        mean_model = Resolver(
            config=FlexERConfig(
                matcher=config.matcher, graph=config.graph,
                gnn=GNNConfig(hidden_dim=8, epochs=2, seed=5, aggregator="mean"),
            )
        ).fit(tiny_benchmark.split)
        mean_result = mean_model.session().query([probe], k=2, mode="online")
        assert result.pairs == mean_result.pairs
        assert any(
            not np.array_equal(result.probabilities[i], mean_result.probabilities[i])
            for i in model.intents
        )


class TestQuerySessionConstruction:
    def test_exact_cache_is_bounded(self, model_world, monkeypatch):
        """Distinct exact batches must not grow the session cache forever."""
        from repro.pipeline import STAGE_MATCHER_FIT as MATCHER_STAGE

        model, holdout, _ = model_world
        session = QuerySession(model)
        monkeypatch.setattr(QuerySession, "EXACT_CACHE_MAX_ARTIFACTS", 1)
        session.query(holdout[:2], k=2, mode="exact")
        before = session._runner.cache.memory_artifacts
        result = session.query(holdout[2:4], k=2, mode="exact")
        after = session._runner.cache.memory_artifacts
        # The second batch pruned back to the seeded matcher artifact
        # before running, so the cache holds one batch's stages, not two.
        assert after <= before
        assert {event.stage: event.status for event in result.events}[
            MATCHER_STAGE
        ] == "hit"

    def test_session_is_reusable_and_shares_state(self, model_world):
        model, holdout, _ = model_world
        session = QuerySession(model)
        first = session.query(holdout[:2], k=2, mode="online")
        second = session.query(holdout[2:4], k=2, mode="online")
        assert first.mode == second.mode == "online"
        # Frozen per-intent states and layer indexes are built once.
        assert set(session._frozen) == set(model.intents)
