"""Tests of the staged pipeline: fingerprints, caching, and batch grids."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import CacheConfig, FlexERConfig, GNNConfig, GraphConfig, MatcherConfig
from repro.data.serialization import read_artifact, write_artifact
from repro.datasets import load_benchmark
from repro.exceptions import DataError, IntentError
from repro.matching import InParallelSolver, MultiLabelSolver
from repro.pipeline import (
    STAGE_GRAPH_BUILD,
    STAGE_MATCHER_FIT,
    STAGE_REPRESENTATION,
    Artifact,
    ArtifactCache,
    BatchRunner,
    PipelineRunner,
    digest,
    fingerprint_candidates,
    k_sweep,
)


@pytest.fixture(scope="module")
def pipeline_benchmark():
    """A small AmazonMI-like benchmark for pipeline tests."""
    return load_benchmark("amazon_mi", num_pairs=110, products_per_domain=10, seed=11)


@pytest.fixture(scope="module")
def pipeline_config() -> FlexERConfig:
    """A fast configuration for staged runs."""
    return FlexERConfig(
        matcher=MatcherConfig(hidden_dims=(20, 10), n_features=80, epochs=3, seed=9),
        graph=GraphConfig(k_neighbors=3),
        gnn=GNNConfig(hidden_dim=12, epochs=6, seed=9),
    )


EQUIVALENCE = "equivalence"


class TestFingerprints:
    def test_digest_is_stable_and_config_sensitive(self, pipeline_config):
        first = digest("stage", pipeline_config)
        second = digest("stage", pipeline_config)
        assert first == second
        changed = FlexERConfig(
            matcher=pipeline_config.matcher,
            graph=GraphConfig(k_neighbors=5),
            gnn=pipeline_config.gnn,
        )
        assert digest("stage", changed) != first

    def test_candidate_fingerprint_is_data_sensitive(self, pipeline_benchmark):
        split = pipeline_benchmark.split
        assert fingerprint_candidates(split.train) == fingerprint_candidates(split.train)
        assert fingerprint_candidates(split.train) != fingerprint_candidates(split.test)
        other = load_benchmark("amazon_mi", num_pairs=110, products_per_domain=10, seed=12)
        assert fingerprint_candidates(split.train) != fingerprint_candidates(other.split.train)

    def test_empty_candidates_fingerprint(self):
        assert fingerprint_candidates(None) == fingerprint_candidates(None)

    def test_digest_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            digest(object())


class TestArtifactIO:
    def test_roundtrip_arrays_and_metadata(self, tmp_path):
        arrays = {
            "plain": np.arange(6, dtype=np.float64).reshape(2, 3),
            "intent::hidden.layer0.weight": np.ones((3, 2)),
        }
        path = write_artifact(tmp_path / "artifact", arrays, {"elapsed_seconds": 1.5})
        loaded, metadata = read_artifact(path)
        assert metadata == {"elapsed_seconds": 1.5}
        assert set(loaded) == set(arrays)
        for key, value in arrays.items():
            assert np.array_equal(loaded[key], value)

    def test_read_missing_artifact_raises(self, tmp_path):
        with pytest.raises(DataError):
            read_artifact(tmp_path / "missing")


class TestSolverStateRoundtrip:
    def test_in_parallel_state_roundtrip(self, pipeline_benchmark, pipeline_config):
        split = pipeline_benchmark.split
        intents = pipeline_benchmark.intents
        solver = InParallelSolver(intents, pipeline_config.matcher).fit(split.train)
        restored = InParallelSolver(intents, pipeline_config.matcher)
        restored.load_state_dict(solver.state_dict())
        for intent in intents:
            assert np.array_equal(
                solver.intent_outputs(split.test)[0][intent],
                restored.intent_outputs(split.test)[0][intent],
            )
            assert np.array_equal(
                solver.predict_proba(split.test)[intent],
                restored.predict_proba(split.test)[intent],
            )

    def test_multi_label_state_roundtrip(self, pipeline_benchmark, pipeline_config):
        split = pipeline_benchmark.split
        intents = pipeline_benchmark.intents
        solver = MultiLabelSolver(intents, pipeline_config.matcher).fit(split.train)
        restored = MultiLabelSolver(intents, pipeline_config.matcher)
        restored.load_state_dict(solver.state_dict())
        for intent in intents:
            assert np.array_equal(
                solver.intent_outputs(split.test)[0][intent],
                restored.intent_outputs(split.test)[0][intent],
            )


class TestPipelineCaching:
    def test_cold_run_computes_every_stage(self, pipeline_benchmark, pipeline_config):
        runner = PipelineRunner()
        result = runner.run(
            pipeline_benchmark.split,
            pipeline_benchmark.intents,
            pipeline_config,
            target_intents=(EQUIVALENCE,),
        )
        assert result.cached_stages == ()
        assert set(result.stage_status()) == {
            STAGE_MATCHER_FIT,
            STAGE_REPRESENTATION,
            STAGE_GRAPH_BUILD,
            f"gnn:{EQUIVALENCE}",
        }

    def test_warm_run_is_fully_cached_and_byte_identical(
        self, pipeline_benchmark, pipeline_config
    ):
        runner = PipelineRunner()
        cold = runner.run(
            pipeline_benchmark.split,
            pipeline_benchmark.intents,
            pipeline_config,
            target_intents=(EQUIVALENCE,),
        )
        warm = runner.run(
            pipeline_benchmark.split,
            pipeline_benchmark.intents,
            pipeline_config,
            target_intents=(EQUIVALENCE,),
        )
        assert warm.computed_stages == ()
        assert np.array_equal(
            cold.solution.probabilities[EQUIVALENCE],
            warm.solution.probabilities[EQUIVALENCE],
        )
        assert np.array_equal(
            cold.solution.prediction(EQUIVALENCE), warm.solution.prediction(EQUIVALENCE)
        )
        assert np.array_equal(cold.graph.features, warm.graph.features)
        assert cold.graph.in_neighbors == warm.graph.in_neighbors
        # Cached timings report the original compute time.
        assert warm.timings == cold.timings

    def test_gnn_config_change_keeps_upstream_cached(
        self, pipeline_benchmark, pipeline_config
    ):
        runner = PipelineRunner()
        runner.run(
            pipeline_benchmark.split,
            pipeline_benchmark.intents,
            pipeline_config,
            target_intents=(EQUIVALENCE,),
        )
        changed = FlexERConfig(
            matcher=pipeline_config.matcher,
            graph=pipeline_config.graph,
            gnn=GNNConfig(hidden_dim=12, epochs=7, seed=9),
        )
        result = runner.run(
            pipeline_benchmark.split,
            pipeline_benchmark.intents,
            changed,
            target_intents=(EQUIVALENCE,),
        )
        status = result.stage_status()
        assert status[STAGE_MATCHER_FIT] == "hit"
        assert status[STAGE_REPRESENTATION] == "hit"
        assert status[STAGE_GRAPH_BUILD] == "hit"
        assert status[f"gnn:{EQUIVALENCE}"] == "computed"

    def test_matcher_config_change_invalidates_everything(
        self, pipeline_benchmark, pipeline_config
    ):
        runner = PipelineRunner()
        runner.run(
            pipeline_benchmark.split,
            pipeline_benchmark.intents,
            pipeline_config,
            target_intents=(EQUIVALENCE,),
        )
        changed = FlexERConfig(
            matcher=MatcherConfig(hidden_dims=(20, 10), n_features=80, epochs=4, seed=9),
            graph=pipeline_config.graph,
            gnn=pipeline_config.gnn,
        )
        result = runner.run(
            pipeline_benchmark.split,
            pipeline_benchmark.intents,
            changed,
            target_intents=(EQUIVALENCE,),
        )
        assert result.cached_stages == ()

    def test_data_change_invalidates_everything(self, pipeline_benchmark, pipeline_config):
        runner = PipelineRunner()
        runner.run(
            pipeline_benchmark.split,
            pipeline_benchmark.intents,
            pipeline_config,
            target_intents=(EQUIVALENCE,),
        )
        other = load_benchmark("amazon_mi", num_pairs=110, products_per_domain=10, seed=12)
        result = runner.run(
            other.split,
            other.intents,
            pipeline_config,
            target_intents=(EQUIVALENCE,),
        )
        assert result.cached_stages == ()

    def test_disk_cache_survives_across_runner_instances(
        self, tmp_path, pipeline_benchmark, pipeline_config
    ):
        directory = tmp_path / "artifact-cache"
        cold_runner = PipelineRunner(cache=ArtifactCache(str(directory)))
        cold = cold_runner.run(
            pipeline_benchmark.split,
            pipeline_benchmark.intents,
            pipeline_config,
            target_intents=(EQUIVALENCE,),
        )
        # A fresh cache instance over the same directory — as a separate
        # process would create — serves every stage from disk.
        warm_runner = PipelineRunner(cache=ArtifactCache(str(directory)))
        warm = warm_runner.run(
            pipeline_benchmark.split,
            pipeline_benchmark.intents,
            pipeline_config,
            target_intents=(EQUIVALENCE,),
        )
        assert warm.computed_stages == ()
        assert np.array_equal(
            cold.solution.probabilities[EQUIVALENCE],
            warm.solution.probabilities[EQUIVALENCE],
        )

    def test_disabled_cache_always_recomputes(self, pipeline_benchmark, pipeline_config):
        runner = PipelineRunner(cache=ArtifactCache(CacheConfig(enabled=False)))
        runner.run(
            pipeline_benchmark.split,
            pipeline_benchmark.intents,
            pipeline_config,
            target_intents=(EQUIVALENCE,),
        )
        result = runner.run(
            pipeline_benchmark.split,
            pipeline_benchmark.intents,
            pipeline_config,
            target_intents=(EQUIVALENCE,),
        )
        assert result.cached_stages == ()

    def test_unknown_target_intent_raises(self, pipeline_benchmark, pipeline_config):
        runner = PipelineRunner()
        with pytest.raises(IntentError):
            runner.run(
                pipeline_benchmark.split,
                pipeline_benchmark.intents,
                pipeline_config,
                intent_subset=(EQUIVALENCE,),
                target_intents=("brand",),
            )


class TestBatchRunner:
    def test_k_sweep_skips_matcher_and_representation(
        self, pipeline_benchmark, pipeline_config
    ):
        """The Table-8 acceptance scenario: sweeping ``intra_layer_k``
        through the BatchRunner reuses matcher-fit and representation
        artifacts for every scenario after the first."""
        batch = BatchRunner(PipelineRunner())
        scenarios = k_sweep(pipeline_config, (0, 2, 4), target_intents=(EQUIVALENCE,))
        runs = batch.run(
            pipeline_benchmark.split,
            pipeline_benchmark.intents,
            scenarios,
            dataset="amazon_mi",
        )
        assert len(runs) == 3
        first, *rest = runs
        assert first.result.stage_status()[STAGE_MATCHER_FIT] == "computed"
        for run in rest:
            assert run.skipped_expensive_stages
            assert run.result.stage_status()[STAGE_GRAPH_BUILD] == "computed"
        # Different k values genuinely produce different graphs.
        edge_counts = {run.result.graph.num_edges for run in runs}
        assert len(edge_counts) == len(runs)

    def test_grid_crosses_datasets_and_scenarios(self, pipeline_benchmark, pipeline_config):
        other = load_benchmark("amazon_mi", num_pairs=100, products_per_domain=10, seed=21)
        batch = BatchRunner(PipelineRunner())
        scenarios = k_sweep(pipeline_config, (2, 3), target_intents=(EQUIVALENCE,))
        runs = batch.run_grid(
            {
                "seed11": (pipeline_benchmark.split, pipeline_benchmark.intents),
                "seed21": (other.split, other.intents),
            },
            scenarios,
        )
        assert [run.dataset for run in runs] == ["seed11", "seed11", "seed21", "seed21"]
        rows = BatchRunner.summary_rows(runs)
        assert len(rows) == 4


class TestArtifactCacheUnit:
    def test_stats_and_memory_store(self):
        cache = ArtifactCache()
        assert cache.get("stage", "digest") is None
        cache.put("stage", "digest", Artifact(arrays={"x": np.arange(3)}))
        hit = cache.get("stage", "digest")
        assert hit is not None and np.array_equal(hit.arrays["x"], np.arange(3))
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.puts == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_clear_removes_disk_artifacts(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "cache"))
        cache.put("stage", "digest", Artifact(arrays={"x": np.arange(3)}))
        assert cache.describe()["disk_artifacts"] == 1
        cache.clear()
        assert cache.describe()["disk_artifacts"] == 0
        assert cache.get("stage", "digest") is None


class TestCliOptions:
    """Subcommands that load a saved model accept only the flags they read."""

    FIT_FLAGS = [
        ["--matcher-epochs", "1"],
        ["--gnn-epochs", "1"],
        ["--solver", "naive"],
    ]
    EXECUTOR_FLAGS = [["--executor", "processes"], ["--workers", "2"]]
    CACHE_FLAGS = [["--cache-dir", "cache"], ["--no-cache"]]
    UNREAD = {
        "query": FIT_FLAGS + EXECUTOR_FLAGS + CACHE_FLAGS,
        "update": FIT_FLAGS + EXECUTOR_FLAGS,
        "retrieval-eval": FIT_FLAGS + EXECUTOR_FLAGS + CACHE_FLAGS,
    }

    @pytest.mark.parametrize(
        "command, flag",
        [(command, flag) for command, flags in UNREAD.items() for flag in flags],
        ids=lambda value: value if isinstance(value, str) else value[0],
    )
    def test_unread_flag_is_a_usage_error(self, command, flag, capsys):
        from repro.pipeline.cli import build_parser, main

        arguments = [command, "--model", "model.npz", "--dataset", "amazon_mi"]
        build_parser().parse_args(arguments)  # valid without the flag
        with pytest.raises(SystemExit) as excinfo:
            main([*arguments, *flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_invalid_retriever_arg_fails_before_any_stage(self, tmp_path, monkeypatch):
        from repro.pipeline.cli import main

        def no_stage(*args, **kwargs):  # pragma: no cover - trap
            raise AssertionError("a pipeline stage ran before the retriever was checked")

        monkeypatch.setattr(PipelineRunner, "_execute", no_stage)
        model_path = tmp_path / "model.npz"
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "fit", "--dataset", "amazon_mi", "--num-pairs", "40", "--products", "5",
                    "--retriever", "lsh", "--retriever-arg", "rows_per_band=0",
                    "--save-model", str(model_path), "--no-cache",
                ]
            )
        # A string exit code is printed to stderr, with exit status 1.
        assert excinfo.value.code == "pipeline fit: rows_per_band must lie in [1, 62]"
        assert not model_path.exists()
