"""Tests of the sharded parallel execution layer (:mod:`repro.exec`)."""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro
from repro.exceptions import ConfigurationError, ExecutionError
from repro.exec import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    encode_pairs_sharded,
    executor_spec,
    make_executor,
)
from repro.matching.features import PairFeatureConfig, PairFeatureEncoder
from repro.matching.solvers import InParallelSolver
from repro.pipeline import ArtifactCache
from repro.registry import EXECUTORS


def _square(value):
    return value * value


def _fail_on_three(value):
    if value == 3:
        raise ValueError("three is right out")
    return value


def _die_abruptly(value):
    # Kills the worker process without unwinding: the pool breaks and the
    # executor must surface a typed error instead of hanging.
    os._exit(13)


EXECUTOR_FACTORIES = [
    pytest.param(lambda: SerialExecutor(), id="serial"),
    pytest.param(lambda: ThreadExecutor(workers=2), id="threads"),
    pytest.param(lambda: ProcessExecutor(workers=2), id="processes"),
]


class TestExecutors:
    @pytest.mark.parametrize("factory", EXECUTOR_FACTORIES)
    def test_map_preserves_payload_order(self, factory):
        executor = factory()
        assert executor.map(_square, [3, 1, 2, 5]) == [9, 1, 4, 25]
        assert executor.map(_square, []) == []

    @pytest.mark.parametrize("factory", EXECUTOR_FACTORIES)
    def test_task_failure_raises_typed_execution_error(self, factory):
        executor = factory()
        with pytest.raises(ExecutionError, match="three is right out"):
            executor.map(_fail_on_three, [1, 2, 3, 4])

    def test_process_worker_crash_surfaces_not_hangs(self):
        executor = ProcessExecutor(workers=2)
        with pytest.raises(ExecutionError):
            executor.map(_die_abruptly, [1, 2])

    def test_workers_validation(self):
        with pytest.raises(ConfigurationError):
            SerialExecutor(workers=-1)
        assert ThreadExecutor(workers=0).workers >= 1  # auto resolves to CPUs

    def test_process_executor_rejects_unknown_start_method(self):
        with pytest.raises(ConfigurationError):
            ProcessExecutor(workers=1, start_method="no-such-method")

    def test_executor_spec_normalization_and_worker_override(self):
        assert executor_spec() == {"type": "serial", "params": {}}
        spec = executor_spec("processes", workers=2)
        assert spec == {"type": "processes", "params": {"workers": 2}}
        assert executor_spec(ThreadExecutor(workers=3))["params"]["workers"] == 3

    def test_make_executor_and_registry_round_trip(self):
        executor = make_executor("threads", workers=2)
        assert isinstance(executor, ThreadExecutor)
        rebuilt = EXECUTORS.create(EXECUTORS.spec(executor))
        assert isinstance(rebuilt, ThreadExecutor)
        assert rebuilt.workers == 2
        assert not make_executor("serial").is_parallel


class TestShardedStages:
    @pytest.fixture(scope="class")
    def encode_inputs(self, tiny_benchmark):
        dataset = tiny_benchmark.dataset
        pairs = list(tiny_benchmark.candidates.pairs)
        return dataset, pairs

    @pytest.mark.parametrize(
        "factory", [EXECUTOR_FACTORIES[1], EXECUTOR_FACTORIES[2]]
    )
    def test_sharded_encoding_bit_identical(self, factory, encode_inputs):
        dataset, pairs = encode_inputs
        config = PairFeatureConfig(n_features=64)
        reference = PairFeatureEncoder(config).encode_batch(dataset, pairs)
        sharded = encode_pairs_sharded(config, dataset, pairs, factory())
        assert np.array_equal(reference, sharded)
        # More workers than pairs: one single-pair range, no empty shard.
        single = encode_pairs_sharded(config, dataset, pairs[:1], factory())
        assert np.array_equal(reference[:1], single)

    def test_encoder_executor_attribute_path(self, encode_inputs):
        dataset, pairs = encode_inputs
        config = PairFeatureConfig(n_features=64)
        serial = PairFeatureEncoder(config).encode(dataset, pairs)
        encoder = PairFeatureEncoder(config)
        encoder.executor = ThreadExecutor(workers=2)
        assert np.array_equal(serial, encoder.encode(dataset, pairs))

    def test_parallel_matcher_fit_bit_identical(self, tiny_benchmark, fast_config):
        train = tiny_benchmark.split.train
        intents = tiny_benchmark.intents
        serial = InParallelSolver(intents, matcher_config=fast_config.matcher)
        serial.fit(train)
        parallel = InParallelSolver(intents, matcher_config=fast_config.matcher)
        parallel.executor = ProcessExecutor(workers=2)
        parallel.fit(train)
        serial_state = serial.state_dict()
        parallel_state = parallel.state_dict()
        assert set(serial_state) == set(parallel_state)
        for key, array in serial_state.items():
            assert np.array_equal(array, parallel_state[key]), key
        for intent in intents:
            # Training history ships back with the state dict, so the
            # fitted solvers are indistinguishable beyond parameters too.
            assert (
                serial.matchers[intent].history.losses
                == parallel.matchers[intent].history.losses
            ), intent


class TestEndToEndEquivalence:
    @pytest.fixture(scope="class")
    def serial_result(self, tiny_benchmark, fast_config):
        return repro.resolve(tiny_benchmark.split, config=fast_config)

    @pytest.mark.parametrize("executor", ["threads", "processes"])
    def test_resolve_bit_identical_across_executors(
        self, executor, tiny_benchmark, fast_config, serial_result
    ):
        result = repro.resolve(
            tiny_benchmark.split, config=fast_config, executor=executor, workers=2
        )
        assert result.solution.intents == serial_result.solution.intents
        for intent in result.solution.intents:
            assert np.array_equal(
                serial_result.solution.probabilities[intent],
                result.solution.probabilities[intent],
            ), intent
            assert np.array_equal(
                serial_result.solution.prediction(intent),
                result.solution.prediction(intent),
            ), intent

    def test_cached_artifacts_valid_across_executor_choices(
        self, tiny_benchmark, fast_config
    ):
        # The executor spec is excluded from stage fingerprints, so a
        # process-parallel re-run over a serial run's cache hits on
        # every stage (and vice versa).
        cache = ArtifactCache()
        cold = repro.resolve(tiny_benchmark.split, config=fast_config, cache=cache)
        warm = repro.resolve(
            tiny_benchmark.split,
            config=fast_config,
            cache=cache,
            executor="processes",
            workers=2,
        )
        assert set(warm.pipeline.stage_status().values()) == {"hit"}
        for intent in cold.solution.intents:
            assert np.array_equal(
                cold.solution.probabilities[intent], warm.solution.probabilities[intent]
            )

    def test_dump_result_byte_identical_across_executors(self, tmp_path):
        from repro.pipeline.cli import main

        common = [
            "resolve",
            "--dataset",
            "amazon_mi",
            "--num-pairs",
            "60",
            "--products",
            "6",
            "--matcher-epochs",
            "1",
            "--gnn-epochs",
            "1",
            "--target-intents",
            "equivalence",
        ]
        serial_path = tmp_path / "serial.npz"
        process_path = tmp_path / "processes.npz"
        assert main([*common, "--dump-result", str(serial_path)]) == 0
        assert (
            main(
                [
                    *common,
                    "--executor",
                    "processes",
                    "--workers",
                    "2",
                    "--dump-result",
                    str(process_path),
                ]
            )
            == 0
        )
        assert serial_path.read_bytes() == process_path.read_bytes()
