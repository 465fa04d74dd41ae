"""Tests for pair feature encoding, matchers, and the MIER baselines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import MatcherConfig
from repro.core.mier import MIERSolution
from repro.evaluation import evaluate_solution
from repro.exceptions import ConfigurationError, MatchingError, NotFittedError
from repro.matching import (
    InParallelSolver,
    MultiLabelMatcher,
    MultiLabelSolver,
    NaiveSolver,
    PairFeatureConfig,
    PairFeatureEncoder,
    PairMatcher,
)

FAST_MATCHER = MatcherConfig(hidden_dims=(24, 12), n_features=96, epochs=6, seed=1)
FAST_FEATURES = PairFeatureConfig(n_features=64)


@pytest.fixture(scope="module")
def toy_features(request):
    """Synthetic separable features for matcher unit tests."""
    rng = np.random.default_rng(0)
    n = 120
    features = rng.normal(size=(n, 10))
    labels = (features[:, 0] + features[:, 1] > 0).astype(np.int64)
    return features, labels


class TestPairFeatureEncoder:
    def test_dimension_matches_config(self):
        config = PairFeatureConfig(n_features=64)
        encoder = PairFeatureEncoder(config)
        assert encoder.dimension == config.dimension

    def test_encode_shapes(self, toy_dataset, toy_candidates):
        encoder = PairFeatureEncoder(FAST_FEATURES)
        matrix = encoder.encode(toy_dataset, toy_candidates.pairs)
        assert matrix.shape == (len(toy_candidates), encoder.dimension)

    def test_empty_pairs(self, toy_dataset):
        encoder = PairFeatureEncoder(FAST_FEATURES)
        assert encoder.encode(toy_dataset, []).shape == (0, encoder.dimension)

    def test_duplicate_pair_has_higher_similarity_features(self, toy_dataset):
        encoder = PairFeatureEncoder(PairFeatureConfig(n_features=32))
        from repro.data.pairs import RecordPair

        duplicate = encoder.encode_pair(toy_dataset, RecordPair("r1", "r2"))
        unrelated = encoder.encode_pair(toy_dataset, RecordPair("r1", "r6"))
        # The trailing block holds string-similarity features.
        assert duplicate[-6:].mean() > unrelated[-6:].mean()

    def test_interaction_features_optional(self):
        with_interactions = PairFeatureConfig(n_features=32, use_interaction_features=True)
        without = PairFeatureConfig(n_features=32, use_interaction_features=False)
        assert with_interactions.dimension > without.dimension

    def test_string_attributes_are_rejected(self, toy_dataset, toy_candidates):
        # tuple("title") would name the attributes "t", "i", "t", "l", "e",
        # which no record has: every pair would lose its text.
        with pytest.raises(ConfigurationError, match="attributes"):
            PairFeatureConfig(attributes="title")
        encoded = [
            PairFeatureEncoder(PairFeatureConfig(n_features=32, attributes=attributes)).encode(
                toy_dataset, toy_candidates.pairs
            )
            for attributes in (("title",), ["title"], None)
        ]
        assert encoded[0].tobytes() == encoded[1].tobytes() == encoded[2].tobytes()


class TestPairMatcher:
    def test_predict_requires_fit(self):
        with pytest.raises(NotFittedError):
            PairMatcher(FAST_MATCHER).predict(np.zeros((1, 4)))

    def test_fit_validates_inputs(self, toy_features):
        features, labels = toy_features
        matcher = PairMatcher(FAST_MATCHER)
        with pytest.raises(MatchingError):
            matcher.fit(features, labels[:-1])
        with pytest.raises(MatchingError):
            matcher.fit(features[:0], labels[:0])
        with pytest.raises(MatchingError):
            matcher.fit(features, labels + 5)

    def test_learns_separable_problem(self, toy_features):
        features, labels = toy_features
        matcher = PairMatcher(MatcherConfig(hidden_dims=(16,), epochs=30, seed=0))
        matcher.fit(features, labels)
        accuracy = (matcher.predict(features) == labels).mean()
        assert accuracy > 0.85
        assert matcher.history is not None
        assert matcher.history.losses[-1] < matcher.history.losses[0]

    def test_probabilities_in_unit_interval(self, toy_features):
        features, labels = toy_features
        matcher = PairMatcher(FAST_MATCHER).fit(features, labels)
        probabilities = matcher.predict_proba(features)
        assert probabilities.min() >= 0.0 and probabilities.max() <= 1.0

    def test_representation_shape(self, toy_features):
        features, labels = toy_features
        matcher = PairMatcher(FAST_MATCHER).fit(features, labels)
        representations = matcher.outputs(features)[0]
        assert representations.shape == (features.shape[0], FAST_MATCHER.representation_dim)

    def test_threshold_changes_predictions(self, toy_features):
        features, labels = toy_features
        matcher = PairMatcher(FAST_MATCHER).fit(features, labels)
        strict = matcher.predict(features, threshold=0.9).sum()
        loose = matcher.predict(features, threshold=0.1).sum()
        assert loose >= strict


class TestMultiLabelMatcher:
    def _multilabel_data(self):
        rng = np.random.default_rng(1)
        features = rng.normal(size=(120, 10))
        narrow = (features[:, 0] > 0.5).astype(np.int64)
        broad = (features[:, 0] > -0.5).astype(np.int64)
        labels = np.stack([narrow, broad], axis=1)
        return features, labels

    def test_requires_intents(self):
        with pytest.raises(MatchingError):
            MultiLabelMatcher(())

    def test_fit_validates_label_shape(self):
        features, labels = self._multilabel_data()
        matcher = MultiLabelMatcher(("a", "b", "c"), FAST_MATCHER)
        with pytest.raises(MatchingError):
            matcher.fit(features, labels)

    def test_learns_both_intents(self):
        features, labels = self._multilabel_data()
        matcher = MultiLabelMatcher(
            ("narrow", "broad"), MatcherConfig(hidden_dims=(16,), epochs=30, seed=0)
        )
        matcher.fit(features, labels)
        predictions = matcher.predict(features)
        accuracy = (predictions == labels).mean()
        assert accuracy > 0.8

    def test_per_intent_predictions_and_representations(self):
        features, labels = self._multilabel_data()
        matcher = MultiLabelMatcher(("narrow", "broad"), FAST_MATCHER).fit(features, labels)
        narrow = matcher.predict_intent(features, "narrow")
        assert narrow.shape == (features.shape[0],)
        reps = matcher.outputs(features)[0][1]
        assert reps.shape == (features.shape[0], FAST_MATCHER.representation_dim)
        with pytest.raises(MatchingError):
            matcher.predict_intent(features, "unknown")

    def test_intent_weights_validation(self):
        with pytest.raises(MatchingError):
            MultiLabelMatcher(("a", "b"), FAST_MATCHER, intent_weights=np.ones(3))


class TestSolvers:
    def test_naive_reuses_universal_prediction(self, tiny_benchmark):
        split = tiny_benchmark.split
        solver = NaiveSolver(tiny_benchmark.intents, matcher_config=FAST_MATCHER,
                             feature_config=FAST_FEATURES)
        solver.fit(split.train)
        predictions = solver.predict(split.test)
        eq = predictions["equivalence"]
        assert all(np.array_equal(eq, predictions[intent]) for intent in tiny_benchmark.intents)

    def test_naive_rejects_unknown_equivalence_intent(self, tiny_benchmark):
        with pytest.raises(MatchingError):
            NaiveSolver(tiny_benchmark.intents, equivalence_intent="nonexistent")

    def test_in_parallel_predictions_differ_across_intents(self, tiny_benchmark):
        split = tiny_benchmark.split
        solver = InParallelSolver(tiny_benchmark.intents, matcher_config=FAST_MATCHER,
                                  feature_config=FAST_FEATURES)
        solver.fit(split.train)
        predictions = solver.predict(split.test)
        assert set(predictions) == set(tiny_benchmark.intents)
        distinct = {tuple(prediction.tolist()) for prediction in predictions.values()}
        assert len(distinct) > 1

    def test_in_parallel_representations_shapes_and_spaces(self, tiny_benchmark):
        split = tiny_benchmark.split
        solver = InParallelSolver(tiny_benchmark.intents, matcher_config=FAST_MATCHER,
                                  feature_config=FAST_FEATURES)
        solver.fit(split.train)
        representations = solver.intent_outputs(split.test)[0]
        shapes = {rep.shape for rep in representations.values()}
        assert shapes == {(len(split.test), FAST_MATCHER.representation_dim)}
        first, second = list(representations.values())[:2]
        assert not np.allclose(first, second)

    def test_multi_label_solver_runs(self, tiny_benchmark):
        split = tiny_benchmark.split
        solver = MultiLabelSolver(tiny_benchmark.intents, matcher_config=FAST_MATCHER,
                                  feature_config=FAST_FEATURES)
        solver.fit(split.train)
        predictions = solver.predict(split.test)
        solution = MIERSolution.from_mapping(split.test, predictions)
        evaluation = evaluate_solution(solution)
        assert 0.0 <= evaluation.mi_f1 <= 1.0

    def test_predict_requires_fit(self, tiny_benchmark):
        solver = InParallelSolver(tiny_benchmark.intents, matcher_config=FAST_MATCHER)
        with pytest.raises(NotFittedError):
            solver.predict(tiny_benchmark.split.test)

    def test_missing_intent_labels_rejected(self, tiny_benchmark, toy_candidates):
        solver = InParallelSolver(tiny_benchmark.intents, matcher_config=FAST_MATCHER)
        with pytest.raises(MatchingError):
            solver.fit(toy_candidates)

    def test_naive_has_lower_recall_than_in_parallel(self, tiny_benchmark):
        """The paper's key observation: one-size-fits-all misses broad intents."""
        split = tiny_benchmark.split
        naive = NaiveSolver(tiny_benchmark.intents, matcher_config=FAST_MATCHER,
                            feature_config=FAST_FEATURES).fit(split.train)
        parallel = InParallelSolver(tiny_benchmark.intents, matcher_config=FAST_MATCHER,
                                    feature_config=FAST_FEATURES).fit(split.train)
        naive_eval = evaluate_solution(
            MIERSolution.from_mapping(split.test, naive.predict(split.test))
        )
        parallel_eval = evaluate_solution(
            MIERSolution.from_mapping(split.test, parallel.predict(split.test))
        )
        assert parallel_eval.mi_recall > naive_eval.mi_recall
