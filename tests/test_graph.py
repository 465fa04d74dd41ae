"""Tests for the multiplex intent graph, the builder, and GraphSAGE."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import GNNConfig, GraphConfig
from repro.exceptions import GraphConstructionError
from repro.graph import (
    GraphAggregation,
    GraphSAGE,
    IntentGraphBuilder,
    IntentNodeClassifier,
    MultiplexGraph,
    SAGEConvolution,
)
from repro.nn import Tensor


def random_representations(num_pairs=20, dim=8, intents=("a", "b", "c"), seed=0):
    rng = np.random.default_rng(seed)
    return {intent: rng.normal(size=(num_pairs, dim)) for intent in intents}


class TestMultiplexGraph:
    def _graph(self, num_pairs=4, intents=("x", "y")):
        features = np.zeros((len(intents) * num_pairs, 3))
        return MultiplexGraph(intents=tuple(intents), num_pairs=num_pairs, features=features)

    def test_node_indexing_round_trip(self):
        graph = self._graph()
        node = graph.node_index("y", 2)
        assert graph.node_layer(node) == 1
        assert graph.node_pair(node) == 2

    def test_layer_nodes(self):
        graph = self._graph(num_pairs=3, intents=("x", "y"))
        assert graph.layer_nodes("y").tolist() == [3, 4, 5]

    def test_invalid_indices_raise(self):
        graph = self._graph()
        with pytest.raises(GraphConstructionError):
            graph.node_index("z", 0)
        with pytest.raises(GraphConstructionError):
            graph.node_index("x", 99)
        with pytest.raises(GraphConstructionError):
            graph.add_edge(0, 999)

    def test_feature_shape_validation(self):
        with pytest.raises(GraphConstructionError):
            MultiplexGraph(intents=("x",), num_pairs=3, features=np.zeros((2, 3)))

    def test_aggregation_matrix_mean_rows_sum_to_one(self):
        graph = self._graph()
        graph.add_edge(0, 1)
        graph.add_edge(2, 1)
        matrix = graph.aggregation_matrix("mean")
        assert matrix[1].sum() == pytest.approx(1.0)
        assert matrix[0].sum() == 0.0

    def test_aggregation_matrix_sum_mode(self):
        graph = self._graph()
        graph.add_edge(0, 1)
        graph.add_edge(2, 1)
        matrix = graph.aggregation_matrix("sum")
        assert matrix[1].sum() == pytest.approx(2.0)

    def test_describe_counts(self):
        graph = self._graph()
        graph.add_edge(0, 1)
        stats = graph.describe()
        assert stats["num_nodes"] == 8
        assert stats["num_edges"] == 1


class TestIntentGraphBuilder:
    def test_edge_counts_match_paper_formulas(self):
        num_pairs, k = 20, 4
        intents = ("a", "b", "c")
        representations = random_representations(num_pairs, intents=intents)
        builder = IntentGraphBuilder(GraphConfig(k_neighbors=k))
        graph = builder.build(representations)
        assert graph.intra_edge_count == num_pairs * len(intents) * k
        assert graph.inter_edge_count == num_pairs * len(intents) * (len(intents) - 1)
        assert graph.num_nodes == num_pairs * len(intents)

    def test_k_zero_disables_intra_edges(self):
        representations = random_representations()
        graph = IntentGraphBuilder(GraphConfig(k_neighbors=0)).build(representations)
        assert graph.intra_edge_count == 0
        assert graph.inter_edge_count > 0

    def test_inter_layer_edges_optional(self):
        representations = random_representations()
        graph = IntentGraphBuilder(GraphConfig(include_inter_layer=False)).build(representations)
        assert graph.inter_edge_count == 0

    def test_intent_subset_restricts_layers(self):
        representations = random_representations(intents=("a", "b", "c"))
        graph = IntentGraphBuilder(GraphConfig(k_neighbors=2)).build(
            representations, intents=("a", "c")
        )
        assert graph.intents == ("a", "c")
        assert graph.num_nodes == 2 * 20

    def test_intra_edges_connect_within_layer_only(self):
        representations = random_representations(num_pairs=10, intents=("a", "b"))
        graph = IntentGraphBuilder(GraphConfig(k_neighbors=3, include_inter_layer=False)).build(
            representations
        )
        for target, sources in enumerate(graph.in_neighbors):
            for source in sources:
                assert graph.node_layer(source) == graph.node_layer(target)

    def test_inter_edges_connect_same_pair(self):
        representations = random_representations(num_pairs=6, intents=("a", "b", "c"))
        graph = IntentGraphBuilder(GraphConfig(k_neighbors=0)).build(representations)
        for target, sources in enumerate(graph.in_neighbors):
            for source in sources:
                assert graph.node_pair(source) == graph.node_pair(target)
                assert graph.node_layer(source) != graph.node_layer(target)

    def test_mismatched_shapes_rejected(self):
        representations = {"a": np.zeros((5, 4)), "b": np.zeros((6, 4))}
        with pytest.raises(GraphConstructionError):
            IntentGraphBuilder().build(representations)

    def test_missing_intent_rejected(self):
        representations = {"a": np.zeros((5, 4))}
        with pytest.raises(GraphConstructionError):
            IntentGraphBuilder().build(representations, intents=("a", "zzz"))

    def test_report(self):
        representations = random_representations()
        builder = IntentGraphBuilder(GraphConfig(k_neighbors=2))
        graph = builder.build(representations)
        report = builder.report(graph)
        assert report.num_pairs == 20
        assert report.intra_edges == graph.intra_edge_count


class TestGraphAggregation:
    def test_mean_aggregation_matches_dense_matrix(self):
        representations = random_representations(num_pairs=8, intents=("a", "b"))
        graph = IntentGraphBuilder(GraphConfig(k_neighbors=2)).build(representations)
        aggregation = GraphAggregation.from_graph(graph, mode="mean")
        hidden = Tensor(np.random.default_rng(3).normal(size=(graph.num_nodes, 5)))
        sparse = aggregation(hidden).numpy()
        dense = graph.aggregation_matrix("mean") @ hidden.numpy()
        assert np.allclose(sparse, dense)

    def test_self_loops_is_identity(self):
        aggregation = GraphAggregation.self_loops(4)
        hidden = Tensor(np.arange(12, dtype=float).reshape(4, 3))
        assert np.allclose(aggregation(hidden).numpy(), hidden.numpy())

    def test_edge_count(self):
        representations = random_representations(num_pairs=6, intents=("a", "b"))
        graph = IntentGraphBuilder(GraphConfig(k_neighbors=2)).build(representations)
        aggregation = GraphAggregation.from_graph(graph)
        assert aggregation.num_edges == graph.num_edges

    def test_mismatched_edge_arrays_rejected(self):
        with pytest.raises(GraphConstructionError):
            GraphAggregation(np.array([0]), np.array([0, 1]), 2, np.array([1.0]))


class TestGraphSAGE:
    def test_convolution_shapes(self):
        rng = np.random.default_rng(0)
        convolution = SAGEConvolution(4, 6, rng)
        hidden = Tensor(rng.normal(size=(5, 4)))
        out = convolution(hidden, GraphAggregation.self_loops(5))
        assert out.shape == (5, 6)

    def test_model_output_shapes(self):
        config = GNNConfig(hidden_dim=8, epochs=2)
        model = GraphSAGE(in_dim=4, config=config)
        features = Tensor(np.random.default_rng(0).normal(size=(10, 4)))
        aggregation = GraphAggregation.self_loops(10)
        embeddings = model.node_embeddings(features, aggregation)
        logits = model(features, aggregation)
        assert embeddings.shape == (10, 8)
        assert logits.shape == (10, 2)

    def test_three_layer_model_halves_dim(self):
        config = GNNConfig(hidden_dim=8, num_layers=3, epochs=2)
        model = GraphSAGE(in_dim=4, config=config)
        features = Tensor(np.zeros((6, 4)))
        aggregation = GraphAggregation.self_loops(6)
        assert model.node_embeddings(features, aggregation).shape == (6, 4)


class TestIntentNodeClassifier:
    def _labeled_graph(self, seed=0):
        """Graph whose target layer carries a learnable signal."""
        rng = np.random.default_rng(seed)
        num_pairs = 40
        signal = rng.normal(size=(num_pairs, 1))
        labels = (signal[:, 0] > 0).astype(np.int64)
        representations = {
            "target": np.hstack([signal, rng.normal(size=(num_pairs, 5)) * 0.1]),
            "other": rng.normal(size=(num_pairs, 6)),
        }
        graph = IntentGraphBuilder(GraphConfig(k_neighbors=3)).build(representations)
        return graph, labels

    def test_learns_target_layer_signal(self):
        graph, labels = self._labeled_graph()
        train_index = np.arange(0, 30)
        classifier = IntentNodeClassifier(GNNConfig(hidden_dim=16, epochs=40, seed=0))
        result = classifier.fit_predict(
            graph, "target", train_index, labels[train_index]
        )
        test_index = np.arange(30, 40)
        predictions = (result.probabilities[test_index] >= 0.5).astype(int)
        accuracy = (predictions == labels[test_index]).mean()
        assert accuracy >= 0.6
        assert len(result.losses) == 40
        assert result.losses[-1] < result.losses[0]

    def test_validation_selection_and_predict(self):
        graph, labels = self._labeled_graph(seed=1)
        classifier = IntentNodeClassifier(GNNConfig(hidden_dim=8, epochs=10, seed=1))
        result = classifier.fit_predict(
            graph,
            "target",
            train_index=np.arange(0, 25),
            train_labels=labels[:25],
            valid_index=np.arange(25, 32),
            valid_labels=labels[25:32],
        )
        assert 0.0 <= result.best_validation_f1 <= 1.0
        assert classifier.predict().shape == (graph.num_pairs,)

    def test_requires_training_pairs(self):
        graph, labels = self._labeled_graph()
        classifier = IntentNodeClassifier(GNNConfig(epochs=2))
        with pytest.raises(GraphConstructionError):
            classifier.fit_predict(graph, "target", np.array([]), np.array([]))

    @pytest.mark.parametrize(
        "supervision",
        [
            {"valid_index": np.arange(25, 32), "valid_labels": np.array([1])},
            {"valid_index": np.arange(25, 32), "valid_labels": np.ones(5, dtype=int)},
            {"valid_index": np.arange(25, 32)},
            {"valid_labels": np.ones(7, dtype=int)},
            {"valid_index": np.array([25, 40]), "valid_labels": np.ones(2, dtype=int)},
            {"train_index": np.array([0, 1, 99]), "train_labels": np.ones(3, dtype=int)},
            {"train_index": np.array([0, -1]), "train_labels": np.ones(2, dtype=int)},
        ],
        ids=[
            "one-label-for-seven-valid-pairs",
            "five-labels-for-seven-valid-pairs",
            "valid-index-without-labels",
            "valid-labels-without-index",
            "valid-index-out-of-range",
            "train-index-out-of-range",
            "negative-train-index",
        ],
    )
    def test_rejects_malformed_supervision(self, supervision):
        graph, labels = self._labeled_graph()
        supervision = {"train_index": np.arange(0, 25), "train_labels": labels[:25], **supervision}
        classifier = IntentNodeClassifier(GNNConfig(hidden_dim=8, epochs=2))
        with pytest.raises(GraphConstructionError):
            classifier.fit_predict(graph, "target", **supervision)

    def test_empty_validation_split_trains_without_selection(self):
        graph, labels = self._labeled_graph()
        config = GNNConfig(hidden_dim=8, epochs=3)
        plain = IntentNodeClassifier(config).fit_predict(graph, "target", np.arange(25), labels[:25])
        empty = IntentNodeClassifier(config).fit_predict(
            graph, "target", np.arange(25), labels[:25], np.array([]), np.array([])
        )
        assert empty.best_validation_f1 == 0.0
        assert empty.probabilities.tobytes() == plain.probabilities.tobytes()

    def test_predict_before_fit_raises(self):
        classifier = IntentNodeClassifier(GNNConfig(epochs=2))
        from repro.exceptions import NotFittedError

        with pytest.raises(NotFittedError):
            classifier.predict()
