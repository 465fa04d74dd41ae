"""GraphSAGE over the multiplex intent graph (Sections 4.2-4.3).

Message propagation follows Eq. 3-4: each GraphSAGE convolution
aggregates the hidden states of a node's incoming neighbours (mean by
default), concatenates the aggregate with the node's own hidden state,
and applies a linear layer with a ReLU activation (no activation on the
last convolution).  Prediction per intent (Eq. 5) feeds the final hidden
state of a node in the target intent's layer through a fully connected
layer followed by softmax/argmax.

Aggregation is one product of the hidden states with the graph's
constant CSR aggregation operator, so one epoch is linear in the number
of edges rather than quadratic in the number of nodes.

Training runs one forward pass per epoch: the pass after an optimizer
step validates that step and feeds the next epoch's loss.  This is valid
only while no GraphSAGE module behaves differently in training and
evaluation mode (the model holds no dropout).  The first convolution's
input ``concat(X, A·X)`` never changes during a training, so it is
computed once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from collections.abc import Mapping

import numpy as np

from ..config import GNNConfig
from ..exceptions import GraphConstructionError, NotFittedError
from scipy import sparse as sp

from ..nn import Adam, Linear, Module, Tensor, cross_entropy, l2_penalty
from ..nn.sparse import sparse_matmul
from .multiplex import MultiplexGraph


class GraphAggregation:
    """A reusable neighbourhood-aggregation operator over a fixed edge list."""

    def __init__(
        self,
        sources: np.ndarray,
        targets: np.ndarray,
        num_nodes: int,
        weights: np.ndarray,
        operator: sp.csr_matrix | None = None,
    ) -> None:
        self.sources = np.asarray(sources, dtype=np.int64)
        self.targets = np.asarray(targets, dtype=np.int64)
        self.weights = np.asarray(weights, dtype=np.float64)
        self.num_nodes = int(num_nodes)
        if self.sources.shape != self.targets.shape or self.sources.shape != self.weights.shape:
            raise GraphConstructionError("edge arrays must have equal length")
        # The aggregation operator is constant across epochs, so the CSR
        # matrix is built once and reused by every forward/backward pass
        # (or shared outright when the graph has already built it).
        if operator is None:
            operator = sp.csr_matrix(
                (self.weights, (self.targets, self.sources)),
                shape=(self.num_nodes, self.num_nodes),
            )
        self._operator = operator
        # ``(input array, concat(h, AGG(h)))`` of the last constant input.
        self._constant: tuple[np.ndarray, Tensor] | None = None

    @classmethod
    def from_graph(cls, graph: MultiplexGraph, mode: str = "mean") -> "GraphAggregation":
        """Build the aggregation operator of a multiplex graph.

        The CSR operator comes from the graph's cache
        (:meth:`~repro.graph.multiplex.MultiplexGraph.aggregation_operator`),
        so the per-intent GNN trainings over one graph share one matrix.
        """
        sources, targets, weights = graph.edge_arrays(mode)
        return cls(
            sources,
            targets,
            graph.num_nodes,
            weights,
            operator=graph.aggregation_operator(mode),
        )

    @classmethod
    def self_loops(cls, num_nodes: int) -> "GraphAggregation":
        """An identity aggregation (each node aggregates only itself)."""
        indices = np.arange(num_nodes, dtype=np.int64)
        return cls(indices, indices, num_nodes, np.ones(num_nodes))

    @property
    def num_edges(self) -> int:
        """Number of directed edges in the operator."""
        return int(self.sources.shape[0])

    def __call__(self, hidden: Tensor) -> Tensor:
        """Aggregate neighbour hidden states into each node's neighbourhood vector."""
        return sparse_matmul(self._operator, hidden)

    def combine(self, hidden: Tensor) -> Tensor:
        """``concat(h, AGG(h))``: the input of a convolution's linear layer.

        For an input that requires no gradient (the node features entering
        the first convolution) the result is the same on every pass, so it
        is computed once and reused for as long as the same array comes
        in.  The cache lives as long as this operator, which a training
        builds for itself.
        """
        if hidden.requires_grad:
            return Tensor.concat([hidden, self(hidden)], axis=1)
        if self._constant is None or self._constant[0] is not hidden.data:
            self._constant = (hidden.data, Tensor.concat([hidden, self(hidden)], axis=1))
        return self._constant[1]


class SAGEConvolution(Module):
    """A single GraphSAGE convolution: ``h' = act(W · concat(h, AGG(h_N)))``."""

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        rng: np.random.Generator,
        activation: bool = True,
    ) -> None:
        super().__init__()
        self.linear = Linear(2 * in_dim, out_dim, rng=rng, init="he")
        self.activation = activation

    def forward(self, hidden: Tensor, aggregation: GraphAggregation) -> Tensor:
        out = self.linear(aggregation.combine(hidden))
        return out.relu() if self.activation else out


class GraphSAGE(Module):
    """Stack of GraphSAGE convolutions plus a per-intent prediction head."""

    def __init__(self, in_dim: int, config: GNNConfig) -> None:
        super().__init__()
        rng = np.random.default_rng(config.seed)
        self.config = config
        dims = self._layer_dims(in_dim, config)
        self._convolutions: list[SAGEConvolution] = []
        for index in range(len(dims) - 1):
            is_last = index == len(dims) - 2
            convolution = SAGEConvolution(
                dims[index], dims[index + 1], rng=rng, activation=not is_last
            )
            setattr(self, f"conv{index}", convolution)
            self._convolutions.append(convolution)
        self.head = Linear(dims[-1], 2, rng=rng)

    @staticmethod
    def _layer_dims(in_dim: int, config: GNNConfig) -> list[int]:
        """Hidden dims: two layers use ``h1``; three layers use ``h1`` then ``h1/2``."""
        if config.num_layers == 2:
            return [in_dim, config.hidden_dim, config.hidden_dim]
        half = max(config.hidden_dim // 2, 2)
        return [in_dim, config.hidden_dim, half, half]

    @property
    def num_convolutions(self) -> int:
        """Number of stacked GraphSAGE convolutions."""
        return len(self._convolutions)

    def node_embeddings(self, features: Tensor, aggregation: GraphAggregation) -> Tensor:
        """Final hidden state of every node after message propagation."""
        hidden = features
        for convolution in self._convolutions:
            hidden = convolution(hidden, aggregation)
        return hidden

    def hidden_states(
        self, features: Tensor, aggregation: GraphAggregation
    ) -> list[np.ndarray]:
        """Per-convolution hidden states ``[h^1, ..., h^L]`` as arrays.

        ``h^l`` is the output of convolution ``l``; the input level
        ``h^0`` is the feature matrix itself.  The intermediate levels
        are what :class:`FrozenSAGE` aggregates when new nodes are
        attached for online inference, so a fitted model persists them
        alongside its weights.
        """
        states: list[np.ndarray] = []
        hidden = features
        for convolution in self._convolutions:
            hidden = convolution(hidden, aggregation)
            states.append(hidden.numpy())
        return states

    def forward(self, features: Tensor, aggregation: GraphAggregation) -> Tensor:
        """Class logits for every node."""
        return self.head(self.node_embeddings(features, aggregation))


class FrozenSAGE:
    """Numpy-only forward pass of a trained GraphSAGE state (serving path).

    A :class:`GraphSAGE` module owns autodiff tensors; the online query
    path only needs the *inference* arithmetic — per-convolution
    ``act(concat(h, agg) @ W + b)`` and the prediction head — applied to
    a handful of newly attached nodes whose neighbour hidden states are
    already known.  This class wraps a ``state_dict`` so a persisted
    model can run that arithmetic without constructing modules or
    aggregation operators.

    Inputs may carry leading batch axes: a ``(B, P, d)`` stack of B
    pairs' P layer nodes is multiplied one ``(P, d)`` block at a time,
    so each pair's output is bit-identical to running it alone.
    """

    def __init__(self, state: Mapping[str, np.ndarray], config: GNNConfig) -> None:
        self.config = config
        self._conv_weights: list[tuple[np.ndarray, np.ndarray]] = []
        index = 0
        while f"conv{index}.linear.weight" in state:
            self._conv_weights.append(
                (
                    np.asarray(state[f"conv{index}.linear.weight"], dtype=np.float64),
                    np.asarray(state[f"conv{index}.linear.bias"], dtype=np.float64),
                )
            )
            index += 1
        if not self._conv_weights or "head.weight" not in state:
            raise GraphConstructionError(
                "state dict does not describe a trained GraphSAGE model"
            )
        self._head = (
            np.asarray(state["head.weight"], dtype=np.float64),
            np.asarray(state["head.bias"], dtype=np.float64),
        )

    @property
    def num_convolutions(self) -> int:
        """Number of stacked convolutions in the frozen state."""
        return len(self._conv_weights)

    def convolve(self, level: int, hidden: np.ndarray, aggregated: np.ndarray) -> np.ndarray:
        """Apply convolution ``level`` to own/neighbourhood hidden states."""
        weight, bias = self._conv_weights[level]
        out = np.concatenate([hidden, aggregated], axis=-1) @ weight + bias
        if level < len(self._conv_weights) - 1:
            out = np.maximum(out, 0.0)
        return out

    def probabilities(self, hidden: np.ndarray) -> np.ndarray:
        """Positive-class probability of each row of final hidden states."""
        weight, bias = self._head
        logits = hidden @ weight + bias
        shifted = logits - logits.max(axis=-1, keepdims=True)
        exponents = np.exp(shifted)
        return (exponents / exponents.sum(axis=-1, keepdims=True))[..., 1]


@dataclass
class GNNTrainingResult:
    """Outcome of training an intent-specific GraphSAGE model."""

    intent: str
    losses: list[float]
    best_validation_f1: float
    probabilities: np.ndarray

    @property
    def final_loss(self) -> float:
        """Training loss of the last epoch."""
        return self.losses[-1] if self.losses else float("nan")


def _supervision(
    split: str, index: np.ndarray, labels: np.ndarray, num_pairs: int
) -> tuple[np.ndarray, np.ndarray]:
    """Checked ``(index, labels)`` arrays of one supervision split."""
    index = np.asarray(index, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if index.ndim != 1 or index.shape != labels.shape:
        raise GraphConstructionError(f"{split}_index and {split}_labels must align")
    if index.size and (index.min() < 0 or index.max() >= num_pairs):
        raise GraphConstructionError(f"{split}_index must lie in [0, {num_pairs})")
    return index, labels


def _binary_f1(predictions: np.ndarray, labels: np.ndarray) -> float:
    """F1 of the positive class (used only for model selection here)."""
    true_positive = int(((predictions == 1) & (labels == 1)).sum())
    predicted_positive = int((predictions == 1).sum())
    actual_positive = int((labels == 1).sum())
    if predicted_positive == 0 or actual_positive == 0:
        return 0.0
    precision = true_positive / predicted_positive
    recall = true_positive / actual_positive
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


class IntentNodeClassifier:
    """Train GraphSAGE for one target intent and score all of its layer nodes.

    FlexER trains one model per intent over the same multiplex graph
    (Section 4.3).  Supervision uses the training pairs of the target
    intent; the best model over the validation pairs is kept and applied
    to every pair of the layer.
    """

    spec_type = "graphsage"

    def __init__(self, config: GNNConfig | None = None) -> None:
        self.config = config or GNNConfig()
        self._model: GraphSAGE | None = None
        self.result: GNNTrainingResult | None = None

    def to_spec(self) -> dict[str, object]:
        """Serialize the classifier into a registry spec.

        The GNN hyper-parameters live in the shared
        :class:`~repro.config.GNNConfig` (creation-time context), so the
        spec only names the classifier family.
        """
        return {"type": self.spec_type, "params": {}}

    @classmethod
    def from_spec(
        cls, params: Mapping[str, object], *, config: GNNConfig | None = None
    ) -> "IntentNodeClassifier":
        """Construct the classifier from a spec plus the shared GNN config."""
        return cls(config=config, **params)

    def fit_predict(
        self,
        graph: MultiplexGraph,
        target_intent: str,
        train_index: np.ndarray,
        train_labels: np.ndarray,
        valid_index: np.ndarray | None = None,
        valid_labels: np.ndarray | None = None,
    ) -> GNNTrainingResult:
        """Train on the target layer and return likelihoods for all its pairs.

        Parameters
        ----------
        graph:
            The multiplex intent graph over all candidate pairs.
        target_intent:
            The intent whose layer provides supervision and predictions.
        train_index, train_labels:
            Pair indices (within the candidate order used to build the
            graph) and binary labels used for the cross-entropy loss.
        valid_index, valid_labels:
            Optional validation pairs for best-epoch selection.
        """
        train_index, train_labels = _supervision(
            "train", train_index, train_labels, graph.num_pairs
        )
        if train_index.size == 0:
            raise GraphConstructionError("training requires at least one labeled pair")
        if (valid_index is None) != (valid_labels is None):
            raise GraphConstructionError("valid_index and valid_labels must be given together")
        layer_nodes = graph.layer_nodes(target_intent)
        train_nodes = layer_nodes[train_index]
        valid_nodes = None
        if valid_index is not None:
            valid_index, valid_labels = _supervision(
                "valid", valid_index, valid_labels, graph.num_pairs
            )
            if valid_index.size:
                valid_nodes = layer_nodes[valid_index]

        features = Tensor(graph.features)
        aggregation = GraphAggregation.from_graph(graph, mode=self.config.aggregator)
        model = GraphSAGE(graph.feature_dim, self.config)
        optimizer = Adam(model.parameters(), lr=self.config.learning_rate)

        losses: list[float] = []
        best_f1 = -1.0
        best_state: dict[str, np.ndarray] = {}
        probabilities: np.ndarray | None = None
        # One forward pass per epoch: no GraphSAGE module depends on
        # train/eval mode, so the pass after a step is both that epoch's
        # validation pass and the next epoch's training pass.
        logits = model(features, aggregation)
        for _ in range(self.config.epochs):
            loss = cross_entropy(logits.index_select(train_nodes), train_labels)
            if self.config.weight_decay:
                loss = loss + l2_penalty(list(model.parameters()), self.config.weight_decay)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            losses.append(loss.item())

            logits = model(features, aggregation)
            if valid_nodes is not None:
                epoch_probabilities = logits.softmax(axis=1).numpy()
                valid_predictions = (epoch_probabilities[valid_nodes, 1] >= 0.5).astype(np.int64)
                f1 = _binary_f1(valid_predictions, valid_labels)
                if f1 > best_f1:
                    best_f1 = f1
                    best_state = model.state_dict()
                    probabilities = epoch_probabilities

        if probabilities is None:
            probabilities = logits.softmax(axis=1).numpy()
        else:
            # The best epoch's softmax is already at hand; its state is
            # restored so that ``model_state`` returns it.
            model.load_state_dict(best_state)
        model.eval()
        self._model = model
        self.result = GNNTrainingResult(
            intent=target_intent,
            losses=losses,
            best_validation_f1=max(best_f1, 0.0),
            probabilities=probabilities[layer_nodes, 1],
        )
        return self.result

    def predict(self, threshold: float = 0.5) -> np.ndarray:
        """Binary predictions for every pair of the target layer."""
        if self.result is None:
            raise NotFittedError("fit_predict must be called before predict")
        return (self.result.probabilities >= threshold).astype(np.int64)

    def model_state(self) -> dict[str, np.ndarray]:
        """Parameters of the trained GraphSAGE model (best epoch restored).

        This is what a :class:`~repro.model.ResolverModel` persists per
        intent so the online query path can run frozen inference.
        """
        if self._model is None:
            raise NotFittedError("fit_predict must be called before model_state")
        return self._model.state_dict()


# ----------------------------------------------------------- sharded execution


@dataclass(frozen=True)
class ClassifierJob:
    """The per-intent supervision of one GNN training task.

    Jobs carry only plain arrays and the intent name, so the process
    executor ships them (alongside a graph payload) to workers without
    any shared state.
    """

    intent: str
    train_index: np.ndarray
    train_labels: np.ndarray
    valid_index: np.ndarray | None = None
    valid_labels: np.ndarray | None = None


def run_classifier_job(
    graph_payload: dict[str, object],
    classifier_spec: dict[str, object],
    config: GNNConfig,
    job: ClassifierJob,
) -> tuple[np.ndarray, float, float, dict[str, np.ndarray]]:
    """Train one per-intent classifier from shipped inputs (executor task).

    Rebuilds the multiplex graph from its
    :meth:`~repro.graph.multiplex.MultiplexGraph.to_payload` arrays,
    constructs the classifier through the registry, and returns
    ``(layer_probabilities, best_validation_f1, elapsed_seconds,
    model_state)`` — the trained parameter arrays ride along so the
    pipeline can persist them in the model artifact.  Training is fully
    seeded by ``config``, so the result is bit-identical wherever the
    job runs — the basis of the serial / thread / process executor
    equivalence guarantee.
    """
    # Imported lazily: the registry imports this module at start-up.
    from ..registry import INTENT_CLASSIFIERS
    from .multiplex import MultiplexGraph

    graph = MultiplexGraph.from_payload(graph_payload)
    start = time.perf_counter()
    classifier = INTENT_CLASSIFIERS.create(classifier_spec, config=config)
    result = classifier.fit_predict(
        graph,
        target_intent=job.intent,
        train_index=job.train_index,
        train_labels=job.train_labels,
        valid_index=job.valid_index,
        valid_labels=job.valid_labels,
    )
    elapsed = time.perf_counter() - start
    return result.probabilities, result.best_validation_f1, elapsed, classifier.model_state()
