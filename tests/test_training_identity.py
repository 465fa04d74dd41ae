"""Byte identity of the autodiff trainers against their out-of-place reference.

GNN training runs one forward pass per epoch, builds the constant
first-layer input once, skips gradient products for constant operands,
writes a first gradient in one pass and updates the Adam moments in
place.  None of that may change a single output byte.  The reference
implementations below are the straightforward versions those changes
replaced; each test patches them in with ``monkeypatch`` to produce the
expected outputs and compares byte for byte.
"""

from __future__ import annotations

import inspect
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import repro.nn as nn_package
from repro.config import GNNConfig, GraphConfig, MatcherConfig
from repro.graph import GraphAggregation, GraphSAGE, IntentGraphBuilder, IntentNodeClassifier
from repro.graph.sage import GNNTrainingResult, SAGEConvolution, _binary_f1
from repro.matching.multilabel import MultiLabelMatcher
from repro.matching.pair_matcher import PairMatcher
from repro.nn import Adam, Dropout, Module, Parameter, Tensor, cross_entropy, l2_penalty


# ------------------------------------------------------------------ references


def reference_fit_predict(
    self,
    graph,
    target_intent,
    train_index,
    train_labels,
    valid_index=None,
    valid_labels=None,
):
    """Two forward passes per epoch plus a final pass over the best state."""
    train_index = np.asarray(train_index, dtype=np.int64)
    train_labels = np.asarray(train_labels, dtype=np.int64)
    layer_nodes = graph.layer_nodes(target_intent)
    train_nodes = layer_nodes[train_index]
    valid_nodes = (
        layer_nodes[np.asarray(valid_index, dtype=np.int64)]
        if valid_index is not None and len(valid_index) > 0
        else None
    )
    features = Tensor(graph.features)
    aggregation = GraphAggregation.from_graph(graph, mode=self.config.aggregator)
    model = GraphSAGE(graph.feature_dim, self.config)
    optimizer = Adam(model.parameters(), lr=self.config.learning_rate)

    losses = []
    best_f1 = -1.0
    best_state = model.state_dict()
    for _ in range(self.config.epochs):
        model.train()
        logits = model(features, aggregation)
        loss = cross_entropy(logits.index_select(train_nodes), train_labels)
        if self.config.weight_decay:
            loss = loss + l2_penalty(list(model.parameters()), self.config.weight_decay)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        losses.append(loss.item())
        if valid_nodes is not None and valid_labels is not None:
            model.eval()
            probabilities = model(features, aggregation).softmax(axis=1).numpy()
            predictions = (probabilities[valid_nodes, 1] >= 0.5).astype(np.int64)
            f1 = _binary_f1(predictions, np.asarray(valid_labels, dtype=np.int64))
            if f1 > best_f1:
                best_f1 = f1
                best_state = model.state_dict()
    if valid_nodes is not None and valid_labels is not None and best_f1 >= 0:
        model.load_state_dict(best_state)
    model.eval()
    probabilities = model(features, aggregation).softmax(axis=1).numpy()
    self._model = model
    self.result = GNNTrainingResult(
        intent=target_intent,
        losses=losses,
        best_validation_f1=max(best_f1, 0.0),
        probabilities=probabilities[layer_nodes, 1],
    )
    return self.result


def reference_convolution(self, hidden, aggregation):
    """Aggregate and concatenate the input on every pass."""
    combined = Tensor.concat([hidden, aggregation(hidden)], axis=1)
    out = self.linear(combined)
    return out.relu() if self.activation else out


def reference_matmul(self, other):
    """Both gradient products, whether or not an operand keeps its gradient."""
    other = self._lift(other)
    out = Tensor(self.data @ other.data, self.requires_grad or other.requires_grad)
    out._parents = (self, other)

    def _backward(grad):
        self._accumulate(grad @ other.data.T)
        other._accumulate(self.data.T @ grad)

    out._backward = _backward
    return out


def reference_accumulate(self, gradient):
    """Zero-fill a first gradient buffer, then add into it."""
    if not self.requires_grad:
        return
    if self.grad is None:
        self.grad = np.zeros_like(self.data)
    self.grad += gradient


def reference_adam_step(self):
    """Out-of-place Adam: about ten temporaries per parameter."""
    self._step += 1
    beta1, beta2 = self.betas
    for index, parameter in enumerate(self.parameters):
        if parameter.grad is None:
            continue
        gradient = parameter.grad
        self._m[index] = beta1 * self._m[index] + (1.0 - beta1) * gradient
        self._v[index] = beta2 * self._v[index] + (1.0 - beta2) * gradient * gradient
        m_hat = self._m[index] / (1.0 - beta1**self._step)
        v_hat = self._v[index] / (1.0 - beta2**self._step)
        update = m_hat / (np.sqrt(v_hat) + self.eps)
        if self.weight_decay:
            update = update + self.weight_decay * parameter.data
        parameter.data = parameter.data - self.lr * update


def run_reference(monkeypatch, fn):
    """``fn()`` with every reference implementation patched in."""
    with monkeypatch.context() as patch:
        patch.setattr(IntentNodeClassifier, "fit_predict", reference_fit_predict)
        patch.setattr(SAGEConvolution, "forward", reference_convolution)
        patch.setattr(Tensor, "matmul", reference_matmul)
        patch.setattr(Tensor, "__matmul__", reference_matmul)
        patch.setattr(Tensor, "_accumulate", reference_accumulate)
        patch.setattr(Adam, "step", reference_adam_step)
        return fn()


def assert_same_bytes(expected: dict, actual: dict) -> None:
    assert expected.keys() == actual.keys()
    for name, value in expected.items():
        value, other = np.asarray(value), np.asarray(actual[name])
        assert value.dtype == other.dtype and value.shape == other.shape, name
        assert value.tobytes() == other.tobytes(), name


# ------------------------------------------------------------------ GNN training


NUM_PAIRS = 40
TRAIN = np.arange(0, 24)
VALID = np.arange(24, 34)


def labeled_graph(intents=("target", "other", "third"), seed=0):
    rng = np.random.default_rng(seed)
    signal = rng.normal(size=(NUM_PAIRS, 1))
    labels = (signal[:, 0] > 0).astype(np.int64)
    representations = {
        intent: rng.normal(size=(NUM_PAIRS, 6)) for intent in intents if intent != "target"
    }
    representations["target"] = np.hstack([signal, rng.normal(size=(NUM_PAIRS, 5)) * 0.1])
    graph = IntentGraphBuilder(GraphConfig(k_neighbors=3)).build(
        {intent: representations[intent] for intent in intents}
    )
    return graph, labels


@pytest.fixture(scope="module")
def graph_and_labels():
    return labeled_graph()


def train_outputs(graph, labels, config, train_index=TRAIN, validate=True):
    classifier = IntentNodeClassifier(config)
    supervision = {"valid_index": VALID, "valid_labels": labels[VALID]} if validate else {}
    result = classifier.fit_predict(
        graph, "target", train_index, labels[train_index], **supervision
    )
    outputs = {f"state::{name}": array for name, array in classifier.model_state().items()}
    outputs["probabilities"] = result.probabilities
    outputs["best_validation_f1"] = np.float64(result.best_validation_f1)
    outputs["losses"] = np.asarray(result.losses)
    return outputs


GRID = list(itertools.product(("mean", "sum"), (2, 3), (True, False), (0.0, 5e-4), (1, 7)))


@pytest.mark.parametrize(
    "aggregator,num_layers,validate,weight_decay,epochs",
    GRID,
    ids=[f"{a}-L{n}-{'valid' if v else 'novalid'}-wd{w}-E{e}" for a, n, v, w, e in GRID],
)
def test_gnn_training_matches_reference(
    monkeypatch, graph_and_labels, aggregator, num_layers, validate, weight_decay, epochs
):
    graph, labels = graph_and_labels
    config = GNNConfig(
        num_layers=num_layers,
        hidden_dim=8,
        epochs=epochs,
        weight_decay=weight_decay,
        aggregator=aggregator,
        seed=3,
    )
    expected = run_reference(
        monkeypatch, lambda: train_outputs(graph, labels, config, validate=validate)
    )
    assert_same_bytes(expected, train_outputs(graph, labels, config, validate=validate))


def test_gnn_training_restores_an_earlier_epoch(graph_and_labels):
    """The grid's mean, 2-layer, validated 7-epoch run keeps an earlier epoch.

    Validation does not change the updates, so the final state of an
    unvalidated run is the last epoch's: a validated run that returns a
    different state has restored an earlier epoch.
    """
    graph, labels = graph_and_labels
    config = GNNConfig(hidden_dim=8, epochs=7, seed=3)
    validated = train_outputs(graph, labels, config)
    last = train_outputs(graph, labels, config, validate=False)
    assert validated["losses"].tobytes() == last["losses"].tobytes()
    assert any(
        validated[name].tobytes() != last[name].tobytes()
        for name in validated
        if name.startswith("state::")
    )


@pytest.mark.parametrize("aggregator", ["mean", "sum"])
def test_gnn_training_one_intent_graph(monkeypatch, aggregator):
    graph, labels = labeled_graph(intents=("target",), seed=4)
    config = GNNConfig(hidden_dim=8, epochs=7, aggregator=aggregator, seed=1)
    expected = run_reference(monkeypatch, lambda: train_outputs(graph, labels, config))
    assert_same_bytes(expected, train_outputs(graph, labels, config))


@pytest.mark.parametrize("validate", [True, False])
def test_gnn_training_duplicate_train_indices(monkeypatch, graph_and_labels, validate):
    """Repeated supervision rows take the ``np.add.at`` scatter of ``index_select``."""
    graph, labels = graph_and_labels
    train_index = np.concatenate([TRAIN, TRAIN[:5], [3, 3]])
    config = GNNConfig(num_layers=3, hidden_dim=8, epochs=7, seed=2)
    expected = run_reference(
        monkeypatch,
        lambda: train_outputs(graph, labels, config, train_index=train_index, validate=validate),
    )
    actual = train_outputs(graph, labels, config, train_index=train_index, validate=validate)
    assert_same_bytes(expected, actual)


# ------------------------------------------------------------------ matchers


@pytest.fixture(scope="module")
def matcher_data():
    rng = np.random.default_rng(11)
    features = rng.normal(size=(45, 9))
    labels = (features[:, 0] + 0.3 * features[:, 1] > 0).astype(np.int64)
    label_matrix = np.stack(
        [labels, (features[:, 2] > 0).astype(np.int64), np.zeros(45, dtype=np.int64)], axis=1
    )
    return features, labels, label_matrix


def matcher_config(weight_decay):
    return MatcherConfig(
        hidden_dims=(12, 6), epochs=4, batch_size=16, weight_decay=weight_decay, seed=2
    )


@pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
def test_pair_matcher_fit_matches_reference(monkeypatch, matcher_data, weight_decay):
    features, labels, _ = matcher_data

    def fit():
        matcher = PairMatcher(matcher_config(weight_decay)).fit(features, labels)
        return {**matcher.state_dict(), "losses": np.asarray(matcher.history.losses)}

    assert_same_bytes(run_reference(monkeypatch, fit), fit())


@pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
def test_multilabel_matcher_fit_matches_reference(monkeypatch, matcher_data, weight_decay):
    features, _, label_matrix = matcher_data

    def fit():
        matcher = MultiLabelMatcher(("a", "b", "c"), matcher_config(weight_decay))
        matcher.fit(features, label_matrix)
        return {**matcher.state_dict(), "losses": np.asarray(matcher.history.losses)}

    assert_same_bytes(run_reference(monkeypatch, fit), fit())


# ------------------------------------------------------------------ properties

#: Every float64, with -0.0, infinities and NaNs drawn often.
ANY_FLOAT = st.one_of(
    st.sampled_from([-0.0, 0.0, np.inf, -np.inf, np.nan]),
    st.floats(width=64, allow_nan=True, allow_infinity=True),
)
SHAPES = hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=4)


@st.composite
def gradients_for(draw, shape):
    """A gradient for ``shape``: a full array or a smaller broadcast view."""
    source_shape = tuple(draw(st.sampled_from([size, 1])) for size in shape)
    source_shape = source_shape[draw(st.integers(0, len(shape))):]
    gradient = draw(hnp.arrays(np.float64, source_shape, elements=ANY_FLOAT))
    if draw(st.booleans()):
        return np.broadcast_to(gradient, shape)
    return gradient


@settings(max_examples=60, deadline=None)
@given(data=st.data(), shape=SHAPES)
def test_first_accumulate_equals_zeros_plus_gradient(data, shape):
    gradient, second = data.draw(gradients_for(shape)), data.draw(gradients_for(shape))
    tensor = Tensor(np.ones(shape), requires_grad=True)
    expected = np.zeros(shape)
    with np.errstate(invalid="ignore"):
        tensor._accumulate(gradient)
        expected += gradient
        assert tensor.grad.shape == shape
        assert tensor.grad.tobytes() == expected.tobytes()
        # The buffer is owned: it never aliases the incoming gradient.
        assert not np.shares_memory(tensor.grad, gradient)

        tensor._accumulate(second)
        expected += second
        assert tensor.grad.tobytes() == expected.tobytes()


def test_first_accumulate_turns_negative_zero_positive():
    tensor = Tensor(np.ones(3), requires_grad=True)
    tensor._accumulate(np.array([-0.0, 0.0, -0.0]))
    assert not np.signbit(tensor.grad).any()


FINITE = st.floats(min_value=-1e3, max_value=1e3, width=64)


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    shape=hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=5),
    weight_decay=st.sampled_from([0.0, 5e-4]),
)
def test_adam_steps_match_reference(data, shape, weight_decay):
    initial = data.draw(hnp.arrays(np.float64, shape, elements=FINITE))
    gradients = [data.draw(hnp.arrays(np.float64, shape, elements=FINITE)) for _ in range(5)]
    parameters = [Parameter(initial.copy()), Parameter(initial.copy())]
    optimizers = [
        Adam([parameter], lr=0.01, weight_decay=weight_decay) for parameter in parameters
    ]
    for gradient in gradients:
        for parameter in parameters:
            parameter.grad = gradient.copy()
        optimizers[0].step()
        reference_adam_step(optimizers[1])
        assert parameters[0].data.tobytes() == parameters[1].data.tobytes()
        assert optimizers[0]._m[0].tobytes() == optimizers[1]._m[0].tobytes()
        assert optimizers[0]._v[0].tobytes() == optimizers[1]._v[0].tobytes()


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    rows=st.integers(1, 5),
    inner=st.integers(1, 5),
    cols=st.integers(1, 5),
    constant_left=st.booleans(),
)
def test_constant_matmul_operand_gets_no_gradient(data, rows, inner, cols, constant_left):
    left = data.draw(hnp.arrays(np.float64, (rows, inner), elements=FINITE))
    right = data.draw(hnp.arrays(np.float64, (inner, cols), elements=FINITE))
    seed = data.draw(hnp.arrays(np.float64, (rows, cols), elements=FINITE))
    constant, variable = Tensor(left), Tensor(right, requires_grad=True)
    if not constant_left:
        constant, variable = Tensor(right), Tensor(left, requires_grad=True)
    out = constant @ variable if constant_left else variable @ constant
    out.backward(seed)
    assert constant.grad is None
    expected = left.T @ seed if constant_left else seed @ right.T
    assert variable.grad.tobytes() == (0.0 + expected).tobytes()


# ------------------------------------------------------------------ counts and guards


def count_forward_passes(monkeypatch):
    calls = []
    forward = GraphSAGE.forward

    def counted(self, features, aggregation):
        calls.append(1)
        return forward(self, features, aggregation)

    monkeypatch.setattr(GraphSAGE, "forward", counted)
    return calls


@pytest.mark.parametrize("validate", [True, False])
@pytest.mark.parametrize("epochs", [1, 5])
def test_one_forward_pass_per_epoch(monkeypatch, graph_and_labels, validate, epochs):
    graph, labels = graph_and_labels
    calls = count_forward_passes(monkeypatch)
    train_outputs(graph, labels, GNNConfig(hidden_dim=8, epochs=epochs), validate=validate)
    assert len(calls) == epochs + 1


def test_first_layer_input_follows_a_changed_feature_array(graph_and_labels):
    graph, _ = graph_and_labels
    config = GNNConfig(hidden_dim=8, seed=5)
    model = GraphSAGE(graph.feature_dim, config)
    aggregation = GraphAggregation.from_graph(graph, mode=config.aggregator)
    first = model(Tensor(graph.features), aggregation).numpy()
    assert model(Tensor(graph.features), aggregation).numpy().tobytes() == first.tobytes()

    changed = graph.features * 2.0 - 1.0
    reused = model(Tensor(changed), aggregation).numpy()
    fresh = model(
        Tensor(changed), GraphAggregation.from_graph(graph, mode=config.aggregator)
    ).numpy()
    assert reused.tobytes() == fresh.tobytes()
    assert reused.tobytes() != first.tobytes()


def test_first_layer_input_is_built_once_per_training(monkeypatch, graph_and_labels):
    graph, labels = graph_and_labels
    aggregated = []
    call = GraphAggregation.__call__

    def counted(self, hidden):
        aggregated.append(hidden.requires_grad)
        return call(self, hidden)

    monkeypatch.setattr(GraphAggregation, "__call__", counted)
    train_outputs(graph, labels, GNNConfig(hidden_dim=8, epochs=4))
    # Once for the constant features, then once per pass for the
    # second convolution's trainable input.
    assert aggregated.count(False) == 1
    assert aggregated.count(True) == 4 + 1


def mode_dependent_modules() -> set[type]:
    """``repro.nn`` modules whose forward pass reads ``self.training``."""
    found = set()
    for value in vars(nn_package).values():
        if isinstance(value, type) and issubclass(value, Module) and value is not Module:
            if "self.training" in inspect.getsource(value.forward):
                found.add(value)
    return found


def test_graphsage_has_no_mode_dependent_module():
    """One pass per epoch is valid only while train and eval passes agree."""
    assert mode_dependent_modules() == {Dropout}
    model = GraphSAGE(6, GNNConfig(num_layers=3, hidden_dim=8))
    pending = [model]
    while pending:
        module = pending.pop()
        assert "self.training" not in inspect.getsource(type(module).forward)
        pending.extend(module._modules.values())
