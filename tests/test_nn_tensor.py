"""Tests for the autodiff engine, including numerical gradient checks."""

from __future__ import annotations

import gc
import weakref
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.config import GNNConfig, GraphConfig, MatcherConfig
from repro.graph import IntentGraphBuilder, IntentNodeClassifier
from repro.matching import MultiLabelMatcher, PairMatcher
from repro.nn.tensor import Tensor


def numerical_gradient(function, array: np.ndarray, epsilon: float = 1e-6) -> np.ndarray:
    """Central-difference numerical gradient of a scalar function."""
    gradient = np.zeros_like(array)
    flat = array.reshape(-1)
    flat_gradient = gradient.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        plus = function(array)
        flat[index] = original - epsilon
        minus = function(array)
        flat[index] = original
        flat_gradient[index] = (plus - minus) / (2 * epsilon)
    return gradient


small_matrices = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    elements=st.floats(-2.0, 2.0, allow_nan=False),
)


class TestTensorBasics:
    def test_scalar_backward_requires_scalar(self):
        tensor = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            tensor.backward()

    def test_add_and_mul_grads(self):
        a = Tensor([[1.0, 2.0]], requires_grad=True)
        b = Tensor([[3.0, 4.0]], requires_grad=True)
        loss = (a * b + a).sum()
        loss.backward()
        assert np.allclose(a.grad, [[4.0, 5.0]])
        assert np.allclose(b.grad, [[1.0, 2.0]])

    def test_broadcast_bias_grad(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        bias = Tensor(np.zeros(2), requires_grad=True)
        loss = (x + bias).sum()
        loss.backward()
        assert bias.grad.shape == (2,)
        assert np.allclose(bias.grad, [3.0, 3.0])

    def test_matmul_grads(self):
        a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
        b = Tensor(np.array([[1.0], [1.0]]), requires_grad=True)
        loss = (a @ b).sum()
        loss.backward()
        assert np.allclose(a.grad, np.ones((2, 2)))
        assert np.allclose(b.grad, [[4.0], [6.0]])

    def test_detach_cuts_graph(self):
        a = Tensor([[1.0]], requires_grad=True)
        detached = (a * 2).detach()
        assert detached.requires_grad is False

    def test_index_select_scatter_adds(self):
        a = Tensor(np.arange(6, dtype=float).reshape(3, 2), requires_grad=True)
        selected = a.index_select([0, 0, 2])
        loss = selected.sum()
        loss.backward()
        assert np.allclose(a.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])

    def test_concat_splits_gradient(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        loss = (Tensor.concat([a, b], axis=1) * 2).sum()
        loss.backward()
        assert np.allclose(a.grad, 2.0)
        assert np.allclose(b.grad, 2.0)

    def test_zero_grad_resets(self):
        a = Tensor([[1.0]], requires_grad=True)
        (a * 3).sum().backward()
        assert a.grad is not None
        a.zero_grad()
        assert a.grad is None

    def test_constant_nodes_do_not_break_backward(self):
        a = Tensor([[1.0, 2.0]], requires_grad=True)
        constant = Tensor([[5.0, 5.0]])
        loss = ((constant - Tensor(1.0)) * a).sum()
        loss.backward()
        assert np.allclose(a.grad, [[4.0, 4.0]])


#: Scalar-valued ops of the numerical gradient checks.
OPERATIONS = [
    lambda t: t.relu().sum(),
    lambda t: t.sigmoid().sum(),
    lambda t: t.tanh().sum(),
    lambda t: (t * t).mean(),
    lambda t: t.exp().sum(),
    lambda t: (t.sigmoid() + 0.1).log().sum(),
    lambda t: t.log_softmax(axis=1).sum(),
    lambda t: t.softmax(axis=1).max(axis=1).sum(),
]


class TestNumericalGradients:
    @pytest.mark.parametrize("operation", OPERATIONS)
    def test_elementwise_ops_match_numerical(self, operation):
        array = np.random.default_rng(0).normal(size=(3, 4))
        tensor = Tensor(array.copy(), requires_grad=True)
        operation(tensor).backward()

        def scalar_function(values: np.ndarray) -> float:
            return float(operation(Tensor(values.copy())).numpy().sum())

        numeric = numerical_gradient(scalar_function, array.copy())
        assert np.allclose(tensor.grad, numeric, atol=1e-4)

    def test_two_layer_network_gradient(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 3))
        w1 = rng.normal(size=(3, 4))
        w2 = rng.normal(size=(4, 1))

        def loss_for(weights: np.ndarray) -> float:
            h = np.maximum(x @ weights, 0.0)
            return float(((h @ w2) ** 2).mean())

        w1_tensor = Tensor(w1.copy(), requires_grad=True)
        hidden = (Tensor(x) @ w1_tensor).relu()
        loss = ((hidden @ Tensor(w2)).pow(2.0)).mean()
        loss.backward()
        numeric = numerical_gradient(loss_for, w1.copy())
        assert np.allclose(w1_tensor.grad, numeric, atol=1e-4)

    @given(small_matrices)
    @settings(max_examples=25, deadline=None)
    def test_sum_gradient_is_ones(self, array):
        tensor = Tensor(array, requires_grad=True)
        tensor.sum().backward()
        assert np.allclose(tensor.grad, np.ones_like(array))

    @given(small_matrices)
    @settings(max_examples=25, deadline=None)
    def test_mean_gradient_is_uniform(self, array):
        tensor = Tensor(array, requires_grad=True)
        tensor.mean().backward()
        assert np.allclose(tensor.grad, np.full_like(array, 1.0 / array.size))


class TestSoftmax:
    def test_softmax_rows_sum_to_one(self):
        tensor = Tensor(np.random.default_rng(2).normal(size=(4, 6)))
        probabilities = tensor.softmax(axis=1).numpy()
        assert np.allclose(probabilities.sum(axis=1), 1.0)
        assert (probabilities >= 0).all()

    def test_log_softmax_is_stable_for_large_inputs(self):
        tensor = Tensor(np.array([[1000.0, 0.0]]))
        values = tensor.log_softmax(axis=1).numpy()
        assert np.isfinite(values).all()


# ------------------------------------------------------------------ graph lifetime


@contextmanager
def collector_off():
    """Run the body with the cyclic garbage collector disabled."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def cyclic_garbage(function) -> int:
    """Objects the cyclic collector finds after ``function()`` ran with it off."""
    with collector_off():
        function()
        return gc.collect()


class TestGraphLifetime:
    def test_backward_frees_interior_nodes_and_leaves_keep_gradients(self):
        rng = np.random.default_rng(3)
        weight = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        inputs = Tensor(rng.normal(size=(4, 3)))
        activation = np.maximum(inputs.data @ weight.data, 0.0)
        with collector_off():
            hidden = (inputs @ weight).relu()
            interior = weakref.ref(hidden)
            loss = (hidden * hidden).mean()
            del hidden
            assert interior() is not None  # the graph holds it until backward
            loss.backward()
            # Released: the caller still holds ``loss``, but not its graph.
            assert interior() is None
        assert loss.item() == pytest.approx((activation * activation).mean())
        expected = inputs.data.T @ (2.0 * activation / activation.size)
        assert np.allclose(weight.grad, expected)
        assert inputs.grad is None

    def test_second_backward_through_a_released_graph_raises(self):
        a = Tensor([[1.0, -2.0]], requires_grad=True)
        hidden = a * a
        loss = hidden.sum()
        loss.backward()
        with pytest.raises(ValueError, match="released"):
            loss.backward()
        with pytest.raises(ValueError, match="released"):
            (hidden * 3.0).sum().backward()
        assert np.array_equal(a.grad, [[2.0, -4.0]])

    def test_deep_graph_does_not_reach_the_recursion_limit(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        chain = a
        for _ in range(5000):
            chain = chain * 1.0
        chain.sum().backward()
        assert np.array_equal(a.grad, np.ones((2, 2)))

    @given(
        data=st.data(),
        shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        steps=st.lists(st.sampled_from(range(len(OPERATIONS))), min_size=1, max_size=5),
        propagate=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_op_chains_leave_no_cyclic_garbage(self, data, shape, steps, propagate):
        array = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(-2.0, 2.0)))
        weight = data.draw(hnp.arrays(np.float64, (shape[1], shape[1]), elements=st.floats(-1, 1)))

        def chain() -> None:
            leaf = Tensor(array, requires_grad=True)
            hidden = Tensor(weight) @ leaf.transpose()
            for step in steps:
                # Each op reduces to a scalar; broadcasting it back keeps
                # the chain going through every recorded op.
                hidden = hidden.transpose() * OPERATIONS[step](hidden)
            if propagate:
                hidden.sum().backward()
                assert leaf.grad is not None

        with np.errstate(all="ignore"):
            assert cyclic_garbage(chain) == 0


@pytest.fixture(scope="module")
def fit_data():
    rng = np.random.default_rng(5)
    features = rng.normal(size=(40, 8))
    labels = (features[:, 0] > 0).astype(np.int64)
    label_matrix = np.stack([labels, (features[:, 1] > 0).astype(np.int64)], axis=1)
    representations = {intent: rng.normal(size=(30, 5)) for intent in ("a", "b")}
    graph = IntentGraphBuilder(GraphConfig(k_neighbors=3)).build(representations)
    graph_labels = (representations["a"][:, 0] > 0).astype(np.int64)
    return features, labels, label_matrix, graph, graph_labels


MATCHER = MatcherConfig(hidden_dims=(12, 6), epochs=3, batch_size=16, weight_decay=1e-3, seed=2)


@pytest.mark.parametrize("trainer", ["pair_matcher", "multilabel_matcher", "graphsage"])
def test_training_leaves_no_cyclic_garbage(fit_data, trainer):
    """A fit with the collector off leaves nothing for it to collect."""
    features, labels, label_matrix, graph, graph_labels = fit_data
    fits = {
        "pair_matcher": lambda: PairMatcher(MATCHER).fit(features, labels),
        "multilabel_matcher": lambda: MultiLabelMatcher(("a", "b"), MATCHER).fit(
            features, label_matrix
        ),
        "graphsage": lambda: IntentNodeClassifier(
            GNNConfig(hidden_dim=8, epochs=4, weight_decay=5e-4)
        ).fit_predict(
            graph, "a", np.arange(18), graph_labels[:18], np.arange(18, 26), graph_labels[18:26]
        ),
    }
    assert cyclic_garbage(fits[trainer]) == 0
