"""A small reverse-mode automatic differentiation engine over numpy.

This module is the reproduction's substitute for PyTorch.  A
:class:`Tensor` wraps a numpy array, records the operations that produced
it, and :meth:`Tensor.backward` propagates gradients through the recorded
graph in reverse topological order.  Only the operations needed by the
matchers and the GraphSAGE model are implemented, but they are implemented
with full broadcasting support so models can be written naturally.

Graph lifetime: references run from an op's output to its inputs only.
An op's backward step takes the output's gradient as its argument and
captures the op's inputs and constants, never its output, so a graph
holds no reference cycle and reference counting frees it as soon as its
result is dropped.  An op is recorded only when one of its inputs
requires a gradient.  :meth:`Tensor.backward` releases each interior node
(its gradient, backward step and parents) right after running its step,
so a training step's activations and gradients are freed when
``backward`` returns.  Leaves (parameters and constants) keep their
``grad``.  A second ``backward`` through a released graph raises
``ValueError``.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

ArrayLike = np.ndarray | float | int | Sequence
BackwardStep = Callable[[np.ndarray], None]


def _unbroadcast(gradient: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``gradient`` over broadcast dimensions so it matches ``shape``."""
    if gradient.shape == shape:
        return gradient
    # One reduction pass instead of one ``sum`` per broadcast axis:
    # leading extra dimensions plus every dimension expanded from size 1.
    extra = gradient.ndim - len(shape)
    axes = tuple(range(extra)) + tuple(
        extra + axis
        for axis, size in enumerate(shape)
        if size == 1 and gradient.shape[extra + axis] != 1
    )
    if axes:
        gradient = gradient.sum(axis=axes, keepdims=True)
    return gradient.reshape(shape)


def _released(gradient: np.ndarray) -> None:
    """The backward step of a node that an earlier ``backward`` released."""
    raise ValueError("backward() through a graph that an earlier backward() released")


class Tensor:
    """A numpy-backed tensor with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array content; converted to ``float64``.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "__weakref__")

    def __init__(self, data: ArrayLike, requires_grad: bool = False) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        # The recorded op's backward step (``None`` for a leaf): it maps
        # this tensor's gradient onto ``_parents``, the op's inputs.
        self._backward: BackwardStep | None = None
        self._parents: tuple["Tensor", ...] = ()

    # ------------------------------------------------------------------ utils

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions of the underlying array."""
        return self.data.ndim

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (no copy)."""
        return self.data

    def item(self) -> float:
        """Return the scalar value of a one-element tensor."""
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def _accumulate(self, gradient: np.ndarray) -> None:
        if not self.requires_grad:
            return
        # ``gradient`` may be any view broadcastable to the buffer's shape.
        if self.grad is None:
            # A first gradient is written as ``0.0 + gradient`` in one pass
            # into a privately owned buffer.  A plain copy would differ:
            # it keeps ``-0.0``, which the addition turns into ``+0.0``.
            self.grad = np.add(gradient, 0.0, out=np.empty_like(self.data))
        else:
            # The buffer is owned (allocated above or by a copy in
            # ``backward``), so later contributions add in place.
            self.grad += gradient

    @staticmethod
    def _lift(value: "Tensor" | ArrayLike) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    @staticmethod
    def _from_op(
        data: ArrayLike, parents: tuple["Tensor", ...], backward: BackwardStep
    ) -> "Tensor":
        """The output of an op over ``parents``, recorded if any needs a gradient.

        ``backward(grad)`` maps the output's gradient onto ``parents``.  It
        is defined before the output exists, so it cannot capture it.
        """
        out = Tensor(data, any(parent.requires_grad for parent in parents))
        if out.requires_grad:
            out._parents = parents
            out._backward = backward
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # ------------------------------------------------------------- arithmetic

    def __add__(self, other: "Tensor" | ArrayLike) -> "Tensor":
        other = self._lift(other)

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad, self.shape))
            other._accumulate(_unbroadcast(grad, other.shape))

        return self._from_op(self.data + other.data, (self, other), _backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def _backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return self._from_op(-self.data, (self,), _backward)

    def __sub__(self, other: "Tensor" | ArrayLike) -> "Tensor":
        return self + (-self._lift(other))

    def __rsub__(self, other: "Tensor" | ArrayLike) -> "Tensor":
        return self._lift(other) + (-self)

    def __mul__(self, other: "Tensor" | ArrayLike) -> "Tensor":
        other = self._lift(other)

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad * other.data, self.shape))
            other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return self._from_op(self.data * other.data, (self, other), _backward)

    __rmul__ = __mul__

    def __truediv__(self, other: "Tensor" | ArrayLike) -> "Tensor":
        other = self._lift(other)
        return self * other.pow(-1.0)

    def __rtruediv__(self, other: "Tensor" | ArrayLike) -> "Tensor":
        return self._lift(other) * self.pow(-1.0)

    def pow(self, exponent: float) -> "Tensor":
        """Element-wise power with a constant exponent."""

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * np.power(self.data, exponent - 1.0))

        return self._from_op(np.power(self.data, exponent), (self,), _backward)

    def matmul(self, other: "Tensor" | ArrayLike) -> "Tensor":
        """Matrix product ``self @ other`` for 2-D operands."""
        other = self._lift(other)

        def _backward(grad: np.ndarray) -> None:
            # Only the products whose gradients are kept: a constant
            # operand (a layer's input features) gets none.
            if self.requires_grad:
                self._accumulate(grad @ other.data.T)
            if other.requires_grad:
                other._accumulate(self.data.T @ grad)

        return self._from_op(self.data @ other.data, (self, other), _backward)

    __matmul__ = matmul

    # -------------------------------------------------------------- reshaping

    def reshape(self, *shape: int) -> "Tensor":
        """Return a reshaped view participating in the graph."""

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(self.shape))

        return self._from_op(self.data.reshape(*shape), (self,), _backward)

    def transpose(self) -> "Tensor":
        """Transpose of a 2-D tensor."""

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad.T)

        return self._from_op(self.data.T, (self,), _backward)

    def index_select(self, indices: np.ndarray | Sequence[int]) -> "Tensor":
        """Select rows of a 2-D tensor (gather); gradients scatter-add back."""
        index_array = np.asarray(indices, dtype=np.int64)
        # Distinct indices (the common case: supervision rows) scatter
        # with direct assignment; ``np.add.at`` — an order of magnitude
        # slower — is only needed when rows repeat.
        has_duplicates = (
            index_array.size > 1 and np.unique(index_array).size < index_array.size
        )

        def _backward(grad: np.ndarray) -> None:
            gradient = np.zeros_like(self.data)
            if has_duplicates:
                np.add.at(gradient, index_array, grad)
            else:
                gradient[index_array] = grad
            self._accumulate(gradient)

        return self._from_op(self.data[index_array], (self,), _backward)

    # ------------------------------------------------------------- reductions

    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (or all elements)."""

        def _backward(grad: np.ndarray) -> None:
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis=axis)
            # Broadcasting happens inside the in-place accumulation; no
            # materialized copy of the expanded gradient is needed.
            self._accumulate(np.broadcast_to(grad, self.shape))

        return self._from_op(self.data.sum(axis=axis, keepdims=keepdims), (self,), _backward)

    def mean(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        """Mean over ``axis`` (or all elements)."""
        if axis is None:
            count = self.data.size
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        """Max over ``axis``; gradient flows to the (first) argmax entries."""
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def _backward(grad: np.ndarray) -> None:
            expanded = out_data if keepdims else np.expand_dims(out_data, axis=axis)
            mask = (self.data == expanded).astype(np.float64)
            mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            gradient = grad if keepdims else np.expand_dims(grad, axis=axis)
            self._accumulate(mask * gradient)

        return self._from_op(out_data, (self,), _backward)

    # ------------------------------------------------------------ activations

    def relu(self) -> "Tensor":
        """Rectified linear unit."""

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (self.data > 0.0))

        return self._from_op(np.maximum(self.data, 0.0), (self,), _backward)

    def tanh(self) -> "Tensor":
        """Hyperbolic tangent."""
        value = np.tanh(self.data)

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - value * value))

        return self._from_op(value, (self,), _backward)

    def sigmoid(self) -> "Tensor":
        """Numerically stable logistic sigmoid."""
        value = np.where(
            self.data >= 0,
            1.0 / (1.0 + np.exp(-np.clip(self.data, -500, 500))),
            np.exp(np.clip(self.data, -500, 500))
            / (1.0 + np.exp(np.clip(self.data, -500, 500))),
        )

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad * value * (1.0 - value))

        return self._from_op(value, (self,), _backward)

    def log(self) -> "Tensor":
        """Natural logarithm (inputs are clipped away from zero)."""
        clipped = np.clip(self.data, 1e-12, None)

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad / clipped)

        return self._from_op(np.log(clipped), (self,), _backward)

    def exp(self) -> "Tensor":
        """Element-wise exponential."""
        value = np.exp(np.clip(self.data, -500, 500))

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad * value)

        return self._from_op(value, (self,), _backward)

    # ------------------------------------------------------------- composites

    @staticmethod
    def concat(tensors: Sequence["Tensor"], axis: int = 1) -> "Tensor":
        """Concatenate tensors along ``axis`` (the CONC operator of Eq. 4)."""
        parents = tuple(tensors)
        data = np.concatenate([tensor.data for tensor in parents], axis=axis)
        sizes = [tensor.data.shape[axis] for tensor in parents]

        def _backward(grad: np.ndarray) -> None:
            start = 0
            for tensor, size in zip(parents, sizes):
                indexer: list[slice] = [slice(None)] * grad.ndim
                indexer[axis] = slice(start, start + size)
                tensor._accumulate(grad[tuple(indexer)])
                start += size

        return Tensor._from_op(data, parents, _backward)

    def log_softmax(self, axis: int = 1) -> "Tensor":
        """Log-softmax along ``axis`` implemented via stable primitives."""
        shifted = self - Tensor(self.data.max(axis=axis, keepdims=True))
        log_sum = shifted.exp().sum(axis=axis, keepdims=True).log()
        return shifted - log_sum

    def softmax(self, axis: int = 1) -> "Tensor":
        """Softmax along ``axis``."""
        return self.log_softmax(axis=axis).exp()

    # --------------------------------------------------------------- backward

    def backward(self, gradient: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Each interior node is released once its backward step has run:
        its gradient, step and parents are dropped, so the graph's
        activations and gradients are freed when this call returns and
        nothing holds them.  Leaves keep their gradients.

        Parameters
        ----------
        gradient:
            Seed gradient; defaults to 1 for scalar tensors.

        Raises
        ------
        ValueError
            Without a gradient on a non-scalar tensor, or when the graph
            was released by an earlier ``backward``.
        """
        if gradient is None:
            if self.data.size != 1:
                raise ValueError("backward() without a gradient requires a scalar tensor")
            gradient = np.ones_like(self.data)
        # Copy the seed: gradient buffers are accumulated in-place, so the
        # caller's array must never be aliased.
        self.grad = np.array(gradient, dtype=np.float64).reshape(self.data.shape)

        ordered = self._interior_nodes()
        while ordered:
            node = ordered.pop()
            # A node that does not require a gradient never receives one
            # from its children; its step has nothing to propagate.
            if node.grad is not None:
                node._backward(node.grad)
            node.grad, node._backward, node._parents = None, _released, ()

    def _interior_nodes(self) -> list["Tensor"]:
        """The recorded nodes up to this one, each after all of its inputs.

        The depth-first post-order a recursive walk over ``_parents``
        gives, built with an explicit stack so a deep graph cannot reach
        the recursion limit.  Leaves are left out: they have no step.
        """
        if self._backward is None:
            return []
        ordered: list[Tensor] = []
        visited = {id(self)}
        stack = [(self, iter(self._parents))]
        while stack:
            node, parents = stack[-1]
            for parent in parents:
                if parent._backward is not None and id(parent) not in visited:
                    visited.add(id(parent))
                    stack.append((parent, iter(parent._parents)))
                    break
            else:
                stack.pop()
                ordered.append(node)
        return ordered
