"""A small reverse-mode automatic differentiation engine over numpy.

This module is the reproduction's substitute for PyTorch.  A
:class:`Tensor` wraps a numpy array, records the operations that produced
it, and :meth:`Tensor.backward` propagates gradients through the recorded
graph in reverse topological order.  Only the operations needed by the
matchers and the GraphSAGE model are implemented, but they are implemented
with full broadcasting support so models can be written naturally.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

ArrayLike = np.ndarray | float | int | Sequence


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

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data: ArrayLike, requires_grad: bool = False) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._backward: Callable[[], None] = lambda: None
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # ------------------------------------------------------------- arithmetic

    def __add__(self, other: "Tensor" | ArrayLike) -> "Tensor":
        other = self._lift(other)
        out = Tensor(self.data + other.data, self.requires_grad or other.requires_grad)
        out._parents = (self, other)

        def _backward() -> None:
            assert out.grad is not None
            self._accumulate(_unbroadcast(out.grad, self.shape))
            other._accumulate(_unbroadcast(out.grad, other.shape))

        out._backward = _backward
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out = Tensor(-self.data, self.requires_grad)
        out._parents = (self,)

        def _backward() -> None:
            assert out.grad is not None
            self._accumulate(-out.grad)

        out._backward = _backward
        return out

    def __sub__(self, other: "Tensor" | ArrayLike) -> "Tensor":
        return self + (-self._lift(other))

    def __rsub__(self, other: "Tensor" | ArrayLike) -> "Tensor":
        return self._lift(other) + (-self)

    def __mul__(self, other: "Tensor" | ArrayLike) -> "Tensor":
        other = self._lift(other)
        out = Tensor(self.data * other.data, self.requires_grad or other.requires_grad)
        out._parents = (self, other)

        def _backward() -> None:
            assert out.grad is not None
            self._accumulate(_unbroadcast(out.grad * other.data, self.shape))
            other._accumulate(_unbroadcast(out.grad * self.data, other.shape))

        out._backward = _backward
        return out

    __rmul__ = __mul__

    def __truediv__(self, other: "Tensor" | ArrayLike) -> "Tensor":
        other = self._lift(other)
        return self * other.pow(-1.0)

    def __rtruediv__(self, other: "Tensor" | ArrayLike) -> "Tensor":
        return self._lift(other) * self.pow(-1.0)

    def pow(self, exponent: float) -> "Tensor":
        """Element-wise power with a constant exponent."""
        out = Tensor(np.power(self.data, exponent), self.requires_grad)
        out._parents = (self,)

        def _backward() -> None:
            assert out.grad is not None
            self._accumulate(out.grad * exponent * np.power(self.data, exponent - 1.0))

        out._backward = _backward
        return out

    def matmul(self, other: "Tensor" | ArrayLike) -> "Tensor":
        """Matrix product ``self @ other`` for 2-D operands."""
        other = self._lift(other)
        out = Tensor(self.data @ other.data, self.requires_grad or other.requires_grad)
        out._parents = (self, other)

        def _backward() -> None:
            assert out.grad is not None
            # Only the products whose gradients are kept: a constant
            # operand (a layer's input features) gets none.
            if self.requires_grad:
                self._accumulate(out.grad @ other.data.T)
            if other.requires_grad:
                other._accumulate(self.data.T @ out.grad)

        out._backward = _backward
        return out

    __matmul__ = matmul

    # -------------------------------------------------------------- reshaping

    def reshape(self, *shape: int) -> "Tensor":
        """Return a reshaped view participating in the graph."""
        out = Tensor(self.data.reshape(*shape), self.requires_grad)
        out._parents = (self,)

        def _backward() -> None:
            assert out.grad is not None
            self._accumulate(out.grad.reshape(self.shape))

        out._backward = _backward
        return out

    def transpose(self) -> "Tensor":
        """Transpose of a 2-D tensor."""
        out = Tensor(self.data.T, self.requires_grad)
        out._parents = (self,)

        def _backward() -> None:
            assert out.grad is not None
            self._accumulate(out.grad.T)

        out._backward = _backward
        return out

    def index_select(self, indices: np.ndarray | Sequence[int]) -> "Tensor":
        """Select rows of a 2-D tensor (gather); gradients scatter-add back."""
        index_array = np.asarray(indices, dtype=np.int64)
        out = Tensor(self.data[index_array], self.requires_grad)
        out._parents = (self,)
        # Distinct indices (the common case: supervision rows) scatter
        # with direct assignment; ``np.add.at`` — an order of magnitude
        # slower — is only needed when rows repeat.
        has_duplicates = (
            index_array.size > 1 and np.unique(index_array).size < index_array.size
        )

        def _backward() -> None:
            assert out.grad is not None
            gradient = np.zeros_like(self.data)
            if has_duplicates:
                np.add.at(gradient, index_array, out.grad)
            else:
                gradient[index_array] = out.grad
            self._accumulate(gradient)

        out._backward = _backward
        return out

    # ------------------------------------------------------------- reductions

    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (or all elements)."""
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims), self.requires_grad)
        out._parents = (self,)

        def _backward() -> None:
            assert out.grad is not None
            gradient = out.grad
            if axis is not None and not keepdims:
                gradient = np.expand_dims(gradient, axis=axis)
            # Broadcasting happens inside the in-place accumulation; no
            # materialized copy of the expanded gradient is needed.
            self._accumulate(np.broadcast_to(gradient, self.shape))

        out._backward = _backward
        return out

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
        out = Tensor(out_data, self.requires_grad)
        out._parents = (self,)

        def _backward() -> None:
            assert out.grad is not None
            expanded = out_data if keepdims else np.expand_dims(out_data, axis=axis)
            mask = (self.data == expanded).astype(np.float64)
            mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            gradient = out.grad if keepdims else np.expand_dims(out.grad, axis=axis)
            self._accumulate(mask * gradient)

        out._backward = _backward
        return out

    # ------------------------------------------------------------ activations

    def relu(self) -> "Tensor":
        """Rectified linear unit."""
        out = Tensor(np.maximum(self.data, 0.0), self.requires_grad)
        out._parents = (self,)

        def _backward() -> None:
            assert out.grad is not None
            self._accumulate(out.grad * (self.data > 0.0))

        out._backward = _backward
        return out

    def tanh(self) -> "Tensor":
        """Hyperbolic tangent."""
        value = np.tanh(self.data)
        out = Tensor(value, self.requires_grad)
        out._parents = (self,)

        def _backward() -> None:
            assert out.grad is not None
            self._accumulate(out.grad * (1.0 - value * value))

        out._backward = _backward
        return out

    def sigmoid(self) -> "Tensor":
        """Numerically stable logistic sigmoid."""
        value = np.where(
            self.data >= 0,
            1.0 / (1.0 + np.exp(-np.clip(self.data, -500, 500))),
            np.exp(np.clip(self.data, -500, 500))
            / (1.0 + np.exp(np.clip(self.data, -500, 500))),
        )
        out = Tensor(value, self.requires_grad)
        out._parents = (self,)

        def _backward() -> None:
            assert out.grad is not None
            self._accumulate(out.grad * value * (1.0 - value))

        out._backward = _backward
        return out

    def log(self) -> "Tensor":
        """Natural logarithm (inputs are clipped away from zero)."""
        clipped = np.clip(self.data, 1e-12, None)
        out = Tensor(np.log(clipped), self.requires_grad)
        out._parents = (self,)

        def _backward() -> None:
            assert out.grad is not None
            self._accumulate(out.grad / clipped)

        out._backward = _backward
        return out

    def exp(self) -> "Tensor":
        """Element-wise exponential."""
        value = np.exp(np.clip(self.data, -500, 500))
        out = Tensor(value, self.requires_grad)
        out._parents = (self,)

        def _backward() -> None:
            assert out.grad is not None
            self._accumulate(out.grad * value)

        out._backward = _backward
        return out

    # ------------------------------------------------------------- composites

    @staticmethod
    def concat(tensors: Sequence["Tensor"], axis: int = 1) -> "Tensor":
        """Concatenate tensors along ``axis`` (the CONC operator of Eq. 4)."""
        data = np.concatenate([tensor.data for tensor in tensors], axis=axis)
        requires_grad = any(tensor.requires_grad for tensor in tensors)
        out = Tensor(data, requires_grad)
        out._parents = tuple(tensors)
        sizes = [tensor.data.shape[axis] for tensor in tensors]

        def _backward() -> None:
            assert out.grad is not None
            start = 0
            for tensor, size in zip(tensors, sizes):
                indexer: list[slice] = [slice(None)] * out.grad.ndim
                indexer[axis] = slice(start, start + size)
                tensor._accumulate(out.grad[tuple(indexer)])
                start += size

        out._backward = _backward
        return out

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

        Parameters
        ----------
        gradient:
            Seed gradient; defaults to 1 for scalar tensors.
        """
        if gradient is None:
            if self.data.size != 1:
                raise ValueError("backward() without a gradient requires a scalar tensor")
            gradient = np.ones_like(self.data)
        # Copy the seed: gradient buffers are accumulated in-place, so the
        # caller's array must never be aliased.
        self.grad = np.array(gradient, dtype=np.float64).reshape(self.data.shape)

        ordered: list[Tensor] = []
        visited: set[int] = set()

        def visit(node: "Tensor") -> None:
            if id(node) in visited:
                return
            visited.add(id(node))
            for parent in node._parents:
                visit(parent)
            ordered.append(node)

        visit(self)
        for node in reversed(ordered):
            # Nodes that do not require gradients never receive one from
            # their children; their backward step has nothing to propagate.
            if node.grad is not None:
                node._backward()
