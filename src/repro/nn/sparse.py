"""Sparse (edge-list) neighbourhood aggregation for graph neural networks.

Dense aggregation multiplies the node-feature matrix by an ``n × n``
adjacency operator, which is quadratic in the number of nodes.  The
multiplex intent graph is sparse — every node has ``k`` intra-layer and
``|Π| - 1`` inter-layer incoming edges — so aggregation is a product
with a CSR operator built from the edge list instead, and the backward
pass is the product with its transpose.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as sp

from ..exceptions import GraphConstructionError
from .tensor import Tensor


def scatter_aggregate(
    hidden: Tensor,
    sources: np.ndarray,
    targets: np.ndarray,
    num_nodes: int,
    weights: np.ndarray,
) -> Tensor:
    """Aggregate neighbour states along directed edges.

    Computes ``out[t] = Σ_{(s, t) ∈ E} w_{s,t} · hidden[s]`` for every
    target node ``t`` — mean aggregation when the weights of a target's
    incoming edges sum to one, sum aggregation when they are all one.

    Parameters
    ----------
    hidden:
        Node states of shape ``(num_nodes, d)``.
    sources, targets:
        Edge endpoint index arrays of equal length (messages flow from
        ``sources[i]`` to ``targets[i]``).
    num_nodes:
        Number of nodes (rows of the output).
    weights:
        Per-edge weights of the same length as the edge arrays.
    """
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    if sources.shape != targets.shape or sources.shape != weights.shape:
        raise GraphConstructionError("sources, targets, and weights must have equal length")
    if hidden.ndim != 2 or hidden.shape[0] != num_nodes:
        raise GraphConstructionError(
            f"hidden has shape {hidden.shape}, expected ({num_nodes}, d)"
        )

    operator = sp.csr_matrix(
        (weights, (targets, sources)), shape=(num_nodes, num_nodes)
    )
    return sparse_matmul(operator, hidden)


def sparse_matmul(operator: sp.spmatrix, hidden: Tensor) -> Tensor:
    """Multiply a constant sparse operator by a dense autodiff tensor.

    Forward: ``out = A @ hidden``; backward: ``grad_hidden = Aᵀ @ grad_out``.
    The operator is treated as a constant (no gradient flows into it).
    """
    if hidden.ndim != 2 or operator.shape[1] != hidden.shape[0]:
        raise GraphConstructionError(
            f"operator shape {operator.shape} does not match hidden shape {hidden.shape}"
        )
    csr = operator.tocsr()

    def _backward(grad: np.ndarray) -> None:
        hidden._accumulate(csr.T @ grad)

    return Tensor._from_op(csr @ hidden.data, (hidden,), _backward)
