"""Intent graph construction (Section 4.1).

The builder turns per-intent pair representations into a
:class:`~repro.graph.multiplex.MultiplexGraph`:

1. every layer is initialized with the intent-based representations of
   all candidate pairs (``|C| · |Π|`` nodes in total);
2. intra-layer edges connect each node to its ``k`` nearest neighbours
   within its layer (L2 distance over the initial representations, exact
   search — the Faiss substitute), with edges *incoming* from the
   neighbours;
3. inter-layer edges connect each node to its peers (same record pair)
   in every other layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping, Sequence

import numpy as np

from ..ann.knn import ExactNearestNeighbors
from ..config import GraphConfig
from ..exceptions import GraphConstructionError
from .multiplex import MultiplexGraph


@dataclass(frozen=True)
class GraphBuildReport:
    """Timing-free construction statistics returned next to the graph."""

    num_pairs: int
    num_intents: int
    intra_edges: int
    inter_edges: int


class IntentGraphBuilder:
    """Build multiplex intent graphs from per-intent representations.

    Registered in :data:`repro.registry.GRAPH_BUILDERS` under
    ``"intent_graph"``.  The builder has no parameters beyond the shared
    :class:`~repro.config.GraphConfig`, which is creation-time context
    (``create(spec, config=...)``) rather than part of the spec — graph
    hyper-parameters already participate in stage fingerprints through
    ``FlexERConfig.graph``.
    """

    spec_type = "intent_graph"

    def __init__(self, config: GraphConfig | None = None) -> None:
        self.config = config or GraphConfig()

    def to_spec(self) -> dict[str, object]:
        """Serialize the builder into a registry spec."""
        return {"type": self.spec_type, "params": {}}

    @classmethod
    def from_spec(
        cls, params: Mapping[str, object], *, config: GraphConfig | None = None
    ) -> "IntentGraphBuilder":
        """Construct the builder from a spec plus the shared graph config."""
        return cls(config=config, **params)

    def build(
        self,
        representations: Mapping[str, np.ndarray],
        intents: Sequence[str] | None = None,
    ) -> MultiplexGraph:
        """Construct the graph.

        Parameters
        ----------
        representations:
            Mapping from intent name to the ``(|C|, d)`` representation
            matrix of all candidate pairs under that intent.  All
            matrices must agree on both dimensions.
        intents:
            Optional ordered subset of intents to include (used by the
            Figure 6 intent-subset analysis); defaults to every key of
            ``representations`` in insertion order.
        """
        if not representations:
            raise GraphConstructionError("representations must not be empty")
        intent_names = tuple(intents) if intents is not None else tuple(representations)
        missing = [name for name in intent_names if name not in representations]
        if missing:
            raise GraphConstructionError(f"missing representations for intents: {missing}")

        matrices = [np.asarray(representations[name], dtype=np.float64) for name in intent_names]
        num_pairs = matrices[0].shape[0]
        dim = matrices[0].shape[1]
        for name, matrix in zip(intent_names, matrices):
            if matrix.ndim != 2 or matrix.shape != (num_pairs, dim):
                raise GraphConstructionError(
                    f"representation of intent {name!r} has shape {matrix.shape}, "
                    f"expected {(num_pairs, dim)}"
                )
        if num_pairs == 0:
            raise GraphConstructionError("cannot build a graph over zero pairs")

        features = np.concatenate(matrices, axis=0)
        graph = MultiplexGraph(
            intents=intent_names,
            num_pairs=num_pairs,
            features=features,
        )

        intra_edges = self._add_intra_layer_edges(graph, matrices)
        inter_edges = self._add_inter_layer_edges(graph) if self.config.include_inter_layer else 0
        graph.intra_edge_count = intra_edges
        graph.inter_edge_count = inter_edges
        return graph

    # ------------------------------------------------------------- internals

    def _add_intra_layer_edges(
        self, graph: MultiplexGraph, matrices: list[np.ndarray]
    ) -> int:
        """Connect every node to its k nearest neighbours within its layer."""
        k = self.config.k_neighbors
        if k == 0:
            return 0
        count = 0
        num_pairs = graph.num_pairs
        for layer, matrix in enumerate(matrices):
            if num_pairs < 2:
                continue
            index = ExactNearestNeighbors(metric=self.config.metric).fit(matrix)
            result = index.search(matrix, k, exclude_self=True)
            neighbor_indices = np.asarray(result.indices, dtype=np.int64)
            effective_k = neighbor_indices.shape[1]
            if effective_k == 0:
                continue
            layer_start = layer * num_pairs
            # Row-major ravel matches the loop order exactly: pair index
            # outer, neighbour rank inner.
            sources = layer_start + neighbor_indices.ravel()
            targets = layer_start + np.repeat(
                np.arange(num_pairs, dtype=np.int64), effective_k
            )
            graph.add_edges(sources, targets)
            count += int(sources.size)
        return count

    def _add_intra_layer_edges_loop(
        self, graph: MultiplexGraph, matrices: list[np.ndarray]
    ) -> int:
        """Reference (per-edge loop) implementation of the intra-layer pass."""
        k = self.config.k_neighbors
        count = 0
        for layer, matrix in enumerate(matrices):
            if graph.num_pairs < 2:
                continue
            index = ExactNearestNeighbors(metric=self.config.metric).fit(matrix)
            result = index.search(matrix, k, exclude_self=True)
            neighbor_rows = result.neighbor_lists()
            for pair_index in range(graph.num_pairs):
                target = graph.node_index(layer, pair_index)
                for neighbor_pair in neighbor_rows[pair_index]:
                    source = graph.node_index(layer, int(neighbor_pair))
                    graph.add_edge(source, target)
                    count += 1
        return count

    def _add_inter_layer_edges(self, graph: MultiplexGraph) -> int:
        """Connect each node to its peers (same pair) in every other layer."""
        num_layers = graph.num_intents
        if num_layers < 2:
            return 0
        num_pairs = graph.num_pairs
        layers = np.arange(num_layers, dtype=np.int64)
        # Off-diagonal (target_layer, source_layer) combinations in the
        # loop's row-major order: target outer, source inner.
        target_layers = np.repeat(layers, num_layers)
        source_layers = np.tile(layers, num_layers)
        off_diagonal = target_layers != source_layers
        target_layers = target_layers[off_diagonal]
        source_layers = source_layers[off_diagonal]
        pair_indices = np.arange(num_pairs, dtype=np.int64)[:, np.newaxis]
        targets = (pair_indices + num_pairs * target_layers[np.newaxis, :]).ravel()
        sources = (pair_indices + num_pairs * source_layers[np.newaxis, :]).ravel()
        graph.add_edges(sources, targets)
        return int(sources.size)

    def _add_inter_layer_edges_loop(self, graph: MultiplexGraph) -> int:
        """Reference (per-edge loop) implementation of the inter-layer pass."""
        count = 0
        num_layers = graph.num_intents
        for pair_index in range(graph.num_pairs):
            nodes = [graph.node_index(layer, pair_index) for layer in range(num_layers)]
            for target in nodes:
                for source in nodes:
                    if source == target:
                        continue
                    graph.add_edge(source, target)
                    count += 1
        return count

    def report(self, graph: MultiplexGraph) -> GraphBuildReport:
        """Summarize a built graph."""
        return GraphBuildReport(
            num_pairs=graph.num_pairs,
            num_intents=graph.num_intents,
            intra_edges=graph.intra_edge_count,
            inter_edges=graph.inter_edge_count,
        )
