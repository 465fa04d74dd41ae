"""The library layers the traced run measures, and their per-op metrics.

:data:`TARGETS` names every wrapped public callable and its span;
:func:`layer_metrics` turns the collected spans into the metrics listed
in :data:`LAYER_METRICS`.

Per-layer numbers are per op: each metric is summed over one op's spans
and the median is taken over ops, so a layer's ``self_ms`` compares
directly with the op's ``op_p50_ms``.  A span's ``self_ms`` is its time
minus the time of its child spans.  A serve request's op also owns the
batch that answered it (which ran on the executor thread): the batch
tree is linked to the request through the record ids it served.
"""

from __future__ import annotations

import os
import statistics
from collections import defaultdict
from collections.abc import Iterable

from .tracer import OP_SPAN, Span, Target


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_result(args, kwargs, result):
    return len(result), None


def _count_arg(index: int, name: str):
    def describe(args, kwargs, result):
        return len(_arg(args, kwargs, index, name)), None

    return describe


def _labeled(args, kwargs, result):
    positive = sum(1 for labeled in result if 1 in labeled.labels.values())
    return len(result), {"positive": positive}


def _query_records(args, kwargs, result):
    records = _arg(args, kwargs, 1, "records")
    return len(records), {"ids": [record.record_id for record in records]}


def _delta_applied(args, kwargs, result):
    return None, {"new_pairs": len(result.new_pairs), "refreshed_pairs": len(result.refreshed_pairs)}


def _artifact_bytes(args, kwargs, result):
    return os.path.getsize(result), None


#: Every function computing pair representations by that name.
_REPRESENT_CALLERS = ("repro.core.flexer", "repro.pipeline.runner", "repro.model",
                      "repro.update.engine")

#: Wrapped library callables; several share a span name.
TARGETS: tuple[Target, ...] = (
    Target("blocking.block", "repro.blocking.qgram", "QGramBlocker.block", _count_result),
    Target("resolver.label", "repro.resolver", "Resolver.label_candidates", _labeled),
    Target("matching.encode", "repro.matching.features", "PairFeatureEncoder.encode_batch",
           _count_arg(2, "pairs")),
    Target("matching.train", "repro.matching.pair_matcher", "PairMatcher.fit"),
    *(Target("matching.represent", module, "compute_representations", _count_arg(1, "candidates"))
      for module in _REPRESENT_CALLERS),
    Target("ann.search", "repro.ann.knn", "ExactNearestNeighbors.search",
           _count_arg(1, "queries")),
    Target("graph.build", "repro.graph.builder", "IntentGraphBuilder.build"),
    Target("graph.gnn_fit", "repro.graph.sage", "IntentNodeClassifier.fit_predict"),
    Target("graph.sage_forward", "repro.graph.sage", "GraphSAGE.forward"),
    Target("graph.frozen", "repro.graph.sage", "FrozenSAGE.convolve"),
    Target("graph.frozen", "repro.graph.sage", "FrozenSAGE.probabilities"),
    Target("retrieval.fit", "repro.retrieval.candidates", "AnnKnnRetriever.fit"),
    Target("retrieval.retrieve", "repro.retrieval.candidates", "AnnKnnRetriever.retrieve",
           _count_arg(1, "records")),
    Target("retrieval.apply_delta", "repro.retrieval.candidates", "AnnKnnRetriever.apply_delta"),
    Target("pipeline.fit_model", "repro.pipeline.runner", "PipelineRunner.fit_model"),
    Target("model.from_fit", "repro.model", "ResolverModel.from_fit"),
    Target("model.query", "repro.model", "QuerySession.query", _query_records),
    Target("model.update", "repro.model", "ResolverModel.update"),
    Target("update.build_delta", "repro.update", "build_delta"),
    Target("update.apply", "repro.update.engine", "apply_delta_to_model", _delta_applied),
    Target("model.save", "repro.model", "ResolverModel.save"),
    Target("data.write_artifact", "repro.model", "write_artifact", _artifact_bytes),
    Target("serve.request", "repro.serve.server", "AsyncResolverServer.query", _query_records),
)

#: Spans recorded for their call count only: their time stays in their
#: parent's ``self_ms`` (GNN training keeps its forward passes).
COUNT_ONLY = frozenset({"graph.sage_forward"})

#: Spans that only delimit an op; coverage looks through them.
ENVELOPES = frozenset({"serve.request"})

#: The batch span a served request is linked to.
BATCH_SPAN = "model.query"

#: Spans each workload's traced run must fire at least once.
WORKLOAD_SPANS: dict[str, frozenset[str]] = {
    "fit-deep": frozenset({
        "blocking.block", "resolver.label", "matching.encode", "matching.train",
        "matching.represent", "ann.search", "graph.build", "graph.gnn_fit",
        "graph.sage_forward", "retrieval.fit", "pipeline.fit_model", "model.from_fit",
    }),
    "serve": frozenset({
        "serve.request", "model.query", "retrieval.retrieve", "matching.represent",
        "matching.encode", "ann.search", "graph.frozen",
    }),
    "update-stream": frozenset({
        "model.update", "update.build_delta", "update.apply", "retrieval.apply_delta",
        "matching.represent", "model.save", "data.write_artifact", "model.query",
        "retrieval.retrieve", "ann.search", "graph.frozen",
    }),
}
WORKLOAD_SPANS["fit-wide"] = WORKLOAD_SPANS["fit-deep"]

_SELF_MS = (
    "blocking.block", "resolver.label", "matching.encode", "matching.train",
    "matching.represent", "ann.search", "graph.build", "graph.gnn_fit", "graph.frozen",
    "retrieval.fit", "retrieval.retrieve", "retrieval.apply_delta", "pipeline.fit_model",
    "model.from_fit", "model.query", "model.update", "update.build_delta", "update.apply",
    "model.save", "data.write_artifact",
)

#: Every metric :func:`layer_metrics` returns.
LAYER_METRICS: tuple[str, ...] = (
    *(f"{span}.self_ms" for span in _SELF_MS),
    "blocking.pairs", "blocking.positive_ratio", "resolver.labeler_calls",
    "resolver.label_useful_ratio", "matching.encode.rows", "matching.represent.calls",
    "ann.search.calls", "ann.search.rows", "graph.sage_forward.calls", "graph.frozen.calls",
    "retrieval.unique_ratio", "model.query.records", "update.new_pairs",
    "update.refreshed_pairs", "data.write_artifact.bytes", "serve.queue_wait_ms",
    "serve.batch_ms", "serve.batch_records", "trace.coverage",
)


def _union_ms(intervals: Iterable[tuple[int, int]], low: int, high: int) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``, in ms."""
    covered = 0
    reach = low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            covered += end - start
            reach = end
    return covered / 1e6


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[Span], labeler_calls: list[int] | None = None) -> dict[str, float]:
    """Per-layer metrics from one traced phase (``trace.*`` and serve stats excluded).

    ``labeler_calls`` holds the benchmark labeler's call count of every
    op, in op order, for the labeling metrics of the fit workloads.
    """
    by_root: dict[int, list[Span]] = defaultdict(list)
    child_ns: dict[int, int] = defaultdict(int)
    name_of = {span.id: span.name for span in spans}
    for span in spans:
        by_root[span.root].append(span)
        if span.parent is not None and span.name not in COUNT_ONLY:
            child_ns[span.parent] += span.end_ns - span.start_ns
    batch_for = {request.id: batch for request, batch in serve_links(spans)}

    ops = sorted((span for span in spans if span.name == OP_SPAN), key=lambda span: span.start_ns)
    per_op: dict[str, list[float]] = defaultdict(list)
    covered_ms = total_ms = 0.0
    for op in ops:
        members = by_root[op.id]
        direct = [span for span in members if span.parent == op.id]
        linked: list[Span] = []
        for span in members:
            batch = batch_for.get(span.id)
            if batch is not None and batch.root != op.id:
                linked.append(batch)
                per_op["serve.queue_wait_ms"].append((batch.start_ns - span.start_ns) / 1e6)
                per_op["serve.batch_ms"].append(batch.ms)
                per_op["serve.batch_records"].append(batch.items)
        members = members + [span for batch in linked for span in by_root[batch.id]]
        sums: dict[str, float] = defaultdict(float)
        for span in members:
            if span is op:
                continue
            sums[f"{span.name}.self_ms"] += span.ms - child_ns[span.id] / 1e6
            sums[f"{span.name}.calls"] += 1
            if span.items is not None:
                sums[f"{span.name}.items"] += span.items
                if name_of.get(span.parent) == BATCH_SPAN:
                    sums[f"{span.name}.query_items"] += span.items
            for key, value in (span.attrs or {}).items():
                if isinstance(value, (int, float)):
                    sums[f"{span.name}.{key}"] += value
        for name in _SELF_MS:
            per_op[f"{name}.self_ms"].append(sums[f"{name}.self_ms"])
        for metric, key in (
            ("blocking.pairs", "blocking.block.items"),
            ("matching.encode.rows", "matching.encode.items"),
            ("matching.represent.calls", "matching.represent.calls"),
            ("ann.search.calls", "ann.search.calls"),
            ("ann.search.rows", "ann.search.items"),
            ("graph.sage_forward.calls", "graph.sage_forward.calls"),
            ("graph.frozen.calls", "graph.frozen.calls"),
            ("update.new_pairs", "update.apply.new_pairs"),
            ("update.refreshed_pairs", "update.apply.refreshed_pairs"),
            ("data.write_artifact.bytes", "data.write_artifact.items"),
        ):
            per_op[metric].append(sums[key])
        if sums["model.query.calls"]:
            per_op["model.query.records"].append(
                sums["model.query.items"] / sums["model.query.calls"]
            )
            per_op["retrieval.unique_ratio"].append(
                sums["retrieval.retrieve.query_items"] / sums["model.query.items"]
            )
        if sums["blocking.block.items"]:
            per_op["blocking.positive_ratio"].append(
                sums["resolver.label.positive"] / sums["blocking.block.items"]
            )
        intervals = [
            (span.start_ns, span.end_ns)
            for span in direct + linked
            if span.name not in ENVELOPES
        ] + [
            (span.start_ns, span.end_ns)
            for envelope in direct if envelope.name in ENVELOPES
            for span in members if span.parent == envelope.id
        ]
        covered_ms += _union_ms(intervals, op.start_ns, op.end_ns)
        total_ms += op.ms
    if labeler_calls:
        per_op["resolver.labeler_calls"] = [float(calls) for calls in labeler_calls]
        per_op["resolver.label_useful_ratio"] = [
            pairs / calls
            for pairs, calls in zip(per_op["blocking.pairs"], labeler_calls)
            if calls
        ]
    metrics = {name: _median(per_op.get(name, [])) for name in LAYER_METRICS}
    metrics["trace.coverage"] = covered_ms / total_ms if total_ms else 0.0
    return metrics


def serve_links(spans: list[Span]) -> list[tuple[Span, Span]]:
    """``(request, batch)`` pairs: each served request and the batch that answered it.

    A batch runs on the executor thread without its requests' context;
    it is found through the record ids it served.
    """
    batch_of = {
        record_id: span
        for span in spans
        if span.name == BATCH_SPAN and span.parent is None
        for record_id in span.attrs["ids"]
    }
    return [
        (span, batch_of[span.attrs["ids"][0]])
        for span in spans
        if span.name in ENVELOPES and span.attrs and span.attrs["ids"][0] in batch_of
    ]
