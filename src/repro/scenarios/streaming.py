"""The streaming/temporal replay scenario.

A corpus is partitioned into an initial fit prefix, a timestamped
stream tail, and a fixed probe set.  The scenario fits a
:class:`~repro.model.ResolverModel` on the prefix, then replays the
tail chunk by chunk through :meth:`~repro.model.ResolverModel.update`
with an ``online``-mode probe query interleaved after every absorption.
Per chunk it records:

* **quality-over-time** — per-intent F1 of the probe predictions
  against the benchmark's ground-truth labeler;
* **staleness** — the macro-F1 delta between the query just before and
  just after absorbing the chunk (how much answering from the stale
  corpus cost);
* **compaction triggers** — whether the drift policy forced a refit,
  and why;
* **per-step latency** — update and probe-query wall seconds (timings
  section only; the quality matrix stays byte-reproducible).

At its final step the scenario *asserts* the exact-mode parity
contract: a fresh fit on the union corpus (same supervision pairs,
re-anchored over the live records) must answer exact-mode probe
queries byte-identically to the incrementally updated model.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

import numpy as np

from ..data.records import Dataset, Record
from ..datasets import benchmark_labeler
from ..exceptions import ScenarioError
from .base import (
    QUALITY_DIGITS,
    WorkloadScenario,
    load_scenario_benchmark,
    make_scenario_config,
    query_quality,
    require,
    split_tail,
    timed,
)
from .report import ScenarioReport

__all__ = ["StreamingScenario", "timestamped_chunks", "assert_exact_parity"]


def timestamped_chunks(
    records: Sequence[Record],
    chunk_size: int,
    start_time: float = 0.0,
    interval: float = 1.0,
):
    """Partition ``records`` into timestamped chunks via time-mode streaming.

    Each record is stamped with a synthetic ``arrival`` attribute
    (``start_time + position * interval``) and the stamped copies are
    grouped by :func:`~repro.datasets.stream.stream_chunks` in its
    timestamp-column mode with a window of ``chunk_size * interval``.
    The yielded chunks carry the **original** records (the stamp never
    reaches the model — corpora enforce their schema on update).
    """
    from ..datasets import CorpusChunk, stream_chunks

    require(chunk_size >= 1, f"chunk_size must be >= 1, got {chunk_size}")
    stamped = [
        Record(
            record_id=record.record_id,
            values={**record.values, "arrival": repr(start_time + index * interval)},
            source=record.source,
        )
        for index, record in enumerate(records)
    ]
    originals = {record.record_id: record for record in records}
    return [
        CorpusChunk(
            index=chunk.index,
            timestamp=chunk.timestamp,
            records=tuple(originals[record.record_id] for record in chunk.records),
        )
        for chunk in stream_chunks(
            stamped, timestamp_attribute="arrival", window=chunk_size * interval
        )
    ]


def assert_exact_parity(model, probes: Sequence[Record], query_k: int) -> dict[str, object]:
    """Assert the updated model's exact-mode parity with a fresh union fit.

    Fits a fresh model on the live (union) corpus with the model's
    supervision, configuration and retriever spec
    (:func:`~repro.update.refit_live_corpus`), and compares the
    exact-mode probe query of both models array-for-array.  Raises
    :class:`~repro.exceptions.ScenarioError` on any mismatch; returns
    the deterministic parity summary otherwise.
    """
    from ..update import refit_live_corpus

    updated = model.query(probes, k=query_k, mode="exact")
    fresh_result = refit_live_corpus(model).query(probes, k=query_k, mode="exact")

    updated_arrays, updated_meta = updated.as_arrays()
    fresh_arrays, fresh_meta = fresh_result.as_arrays()
    if updated_meta != fresh_meta or set(updated_arrays) != set(fresh_arrays):
        raise ScenarioError(
            "exact-mode parity violated: updated model and fresh union fit "
            "disagree on result structure"
        )
    for key in sorted(updated_arrays):
        if not np.array_equal(updated_arrays[key], fresh_arrays[key]):
            raise ScenarioError(
                f"exact-mode parity violated: array {key!r} differs between the "
                "updated model and a fresh union fit"
            )
    return {
        "final_exact_parity": True,
        "parity_pairs": len(updated.pairs),
        "parity_probe_records": len(probes),
    }


class StreamingScenario(WorkloadScenario):
    """Streaming/temporal corpus replay through incremental update.

    Parameters (all captured in the spec)
    -------------------------------------
    dataset, num_pairs, products:
        The synthetic benchmark and its scale.
    matcher_epochs, gnn_epochs, solver, blocker, retriever, k_neighbors:
        Model configuration (see :func:`make_scenario_config`).
    probe_count:
        Records withheld as the fixed query probe set (never absorbed).
    stream_records:
        Records withheld from the initial fit and replayed as the
        stream, in ``chunk_size``-record timestamped chunks.
    chunk_size:
        Records per stream chunk.
    query_k:
        Candidates retrieved per probe record.
    compact:
        Compaction mode forwarded to ``model.update`` (``"auto"`` /
        ``"never"`` / ``"force"``).
    """

    spec_type = "streaming"

    def __init__(
        self,
        dataset: str = "amazon_mi",
        num_pairs: int = 120,
        products: int = 10,
        matcher_epochs: int = 2,
        gnn_epochs: int = 4,
        probe_count: int = 6,
        stream_records: int = 18,
        chunk_size: int = 6,
        query_k: int = 4,
        compact: str = "auto",
        solver: str = "in_parallel",
        blocker: str = "qgram",
        retriever: str = "ann_knn",
        k_neighbors: int = 6,
    ) -> None:
        super().__init__(
            dataset=dataset,
            num_pairs=num_pairs,
            products=products,
            matcher_epochs=matcher_epochs,
            gnn_epochs=gnn_epochs,
            probe_count=probe_count,
            stream_records=stream_records,
            chunk_size=chunk_size,
            query_k=query_k,
            compact=compact,
            solver=solver,
            blocker=blocker,
            retriever=retriever,
            k_neighbors=k_neighbors,
        )
        require(probe_count >= 1, "probe_count must be >= 1")
        require(stream_records >= 1, "stream_records must be >= 1")
        require(chunk_size >= 1, "chunk_size must be >= 1")
        require(
            compact in ("auto", "never", "force"),
            f"compact must be auto/never/force, got {compact!r}",
        )
        self.dataset = dataset
        self.num_pairs = int(num_pairs)
        self.products = int(products)
        self.matcher_epochs = int(matcher_epochs)
        self.gnn_epochs = int(gnn_epochs)
        self.probe_count = int(probe_count)
        self.stream_records = int(stream_records)
        self.chunk_size = int(chunk_size)
        self.query_k = int(query_k)
        self.compact = compact
        self.solver = solver
        self.blocker = blocker
        self.retriever = retriever
        self.k_neighbors = int(k_neighbors)

    # ------------------------------------------------------------------ hooks

    def order_stream(self, benchmark, stream: list[Record]) -> list[Record]:
        """Arrival order of the streamed records (identity by default)."""
        return stream

    def annotate_row(self, benchmark, chunk, row: dict[str, object]) -> None:
        """Extend a chunk's matrix row (no-op by default)."""

    def extend_summary(
        self, benchmark, matrix: list[dict[str, object]], summary: dict[str, object]
    ) -> None:
        """Extend the deterministic summary (no-op by default)."""

    # -------------------------------------------------------------------- run

    def run(
        self, seed: int = 0, executor: object = None, name: str | None = None
    ) -> ScenarioReport:
        """Fit, replay the stream, and return the scenario report."""
        from ..resolver import Resolver

        run_start = time.perf_counter()
        benchmark = load_scenario_benchmark(
            self.dataset, self.num_pairs, self.products, seed
        )
        labeler, record_labeler = benchmark_labeler(benchmark)
        products = benchmark.record_products
        head, stream, probes = split_tail(
            benchmark.dataset.records, self.stream_records, self.probe_count
        )
        corpus = Dataset(
            records=head,
            name=benchmark.dataset.name,
            attributes=benchmark.dataset.attributes,
        )

        blocker_spec: dict[str, object] = {"type": self.blocker}
        retriever_spec: dict[str, object] = {"type": self.retriever}
        if benchmark.dataset.sources:
            blocker_spec["cross_source_only"] = True
            if self.retriever == "blocker":
                retriever_spec["blocker"] = dict(blocker_spec)
            else:
                retriever_spec["cross_source_only"] = True
        elif self.retriever == "blocker":
            retriever_spec["blocker"] = dict(blocker_spec)

        config = make_scenario_config(
            seed,
            self.matcher_epochs,
            self.gnn_epochs,
            solver=self.solver,
            k_neighbors=self.k_neighbors,
            executor=executor if executor is not None else "serial",
            blocker=blocker_spec,
        )

        timings: dict[str, object] = {}
        resolver = Resolver(config=config)
        with timed(timings, "fit_seconds"):
            model = resolver.fit(
                corpus,
                intents=labeler.intent_names,
                labeler=record_labeler,
                split_seed=seed,
                retriever=retriever_spec,
            )

        chunks = timestamped_chunks(
            self.order_stream(benchmark, stream), self.chunk_size
        )
        matrix, cell_timings, qualities = self._replay(
            model, chunks, probes, products, labeler, benchmark
        )

        with timed(timings, "parity_seconds"):
            parity = assert_exact_parity(model, probes, self.query_k)

        staleness = [
            float(row["staleness"]) for row in matrix if row["cell"] != "initial"
        ]
        drift = model.drift_metrics()
        summary: dict[str, object] = {
            "chunks": len(chunks),
            "stream_records": sum(len(chunk.records) for chunk in chunks),
            "initial_macro_f1": qualities[0]["macro_f1"],
            "final_macro_f1": qualities[-1]["macro_f1"],
            "initial_f1": qualities[0]["f1"],
            "final_f1": qualities[-1]["f1"],
            "staleness_mean": round(float(np.mean(staleness)), QUALITY_DIGITS),
            "staleness_min": round(float(np.min(staleness)), QUALITY_DIGITS),
            "staleness_max": round(float(np.max(staleness)), QUALITY_DIGITS),
            "compactions": sum(1 for row in matrix if row.get("compacted")),
            "update_generations": drift.update_generations,
            "corpus_live_records": drift.live_records,
            **parity,
        }
        self.extend_summary(benchmark, matrix, summary)

        timings["cells"] = cell_timings
        timings["total_seconds"] = round(time.perf_counter() - run_start, 6)
        return ScenarioReport(
            name=name or self.spec_type,
            scenario=self.to_spec(),
            seed=int(seed),
            matrix=matrix,
            summary=summary,
            timings=timings,
        )

    def _replay(self, model, chunks, probes: list[Record], products, labeler, benchmark):
        """Replay ``chunks`` through update + probe query; returns rows."""

        def probe_quality() -> dict[str, object]:
            result = model.query(probes, k=self.query_k, mode="online")
            return query_quality(result, products, labeler)

        matrix: list[dict[str, object]] = []
        cell_timings: dict[str, dict[str, object]] = {}

        initial_timing: dict[str, object] = {}
        with timed(initial_timing, "query_seconds"):
            quality = probe_quality()
        qualities = [quality]
        matrix.append(
            {
                "cell": "initial",
                "timestamp": None,
                "records": 0,
                "new_pairs": 0,
                "refreshed_pairs": 0,
                "compacted": False,
                "compaction_reasons": [],
                "corpus_live_records": model.drift_metrics().live_records,
                "f1": quality["f1"],
                "positive_rate": quality["positive_rate"],
                "macro_f1": quality["macro_f1"],
                "probe_pairs": quality["num_pairs"],
                "staleness": 0.0,
            }
        )
        cell_timings["initial"] = initial_timing

        for chunk in chunks:
            cell = f"chunk-{chunk.index:02d}"
            timing: dict[str, object] = {}
            before = qualities[-1]
            with timed(timing, "update_seconds"):
                result = model.update(upserts=list(chunk.records), compact=self.compact)
            with timed(timing, "query_seconds"):
                quality = probe_quality()
            qualities.append(quality)
            timing["query_seconds_per_record"] = round(
                float(timing["query_seconds"]) / max(len(probes), 1), 6
            )
            row: dict[str, object] = {
                "cell": cell,
                "timestamp": chunk.timestamp,
                "records": len(chunk.records),
                "new_pairs": len(result.new_pairs),
                "refreshed_pairs": len(result.refreshed_pairs),
                "compacted": bool(result.compacted),
                "compaction_reasons": list(result.compaction_reasons),
                "corpus_live_records": model.drift_metrics().live_records,
                "f1": quality["f1"],
                "positive_rate": quality["positive_rate"],
                "macro_f1": quality["macro_f1"],
                "probe_pairs": quality["num_pairs"],
                "staleness": round(
                    float(quality["macro_f1"]) - float(before["macro_f1"]),
                    QUALITY_DIGITS,
                ),
            }
            self.annotate_row(benchmark, chunk, row)
            matrix.append(row)
            cell_timings[cell] = timing
        return matrix, cell_timings, qualities
