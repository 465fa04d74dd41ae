"""The pinned performance workload matrix and the ``BENCH_perf.json`` report.

Every entry point here is deterministic and pinned: a
:class:`PerfWorkload` fixes the dataset, its scale, and every training
hyper-parameter, so two runs of the same repository state measure the
same computation.  The suite runs each workload end-to-end — blocking
plus the staged :class:`~repro.pipeline.PipelineRunner` on a cold
artifact cache, then a warm re-run — and reports the per-stage
breakdown.  Kernel-level micro-benchmarks time each vectorized kernel
(feature encoding, block joins, graph edge construction, batched
Levenshtein) against its retained loop oracle and check that both agree,
so a regression can be localized.

The JSON report is schema-versioned (:data:`SCHEMA_VERSION`);
:func:`check_regression` compares a fresh run against a committed
baseline and flags end-to-end wall-time regressions beyond a threshold.
"""

from __future__ import annotations

import datetime as _datetime
import json
import platform
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from ..blocking import QGramBlocker
from ..config import FlexERConfig, GNNConfig, GraphConfig, MatcherConfig
from ..exec import available_cpus, executor_spec, make_executor
from ..graph.builder import IntentGraphBuilder
from ..graph.multiplex import MultiplexGraph
from ..matching.features import PairFeatureConfig, PairFeatureEncoder
from ..pipeline import ArtifactCache, PipelineRunner
from ..text.similarity import levenshtein_similarities_batch, levenshtein_similarity
from .instrument import PerfSession, rss_bytes

#: Version of the ``BENCH_perf.json`` document layout.
SCHEMA_VERSION = 1

#: Document kind marker (guards against comparing unrelated JSON files).
REPORT_KIND = "repro-perf"


@dataclass(frozen=True)
class PerfWorkload:
    """One pinned benchmark configuration.

    The smoke workload mirrors the ``bench_table9_runtime`` smoke scale
    (:meth:`BenchSettings.make_smoke` in ``benchmarks/_harness.py``) so
    the CI perf job and the Table 9 harness measure the same computation.
    """

    name: str
    dataset: str
    num_pairs: int
    products_per_domain: int
    matcher_epochs: int
    gnn_epochs: int
    k_neighbors: int = 6
    seed: int = 42

    def flexer_config(self) -> FlexERConfig:
        """The FlexER configuration of this workload (harness-compatible)."""
        return FlexERConfig(
            matcher=MatcherConfig(
                hidden_dims=(64, 32),
                n_features=256,
                epochs=self.matcher_epochs,
                seed=self.seed,
            ),
            graph=GraphConfig(k_neighbors=self.k_neighbors),
            gnn=GNNConfig(hidden_dim=48, epochs=self.gnn_epochs, seed=self.seed),
        )


#: The Table 9 smoke workload: tiny sizes, single training epochs.
SMOKE_WORKLOADS = (
    PerfWorkload(
        name="table9_smoke_amazon_mi",
        dataset="amazon_mi",
        num_pairs=120,
        products_per_domain=10,
        matcher_epochs=1,
        gnn_epochs=1,
    ),
)

#: The default matrix: every paper dataset at moderate harness scale.
FULL_WORKLOADS = (
    PerfWorkload(
        name="table9_amazon_mi",
        dataset="amazon_mi",
        num_pairs=240,
        products_per_domain=20,
        matcher_epochs=5,
        gnn_epochs=20,
    ),
    PerfWorkload(
        name="table9_walmart_amazon",
        dataset="walmart_amazon",
        num_pairs=240,
        products_per_domain=20,
        matcher_epochs=5,
        gnn_epochs=20,
    ),
    PerfWorkload(
        name="table9_wdc",
        dataset="wdc",
        num_pairs=240,
        products_per_domain=20,
        matcher_epochs=5,
        gnn_epochs=20,
    ),
)


def _load_benchmark(workload: PerfWorkload):
    # Imported lazily: the dataset generators pull in the full data layer.
    from ..datasets import load_benchmark

    return load_benchmark(
        workload.dataset,
        num_pairs=workload.num_pairs,
        products_per_domain=workload.products_per_domain,
        seed=workload.seed,
    )


def run_workload(workload: PerfWorkload) -> dict[str, object]:
    """Run one workload end-to-end on a cold cache, then a warm re-run.

    Returns the JSON-serializable measurement: the ``stages`` records
    (``blocking-end-to-end``, ``pipeline-cold``, one ``flexer:<stage>``
    record per stage event of the cold run, ``pipeline-warm``), the
    FlexER stage breakdown, end-to-end wall time, candidate-pair
    throughput, and peak RSS.
    """
    benchmark = _load_benchmark(workload)
    config = workload.flexer_config()
    blocker = QGramBlocker(q=4)

    session = PerfSession()
    cache = ArtifactCache()
    runner = PipelineRunner(cache=cache)
    start = time.perf_counter()
    with session.stage("blocking-end-to-end", items=len(benchmark.dataset)):
        candidate_pairs = blocker.block(benchmark.dataset)
    with session.stage("pipeline-cold", items=len(benchmark.candidates)):
        result = runner.run(benchmark.split, benchmark.intents, config=config)
    end_to_end = time.perf_counter() - start
    for event in result.events:
        session.record(f"flexer:{event.stage}", event.elapsed_seconds)
    with session.stage("pipeline-warm", items=len(benchmark.candidates)):
        warm = runner.run(benchmark.split, benchmark.intents, config=config)

    num_pairs = len(benchmark.candidates)
    return {
        "end_to_end_wall_seconds": end_to_end,
        "throughput_pairs_per_second": (num_pairs / end_to_end) if end_to_end > 0 else None,
        "num_candidate_pairs": num_pairs,
        "num_blocking_pairs": len(candidate_pairs),
        "rss_peak_bytes": rss_bytes(),
        "stages": session.as_dicts(),
        "flexer_timings": result.timings.as_dict(),
        "warm_cached_stages": list(warm.cached_stages),
        "warm_wall_seconds": session.total_seconds("pipeline-warm"),
    }


def kernel_benchmarks(workload: PerfWorkload) -> list[dict[str, object]]:
    """Vectorized-vs-loop micro-benchmarks of the four swept kernels."""
    benchmark = _load_benchmark(workload)
    dataset = benchmark.dataset
    pairs = list(benchmark.candidates.pairs)
    results: list[dict[str, object]] = []

    def measure(name: str, items: int, loop_fn, vectorized_fn) -> None:
        start = time.perf_counter()
        loop_value = loop_fn()
        loop_seconds = time.perf_counter() - start
        start = time.perf_counter()
        vectorized_value = vectorized_fn()
        vectorized_seconds = time.perf_counter() - start
        equivalent = _results_match(loop_value, vectorized_value)
        results.append(
            {
                "name": name,
                "items": items,
                "loop_seconds": loop_seconds,
                "vectorized_seconds": vectorized_seconds,
                "speedup": (loop_seconds / vectorized_seconds)
                if vectorized_seconds > 0
                else None,
                "equivalent": equivalent,
            }
        )

    # 1. Pair feature encoding (fresh encoders so both start cache-cold).
    feature_config = PairFeatureConfig(n_features=256)
    measure(
        "pair-feature-encode",
        len(pairs),
        lambda: PairFeatureEncoder(feature_config).encode_loop(dataset, pairs),
        lambda: PairFeatureEncoder(feature_config).encode_batch(dataset, pairs),
    )

    # 2. Blocking join.
    measure(
        "qgram-block-join",
        len(dataset),
        lambda: QGramBlocker(q=4).block_loop(dataset),
        lambda: QGramBlocker(q=4).block(dataset),
    )

    # 3. Multiplex graph edge construction over synthetic representations.
    rng = np.random.default_rng(workload.seed)
    representations = {
        intent: rng.normal(size=(len(pairs), 16)) for intent in benchmark.intents
    }
    builder = IntentGraphBuilder(GraphConfig(k_neighbors=workload.k_neighbors))

    def loop_graph_edges():
        # The builder's per-edge loop passes, in build()'s order, over
        # the same node layout build() starts from.
        matrices = list(representations.values())
        graph = MultiplexGraph(
            intents=tuple(representations),
            num_pairs=len(pairs),
            features=np.concatenate(matrices, axis=0),
        )
        builder._add_intra_layer_edges_loop(graph, matrices)
        builder._add_inter_layer_edges_loop(graph)
        return graph.edge_arrays("mean")

    measure(
        "graph-edge-construction",
        len(pairs) * len(benchmark.intents),
        loop_graph_edges,
        lambda: builder.build(representations).edge_arrays("mean"),
    )

    # 4. Batched Levenshtein over the candidate pair texts.
    lefts = [dataset[pair.left_id].text() for pair in pairs]
    rights = [dataset[pair.right_id].text() for pair in pairs]
    measure(
        "levenshtein-batch",
        len(pairs),
        lambda: np.array(
            [levenshtein_similarity(a, b) for a, b in zip(lefts, rights)]
        ),
        lambda: levenshtein_similarities_batch(lefts, rights),
    )
    return results


#: Worker counts measured by the scaling-curve section.
SCALING_WORKER_COUNTS = (1, 2, 4)

#: Micro-batch sizes measured by the query-latency section.
QUERY_BATCH_SIZES = (1, 4, 16)


def _fit_query_model(workload: PerfWorkload, holdout: int):
    """Fit a servable model on the workload minus a holdout tail.

    Shared by :func:`query_latency` and :func:`serve_load_profile`.
    Returns ``(model, held_out_records, fit_seconds, corpus_size)``.
    """
    from ..data.records import Dataset
    from ..datasets import benchmark_labeler
    from ..resolver import Resolver

    benchmark = _load_benchmark(workload)
    labeler, record_labeler = benchmark_labeler(benchmark)
    records = list(benchmark.dataset.records)
    holdout = min(holdout, max(len(records) // 4, 1))
    corpus = Dataset(
        records=records[:-holdout],
        name=benchmark.dataset.name,
        attributes=benchmark.dataset.attributes,
    )
    held_out = records[-holdout:]

    resolver = Resolver(config=workload.flexer_config())
    start = time.perf_counter()
    model = resolver.fit(
        corpus,
        intents=labeler.intent_names,
        labeler=record_labeler,
        split_seed=workload.seed,
    )
    fit_seconds = time.perf_counter() - start
    return model, held_out, fit_seconds, len(corpus)


def query_latency(
    workload: PerfWorkload,
    batch_sizes: tuple[int, ...] = QUERY_BATCH_SIZES,
    repeats: int = 12,
    holdout: int = 24,
    k: int = 5,
    prefit: tuple | None = None,
) -> dict[str, object]:
    """Measure the online serve path of the fit/query lifecycle.

    Fits a :class:`~repro.model.ResolverModel` once on the workload's
    records minus a ``holdout`` tail, then times ``repeats`` online
    ``query()`` micro-batches per batch size through one
    :class:`~repro.model.QuerySession` (records cycle through the
    holdout, so batches differ while staying deterministic).  Reports
    p50/p95/mean wall seconds per micro-batch and per record, plus the
    one-off fit and session warm-up costs — the numbers that tell you
    what serving traffic from this model actually costs, as opposed to
    the full re-resolve that the one-shot API would pay per batch.

    ``prefit`` optionally reuses a :func:`_fit_query_model` result so a
    suite measuring both query latency and serve load fits each
    workload's model once.
    """
    model, held_out, fit_seconds, corpus_size = prefit or _fit_query_model(
        workload, holdout
    )
    holdout = len(held_out)

    session = model.session()
    # Warm-up: the first query builds the per-layer ANN indexes and the
    # frozen per-intent states; serving latency excludes that one-off.
    start = time.perf_counter()
    session.query(held_out[:1], k=k, mode="online")
    warmup_seconds = time.perf_counter() - start

    entries: list[dict[str, object]] = []
    for batch_size in batch_sizes:
        batch_size = min(batch_size, holdout)
        walls: list[float] = []
        pairs_scored = 0
        for repeat in range(repeats):
            offset = (repeat * batch_size) % holdout
            batch = [held_out[(offset + i) % holdout] for i in range(batch_size)]
            start = time.perf_counter()
            result = session.query(batch, k=k, mode="online")
            walls.append(time.perf_counter() - start)
            pairs_scored += len(result)
        wall_array = np.asarray(walls)
        entries.append(
            {
                "batch_size": int(batch_size),
                "repeats": int(repeats),
                "p50_seconds": float(np.percentile(wall_array, 50)),
                "p95_seconds": float(np.percentile(wall_array, 95)),
                "mean_seconds": float(wall_array.mean()),
                "mean_seconds_per_record": float(wall_array.mean() / batch_size),
                "pairs_scored": int(pairs_scored),
            }
        )
    return {
        "mode": "online",
        "k": int(k),
        "holdout_records": int(holdout),
        "corpus_records": corpus_size,
        "fit_seconds": fit_seconds,
        "session_warmup_seconds": warmup_seconds,
        "batches": entries,
    }


#: Closed-loop concurrency levels of :func:`serve_load_profile`.
SERVE_CONCURRENCY_LEVELS = (1, 4, 16)


def serve_load_profile(
    workload: PerfWorkload,
    concurrency_levels: tuple[int, ...] = SERVE_CONCURRENCY_LEVELS,
    requests_per_level: int = 48,
    holdout: int = 24,
    k: int = 5,
    open_loop_fraction: float = 0.7,
    prefit: tuple | None = None,
) -> dict[str, object]:
    """Load-test the :mod:`repro.serve` micro-batching layer.

    Fits a model once, stands up an in-process
    :class:`~repro.serve.AsyncResolverServer` (no TCP — this profiles
    the batching scheduler and session execution, not socket I/O), and
    drives it two ways:

    * **closed loop** — at each concurrency level, keep exactly that
      many single-record requests in flight until
      ``requests_per_level`` complete; record per-request p50/p95/p99
      latency and the completion rate (QPS).  ``max_sustained_qps`` is
      the best completion rate across levels.
    * **open loop** — offer requests at a fixed rate
      (``open_loop_fraction`` × max sustained QPS) regardless of
      completions, the arrival pattern real traffic has; record the
      same latency percentiles plus any rejections/timeouts.

    The returned section lands in ``BENCH_perf.json`` under
    ``serve_load`` and is gated (via ``max_sustained_qps``) by
    :func:`check_regression`.  ``prefit`` optionally reuses a
    :func:`_fit_query_model` result to skip the fit.
    """
    import asyncio

    from ..serve import AsyncResolverServer, ServeConfig

    model, held_out, fit_seconds, corpus_size = prefit or _fit_query_model(
        workload, holdout
    )
    config = ServeConfig(max_queue=max(64, 4 * max(concurrency_levels)))
    percentile_names = ("p50_ms", "p95_ms", "p99_ms")

    def percentiles(latencies: list[float]) -> dict[str, float]:
        array = np.asarray(latencies if latencies else [0.0]) * 1e3
        return {
            name: float(np.percentile(array, q))
            for name, q in zip(percentile_names, (50, 95, 99))
        }

    async def profile() -> dict[str, object]:
        async with AsyncResolverServer(model, config) as server:
            # Warm-up builds the frozen states outside the measurements.
            await server.query(held_out[:1], k=k)

            closed_entries: list[dict[str, object]] = []
            for concurrency in concurrency_levels:
                latencies: list[float] = []
                gate = asyncio.Semaphore(concurrency)

                async def one(index: int) -> None:
                    async with gate:
                        record = held_out[index % len(held_out)]
                        start = time.perf_counter()
                        await server.query([record], k=k)
                        latencies.append(time.perf_counter() - start)

                level_start = time.perf_counter()
                await asyncio.gather(
                    *(one(index) for index in range(requests_per_level))
                )
                elapsed = time.perf_counter() - level_start
                closed_entries.append(
                    {
                        "concurrency": int(concurrency),
                        "requests": int(requests_per_level),
                        "qps": float(requests_per_level / elapsed),
                        **percentiles(latencies),
                    }
                )

            max_sustained_qps = max(entry["qps"] for entry in closed_entries)

            target_qps = max(open_loop_fraction * max_sustained_qps, 1e-6)
            interval = 1.0 / target_qps
            latencies = []
            errors = {"rejected": 0, "timed_out": 0}

            async def offered(index: int) -> None:
                record = held_out[index % len(held_out)]
                start = time.perf_counter()
                try:
                    await server.query([record], k=k)
                except Exception as error:  # noqa: BLE001 - tallied below
                    name = type(error).__name__
                    if name == "ServerOverloadedError":
                        errors["rejected"] += 1
                    elif name == "QueryTimeoutError":
                        errors["timed_out"] += 1
                    else:
                        raise
                else:
                    latencies.append(time.perf_counter() - start)

            open_start = time.perf_counter()
            tasks = []
            for index in range(requests_per_level):
                tasks.append(asyncio.ensure_future(offered(index)))
                await asyncio.sleep(interval)
            await asyncio.gather(*tasks)
            open_elapsed = time.perf_counter() - open_start
            open_entry = {
                "target_qps": float(target_qps),
                "offered_fraction": float(open_loop_fraction),
                "requests": int(requests_per_level),
                "achieved_qps": float(len(latencies) / open_elapsed),
                "rejected": errors["rejected"],
                "timed_out": errors["timed_out"],
                **percentiles(latencies),
            }
            stats = server.stats.snapshot()
        return {
            "mode": "online",
            "k": int(k),
            "holdout_records": len(held_out),
            "corpus_records": corpus_size,
            "fit_seconds": fit_seconds,
            "closed_loop": closed_entries,
            "max_sustained_qps": float(max_sustained_qps),
            "open_loop": open_entry,
            "serve_stats": stats,
            "serve_config": {
                "max_batch_size": config.max_batch_size,
                "max_wait_us": config.max_wait_us,
                "min_wait_us": config.min_wait_us,
                "max_queue": config.max_queue,
            },
        }

    return asyncio.run(profile())


def scaling_curve(
    workload: PerfWorkload,
    worker_counts: tuple[int, ...] = SCALING_WORKER_COUNTS,
    executor_type: str = "processes",
) -> dict[str, object]:
    """Measure the sharded-execution scaling of one workload.

    Runs the workload end-to-end — blocking plus a cold staged pipeline
    — once per worker count: one worker uses the ``serial`` executor
    (the scaling baseline), higher counts shard the embarrassingly
    parallel stages (pair encoding, per-intent matcher and GNN
    training) over ``executor_type``.  Every run starts from a fresh
    cache, and all runs produce bit-identical results, so the entries
    measure pure execution cost.

    Each entry reports end-to-end wall time, the per-stage FlexER
    breakdown, and speedups relative to the one-worker entry
    (end-to-end and per stage).  ``blocking_wall_seconds`` times the
    serial blocking join, which no executor shards.
    ``available_cpus`` is recorded alongside: speedups saturate at the
    machine's core count, so a 4-worker entry on a 2-core runner is
    expected to sit near 2x.

    ``worker_counts`` is normalized to sorted unique values and a
    one-worker serial entry is prepended when absent, so the reported
    speedups are always anchored to the serial baseline.
    """
    counts = sorted({int(workers) for workers in worker_counts})
    if not counts:
        raise ValueError("scaling_curve requires at least one worker count")
    if counts[0] > 1:
        counts.insert(0, 1)
    benchmark = _load_benchmark(workload)
    entries: list[dict[str, object]] = []
    for workers in counts:
        spec = (
            executor_spec("serial")
            if workers <= 1
            else executor_spec(executor_type, workers=workers)
        )
        config = replace(workload.flexer_config(), executor=spec)
        # One executor instance per entry, so each entry runs over exactly
        # one worker pool (started inside the end-to-end window only once).
        runner = PipelineRunner(cache=ArtifactCache(), executor=make_executor(spec))
        start = time.perf_counter()
        QGramBlocker(q=4).block(benchmark.dataset)
        blocking_seconds = time.perf_counter() - start
        result = runner.run(benchmark.split, benchmark.intents, config=config)
        end_to_end = time.perf_counter() - start
        timings = result.timings.as_dict()
        entries.append(
            {
                "workers": int(workers),
                "executor": str(spec["type"]),
                "end_to_end_wall_seconds": end_to_end,
                "blocking_wall_seconds": blocking_seconds,
                "stages": {
                    "matcher-fit": timings["matcher_training_seconds"],
                    "representation": timings["representation_seconds"],
                    "graph-build": timings["graph_build_seconds"],
                    "gnn-total": timings["gnn_total_seconds"],
                },
            }
        )

    baseline = entries[0]
    for entry in entries:
        wall = entry["end_to_end_wall_seconds"]
        entry["end_to_end_speedup"] = (
            baseline["end_to_end_wall_seconds"] / wall if wall > 0 else None
        )
        entry["stage_speedups"] = {
            stage: (baseline["stages"][stage] / seconds) if seconds > 0 else None
            for stage, seconds in entry["stages"].items()
        }
    return {
        "executor": executor_type,
        "worker_counts": counts,
        "available_cpus": available_cpus(),
        "entries": entries,
    }


#: Corpus sizes of the full retrieval-scale curve (10k / 100k / 1M).
RETRIEVAL_SCALE_SIZES: tuple[int, ...] = (10_000, 100_000, 1_000_000)

#: Corpus sizes of the CI smoke variant of the curve.
RETRIEVAL_SCALE_SMOKE_SIZES: tuple[int, ...] = (1_000, 4_000)


RETRIEVAL_SCALE_PARAMS: dict[str, dict[str, object]] = {"hnsw": {"ef_descent": 64}}
"""Scale-tuned retriever overrides for the retrieval bench.

The constructor defaults target the paper-scale corpora (10^3-10^4
records).  On the clustered scale workload a query's true neighbours
all sit inside one small entity cluster, so hnsw recall is decided
while *descending* the upper layers — land in the wrong cluster and no
bottom-layer beam width recovers (recall saturates near 0.86 at 10^6
records even at ``ef_search=384``).  Widening the descent beam to
``ef_descent=64`` lifts recall@10 to ~0.94 at ~16 ms p50 — still two
orders of magnitude below the exact scan; the dial trades a constant
factor, not the growth rate.
"""


def retrieval_scale_profile(
    sizes: tuple[int, ...] = RETRIEVAL_SCALE_SIZES,
    retrievers: tuple[str, ...] = ("hnsw", "lsh"),
    num_queries: int = 100,
    k: int = 10,
    n_features: int = 64,
    seed: int = 0,
    retriever_params: dict[str, dict[str, object]] | None = None,
) -> dict[str, object]:
    """Measure sub-linear retriever scaling against the exact oracle.

    For every corpus size a seeded synthetic workload
    (:func:`~repro.datasets.scale.make_scale_workload`) is generated and
    vectorized **once**; the exact ``ann_knn`` oracle and every
    approximate retriever are then built over the *same* vector matrix
    (via the vectors-only ``load_state`` path), so recall@k compares
    pure index behaviour, not text encoding.  Per size and retriever
    the entry reports build time, per-query latency (p50/p95 over
    ``num_queries`` individually timed queries), recall@1/@k and
    candidate overlap vs the oracle, and the process RSS after the
    build; ``lsh`` entries add the mean bucket-probe candidate count.

    The trailing ``growth`` section divides the largest size's p50 by
    the smallest's for each retriever and for the exact baseline — the
    sub-linearity evidence the acceptance bar asks for: the exact
    factor tracks the corpus-size factor, the approximate factors must
    sit far below it.

    ``retriever_params`` maps retriever keys to extra constructor
    params; it defaults to :data:`RETRIEVAL_SCALE_PARAMS` (the
    scale-tuned overrides) and is echoed in the returned section so a
    recorded curve documents the specs that produced it.
    """
    from ..datasets.scale import ScaleWorkloadConfig, make_scale_workload
    from ..evaluation.retrieval import evaluate_candidates
    from ..registry import CANDIDATE_RETRIEVERS
    from ..retrieval import AnnKnnRetriever, LshRetriever

    sizes = tuple(sorted({int(size) for size in sizes}))
    if not sizes or sizes[0] <= 0:
        raise ValueError("retrieval_scale_profile requires positive corpus sizes")
    if retriever_params is None:
        retriever_params = RETRIEVAL_SCALE_PARAMS

    def timed_queries(retriever, queries) -> dict[str, float]:
        latencies: list[float] = []
        for record in queries:
            start = time.perf_counter()
            retriever.retrieve([record], k)
            latencies.append(time.perf_counter() - start)
        ordered = sorted(latencies)
        return {
            "query_p50_ms": ordered[len(ordered) // 2] * 1000.0,
            "query_p95_ms": ordered[min(int(len(ordered) * 0.95), len(ordered) - 1)] * 1000.0,
            "query_mean_ms": sum(latencies) / len(latencies) * 1000.0,
        }

    entries: list[dict[str, object]] = []
    for size in sizes:
        start = time.perf_counter()
        workload = make_scale_workload(
            ScaleWorkloadConfig(num_records=size, num_queries=num_queries, seed=seed)
        )
        generate_seconds = time.perf_counter() - start
        queries = list(workload.queries)

        start = time.perf_counter()
        oracle = AnnKnnRetriever(n_features=n_features).fit(workload.corpus)
        vectorize_seconds = time.perf_counter() - start
        vectors = oracle.state_arrays()["vectors"]

        entry: dict[str, object] = {
            "num_records": int(size),
            "num_clusters": workload.num_clusters,
            "generate_seconds": generate_seconds,
            "vectorize_seconds": vectorize_seconds,
            "exact": timed_queries(oracle, queries),
            "retrievers": {},
        }
        for name in retrievers:
            retriever = CANDIDATE_RETRIEVERS.create(
                {
                    "type": name,
                    "params": {"n_features": n_features, **retriever_params.get(name, {})},
                }
            )
            start = time.perf_counter()
            retriever.load_state({"vectors": vectors}, workload.corpus)
            build_seconds = time.perf_counter() - start
            stats: dict[str, object] = {"build_seconds": build_seconds}
            stats.update(timed_queries(retriever, queries))
            quality = evaluate_candidates(retriever, oracle, queries, ks=(1, k))
            stats.update(quality.summary())
            exact_p50 = entry["exact"]["query_p50_ms"]
            stats["speedup_vs_exact_p50"] = (
                exact_p50 / stats["query_p50_ms"] if stats["query_p50_ms"] > 0 else None
            )
            if isinstance(retriever, LshRetriever):
                counts = retriever.candidate_counts(queries)
                stats["mean_candidates_per_query"] = sum(counts) / len(counts)
            entry["retrievers"][name] = stats
        entry["rss_bytes"] = rss_bytes()
        entries.append(entry)

    growth: dict[str, object] = {}
    if len(entries) >= 2:
        first, last = entries[0], entries[-1]
        size_factor = last["num_records"] / first["num_records"]
        growth["size_factor"] = size_factor
        exact_first = first["exact"]["query_p50_ms"]
        growth["exact_query_p50_factor"] = (
            last["exact"]["query_p50_ms"] / exact_first if exact_first > 0 else None
        )
        for name in retrievers:
            p50_first = first["retrievers"][name]["query_p50_ms"]
            growth[f"{name}_query_p50_factor"] = (
                last["retrievers"][name]["query_p50_ms"] / p50_first
                if p50_first > 0
                else None
            )
    return {
        "sizes": list(sizes),
        "retrievers": list(retrievers),
        "num_queries": int(num_queries),
        "k": int(k),
        "n_features": int(n_features),
        "seed": int(seed),
        "retriever_params": {name: dict(params) for name, params in retriever_params.items()},
        "entries": entries,
        "growth": growth,
    }


def scenario_matrix_profile(
    names: tuple[str, ...] | None = None, seed: int = 0
) -> dict[str, object]:
    """Run named workload scenarios and collect their quality×latency matrices.

    Runs each preset of :data:`repro.scenarios.HEADLINE_SCENARIOS` (or
    the given ``names``) at ``seed`` and returns a section mapping the
    scenario name to its full report document — the deterministic
    quality matrix and summary plus the wall-clock ``timings`` — along
    with a ``headline_macro_f1`` (the mean ``macro_f1`` over matrix
    rows) and the scenario's total wall seconds, the two numbers
    :func:`check_regression` gates.
    """
    from ..scenarios import HEADLINE_SCENARIOS, named_scenario

    selected = tuple(names) if names else HEADLINE_SCENARIOS
    section: dict[str, object] = {"seed": int(seed), "scenarios": {}}
    for name in selected:
        scenario = named_scenario(name)
        start = time.perf_counter()
        report = scenario.run(seed=seed, name=name)
        wall = time.perf_counter() - start
        macros = [
            float(row["macro_f1"]) for row in report.matrix if "macro_f1" in row
        ]
        section["scenarios"][name] = {
            "report": report.to_document(include_timings=True),
            "headline_macro_f1": float(np.mean(macros)) if macros else None,
            "wall_seconds": float(wall),
        }
    return section


def _results_match(loop_value, vectorized_value) -> bool:
    """Equivalence verdict for a kernel pair (arrays, edge tuples, pair lists)."""
    if isinstance(loop_value, np.ndarray):
        return bool(np.array_equal(loop_value, np.asarray(vectorized_value)))
    if isinstance(loop_value, tuple):
        return all(_results_match(a, b) for a, b in zip(loop_value, vectorized_value))
    return bool(loop_value == vectorized_value)


def run_perf_suite(
    smoke: bool = False,
    workloads: tuple[PerfWorkload, ...] | None = None,
    scaling_workers: tuple[int, ...] | None = None,
    scaling_executor: str = "processes",
    measure_query_latency: bool = False,
    measure_serve_load: bool = False,
    retrieval_scale_sizes: tuple[int, ...] | None = None,
    scenario_names: tuple[str, ...] | None = None,
) -> dict[str, object]:
    """Run the workload matrix and assemble the ``BENCH_perf.json`` document.

    With ``scaling_workers`` (e.g. ``(1, 2, 4)``) each workload entry
    additionally carries a ``scaling`` section — the
    :func:`scaling_curve` of the workload over the given worker counts.
    With ``measure_query_latency`` each entry carries a
    ``query_latency`` section — the online-serving micro-batch p50/p95
    profile of :func:`query_latency`.  With ``measure_serve_load`` each
    entry carries a ``serve_load`` section — the closed/open-loop
    latency and throughput profile of :func:`serve_load_profile`.
    With ``retrieval_scale_sizes`` the report carries a top-level
    ``retrieval_scale`` section — the sub-linear retriever scaling
    curve of :func:`retrieval_scale_profile` over those corpus sizes
    (independent of the workload matrix).  With ``scenario_names`` the
    report carries a top-level ``scenarios`` section — the
    quality×latency matrices of :func:`scenario_matrix_profile` for the
    named workload scenarios, gated on wall time and headline macro F1
    by :func:`check_regression`.
    """
    selected = (
        workloads if workloads is not None else (SMOKE_WORKLOADS if smoke else FULL_WORKLOADS)
    )
    entries: list[dict[str, object]] = []
    for workload in selected:
        entry: dict[str, object] = {
            "workload": asdict(workload),
            "vectorized": run_workload(workload),
            "kernels": kernel_benchmarks(workload),
        }
        if scaling_workers:
            entry["scaling"] = scaling_curve(
                workload, worker_counts=scaling_workers, executor_type=scaling_executor
            )
        prefit = None
        if measure_query_latency and measure_serve_load:
            # Both sections serve the same fitted model; fit it once.
            prefit = _fit_query_model(workload, holdout=24)
        if measure_query_latency:
            entry["query_latency"] = query_latency(workload, prefit=prefit)
        if measure_serve_load:
            entry["serve_load"] = serve_load_profile(workload, prefit=prefit)
        entries.append(entry)

    retrieval_scale = None
    if retrieval_scale_sizes:
        retrieval_scale = retrieval_scale_profile(sizes=retrieval_scale_sizes)

    scenarios_section = None
    if scenario_names:
        scenarios_section = scenario_matrix_profile(names=tuple(scenario_names))

    total_wall = float(
        sum(entry["vectorized"]["end_to_end_wall_seconds"] for entry in entries)
    )
    report: dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "kind": REPORT_KIND,
        "created_at": _datetime.datetime.now(_datetime.timezone.utc).isoformat(),
        "smoke": smoke,
        "environment": _environment(),
        "workloads": entries,
        "summary": {
            "num_workloads": len(entries),
            "end_to_end_wall_seconds": total_wall,
        },
    }
    if retrieval_scale is not None:
        report["retrieval_scale"] = retrieval_scale
    if scenarios_section is not None:
        report["scenarios"] = scenarios_section
    return report


def _environment() -> dict[str, object]:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "available_cpus": available_cpus(),
    }


def write_report(report: dict[str, object], path: str | Path) -> Path:
    """Write the report as pretty-printed JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def load_report(path: str | Path) -> dict[str, object]:
    """Load a ``BENCH_perf.json`` document, validating kind and schema."""
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    if document.get("kind") != REPORT_KIND:
        raise ValueError(f"{path} is not a {REPORT_KIND} report")
    return document


def check_regression(
    current: dict[str, object],
    baseline: dict[str, object],
    max_regression: float = 0.5,
) -> list[str]:
    """Compare a fresh report against a baseline; return regression messages.

    Workloads are matched by name and compared on end-to-end wall time:
    the current wall may exceed the baseline wall by at most
    ``max_regression`` (fractional, e.g. 0.5 allows +50%).  Workloads
    present in only one report are ignored, so a smoke run checks
    cleanly against a baseline that contains the smoke workload.

    When both reports carry a ``serve_load`` section for a workload,
    its ``max_sustained_qps`` is gated symmetrically: the current
    throughput may fall below the baseline by at most the same
    fraction.
    """
    problems: list[str] = []
    if current.get("schema_version") != baseline.get("schema_version"):
        problems.append(
            "schema version changed "
            f"({baseline.get('schema_version')} -> {current.get('schema_version')}); "
            "re-record the baseline"
        )
        return problems

    def walls(report: dict[str, object]) -> dict[str, float]:
        return {
            entry["workload"]["name"]: float(
                entry["vectorized"]["end_to_end_wall_seconds"]
            )
            for entry in report["workloads"]
        }

    current_walls = walls(current)
    baseline_walls = walls(baseline)
    shared = sorted(set(current_walls) & set(baseline_walls))
    if not shared:
        problems.append(
            "no workloads in common with the baseline "
            f"(current: {sorted(current_walls)}, baseline: {sorted(baseline_walls)})"
        )
        return problems
    for name in shared:
        limit = baseline_walls[name] * (1.0 + max_regression)
        if current_walls[name] > limit:
            problems.append(
                f"[{name}] end-to-end wall time regressed: "
                f"{current_walls[name]:.3f}s vs baseline {baseline_walls[name]:.3f}s "
                f"(limit {limit:.3f}s at +{max_regression:.0%})"
            )

    def serve_qps(report: dict[str, object]) -> dict[str, float]:
        return {
            entry["workload"]["name"]: float(entry["serve_load"]["max_sustained_qps"])
            for entry in report["workloads"]
            if entry.get("serve_load")
        }

    current_qps = serve_qps(current)
    baseline_qps = serve_qps(baseline)
    for name in sorted(set(current_qps) & set(baseline_qps)):
        floor = baseline_qps[name] * (1.0 - max_regression)
        if current_qps[name] < floor:
            problems.append(
                f"[{name}] serve throughput regressed: "
                f"{current_qps[name]:.1f} QPS vs baseline {baseline_qps[name]:.1f} QPS "
                f"(floor {floor:.1f} at -{max_regression:.0%})"
            )

    def scenario_entries(report: dict[str, object]) -> dict[str, dict[str, object]]:
        section = report.get("scenarios") or {}
        entries = section.get("scenarios", {}) if isinstance(section, dict) else {}
        return entries if isinstance(entries, dict) else {}

    current_scenarios = scenario_entries(current)
    baseline_scenarios = scenario_entries(baseline)
    for name in sorted(set(current_scenarios) & set(baseline_scenarios)):
        current_entry = current_scenarios[name]
        baseline_entry = baseline_scenarios[name]
        baseline_wall = float(baseline_entry.get("wall_seconds") or 0.0)
        current_wall = float(current_entry.get("wall_seconds") or 0.0)
        limit = baseline_wall * (1.0 + max_regression)
        if baseline_wall > 0 and current_wall > limit:
            problems.append(
                f"[scenario {name}] wall time regressed: "
                f"{current_wall:.3f}s vs baseline {baseline_wall:.3f}s "
                f"(limit {limit:.3f}s at +{max_regression:.0%})"
            )
        baseline_macro = baseline_entry.get("headline_macro_f1")
        current_macro = current_entry.get("headline_macro_f1")
        if baseline_macro is not None and current_macro is not None:
            floor = float(baseline_macro) * (1.0 - max_regression)
            if float(current_macro) < floor:
                problems.append(
                    f"[scenario {name}] headline macro F1 regressed: "
                    f"{float(current_macro):.4f} vs baseline "
                    f"{float(baseline_macro):.4f} "
                    f"(floor {floor:.4f} at -{max_regression:.0%})"
                )
    return problems
