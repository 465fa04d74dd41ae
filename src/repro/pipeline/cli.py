"""Command-line entry point of the staged FlexER pipeline.

Usage (module form)::

    PYTHONPATH=src python -m repro.pipeline run --dataset amazon_mi
    PYTHONPATH=src python -m repro.pipeline resolve --dataset amazon_mi --blocker token
    PYTHONPATH=src python -m repro.pipeline fit --save-model model.npz --query-holdout 6
    PYTHONPATH=src python -m repro.pipeline query --model model.npz --query-holdout 6
    PYTHONPATH=src python -m repro.pipeline update --model model.npz --upsert 3
    PYTHONPATH=src python -m repro.pipeline retrieval-eval --model model.npz --min-recall 0.9
    PYTHONPATH=src python -m repro.pipeline sweep-k --k-values 0,2,4,6
    PYTHONPATH=src python -m repro.pipeline scenario --name streaming-smoke --seed 0
    PYTHONPATH=src python -m repro.pipeline cache --cache-dir .repro-cache

``run`` executes the four pipeline stages once over a synthetic
benchmark's pre-built split; ``resolve`` starts one step earlier, from
the benchmark's *raw records* (blocking → labeling → staged FlexER,
through :func:`repro.resolve`); ``fit`` trains on the benchmark's raw
records (optionally holding out the last N records) and persists a
:class:`~repro.model.ResolverModel`; ``query`` loads a persisted model
in a fresh process and resolves the held-out records against the fitted
corpus online; ``update`` absorbs held-out records (and optional
deletes) into a persisted model without a refit, appending update
segments next to the unchanged base artifact;
``retrieval-eval`` scores a persisted model's bundled candidate
retriever against a freshly fitted exact ``ann_knn`` oracle (recall@k +
Jaccard overlap, optional recall floor and deterministic candidate
dump); ``sweep-k`` executes a Table-8-style grid through the
:class:`~repro.pipeline.batch.BatchRunner`; ``cache`` inspects (or
clears) an on-disk artifact cache.  All components are named by registry
keys (``--solver``, ``--blocker``, ``--retriever``) and constructed
through :mod:`repro.registry`.  With ``--cache-dir`` (or the
``REPRO_CACHE_DIR`` environment variable) artifacts persist across
invocations, so repeating a command — or sweeping around a previous run —
skips matcher training and representation.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence

import numpy as np

from .. import registry
from ..config import CacheConfig, FlexERConfig, GNNConfig, GraphConfig, MatcherConfig
from ..data.serialization import write_artifact
from ..datasets import BENCHMARK_LABELERS, benchmark_names, load_benchmark
from ..evaluation import evaluate_binary, format_table
from ..exec import executor_spec, make_executor
from ..resolver import Resolver, ResolverResult
from .batch import BatchRunner, k_sweep
from .cache import ArtifactCache
from .runner import PipelineResult, PipelineRunner

#: Environment variable providing the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset",
        default="amazon_mi",
        choices=benchmark_names(),
        help="synthetic benchmark to run on",
    )
    parser.add_argument("--num-pairs", type=int, default=240, help="candidate pairs")
    parser.add_argument("--products", type=int, default=20, help="products per domain")
    parser.add_argument("--seed", type=int, default=42, help="generator + model seed")
    parser.add_argument("--matcher-epochs", type=int, default=10, help="matcher epochs")
    parser.add_argument("--gnn-epochs", type=int, default=40, help="GraphSAGE epochs")
    parser.add_argument(
        "--solver",
        default="in_parallel",
        choices=registry.available("solver"),
        help="solver registry key",
    )
    parser.add_argument(
        "--executor",
        default="serial",
        choices=registry.available("executor"),
        help="sharded-execution backend (results are identical across executors)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallel workers for --executor threads/processes (default: all CPUs)",
    )
    parser.add_argument(
        "--cache-dir",
        default=os.environ.get(CACHE_DIR_ENV),
        help=f"artifact cache directory (default: ${CACHE_DIR_ENV} or in-memory)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="disable artifact caching entirely"
    )


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of the pipeline CLI."""
    parser = argparse.ArgumentParser(
        prog="repro.pipeline",
        description="Staged FlexER pipeline with content-addressed artifact caching",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run the staged pipeline once")
    _add_common_options(run)
    run.add_argument("--k", type=int, default=6, help="intra-layer kNN neighbours")
    run.add_argument(
        "--intent-subset",
        default=None,
        help="comma-separated graph layers (default: all intents)",
    )
    run.add_argument(
        "--target-intents",
        default=None,
        help="comma-separated intents to predict (default: the graph layers)",
    )

    resolve = commands.add_parser(
        "resolve",
        help="end-to-end raw-records resolution: blocking → labeling → staged FlexER",
    )
    _add_common_options(resolve)
    resolve.add_argument("--k", type=int, default=6, help="intra-layer kNN neighbours")
    resolve.add_argument(
        "--blocker",
        default="qgram",
        choices=registry.available("blocker"),
        help="blocker registry key used for candidate generation",
    )
    resolve.add_argument(
        "--min-shared",
        type=int,
        default=None,
        help="q-grams/tokens two records must share (qgram/token blockers)",
    )
    resolve.add_argument(
        "--target-intents",
        default=None,
        help="comma-separated intents to predict (default: all intents)",
    )
    resolve.add_argument(
        "--dump-result",
        default=None,
        metavar="PATH",
        help=(
            "write the resolution (per-intent probabilities + predictions) as a "
            ".npz artifact; byte-identical across executors, which the exec-smoke "
            "CI job asserts with a plain cmp"
        ),
    )

    fit = commands.add_parser(
        "fit",
        help="fit on raw benchmark records and persist a ResolverModel artifact",
    )
    _add_common_options(fit)
    fit.add_argument("--k", type=int, default=6, help="intra-layer kNN neighbours")
    fit.add_argument(
        "--blocker",
        default="qgram",
        choices=registry.available("blocker"),
        help="blocker registry key used for candidate generation",
    )
    fit.add_argument(
        "--retriever",
        default="ann_knn",
        choices=registry.available("candidate_retriever"),
        help="online candidate retriever bundled with the model",
    )
    fit.add_argument(
        "--retriever-arg",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help=(
            "extra retriever spec parameter, repeatable — e.g. "
            "--retriever-arg num_bands=64 --retriever-arg rows_per_band=6 "
            "tunes the lsh banding for a small corpus"
        ),
    )
    fit.add_argument(
        "--save-model",
        required=True,
        metavar="PATH",
        help="write the fitted ResolverModel as a .npz artifact",
    )
    _add_query_options(fit)
    fit.add_argument(
        "--dump-query",
        default=None,
        metavar="PATH",
        help=(
            "after fitting, query the held-out records with the in-memory model "
            "and dump the result artifact (cmp'd against the reloaded model by "
            "the query-smoke CI job)"
        ),
    )

    query = commands.add_parser(
        "query",
        help="load a persisted ResolverModel and resolve held-out records online",
    )
    _add_common_options(query)
    query.add_argument(
        "--model",
        required=True,
        metavar="PATH",
        help="path of a ResolverModel artifact written by fit --save-model",
    )
    _add_query_options(query)
    query.add_argument(
        "--mmap",
        action="store_true",
        help=(
            "memory-map the model's payload arrays instead of materializing "
            "them (results are byte-identical to an eager load)"
        ),
    )
    query.add_argument(
        "--dump-result",
        default=None,
        metavar="PATH",
        help="write the query result as a deterministic .npz artifact",
    )

    update = commands.add_parser(
        "update",
        help="absorb corpus upserts/deletes into a persisted ResolverModel without refit",
    )
    _add_common_options(update)
    update.add_argument(
        "--model",
        required=True,
        metavar="PATH",
        help="path of a ResolverModel artifact written by fit --save-model",
    )
    _add_query_options(update)
    update.add_argument(
        "--upsert",
        type=int,
        default=3,
        metavar="M",
        help="absorb the first M held-out benchmark records into the corpus",
    )
    update.add_argument(
        "--delete-unreferenced",
        type=int,
        default=0,
        metavar="D",
        help="tombstone D corpus records no split pair references",
    )
    update.add_argument(
        "--chunks",
        type=int,
        default=1,
        help="replay the upserts as this many timestamped stream chunks "
        "(one update per chunk)",
    )
    update.add_argument(
        "--compact",
        default="auto",
        choices=("auto", "never", "force"),
        help="compaction: 'auto' follows the drift policy, 'never' pins "
        "segment-only persistence, 'force' refits immediately",
    )
    update.add_argument(
        "--dump-result",
        default=None,
        metavar="PATH",
        help="query the remaining held-out records after the updates and "
        "write the result as a deterministic .npz artifact",
    )
    update.add_argument(
        "--parity-dump",
        default=None,
        metavar="PATH",
        help=(
            "also fit a fresh model on the union corpus (same split) and dump "
            "its query over the same records; in --query-mode exact the two "
            "dumps must be cmp-identical (the update-smoke CI contract)"
        ),
    )
    update.add_argument(
        "--no-save",
        action="store_true",
        help="do not persist the update segments back next to --model",
    )

    retrieval_eval = commands.add_parser(
        "retrieval-eval",
        help="score a persisted model's candidate retriever against the exact oracle",
    )
    _add_common_options(retrieval_eval)
    retrieval_eval.add_argument(
        "--model",
        required=True,
        metavar="PATH",
        help="path of a ResolverModel artifact written by fit --save-model",
    )
    retrieval_eval.add_argument(
        "--query-holdout",
        type=int,
        default=6,
        help="hold the last N benchmark records out as query records (must match fit)",
    )
    retrieval_eval.add_argument(
        "--ks",
        default="1,10",
        help="comma-separated candidate-list sizes to score (default: %(default)s)",
    )
    retrieval_eval.add_argument(
        "--min-recall",
        type=float,
        default=None,
        metavar="R",
        help="exit 4 if recall at the largest k falls below R",
    )
    retrieval_eval.add_argument(
        "--mmap",
        action="store_true",
        help="memory-map the model's payload arrays instead of materializing them",
    )
    retrieval_eval.add_argument(
        "--dump-candidates",
        default=None,
        metavar="PATH",
        help=(
            "write the retriever's ranked candidate lists as a deterministic "
            ".npz artifact (cmp'd across processes by the retrieval-smoke CI job)"
        ),
    )

    sweep = commands.add_parser(
        "sweep-k", help="sweep intra-layer k through the BatchRunner (Table 8)"
    )
    _add_common_options(sweep)
    sweep.add_argument(
        "--k-values",
        default="0,2,4,6,8,10",
        help="comma-separated k values to sweep",
    )

    scenario = commands.add_parser(
        "scenario",
        help="run a named workload scenario (streaming replay / robustness grid)",
    )
    scenario.add_argument(
        "--name",
        default=None,
        help="named scenario preset (see --list)",
    )
    scenario.add_argument(
        "--list", action="store_true", help="list the named scenario presets"
    )
    scenario.add_argument("--seed", type=int, default=0, help="scenario seed")
    scenario.add_argument(
        "--executor",
        default="serial",
        choices=registry.available("executor"),
        help="sharded-execution backend (never changes report content)",
    )
    scenario.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallel workers for --executor threads/processes",
    )
    scenario.add_argument(
        "--report",
        default=None,
        help="write the timings-free report JSON here (byte-reproducible)",
    )
    scenario.add_argument(
        "--timings",
        default=None,
        help="write the full report JSON (with wall-clock timings) here",
    )

    cache = commands.add_parser("cache", help="inspect or clear an artifact cache")
    cache.add_argument(
        "--cache-dir",
        default=os.environ.get(CACHE_DIR_ENV),
        help=f"artifact cache directory (default: ${CACHE_DIR_ENV})",
    )
    cache.add_argument("--clear", action="store_true", help="delete every artifact")
    return parser


def _add_query_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--query-holdout",
        type=int,
        default=6,
        help="hold the last N benchmark records out of the corpus as query records",
    )
    parser.add_argument(
        "--query-k",
        type=int,
        default=4,
        help="candidate corpus records retrieved per query record",
    )
    parser.add_argument(
        "--query-mode",
        default="online",
        choices=("online", "exact"),
        help="online (frozen incremental inference) or exact (transductive replay)",
    )


def _make_cache(args: argparse.Namespace) -> ArtifactCache:
    if getattr(args, "no_cache", False):
        return ArtifactCache(CacheConfig(enabled=False))
    return ArtifactCache(CacheConfig(directory=args.cache_dir))


def _make_config(
    args: argparse.Namespace,
    k_neighbors: int,
    blocker: object | None = None,
) -> FlexERConfig:
    kwargs = {"blocker": blocker} if blocker is not None else {}
    return FlexERConfig(
        matcher=MatcherConfig(
            hidden_dims=(64, 32),
            n_features=256,
            epochs=args.matcher_epochs,
            seed=args.seed,
        ),
        graph=GraphConfig(k_neighbors=k_neighbors),
        gnn=GNNConfig(hidden_dim=48, epochs=args.gnn_epochs, seed=args.seed),
        solver=args.solver,
        executor=executor_spec(args.executor, args.workers),
        **kwargs,
    )


def _split_names(value: str | None) -> tuple[str, ...] | None:
    if value is None:
        return None
    names = tuple(name.strip() for name in value.split(",") if name.strip())
    return names or None


def _dump_result(result: ResolverResult, path: str) -> None:
    """Persist the resolution as a deterministic ``.npz`` artifact.

    Only result content goes in — per-intent probabilities and
    predictions over the test split, plus the canonical test pair ids —
    never timings or the executor spec, so two runs that resolve
    identically dump byte-identical files regardless of how they were
    executed.
    """
    arrays: dict[str, object] = {
        "test_pairs": np.array(
            [list(pair.as_tuple()) for pair in result.split.test.pairs], dtype=np.str_
        ),
    }
    for intent in result.solution.intents:
        arrays[f"probabilities::{intent}"] = result.solution.probabilities[intent]
        arrays[f"predictions::{intent}"] = result.solution.predictions[intent]
    write_artifact(
        path,
        arrays,
        metadata={
            "intents": list(result.solution.intents),
            "num_test_pairs": len(result.split.test),
        },
    )


def _print_stage_table(result: PipelineResult) -> None:
    rows = [
        [event.stage, event.status, event.elapsed_seconds]
        for event in result.events
    ]
    print(format_table(["Stage", "Status", "Compute s"], rows, title="Pipeline stages"))


def _command_run(args: argparse.Namespace) -> int:
    benchmark = load_benchmark(
        args.dataset,
        num_pairs=args.num_pairs,
        products_per_domain=args.products,
        seed=args.seed,
    )
    runner = PipelineRunner(cache=_make_cache(args))
    result = runner.run(
        benchmark.split,
        benchmark.intents,
        config=_make_config(args, k_neighbors=args.k),
        intent_subset=_split_names(args.intent_subset),
        target_intents=_split_names(args.target_intents),
    )
    rows = []
    for intent in result.solution.intents:
        labels = benchmark.split.test.labels(intent)
        evaluation = evaluate_binary(result.solution.prediction(intent), labels)
        rows.append([intent, evaluation.precision, evaluation.recall, evaluation.f1])
    print(
        format_table(
            ["Intent", "P", "R", "F1"],
            rows,
            title=f"FlexER pipeline on {args.dataset} (test split)",
        )
    )
    _print_stage_table(result)
    print(f"cache: {runner.cache.stats.as_dict()}")
    return 0


def _command_sweep_k(args: argparse.Namespace) -> int:
    benchmark = load_benchmark(
        args.dataset,
        num_pairs=args.num_pairs,
        products_per_domain=args.products,
        seed=args.seed,
    )
    k_values = [int(value) for value in args.k_values.split(",") if value.strip()]
    target = benchmark.intents[0]
    runner = PipelineRunner(cache=_make_cache(args))
    scenarios = k_sweep(
        _make_config(args, k_neighbors=6), k_values, target_intents=(target,)
    )
    runs = BatchRunner(runner).run(
        benchmark.split, benchmark.intents, scenarios, dataset=args.dataset
    )
    labels = benchmark.split.test.labels(target)
    rows = []
    for run in runs:
        evaluation = evaluate_binary(run.result.solution.prediction(target), labels)
        rows.append(
            [
                run.scenario.name,
                evaluation.f1,
                "yes" if run.skipped_expensive_stages else "no",
            ]
        )
    print(
        format_table(
            ["Scenario", f"{target} F1", "matcher+repr cached"],
            rows,
            title=f"Intra-layer k sweep on {args.dataset} (Table 8 style)",
        )
    )
    print(f"cache: {runner.cache.stats.as_dict()}")
    return 0


def _command_resolve(args: argparse.Namespace) -> int:
    """Raw records → blocking → labeling → staged FlexER, via repro.resolve."""
    benchmark = load_benchmark(
        args.dataset,
        num_pairs=args.num_pairs,
        products_per_domain=args.products,
        seed=args.seed,
    )
    labeler = BENCHMARK_LABELERS[args.dataset]
    products = benchmark.record_products

    def record_labeler(left, right):
        return labeler.label_pair(products[left.record_id], products[right.record_id])

    blocker_spec: dict[str, object] = {"type": args.blocker}
    if args.min_shared is not None and args.blocker in ("qgram", "token"):
        blocker_spec["min_shared"] = args.min_shared
    if benchmark.dataset.sources:
        blocker_spec["cross_source_only"] = True

    resolver = Resolver(
        config=_make_config(args, k_neighbors=args.k, blocker=blocker_spec),
        cache=_make_cache(args),
    )
    result = resolver.resolve(
        benchmark.dataset,
        intents=labeler.intent_names,
        labeler=record_labeler,
        split_seed=args.seed,
        target_intents=_split_names(args.target_intents),
    )

    quality = result.blocking
    if quality is not None:
        rows = [
            [
                intent,
                quality.pair_completeness[intent] if quality.pair_completeness else "-",
                quality.pair_quality[intent] if quality.pair_quality else "-",
            ]
            for intent in result.intents
        ]
        print(
            format_table(
                ["Intent", "Pair completeness", "Pair quality"],
                rows,
                title=(
                    f"Blocking [{args.blocker}] on {args.dataset}: "
                    f"{quality.num_candidate_pairs}/{quality.num_admissible_pairs} pairs, "
                    f"reduction ratio {quality.reduction_ratio:.3f}"
                ),
            )
        )
    evaluations = result.intent_evaluations()
    rows = []
    for intent in result.solution.intents:
        evaluation = evaluations[intent]
        rows.append([intent, evaluation.precision, evaluation.recall, evaluation.f1])
    print(
        format_table(
            ["Intent", "P", "R", "F1"],
            rows,
            title=f"repro.resolve on raw {args.dataset} records (test split)",
        )
    )
    _print_stage_table(result.pipeline)
    print(f"cache: {resolver.runner.cache.stats.as_dict()}")
    if args.dump_result:
        _dump_result(result, args.dump_result)
        print(f"result artifact written to {args.dump_result}")
    return 0


def _coerce_spec_value(raw: str) -> object:
    """Parse a ``--retriever-arg`` value into int, float, bool, or str."""
    text = raw.strip()
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _benchmark_labeler(args: argparse.Namespace, benchmark):
    """The record-level labeling callable of a synthetic benchmark."""
    labeler = BENCHMARK_LABELERS[args.dataset]
    products = benchmark.record_products

    def record_labeler(left, right):
        return labeler.label_pair(products[left.record_id], products[right.record_id])

    return labeler, record_labeler


def _holdout_corpus(args: argparse.Namespace, benchmark):
    """Split benchmark records into (corpus dataset, held-out query records).

    The last ``--query-holdout`` records are withheld from the corpus so
    the fitted model can be queried with genuinely new records; the
    split is deterministic, so a fresh ``query`` process selects exactly
    the records the ``fit`` process withheld.
    """
    from ..data.records import Dataset

    records = list(benchmark.dataset.records)
    holdout = max(int(args.query_holdout), 0)
    if holdout >= len(records):
        raise SystemExit(
            f"--query-holdout {holdout} would leave no corpus records "
            f"({len(records)} total)"
        )
    if holdout == 0:
        return benchmark.dataset, []
    corpus = Dataset(
        records=records[:-holdout],
        name=benchmark.dataset.name,
        attributes=benchmark.dataset.attributes,
    )
    return corpus, records[-holdout:]


def _dump_query_result(result, path: str) -> None:
    """Persist a query result as a deterministic ``.npz`` artifact."""
    arrays, metadata = result.as_arrays()
    write_artifact(path, arrays, metadata)


def _print_query_result(result) -> None:
    rows = []
    for index, pair in enumerate(result.pairs):
        rows.append(
            [pair.left_id, pair.right_id]
            + [round(float(result.probabilities[intent][index]), 4) for intent in result.intents]
        )
    print(
        format_table(
            ["Left", "Right"] + [f"P({intent})" for intent in result.intents],
            rows,
            title=(
                f"query[{result.mode}]: {len(result.record_ids)} records, "
                f"{len(result.pairs)} candidate pairs"
            ),
        )
    )


def _command_fit(args: argparse.Namespace) -> int:
    """Fit on raw records (minus holdout), persist the model, optionally query."""
    from ..resolver import Resolver as _Resolver

    benchmark = load_benchmark(
        args.dataset,
        num_pairs=args.num_pairs,
        products_per_domain=args.products,
        seed=args.seed,
    )
    labeler, record_labeler = _benchmark_labeler(args, benchmark)
    corpus, holdout_records = _holdout_corpus(args, benchmark)

    blocker_spec: dict[str, object] = {"type": args.blocker}
    if benchmark.dataset.sources:
        blocker_spec["cross_source_only"] = True
    # The retriever mirrors the fit-time blocking semantics: the blocker
    # retriever probes the same blocker configuration's index, and the
    # ANN retriever honours clean-clean source admissibility.
    retriever_spec: dict[str, object] = {"type": args.retriever}
    if args.retriever == "blocker":
        retriever_spec["blocker"] = blocker_spec
    elif benchmark.dataset.sources:
        retriever_spec["cross_source_only"] = True
    for item in args.retriever_arg:
        key, separator, raw = item.partition("=")
        if not separator or not key:
            raise SystemExit(f"--retriever-arg must look like KEY=VALUE, got {item!r}")
        retriever_spec[key] = _coerce_spec_value(raw)
    resolver = _Resolver(
        config=_make_config(args, k_neighbors=args.k, blocker=blocker_spec),
        cache=_make_cache(args),
    )
    model = resolver.fit(
        corpus,
        intents=labeler.intent_names,
        labeler=record_labeler,
        split_seed=args.seed,
        retriever=retriever_spec,
    )
    path = model.save(args.save_model)
    description = model.describe()
    print(
        f"model saved to {path} "
        f"(corpus: {description['corpus_records']} records, "
        f"retriever: {description['retriever']}, "
        f"fingerprint {description['fingerprint'][:12]}…)"
    )
    _print_stage_table(model.fit_result.pipeline)
    if args.dump_query:
        if not holdout_records:
            raise SystemExit("--dump-query requires --query-holdout > 0")
        result = model.query(holdout_records, k=args.query_k, mode=args.query_mode)
        _print_query_result(result)
        _dump_query_result(result, args.dump_query)
        print(f"in-process query artifact written to {args.dump_query}")
    return 0


def _command_query(args: argparse.Namespace) -> int:
    """Load a persisted model in this (fresh) process and query it."""
    from ..model import ResolverModel

    benchmark = load_benchmark(
        args.dataset,
        num_pairs=args.num_pairs,
        products_per_domain=args.products,
        seed=args.seed,
    )
    _, holdout_records = _holdout_corpus(args, benchmark)
    if not holdout_records:
        raise SystemExit("query requires --query-holdout > 0")
    model = ResolverModel.load(args.model, mmap=args.mmap)
    executor = None
    if args.executor != "serial" and args.query_mode == "online":
        # Online micro-batches shard bit-identically across records.
        executor = make_executor(executor_spec(args.executor, args.workers))
    result = model.query(
        holdout_records, k=args.query_k, mode=args.query_mode, executor=executor
    )
    _print_query_result(result)
    if args.dump_result:
        _dump_query_result(result, args.dump_result)
        print(f"query artifact written to {args.dump_result}")
    return 0


def _command_retrieval_eval(args: argparse.Namespace) -> int:
    """Score a persisted model's retriever against the exact ``ann_knn`` oracle."""
    from ..evaluation.retrieval import evaluate_candidates
    from ..model import ResolverModel
    from ..registry.components import CANDIDATE_RETRIEVERS

    benchmark = load_benchmark(
        args.dataset,
        num_pairs=args.num_pairs,
        products_per_domain=args.products,
        seed=args.seed,
    )
    _, holdout_records = _holdout_corpus(args, benchmark)
    if not holdout_records:
        raise SystemExit("retrieval-eval requires --query-holdout > 0")
    ks = tuple(int(value) for value in args.ks.split(",") if value.strip())
    if not ks:
        raise SystemExit("--ks must name at least one candidate-list size")

    model = ResolverModel.load(args.model, mmap=args.mmap)
    spec = model.retriever_spec
    # The oracle re-vectorizes the model's corpus with the retriever's own
    # hashing parameters, so both rank candidates in the same vector space;
    # only the index structure (exact scan vs graph/buckets) differs.
    oracle_spec: dict[str, object] = {"type": "ann_knn"}
    for key in ("metric", "n_features", "attributes", "cross_source_only"):
        if key in spec:
            oracle_spec[key] = spec[key]
    oracle = CANDIDATE_RETRIEVERS.create(oracle_spec)
    oracle.fit(model.corpus)
    if model.tombstones:
        oracle.set_tombstones(model.tombstones)

    quality = evaluate_candidates(model.retriever, oracle, holdout_records, ks=ks)
    summary = quality.summary()
    rows = [[k, quality.recall[k], quality.overlap[k]] for k in quality.ks]
    print(
        format_table(
            ["k", "Recall@k", "Overlap@k"],
            rows,
            title=(
                f"retriever '{spec['type']}' vs exact oracle on {args.dataset}: "
                f"{quality.num_queries} queries, "
                f"{quality.empty_candidate_queries} empty candidate lists"
            ),
        )
    )

    if args.dump_candidates:
        top_k = max(quality.ks)
        candidates = model.retriever.retrieve(holdout_records, top_k)
        width = max((len(ids) for ids in candidates), default=0)
        padded = np.array(
            [list(ids) + [""] * (width - len(ids)) for ids in candidates],
            dtype=np.str_,
        ).reshape(len(candidates), width)
        write_artifact(
            args.dump_candidates,
            {
                "query_ids": np.array(
                    [record.record_id for record in holdout_records], dtype=np.str_
                ),
                "candidates": padded,
            },
            metadata={"k": top_k, "retriever": str(spec["type"])},
        )
        print(f"candidate artifact written to {args.dump_candidates}")

    if args.min_recall is not None:
        headline = float(summary[f"recall@{max(quality.ks)}"])
        if headline < args.min_recall:
            print(
                f"FAIL: recall@{max(quality.ks)} {headline:.3f} "
                f"< floor {args.min_recall:.3f}"
            )
            return 4
        print(
            f"recall@{max(quality.ks)} {headline:.3f} "
            f">= floor {args.min_recall:.3f}"
        )
    return 0


def _command_update(args: argparse.Namespace) -> int:
    """Absorb held-out records (and deletes) into a persisted model."""
    from ..data.pairs import CandidateSet
    from ..data.records import Dataset
    from ..data.splits import DatasetSplit
    from ..datasets import stream_chunks
    from ..model import ResolverModel

    benchmark = load_benchmark(
        args.dataset,
        num_pairs=args.num_pairs,
        products_per_domain=args.products,
        seed=args.seed,
    )
    _, holdout_records = _holdout_corpus(args, benchmark)
    upsert_count = int(args.upsert)
    if upsert_count < 0 or upsert_count > len(holdout_records):
        raise SystemExit(
            f"--upsert must be in [0, {len(holdout_records)}] "
            f"(the --query-holdout size)"
        )
    upserts = holdout_records[:upsert_count]

    # Updates mutate model state, so load eagerly; existing update
    # segments next to the artifact replay automatically.
    model = ResolverModel.load(args.model, mmap=False)

    # A prior update run may already have absorbed leading holdout
    # records; only still-unseen records remain valid query probes.
    probes = [
        record
        for record in holdout_records[upsert_count:]
        if record.record_id not in model.corpus
    ]

    deletes: list[str] = []
    if args.delete_unreferenced:
        referenced = {
            record_id
            for part in (model.split.train, model.split.valid, model.split.test)
            for pair in part.pairs
            for record_id in (pair.left_id, pair.right_id)
        }
        removable = [
            record.record_id
            for record in model.corpus
            if record.record_id not in referenced
            and record.record_id not in model.tombstones
        ]
        if len(removable) < args.delete_unreferenced:
            raise SystemExit(
                f"only {len(removable)} unreferenced corpus records are "
                f"deletable, asked for {args.delete_unreferenced}"
            )
        deletes = removable[: args.delete_unreferenced]

    if not upserts and not deletes:
        raise SystemExit("update requires --upsert > 0 or --delete-unreferenced > 0")

    chunk_size = -(-len(upserts) // max(int(args.chunks), 1)) if upserts else 0
    batches = (
        [list(chunk.records) for chunk in stream_chunks(upserts, chunk_size)]
        if upserts
        else [[]]
    )
    compacted_reasons: list[str] = []
    for position, batch in enumerate(batches):
        last = position == len(batches) - 1
        result = model.update(
            upserts=batch,
            deletes=deletes if last else (),
            compact=args.compact,
        )
        note = (
            f" (compacted: {', '.join(result.compaction_reasons)})"
            if result.compacted
            else ""
        )
        print(
            f"update {position + 1}/{len(batches)}: +{result.upserts} records, "
            f"-{result.deletes} tombstoned, {len(result.new_pairs)} new pairs, "
            f"{len(result.refreshed_pairs)} refreshed pairs{note}"
        )
        if result.compacted:
            compacted_reasons.extend(result.compaction_reasons)

    description = model.describe()
    print(
        f"model: generation {description['update_generations']}, "
        f"{description['corpus_live_records']}/{description['corpus_records']} "
        f"live records, tombstone ratio {description['tombstone_ratio']:.3f}, "
        f"stale supervision {description['stale_supervision']}"
    )

    if probes and (args.dump_result or args.parity_dump):
        result = model.query(probes, k=args.query_k, mode=args.query_mode)
        _print_query_result(result)
        if args.dump_result:
            _dump_query_result(result, args.dump_result)
            print(f"post-update query artifact written to {args.dump_result}")
    elif args.dump_result or args.parity_dump:
        raise SystemExit("--dump-result/--parity-dump need remaining holdout probes")

    if args.parity_dump:
        # The strict contract: a fresh fit on the union corpus — same
        # supervision pairs, re-anchored over the live records — must
        # answer exact-mode queries byte-identically.
        live = Dataset(
            records=[
                record
                for record in model.corpus
                if record.record_id not in model.tombstones
            ],
            name=model.corpus.name,
            attributes=model.corpus.attributes,
        )

        def reanchor(part):
            """Re-anchor a split part's pairs over the union corpus."""
            return CandidateSet(live, pairs=list(part), intents=model.intents)

        fresh_split = DatasetSplit(
            train=reanchor(model.split.train),
            valid=reanchor(model.split.valid),
            test=reanchor(model.split.test),
        )
        runner = PipelineRunner(
            cache=_make_cache(args),
            augment_with_scores=model.augment_with_scores,
            feature_config=model.feature_config,
        )
        fresh = runner.fit_model(
            fresh_split,
            model.intents,
            config=model.config,
            retriever=model.retriever_spec,
        ).model
        parity = fresh.query(probes, k=args.query_k, mode=args.query_mode)
        _dump_query_result(parity, args.parity_dump)
        print(f"fresh-fit parity artifact written to {args.parity_dump}")

    if not args.no_save:
        path = model.save(args.model)
        if model.update_segments:
            print(
                f"model saved to {path} "
                f"(+{len(model.update_segments)} update segment(s), base unchanged)"
            )
        else:
            reasons = ", ".join(compacted_reasons) or "compaction"
            print(f"model rewritten at {path} after {reasons}")
    return 0


def _command_scenario(args: argparse.Namespace) -> int:
    # Imported lazily: the scenarios package pulls in the whole stack
    # (resolver, datasets, batch runner) and most CLI commands never
    # need it.
    from ..scenarios import NAMED_SCENARIOS, named_scenario

    if args.list:
        width = max(len(name) for name in NAMED_SCENARIOS)
        for name in sorted(NAMED_SCENARIOS):
            description = NAMED_SCENARIOS[name]["description"]
            print(f"{name:<{width}}  {description}")
        return 0
    if not args.name:
        raise SystemExit("scenario needs --name (or --list to see the presets)")

    scenario = named_scenario(args.name)
    executor = executor_spec(args.executor, args.workers)
    report = scenario.run(seed=args.seed, executor=executor, name=args.name)
    print(report.matrix_table())
    for key in ("final_macro_f1", "final_exact_parity", "per_level_macro_f1"):
        if key in report.summary:
            print(f"{key}: {report.summary[key]}")
    if args.report:
        path = report.write(args.report, include_timings=False)
        print(f"deterministic scenario report written to {path}")
    if args.timings:
        path = report.write(args.timings, include_timings=True)
        print(f"scenario report with timings written to {path}")
    return 0


def _command_cache(args: argparse.Namespace) -> int:
    if not args.cache_dir:
        print("no cache directory given (use --cache-dir or $REPRO_CACHE_DIR)")
        return 2
    cache = ArtifactCache(CacheConfig(directory=args.cache_dir))
    if args.clear:
        cache.clear()
        print(f"cleared artifact cache at {args.cache_dir}")
        return 0
    for key, value in cache.describe().items():
        print(f"{key}: {value}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Run the pipeline CLI; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _command_run(args)
    if args.command == "resolve":
        return _command_resolve(args)
    if args.command == "fit":
        return _command_fit(args)
    if args.command == "query":
        return _command_query(args)
    if args.command == "update":
        return _command_update(args)
    if args.command == "retrieval-eval":
        return _command_retrieval_eval(args)
    if args.command == "sweep-k":
        return _command_sweep_k(args)
    if args.command == "scenario":
        return _command_scenario(args)
    return _command_cache(args)


if __name__ == "__main__":
    sys.exit(main())
