"""``python -m repro.perf`` — run the performance suite and track the trajectory.

Examples
--------
Run the smoke matrix and write the report::

    python -m repro.perf --smoke --output BENCH_perf.json

Check a fresh smoke run against the committed baseline (exit code 2 on a
regression beyond the threshold)::

    python -m repro.perf --smoke --check-against BENCH_perf.json
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from .bench import (
    RETRIEVAL_SCALE_SIZES,
    RETRIEVAL_SCALE_SMOKE_SIZES,
    SCHEMA_VERSION,
    check_regression,
    load_report,
    run_perf_suite,
    write_report,
)


def _counts(text: str) -> tuple[int, ...]:
    """Parse a comma-separated list of integers >= 1 (an argparse ``type``)."""
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None
    if min(values) < 1:
        raise argparse.ArgumentTypeError(f"expected integers >= 1, got {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Run the pinned performance workload matrix and emit BENCH_perf.json",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the tiny Table 9 smoke workload instead of the full matrix",
    )
    parser.add_argument(
        "--output",
        default="BENCH_perf.json",
        help="path of the JSON report (default: %(default)s)",
    )
    parser.add_argument(
        "--check-against",
        metavar="BASELINE",
        default=None,
        help="compare against a committed BENCH_perf.json; exit 2 on regression",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.5,
        help="allowed fractional end-to-end wall-time regression (default: %(default)s)",
    )
    parser.add_argument(
        "--scaling",
        action="store_true",
        help="add the sharded-execution scaling-curve section per workload",
    )
    parser.add_argument(
        "--scaling-workers",
        type=_counts,
        default="1,2,4",
        help="comma-separated worker counts of the scaling curve (default: %(default)s)",
    )
    parser.add_argument(
        "--scaling-executor",
        default="processes",
        choices=("threads", "processes"),
        help="executor the scaling curve shards over (default: %(default)s)",
    )
    parser.add_argument(
        "--query-latency",
        action="store_true",
        help=(
            "add the query-latency section per workload: fit a ResolverModel "
            "once, then profile online query() micro-batches (p50/p95)"
        ),
    )
    parser.add_argument(
        "--retrieval-scale",
        action="store_true",
        help=(
            "add the retrieval-scale section: build the hnsw/lsh sub-linear "
            "retrievers over seeded synthetic corpora and report build time, "
            "query p50/p95, RSS, and recall@k vs the exact ann_knn oracle"
        ),
    )
    parser.add_argument(
        "--retrieval-scale-sizes",
        type=_counts,
        default=None,
        metavar="SIZES",
        help=(
            "comma-separated corpus sizes of the retrieval-scale curve "
            "(default: 10000,100000,1000000; 1000,4000 with --smoke)"
        ),
    )
    parser.add_argument(
        "--scenarios",
        default=None,
        metavar="NAMES",
        help=(
            "add the workload-scenario section: run the comma-separated "
            "named scenarios (or 'headline' for the gated smoke set) and "
            "record their quality x latency matrices"
        ),
    )
    parser.add_argument(
        "--serve-load",
        action="store_true",
        help=(
            "add the serve-load section per workload: closed/open-loop load "
            "generation against the repro.serve micro-batching server "
            "(p50/p95/p99 latency + max sustained QPS)"
        ),
    )
    return parser


def _print_summary(report: dict[str, object]) -> None:
    summary = report["summary"]
    print(f"repro.perf report (schema v{SCHEMA_VERSION})")
    print(f"  workloads:            {summary['num_workloads']}")
    print(f"  end-to-end wall:      {summary['end_to_end_wall_seconds']:.3f}s")
    for entry in report["workloads"]:
        workload = entry["workload"]
        vectorized = entry["vectorized"]
        print(
            f"  [{workload['name']}] {vectorized['end_to_end_wall_seconds']:.3f}s, "
            f"{vectorized['num_candidate_pairs']} pairs"
        )
        for kernel in entry["kernels"]:
            speedup = kernel["speedup"]
            speedup_text = f"{speedup:.2f}x" if speedup is not None else "n/a"
            marker = "" if kernel["equivalent"] else "  [NOT EQUIVALENT]"
            print(
                f"      kernel {kernel['name']}: {speedup_text} "
                f"({kernel['loop_seconds']:.4f}s -> {kernel['vectorized_seconds']:.4f}s)"
                f"{marker}"
            )
        latency = entry.get("query_latency")
        if latency:
            print(
                f"      query latency [online, k={latency['k']}] "
                f"(fit once: {latency['fit_seconds']:.3f}s, "
                f"warm-up {latency['session_warmup_seconds']:.4f}s):"
            )
            for batch in latency["batches"]:
                print(
                    f"        batch={batch['batch_size']}: "
                    f"p50 {batch['p50_seconds'] * 1000:.1f}ms, "
                    f"p95 {batch['p95_seconds'] * 1000:.1f}ms "
                    f"({batch['mean_seconds_per_record'] * 1000:.1f}ms/record)"
                )
        serve_load = entry.get("serve_load")
        if serve_load:
            print(
                f"      serve load [online, k={serve_load['k']}] "
                f"(max sustained {serve_load['max_sustained_qps']:.1f} QPS):"
            )
            for level in serve_load["closed_loop"]:
                print(
                    f"        closed c={level['concurrency']}: "
                    f"{level['qps']:.1f} QPS, p50 {level['p50_ms']:.1f}ms, "
                    f"p95 {level['p95_ms']:.1f}ms, p99 {level['p99_ms']:.1f}ms"
                )
            open_loop = serve_load["open_loop"]
            print(
                f"        open @{open_loop['target_qps']:.1f} QPS: "
                f"achieved {open_loop['achieved_qps']:.1f}, "
                f"p50 {open_loop['p50_ms']:.1f}ms, p99 {open_loop['p99_ms']:.1f}ms, "
                f"rejected {open_loop['rejected']}, "
                f"timed out {open_loop['timed_out']}"
            )
        scaling = entry.get("scaling")
        if scaling:
            print(
                f"      scaling [{scaling['executor']}] "
                f"({scaling['available_cpus']} CPUs available):"
            )
            for point in scaling["entries"]:
                speedup = point.get("end_to_end_speedup")
                speedup_text = f"{speedup:.2f}x" if speedup is not None else "n/a"
                print(
                    f"        {point['workers']} worker(s): "
                    f"{point['end_to_end_wall_seconds']:.3f}s ({speedup_text})"
                )


def _print_retrieval_scale(section: dict[str, object]) -> None:
    print(
        f"  retrieval scale [k={section['k']}, n_features={section['n_features']}, "
        f"{section['num_queries']} queries/size]:"
    )
    for entry in section["entries"]:
        exact = entry["exact"]
        print(
            f"    n={entry['num_records']}: exact p50 {exact['query_p50_ms']:.2f}ms, "
            f"vectorize {entry['vectorize_seconds']:.1f}s, "
            f"rss {entry['rss_bytes'] / (1 << 20):.0f}MiB"
        )
        for name, stats in entry["retrievers"].items():
            extras = ""
            if "mean_candidates_per_query" in stats:
                extras = f", {stats['mean_candidates_per_query']:.0f} cands/q"
            print(
                f"      {name}: build {stats['build_seconds']:.1f}s, "
                f"p50 {stats['query_p50_ms']:.2f}ms, p95 {stats['query_p95_ms']:.2f}ms, "
                f"recall@{section['k']} {stats['recall@' + str(section['k'])]:.3f}, "
                f"{stats['speedup_vs_exact_p50']:.1f}x vs exact{extras}"
            )
    growth = section.get("growth") or {}
    if growth:
        factors = ", ".join(
            f"{key.removesuffix('_query_p50_factor')} {value:.1f}x"
            for key, value in growth.items()
            if key.endswith("_query_p50_factor") and value is not None
        )
        print(
            f"    growth over {growth['size_factor']:.0f}x corpus: "
            f"query p50 {factors}"
        )


def _print_scenarios(section: dict[str, object]) -> None:
    print(f"  workload scenarios (seed {section['seed']}):")
    for name, entry in sorted(section["scenarios"].items()):
        macro = entry.get("headline_macro_f1")
        macro_text = f"{macro:.4f}" if macro is not None else "n/a"
        cells = len(entry["report"].get("matrix", []))
        print(
            f"    [{name}] {cells} cells, headline macro F1 {macro_text}, "
            f"{entry['wall_seconds']:.1f}s"
        )


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    scaling_workers = args.scaling_workers if args.scaling else None
    retrieval_scale_sizes = None
    if args.retrieval_scale:
        retrieval_scale_sizes = args.retrieval_scale_sizes or (
            RETRIEVAL_SCALE_SMOKE_SIZES if args.smoke else RETRIEVAL_SCALE_SIZES
        )
    scenario_names = None
    if args.scenarios:
        if args.scenarios.strip() == "headline":
            from ..scenarios import HEADLINE_SCENARIOS

            scenario_names = HEADLINE_SCENARIOS
        else:
            scenario_names = tuple(
                value.strip() for value in args.scenarios.split(",") if value.strip()
            )
    report = run_perf_suite(
        smoke=args.smoke,
        scaling_workers=scaling_workers,
        scaling_executor=args.scaling_executor,
        measure_query_latency=args.query_latency,
        measure_serve_load=args.serve_load,
        retrieval_scale_sizes=retrieval_scale_sizes,
        scenario_names=scenario_names,
    )
    path = write_report(report, args.output)
    _print_summary(report)
    if report.get("retrieval_scale"):
        _print_retrieval_scale(report["retrieval_scale"])
    if report.get("scenarios"):
        _print_scenarios(report["scenarios"])
    print(f"report written to {path}")

    kernels_broken = [
        kernel["name"]
        for entry in report["workloads"]
        for kernel in entry["kernels"]
        if not kernel["equivalent"]
    ]
    if kernels_broken:
        print(f"ERROR: kernels diverged from the loop reference: {kernels_broken}")
        return 3

    if args.check_against:
        baseline = load_report(args.check_against)
        problems = check_regression(report, baseline, max_regression=args.max_regression)
        if problems:
            for problem in problems:
                print(f"REGRESSION: {problem}")
            return 2
        print(
            f"no regression vs {args.check_against} "
            f"(threshold +{args.max_regression:.0%})"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
