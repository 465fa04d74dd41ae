"""Show that multi-intent information improves *universal* entity resolution.

The paper's Section 5.4/5.5 finding: even when the goal is only the
classic, single-intent (equivalence) resolution, training FlexER with
additional intent layers improves the equivalence F1 over the per-intent
matcher, and using more intent layers helps more (Figure 6).

The script rebuilds the multiplex graph with growing intent subsets
({Eq}, {Eq, Brand}, ..., all intents) and reports the equivalence-intent
F1 of each configuration next to the plain In-parallel matcher baseline.
All runs share one :class:`~repro.pipeline.PipelineRunner`, so the
matchers train once: later runs restore them from the runner's cache.

Run with::

    python examples/universal_er_improvement.py
"""

from __future__ import annotations

from repro import FlexERConfig, load_benchmark
from repro.core import MIERSolution
from repro.evaluation import evaluate_binary, format_table
from repro.matching import InParallelSolver
from repro.pipeline import PipelineRunner

EQUIVALENCE = "equivalence"


def main() -> None:
    benchmark = load_benchmark("amazon_mi", num_pairs=220, products_per_domain=18, seed=21)
    split = benchmark.split
    config = FlexERConfig.fast()
    labels = split.test.labels(EQUIVALENCE)

    # Baseline: the equivalence matcher alone (universal entity resolution).
    baseline = InParallelSolver(benchmark.intents, matcher_config=config.matcher)
    baseline.fit(split.train)
    baseline_prediction = baseline.predict(split.test)[EQUIVALENCE]
    baseline_f1 = evaluate_binary(baseline_prediction, labels).f1

    # FlexER with growing intent subsets (always containing equivalence).
    runner = PipelineRunner()
    rows = [["matcher only (DITTO analogue)", 1, baseline_f1]]
    for size in range(1, len(benchmark.intents) + 1):
        subset = benchmark.intents[:size]
        result = runner.run(
            split,
            benchmark.intents,
            config,
            intent_subset=subset,
            target_intents=(EQUIVALENCE,),
        )
        f1 = evaluate_binary(result.solution.prediction(EQUIVALENCE), labels).f1
        rows.append([" + ".join(subset), size, f1])

    print(format_table(
        ["Configuration", "#intent layers", "equivalence F1"],
        rows,
        title="Universal ER with multi-intent information (AmazonMI, cf. Figure 6)",
    ))

    solution = MIERSolution.from_mapping(
        split.test, {EQUIVALENCE: baseline_prediction}, solver_name="baseline"
    )
    matched = len(solution.resolution(EQUIVALENCE))
    print(f"\nbaseline resolution size on the test split: {matched} matched pairs")


if __name__ == "__main__":
    main()
