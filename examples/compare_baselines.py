"""Compare FlexER against the paper's MIER baselines on one benchmark.

Reproduces a miniature Table 5: the Naïve (one-size-fits-all),
In-parallel (one matcher per intent), and Multi-label (joint training)
baselines against FlexER, reporting MI-P / MI-R / MI-F / MI-Acc and the
reduction of residual error of FlexER over the In-parallel baseline.

Run with::

    python examples/compare_baselines.py [amazon_mi|walmart_amazon|wdc]
"""

from __future__ import annotations

import sys

from repro import FlexERConfig, evaluate_solution, load_benchmark
from repro.core import MIERSolution
from repro.evaluation import format_table, multi_intent_error_reduction
from repro.matching import InParallelSolver, MultiLabelSolver, NaiveSolver
from repro.pipeline import PipelineRunner


def main(dataset_name: str = "amazon_mi") -> None:
    benchmark = load_benchmark(dataset_name, num_pairs=200, products_per_domain=15, seed=11)
    split = benchmark.split
    config = FlexERConfig.fast()
    print(f"dataset: {dataset_name}  intents: {', '.join(benchmark.intents)}\n")

    evaluations = {}
    solvers = {
        "Naive": NaiveSolver(benchmark.intents, matcher_config=config.matcher),
        "In-parallel": InParallelSolver(benchmark.intents, matcher_config=config.matcher),
        "Multi-label": MultiLabelSolver(benchmark.intents, matcher_config=config.matcher),
    }
    for name, solver in solvers.items():
        solver.fit(split.train)
        solution = MIERSolution.from_mapping(
            split.test, solver.predict(split.test), solver_name=name
        )
        evaluations[name] = evaluate_solution(solution)

    result = PipelineRunner().run(split, benchmark.intents, config)
    evaluations["FlexER"] = evaluate_solution(result.solution)

    rows = []
    for name, evaluation in evaluations.items():
        error_reduction = (
            multi_intent_error_reduction(evaluation, evaluations["In-parallel"], "MI-F")
            if name == "FlexER"
            else float("nan")
        )
        rows.append([
            name,
            evaluation.mi_precision,
            evaluation.mi_recall,
            evaluation.mi_f1,
            evaluation.mi_accuracy,
            error_reduction,
        ])
    print(format_table(
        ["Model", "MI-P", "MI-R", "MI-F", "MI-Acc", "MI-E_F %"],
        rows,
        title=f"MIER results on {dataset_name} (miniature Table 5)",
    ))


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "amazon_mi")
