"""Shared infrastructure of the experiment harness.

Every ``bench_*.py`` module regenerates one table or figure of the paper's
evaluation (Section 5).  Heavy artifacts — synthetic benchmarks, fitted
matchers, FlexER runs — are computed through the staged
:class:`repro.pipeline.PipelineRunner` with one :class:`ArtifactCache`
shared across all tables, so e.g. the Table 8 ``k`` sweep and the
Figure 6 intent-subset grid reuse the matchers and representations
trained for Table 5 instead of recomputing them.  Each benchmark function
times one representative, self-contained piece of the computation through
``pytest-benchmark``.

Scale is controlled by environment variables so the harness can be run
quickly (defaults) or closer to paper scale:

* ``REPRO_BENCH_PAIRS`` — candidate pairs per dataset (default 240)
* ``REPRO_BENCH_PRODUCTS`` — products per domain (default 20)
* ``REPRO_BENCH_MATCHER_EPOCHS`` — matcher training epochs (default 20)
* ``REPRO_BENCH_GNN_EPOCHS`` — GraphSAGE training epochs (default 40)
* ``REPRO_BENCH_SMOKE`` — set to any non-empty value for smoke scale

A ``--smoke`` pytest option (see ``conftest.py``) or ``REPRO_BENCH_SMOKE``
switches to :meth:`BenchSettings.smoke` — tiny dataset sizes and single
training epochs — so CI can exercise the harness end-to-end in seconds.

Formatted result tables are printed and also written to
``benchmarks/results/``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path

from repro.config import FlexERConfig, GNNConfig, GraphConfig, MatcherConfig
from repro.core import MIERSolution
from repro.datasets import MIERBenchmark, load_benchmark
from repro.evaluation import MultiIntentEvaluation, evaluate_solution
from repro.matching import InParallelSolver, MultiLabelSolver, NaiveSolver, PairFeatureConfig
from repro.pipeline import ArtifactCache, PipelineResult, PipelineRunner

RESULTS_DIR = Path(__file__).parent / "results"

#: Benchmark datasets in the order used by the paper.
DATASET_NAMES = ("amazon_mi", "walmart_amazon", "wdc")


def _env_int(name: str, default: int) -> int:
    value = os.environ.get(name)
    return int(value) if value else default


@dataclass(frozen=True)
class BenchSettings:
    """Scale knobs of the experiment harness."""

    num_pairs: int = _env_int("REPRO_BENCH_PAIRS", 500)
    products_per_domain: int = _env_int("REPRO_BENCH_PRODUCTS", 30)
    matcher_epochs: int = _env_int("REPRO_BENCH_MATCHER_EPOCHS", 20)
    gnn_epochs: int = _env_int("REPRO_BENCH_GNN_EPOCHS", 120)
    seed: int = _env_int("REPRO_BENCH_SEED", 42)
    #: Smoke mode: model-quality shape assertions (FlexER vs. baselines)
    #: are skipped because one-epoch models are not expected to rank.
    smoke: bool = False

    @classmethod
    def make_smoke(cls) -> "BenchSettings":
        """Smoke-scale settings: tiny datasets, one training epoch.

        Used by the CI smoke job (``pytest benchmarks/... --smoke``) to
        exercise the full harness path in seconds.
        """
        return cls(
            num_pairs=120,
            products_per_domain=10,
            matcher_epochs=1,
            gnn_epochs=1,
            smoke=True,
        )

    def flexer_config(self, k_neighbors: int = 6, gnn_epochs: int | None = None) -> FlexERConfig:
        """The FlexER configuration used throughout the harness."""
        return FlexERConfig(
            matcher=MatcherConfig(
                hidden_dims=(64, 32),
                n_features=256,
                epochs=self.matcher_epochs,
                seed=self.seed,
            ),
            graph=GraphConfig(k_neighbors=k_neighbors),
            gnn=GNNConfig(
                hidden_dim=48,
                epochs=gnn_epochs if gnn_epochs is not None else self.gnn_epochs,
                seed=self.seed,
            ),
        )

    @property
    def feature_config(self) -> PairFeatureConfig:
        """Pair feature encoding used by the baselines."""
        return PairFeatureConfig(n_features=160)


class ExperimentStore:
    """Lazily computed, cached experiment artifacts shared across tables.

    FlexER runs execute through the staged pipeline with one shared
    artifact cache, so every table reuses the stages (matcher-fit,
    representation, graph, per-intent GNN) computed by earlier tables.
    """

    def __init__(self, settings: BenchSettings) -> None:
        self.settings = settings
        self.cache = ArtifactCache()
        self._runner: PipelineRunner | None = None
        self._benchmarks: dict[str, MIERBenchmark] = {}
        self._baselines: dict[tuple[str, str], tuple[MIERSolution, MultiIntentEvaluation]] = {}
        self._flexer_results: dict[tuple, PipelineResult] = {}

    # --------------------------------------------------------------- datasets

    def benchmark(self, name: str) -> MIERBenchmark:
        """The synthetic benchmark ``name`` at harness scale."""
        if name not in self._benchmarks:
            self._benchmarks[name] = load_benchmark(
                name,
                num_pairs=self.settings.num_pairs,
                products_per_domain=self.settings.products_per_domain,
                seed=self.settings.seed,
            )
        return self._benchmarks[name]

    # --------------------------------------------------------------- baselines

    def baseline(
        self, dataset: str, solver_name: str
    ) -> tuple[MIERSolution, MultiIntentEvaluation]:
        """Fit + predict a baseline solver on ``dataset`` (cached)."""
        key = (dataset, solver_name)
        if key not in self._baselines:
            benchmark = self.benchmark(dataset)
            split = benchmark.split
            config = self.settings.flexer_config()
            factories = {
                "naive": lambda: NaiveSolver(
                    benchmark.intents,
                    matcher_config=config.matcher,
                    feature_config=self.settings.feature_config,
                ),
                "in_parallel": lambda: InParallelSolver(
                    benchmark.intents,
                    matcher_config=config.matcher,
                    feature_config=self.settings.feature_config,
                ),
                "multi_label": lambda: MultiLabelSolver(
                    benchmark.intents,
                    matcher_config=config.matcher,
                    feature_config=self.settings.feature_config,
                ),
            }
            solver = factories[solver_name]()
            solver.fit(split.train)
            solution = MIERSolution.from_mapping(
                split.test, solver.predict(split.test), solver_name=solver_name
            )
            self._baselines[key] = (solution, evaluate_solution(solution))
        return self._baselines[key]

    # ----------------------------------------------------------------- flexer

    @property
    def runner(self) -> PipelineRunner:
        """The one staged runner shared by every table (one cache).

        The solver is no longer a runner property: it is a registry spec
        on each run's config (``FlexERConfig.solver``), so one runner
        serves every representation-source variant.
        """
        if self._runner is None:
            self._runner = PipelineRunner(cache=self.cache)
        return self._runner

    def pipeline_result(
        self,
        dataset: str,
        config: FlexERConfig | None = None,
        intent_subset: tuple[str, ...] | None = None,
        target_intents: tuple[str, ...] | None = None,
        solver: str = "in_parallel",
    ) -> PipelineResult:
        """Run the staged pipeline on ``dataset`` (artifact-cached)."""
        benchmark = self.benchmark(dataset)
        config = config or self.settings.flexer_config()
        if solver != "in_parallel":
            config = replace(config, solver=solver)
        return self.runner.run(
            benchmark.split,
            benchmark.intents,
            config=config,
            intent_subset=intent_subset,
            target_intents=target_intents,
        )

    def flexer_result(
        self,
        dataset: str,
        intent_subset: tuple[str, ...] | None = None,
        target_intents: tuple[str, ...] | None = None,
        k_neighbors: int | None = None,
    ) -> PipelineResult:
        """A FlexER prediction run with optional graph variations.

        Routed through the staged pipeline: repeated variations reuse
        the cached matcher-fit and representation artifacts.
        """
        key = (dataset, intent_subset, target_intents, k_neighbors)
        if key not in self._flexer_results:
            config = self.settings.flexer_config(
                k_neighbors=k_neighbors if k_neighbors is not None else 6
            )
            self._flexer_results[key] = self.pipeline_result(
                dataset,
                config=config,
                intent_subset=intent_subset,
                target_intents=target_intents,
            )
        return self._flexer_results[key]

    def flexer_evaluation(self, dataset: str) -> MultiIntentEvaluation:
        """Evaluation of the full FlexER run on ``dataset``."""
        return evaluate_solution(self.flexer_result(dataset).solution)


def publish(name: str, text: str) -> None:
    """Print a result table and persist it under ``benchmarks/results/``."""
    print(f"\n{text}\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
