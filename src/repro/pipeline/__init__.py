"""Staged FlexER pipeline orchestration with content-addressed caching.

The subsystem runs FlexER on a dataset split as addressable stages
(matcher-fit → representation → graph-build → per-intent GNN), caches
each stage's artifact under a fingerprint of its config + input data,
and executes (dataset × config) scenario grids with shared caching:

>>> from repro import load_benchmark
>>> from repro.pipeline import PipelineRunner
>>> from repro.config import FlexERConfig
>>> benchmark = load_benchmark("amazon_mi", num_pairs=150, products_per_domain=15)
>>> runner = PipelineRunner()
>>> cold = runner.run(benchmark.split, benchmark.intents, FlexERConfig.fast())
>>> warm = runner.run(benchmark.split, benchmark.intents, FlexERConfig.fast())
>>> warm.computed_stages
()

See :mod:`repro.pipeline.cli` for the command-line entry point.
"""

from .cache import Artifact, ArtifactCache, CacheStats, stage_artifact
from .fingerprint import (
    canonical_json,
    digest,
    fingerprint_array,
    fingerprint_candidates,
    fingerprint_split,
)
from .runner import (
    STAGE_GNN,
    STAGE_GRAPH_BUILD,
    STAGE_MATCHER_FIT,
    STAGE_MODEL,
    STAGE_REPRESENTATION,
    STATUS_COMPUTED,
    STATUS_HIT,
    ModelFitResult,
    PipelineResult,
    PipelineRunner,
    StageEvent,
)
from .batch import BatchRunner, Scenario, ScenarioRun, intent_subset_grid, k_sweep, solver_grid

__all__ = [
    "Artifact",
    "ArtifactCache",
    "CacheStats",
    "stage_artifact",
    "canonical_json",
    "digest",
    "fingerprint_array",
    "fingerprint_candidates",
    "fingerprint_split",
    "STAGE_GNN",
    "STAGE_GRAPH_BUILD",
    "STAGE_MATCHER_FIT",
    "STAGE_MODEL",
    "STAGE_REPRESENTATION",
    "STATUS_COMPUTED",
    "STATUS_HIT",
    "ModelFitResult",
    "PipelineResult",
    "PipelineRunner",
    "StageEvent",
    "BatchRunner",
    "Scenario",
    "ScenarioRun",
    "intent_subset_grid",
    "k_sweep",
    "solver_grid",
]
