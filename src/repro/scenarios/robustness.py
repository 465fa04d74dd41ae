"""The robustness-grid scenario: corruption levels × component specs.

Crosses the field-level corruption axes of
:class:`~repro.datasets.perturb.RecordPerturber` (typo rate, dropped
fields, swapped fields, schema renames — the *mixed schemas* axis) with
registry component specs, producing one quality×latency matrix cell per
``(corruption level, component)`` combination:

* **solver cells** run the staged pipeline over the benchmark's
  supervision split re-anchored onto the corrupted corpus, via
  :func:`~repro.pipeline.batch.solver_grid` and a shared
  :class:`~repro.pipeline.batch.BatchRunner` (so cells that share
  upstream stages reuse cached artifacts);
* **blocker cells** resolve the corrupted corpus end to end from raw
  records, measuring how corruption degrades candidate generation
  (pair completeness) on top of downstream F1;
* **retriever cells** fit a model on the corrupted corpus and answer
  online probe queries through the given candidate retriever.

The corrupted corpora are *enriched* multi-field records (title, brand,
category, model) built from the benchmark's ground-truth products, with
the pair feature schema pinned to those attributes — so a schema rename
genuinely removes a field from the matcher's view instead of being a
cosmetic key change.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from ..data.pairs import CandidateSet
from ..data.records import Dataset, Record
from ..data.splits import DatasetSplit
from ..datasets import benchmark_labeler
from ..evaluation import evaluate_binary
from ..matching.features import PairFeatureConfig
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

__all__ = ["RobustnessGridScenario", "DEFAULT_LEVELS", "ENRICHED_SCHEMA"]

#: Default corruption levels: scale factors applied to the base
#: per-record corruption probabilities.
DEFAULT_LEVELS: tuple[dict[str, object], ...] = (
    {"name": "clean", "scale": 0.0},
    {"name": "moderate", "scale": 1.0},
    {"name": "heavy", "scale": 2.5},
)

#: Attribute schema of the enriched robustness corpus.  The pair
#: feature configuration is pinned to exactly these attributes.
ENRICHED_SCHEMA = ("title", "brand", "category", "model")


def _enriched_dataset(benchmark) -> Dataset:
    """Multi-field robustness corpus built from the benchmark products.

    Benchmark records carry only a (noisy) title; field-level corruption
    axes need fields.  Each record is widened with its ground-truth
    product's brand, main category, and model line, keeping the record
    id and source so the benchmark's supervision pairs re-anchor
    unchanged.
    """
    products = benchmark.record_products
    records = []
    for record in benchmark.dataset.records:
        product = products[record.record_id]
        records.append(
            Record(
                record_id=record.record_id,
                values={
                    "title": record.values.get("title", product.title),
                    "brand": product.brand,
                    "category": product.main_category,
                    "model": product.model,
                },
                source=record.source,
            )
        )
    return Dataset(
        records=records, name=benchmark.dataset.name, attributes=ENRICHED_SCHEMA
    )


def _macro(f1: dict[str, float]) -> float:
    """Macro average of a per-intent F1 dict."""
    return round(float(np.mean(list(f1.values()))) if f1 else 0.0, QUALITY_DIGITS)


class RobustnessGridScenario(WorkloadScenario):
    """Corruption-level × component-spec quality grid.

    Parameters
    ----------
    dataset, num_pairs, products, matcher_epochs, gnn_epochs, k_neighbors:
        Benchmark scale and model configuration.
    levels:
        Corruption levels as ``{"name": ..., "scale": ...}`` dicts; the
        scale multiplies the base probabilities below (0 = clean).
    p_drop_field, p_swap_fields, p_rename_field, p_value_typo:
        Base per-record corruption probabilities at scale 1.
    solver_specs, blocker_specs, retriever_specs:
        Component specs crossed with every level.  At least one spec in
        total is required; the named grids use ≥3 levels × ≥3 specs.
    probe_count, query_k:
        Probe set for retriever cells (withheld from their fit corpus).
    """

    spec_type = "robustness_grid"

    def __init__(
        self,
        dataset: str = "amazon_mi",
        num_pairs: int = 120,
        products: int = 10,
        matcher_epochs: int = 2,
        gnn_epochs: int = 4,
        levels: object = DEFAULT_LEVELS,
        p_drop_field: float = 0.12,
        p_swap_fields: float = 0.06,
        p_rename_field: float = 0.18,
        p_value_typo: float = 0.25,
        solver_specs: object = ("in_parallel", "multi_label", "naive"),
        blocker_specs: object = (),
        retriever_specs: object = (),
        probe_count: int = 5,
        query_k: int = 4,
        k_neighbors: int = 6,
    ) -> None:
        super().__init__(
            dataset=dataset,
            num_pairs=num_pairs,
            products=products,
            matcher_epochs=matcher_epochs,
            gnn_epochs=gnn_epochs,
            levels=[dict(level) for level in levels],
            p_drop_field=p_drop_field,
            p_swap_fields=p_swap_fields,
            p_rename_field=p_rename_field,
            p_value_typo=p_value_typo,
            solver_specs=list(solver_specs),
            blocker_specs=list(blocker_specs),
            retriever_specs=list(retriever_specs),
            probe_count=probe_count,
            query_k=query_k,
            k_neighbors=k_neighbors,
        )
        self.dataset = dataset
        self.num_pairs = int(num_pairs)
        self.products = int(products)
        self.matcher_epochs = int(matcher_epochs)
        self.gnn_epochs = int(gnn_epochs)
        self.levels = [dict(level) for level in levels]
        self.p_drop_field = float(p_drop_field)
        self.p_swap_fields = float(p_swap_fields)
        self.p_rename_field = float(p_rename_field)
        self.p_value_typo = float(p_value_typo)
        self.solver_specs = list(solver_specs)
        self.blocker_specs = list(blocker_specs)
        self.retriever_specs = list(retriever_specs)
        self.probe_count = int(probe_count)
        self.query_k = int(query_k)
        self.k_neighbors = int(k_neighbors)
        require(len(self.levels) >= 1, "the grid needs at least one level")
        for level in self.levels:
            require(
                bool(str(level.get("name", ""))),
                f"every level needs a non-empty name, got {level!r}",
            )
            require(
                float(level.get("scale", -1.0)) >= 0.0,
                f"level scales must be >= 0, got {level!r}",
            )
        names = [str(level["name"]) for level in self.levels]
        require(
            len(set(names)) == len(names), f"level names must be unique, got {names}"
        )
        require(
            len(self.solver_specs)
            + len(self.blocker_specs)
            + len(self.retriever_specs)
            >= 1,
            "the grid needs at least one component spec",
        )

    # -------------------------------------------------------------------- run

    def run(
        self, seed: int = 0, executor: object = None, name: str | None = None
    ) -> ScenarioReport:
        """Run every (level × component) cell and return the report."""
        from ..datasets import FieldCorruptionConfig, RecordPerturber

        run_start = time.perf_counter()
        benchmark = load_scenario_benchmark(
            self.dataset, self.num_pairs, self.products, seed
        )
        labeler, record_labeler = benchmark_labeler(benchmark)
        enriched = _enriched_dataset(benchmark)
        feature_config = PairFeatureConfig(attributes=ENRICHED_SCHEMA)

        blocker_spec: dict[str, object] = {"type": "qgram"}
        if enriched.sources:
            blocker_spec["cross_source_only"] = True
        base_config = make_scenario_config(
            seed,
            self.matcher_epochs,
            self.gnn_epochs,
            k_neighbors=self.k_neighbors,
            executor=executor if executor is not None else "serial",
            blocker=blocker_spec,
        )
        base_corruption = FieldCorruptionConfig(
            p_drop_field=self.p_drop_field,
            p_swap_fields=self.p_swap_fields,
            p_rename_field=self.p_rename_field,
            p_value_typo=self.p_value_typo,
        )

        matrix: list[dict[str, object]] = []
        cell_timings: dict[str, dict[str, object]] = {}
        level_summaries: list[dict[str, object]] = []
        context = {
            "benchmark": benchmark,
            "labeler": labeler,
            "record_labeler": record_labeler,
            "base_config": base_config,
            "feature_config": feature_config,
            "blocker_spec": blocker_spec,
            "seed": int(seed),
        }

        for level_index, level in enumerate(self.levels):
            level_name = str(level["name"])
            scale = float(level["scale"])
            rng = np.random.default_rng([int(seed), level_index])
            perturber = RecordPerturber(config=base_corruption.scaled(scale), rng=rng)
            corrupted = perturber.corrupt_dataset(
                enriched, name=f"{enriched.name}-{level_name}"
            )
            missing = sum(
                1
                for record in corrupted.records
                for attribute in ENRICHED_SCHEMA
                if record.values.get(attribute) is None
            )
            level_summaries.append(
                {
                    "name": level_name,
                    "scale": scale,
                    "num_attributes": len(corrupted.attributes or ()),
                    "missing_schema_values": missing,
                }
            )
            self._run_solver_cells(corrupted, level_name, context, matrix, cell_timings)
            self._run_blocker_cells(corrupted, level_name, context, matrix, cell_timings)
            self._run_retriever_cells(
                corrupted, level_name, context, matrix, cell_timings
            )

        summary = self._summarize(matrix, level_summaries)
        timings: dict[str, object] = {
            "cells": cell_timings,
            "total_seconds": round(time.perf_counter() - run_start, 6),
        }
        return ScenarioReport(
            name=name or self.spec_type,
            scenario=self.to_spec(),
            seed=int(seed),
            matrix=matrix,
            summary=summary,
            timings=timings,
        )

    # ------------------------------------------------------------------ cells

    def _reanchored_split(self, benchmark, corrupted: Dataset) -> DatasetSplit:
        """The benchmark's supervision split over the corrupted corpus."""

        def reanchor(part):
            return CandidateSet(corrupted, pairs=list(part), intents=benchmark.intents)

        return DatasetSplit(
            train=reanchor(benchmark.split.train),
            valid=reanchor(benchmark.split.valid),
            test=reanchor(benchmark.split.test),
        )

    def _run_solver_cells(
        self, corrupted, level_name, context, matrix, cell_timings
    ) -> None:
        if not self.solver_specs:
            return
        from ..pipeline.batch import BatchRunner, solver_grid
        from ..pipeline.runner import PipelineRunner

        benchmark = context["benchmark"]
        split = self._reanchored_split(benchmark, corrupted)
        batch = BatchRunner(
            runner=PipelineRunner(feature_config=context["feature_config"])
        )
        for scenario in solver_grid(context["base_config"], self.solver_specs):
            cell = f"{level_name}/{scenario.name}"
            timing: dict[str, object] = {}
            with timed(timing, "wall_seconds"):
                run = batch.run(
                    split, benchmark.intents, [scenario], dataset=level_name
                )[0]
            solution = run.result.solution
            test = split.test
            f1 = {
                intent: round(
                    float(evaluate_binary(solution.prediction(intent), test.labels(intent)).f1),
                    QUALITY_DIGITS,
                )
                for intent in solution.intents
            }
            matrix.append(
                {
                    "cell": cell,
                    "level": level_name,
                    "component": scenario.name,
                    "measure": "test-split",
                    "f1": f1,
                    "macro_f1": _macro(f1),
                    "test_pairs": len(test),
                }
            )
            cell_timings[cell] = timing

    def _run_blocker_cells(
        self, corrupted, level_name, context, matrix, cell_timings
    ) -> None:
        if not self.blocker_specs:
            return
        from ..resolver import Resolver

        for spec in self.blocker_specs:
            normalized = dict(spec) if isinstance(spec, dict) else {"type": str(spec)}
            if corrupted.sources and "cross_source_only" not in normalized:
                normalized["cross_source_only"] = True
            cell = f"{level_name}/blocker={normalized['type']}"
            timing: dict[str, object] = {}
            resolver = Resolver(
                config=replace(context["base_config"], blocker=normalized),
                feature_config=context["feature_config"],
            )
            with timed(timing, "wall_seconds"):
                result = resolver.resolve(
                    corrupted,
                    intents=context["labeler"].intent_names,
                    labeler=context["record_labeler"],
                    split_seed=context["seed"],
                )
            f1 = {
                intent: round(float(evaluation.f1), QUALITY_DIGITS)
                for intent, evaluation in sorted(result.intent_evaluations().items())
            }
            completeness = None
            if result.blocking is not None and result.blocking.pair_completeness:
                completeness = round(
                    float(np.mean(list(result.blocking.pair_completeness.values()))),
                    QUALITY_DIGITS,
                )
            matrix.append(
                {
                    "cell": cell,
                    "level": level_name,
                    "component": f"blocker={normalized['type']}",
                    "measure": "test-split",
                    "f1": f1,
                    "macro_f1": _macro(f1),
                    "pair_completeness": completeness,
                    "candidate_pairs": (
                        result.blocking.num_candidate_pairs
                        if result.blocking is not None
                        else None
                    ),
                }
            )
            cell_timings[cell] = timing

    def _run_retriever_cells(
        self, corrupted, level_name, context, matrix, cell_timings
    ) -> None:
        if not self.retriever_specs:
            return
        from ..resolver import Resolver

        head, probes = split_tail(corrupted.records, self.probe_count)
        corpus = Dataset(
            records=head, name=corrupted.name, attributes=corrupted.attributes
        )
        products = context["benchmark"].record_products
        for spec in self.retriever_specs:
            normalized = dict(spec) if isinstance(spec, dict) else {"type": str(spec)}
            if normalized["type"] == "blocker":
                normalized.setdefault("blocker", dict(context["blocker_spec"]))
            elif corpus.sources and "cross_source_only" not in normalized:
                normalized["cross_source_only"] = True
            cell = f"{level_name}/retriever={normalized['type']}"
            timing: dict[str, object] = {}
            resolver = Resolver(
                config=context["base_config"],
                feature_config=context["feature_config"],
            )
            with timed(timing, "fit_seconds"):
                model = resolver.fit(
                    corpus,
                    intents=context["labeler"].intent_names,
                    labeler=context["record_labeler"],
                    split_seed=context["seed"],
                    retriever=normalized,
                )
            with timed(timing, "query_seconds"):
                result = model.query(probes, k=self.query_k, mode="online")
            timing["query_seconds_per_record"] = round(
                float(timing["query_seconds"]) / max(len(probes), 1), 6
            )
            quality = query_quality(result, products, context["labeler"])
            matrix.append(
                {
                    "cell": cell,
                    "level": level_name,
                    "component": f"retriever={normalized['type']}",
                    "measure": "online-probes",
                    "f1": quality["f1"],
                    "macro_f1": quality["macro_f1"],
                    "probe_pairs": quality["num_pairs"],
                }
            )
            cell_timings[cell] = timing

    # ---------------------------------------------------------------- summary

    def _summarize(
        self,
        matrix: list[dict[str, object]],
        level_summaries: list[dict[str, object]],
    ) -> dict[str, object]:
        require(bool(matrix), "the robustness grid produced no cells")
        per_level: dict[str, list[float]] = {}
        per_component: dict[str, list[float]] = {}
        for row in matrix:
            per_level.setdefault(str(row["level"]), []).append(float(row["macro_f1"]))
            per_component.setdefault(str(row["component"]), []).append(
                float(row["macro_f1"])
            )
        best = max(matrix, key=lambda row: (float(row["macro_f1"]), str(row["cell"])))
        worst = min(matrix, key=lambda row: (float(row["macro_f1"]), str(row["cell"])))
        level_means = {
            level: round(float(np.mean(values)), QUALITY_DIGITS)
            for level, values in per_level.items()
        }
        clean_name = str(self.levels[0]["name"])
        degradation = None
        if len(level_means) > 1 and clean_name in level_means:
            degradation = round(
                level_means[clean_name] - min(level_means.values()), QUALITY_DIGITS
            )
        return {
            "num_cells": len(matrix),
            "levels": level_summaries,
            "per_level_macro_f1": level_means,
            "per_component_macro_f1": {
                component: round(float(np.mean(values)), QUALITY_DIGITS)
                for component, values in per_component.items()
            },
            "best_cell": str(best["cell"]),
            "best_macro_f1": float(best["macro_f1"]),
            "worst_cell": str(worst["cell"]),
            "worst_macro_f1": float(worst["macro_f1"]),
            "max_level_degradation": degradation,
        }
