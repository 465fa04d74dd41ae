"""Shared machinery of the workload scenarios.

A *workload scenario* is a registry component (family ``scenario``,
:data:`repro.registry.SCENARIOS`) whose spec fully describes one
seeded, end-to-end workload: which benchmark to generate, how to
degrade or stream it, and which component specs to cross it with.
``scenario.run(seed)`` executes the workload and returns a
:class:`~repro.scenarios.report.ScenarioReport` whose non-timing
content is byte-reproducible for a fixed ``(spec, seed)`` under any
executor.

This module holds the base class plus the helpers every scenario
shares: the pinned FlexER configuration, benchmark loading, and
ground-truth quality scoring of query results against a benchmark's
intent labeler.
"""

from __future__ import annotations

import time
from collections.abc import Mapping, Sequence
from contextlib import contextmanager

import numpy as np

from ..config import FlexERConfig, GNNConfig, GraphConfig, MatcherConfig
from ..evaluation import evaluate_binary
from ..exceptions import ScenarioError
from ..exec import executor_spec

#: Quality floats are rounded to this many digits in matrix rows — far
#: above measurement noise, and it keeps report diffs readable.
QUALITY_DIGITS = 6


def make_scenario_config(
    seed: int,
    matcher_epochs: int,
    gnn_epochs: int,
    solver: object = "in_parallel",
    k_neighbors: int = 6,
    executor: object = "serial",
    blocker: object | None = None,
) -> FlexERConfig:
    """The pinned FlexER configuration scenarios run under.

    Mirrors the pipeline CLI's configuration (64/32 matcher hidden
    dims, 256 hashed features, 48 GNN hidden units) so scenario quality
    numbers are comparable with ``repro.pipeline`` runs at the same
    scale.
    """
    kwargs: dict[str, object] = {"blocker": blocker} if blocker is not None else {}
    return FlexERConfig(
        matcher=MatcherConfig(
            hidden_dims=(64, 32), n_features=256, epochs=matcher_epochs, seed=seed
        ),
        graph=GraphConfig(k_neighbors=k_neighbors),
        gnn=GNNConfig(hidden_dim=48, epochs=gnn_epochs, seed=seed),
        solver=solver,
        executor=executor_spec(executor),
        **kwargs,
    )


def load_scenario_benchmark(dataset: str, num_pairs: int, products: int, seed: int):
    """Generate the scenario's synthetic benchmark (lazy dataset import)."""
    from ..datasets import load_benchmark

    return load_benchmark(
        dataset, num_pairs=num_pairs, products_per_domain=products, seed=seed
    )


def query_quality(
    result,
    products: Mapping[str, object],
    labeler,
) -> dict[str, object]:
    """Score a :class:`~repro.model.QueryResult` against ground truth.

    Every scored (query record, corpus record) pair is labeled with the
    benchmark's intent labeler over the underlying products; per intent
    the binary predictions are evaluated against those labels.  Returns
    a deterministic dict: per-intent F1 and observed positive rate,
    plus ``macro_f1`` and the pair count.
    """
    intents = tuple(result.intents)
    labels: dict[str, list[int]] = {intent: [] for intent in intents}
    for pair in result.pairs:
        truth = labeler.label_pair(products[pair.left_id], products[pair.right_id])
        for intent in intents:
            labels[intent].append(int(truth[intent]))

    f1: dict[str, float] = {}
    positive_rate: dict[str, float] = {}
    for intent in intents:
        label_array = np.asarray(labels[intent], dtype=np.int64)
        if label_array.size == 0:
            f1[intent] = 0.0
            positive_rate[intent] = 0.0
            continue
        evaluation = evaluate_binary(result.predictions[intent], label_array)
        f1[intent] = round(float(evaluation.f1), QUALITY_DIGITS)
        positive_rate[intent] = round(float(label_array.mean()), QUALITY_DIGITS)
    macro = round(float(np.mean(list(f1.values()))) if f1 else 0.0, QUALITY_DIGITS)
    return {
        "f1": f1,
        "positive_rate": positive_rate,
        "macro_f1": macro,
        "num_pairs": len(result.pairs),
    }


@contextmanager
def timed(timings: dict[str, object], key: str):
    """Record the wall seconds of a ``with`` block under ``timings[key]``."""
    start = time.perf_counter()
    yield
    timings[key] = round(time.perf_counter() - start, 6)


class WorkloadScenario:
    """Base class of the registered workload scenarios.

    Subclasses define ``spec_type``, accept their parameters as keyword
    arguments, and implement :meth:`run`.  The spec round-trip is
    uniform: every constructor argument is a JSON-plain value captured
    in ``to_spec()``, and ``from_spec`` simply re-invokes the
    constructor — so :data:`repro.registry.SCENARIOS` can rebuild any
    scenario from its serialized spec.
    """

    #: Registry key in :data:`repro.registry.SCENARIOS`.
    spec_type = "abstract"

    def __init__(self, **params: object) -> None:
        self._params: dict[str, object] = dict(params)

    @classmethod
    def from_spec(cls, params: Mapping[str, object]) -> "WorkloadScenario":
        """Build the scenario from its spec parameters."""
        return cls(**dict(params))

    def to_spec(self) -> dict[str, object]:
        """The canonical registry spec of this scenario."""
        return {"type": self.spec_type, "params": dict(self._params)}

    def run(self, seed: int = 0, executor: object = None, name: str | None = None):
        """Execute the scenario; subclasses must override."""
        raise NotImplementedError


def require(condition: bool, message: str) -> None:
    """Raise :class:`~repro.exceptions.ScenarioError` unless ``condition``."""
    if not condition:
        raise ScenarioError(message)


def split_tail(records: Sequence[object], *counts: int):
    """Split ``records`` into a head plus tail groups of the given sizes.

    ``split_tail(records, a, b)`` returns ``(head, group_a, group_b)``
    where ``group_b`` is the last ``b`` records and ``group_a`` the
    ``a`` records before them.  Raises when the head would be empty —
    every scenario needs a non-trivial initial corpus.
    """
    total = sum(counts)
    require(
        total < len(records),
        f"scenario needs {total} stream/probe records but the corpus has "
        f"only {len(records)}",
    )
    head = list(records[: len(records) - total])
    groups = []
    offset = len(records) - total
    for count in counts:
        groups.append(list(records[offset : offset + count]))
        offset += count
    return (head, *groups)
