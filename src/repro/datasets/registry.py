"""Benchmark registry.

Provides name-based access to the three benchmark generators so
examples, tests, and the benchmark harness can iterate over
``("amazon_mi", "walmart_amazon", "wdc")`` exactly like the paper's
evaluation (Section 5.1).
"""

from __future__ import annotations

from collections.abc import Callable

from ..data.records import Record
from ..exceptions import ConfigurationError
from .amazon_mi import make_amazon_mi
from .benchmark import MIERBenchmark
from .labeling import (
    AMAZON_MI_LABELER,
    WALMART_AMAZON_LABELER,
    WDC_LABELER,
    IntentLabeler,
)
from .walmart_amazon import make_walmart_amazon
from .wdc import make_wdc

#: Factories keyed by benchmark name, in the order used in the paper.
BENCHMARK_FACTORIES: dict[str, Callable[..., MIERBenchmark]] = {
    "amazon_mi": make_amazon_mi,
    "walmart_amazon": make_walmart_amazon,
    "wdc": make_wdc,
}

#: Ground-truth intent labelers per benchmark (Section 5.1 rules); used
#: by raw-records workloads that re-label blocker-produced pairs.
BENCHMARK_LABELERS: dict[str, IntentLabeler] = {
    "amazon_mi": AMAZON_MI_LABELER,
    "walmart_amazon": WALMART_AMAZON_LABELER,
    "wdc": WDC_LABELER,
}


def benchmark_labeler(
    benchmark: MIERBenchmark,
) -> tuple[IntentLabeler, Callable[[Record, Record], dict[str, int]]]:
    """``(intent labeler, record-level labeling callable)`` of a benchmark.

    The callable labels a record pair for every intent by applying the
    benchmark's ground-truth rules to the products behind the records.
    """
    labeler = BENCHMARK_LABELERS[benchmark.name]
    products = benchmark.record_products

    def record_labeler(left: Record, right: Record) -> dict[str, int]:
        return labeler.label_pair(products[left.record_id], products[right.record_id])

    return labeler, record_labeler


#: Paper-reported statistics (Table 3), kept for report comparison.
PAPER_TABLE3 = {
    "amazon_mi": {"records": 3835, "pairs": 15404, "intents": 5},
    "walmart_amazon": {"records": 24628, "pairs": 10242, "intents": 4},
    "wdc": {"records": 10935, "pairs": 30673, "intents": 3},
}

#: Paper-reported test-split positive rates (Table 4), by intent order.
PAPER_TABLE4_TEST_POSITIVE_RATES = {
    "amazon_mi": {
        "equivalence": 0.154,
        "brand": 0.214,
        "set_category": 0.490,
        "main_category": 0.672,
        "main_and_set_category": 0.490,
    },
    "walmart_amazon": {
        "equivalence": 0.094,
        "brand": 0.764,
        "main_category": 0.800,
        "general_category": 0.905,
    },
    "wdc": {
        "equivalence": 0.113,
        "category": 0.438,
        "general_category": 0.672,
    },
}


def benchmark_names() -> tuple[str, ...]:
    """Names of the available benchmarks, in paper order."""
    return tuple(BENCHMARK_FACTORIES)


def load_benchmark(name: str, **kwargs) -> MIERBenchmark:
    """Build the benchmark ``name`` with generator keyword overrides.

    Parameters
    ----------
    name:
        One of ``"amazon_mi"``, ``"walmart_amazon"``, ``"wdc"``.
    kwargs:
        Forwarded to the benchmark factory (``num_pairs``,
        ``products_per_domain``, ``seed``, ``split_ratio``).
    """
    try:
        factory = BENCHMARK_FACTORIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown benchmark {name!r}; available: {sorted(BENCHMARK_FACTORIES)}"
        ) from None
    return factory(**kwargs)
