"""Synthetic MIER benchmark generators (AmazonMI, Walmart-Amazon, WDC analogues)."""

from .catalog import Product, CatalogConfig, CatalogGenerator
from .perturb import (
    DEFAULT_FIELD_ALIASES,
    FieldCorruptionConfig,
    PerturbationConfig,
    RecordPerturber,
    TitlePerturber,
    typo_edit,
)
from .labeling import (
    IntentLabeler,
    AMAZON_MI_LABELER,
    WALMART_AMAZON_LABELER,
    WDC_LABELER,
    equivalence,
    same_brand,
    same_main_category,
    similar_category_set,
    main_and_set_category,
    same_domain_category,
    same_general_category,
    same_wdc_general_category,
)
from .sampler import PairSampler, StratumWeights, sample_clusters
from .scale import ScaleWorkload, ScaleWorkloadConfig, make_scale_workload
from .benchmark import (
    MIERBenchmark,
    BenchmarkSpec,
    build_benchmark,
    candidate_pairs_from_blocker,
)
from .amazon_mi import make_amazon_mi, AMAZON_MI_WEIGHTS, AMAZON_MI_DOMAINS
from .walmart_amazon import make_walmart_amazon, WALMART_AMAZON_WEIGHTS, WALMART_AMAZON_DOMAINS
from .wdc import make_wdc, WDC_WEIGHTS, WDC_DOMAINS
from .registry import (
    BENCHMARK_FACTORIES,
    BENCHMARK_LABELERS,
    PAPER_TABLE3,
    PAPER_TABLE4_TEST_POSITIVE_RATES,
    benchmark_labeler,
    benchmark_names,
    load_benchmark,
)
from .stream import CorpusChunk, stream_chunks

__all__ = [
    "Product",
    "CatalogConfig",
    "CatalogGenerator",
    "PerturbationConfig",
    "TitlePerturber",
    "FieldCorruptionConfig",
    "RecordPerturber",
    "DEFAULT_FIELD_ALIASES",
    "typo_edit",
    "IntentLabeler",
    "AMAZON_MI_LABELER",
    "WALMART_AMAZON_LABELER",
    "WDC_LABELER",
    "equivalence",
    "same_brand",
    "same_main_category",
    "similar_category_set",
    "main_and_set_category",
    "same_domain_category",
    "same_general_category",
    "same_wdc_general_category",
    "PairSampler",
    "StratumWeights",
    "sample_clusters",
    "ScaleWorkload",
    "ScaleWorkloadConfig",
    "make_scale_workload",
    "MIERBenchmark",
    "BenchmarkSpec",
    "build_benchmark",
    "candidate_pairs_from_blocker",
    "make_amazon_mi",
    "AMAZON_MI_WEIGHTS",
    "AMAZON_MI_DOMAINS",
    "make_walmart_amazon",
    "WALMART_AMAZON_WEIGHTS",
    "WALMART_AMAZON_DOMAINS",
    "make_wdc",
    "WDC_WEIGHTS",
    "WDC_DOMAINS",
    "BENCHMARK_FACTORIES",
    "BENCHMARK_LABELERS",
    "PAPER_TABLE3",
    "PAPER_TABLE4_TEST_POSITIVE_RATES",
    "benchmark_labeler",
    "benchmark_names",
    "load_benchmark",
    "CorpusChunk",
    "stream_chunks",
]
