"""Configuration objects for the FlexER reproduction.

The configuration mirrors the hyper-parameters reported in Section 5.2 of
the paper (matcher fine-tuning, multiplex-graph construction, and GNN
training), scaled to a CPU-only numpy implementation.  All values are
plain dataclasses so they serialize naturally and are easy to sweep in
benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from collections.abc import Mapping
from typing import Any

from ._spec import normalize_spec
from .exceptions import ConfigurationError
from .faults.retry import RetryPolicy, as_retry_policy


@dataclass(frozen=True)
class MatcherConfig:
    """Hyper-parameters of the per-intent pair matcher (DITTO analogue).

    The paper fine-tunes RoBERTa with a learning rate of 3e-5 for 15
    epochs and batch size 16; our numpy MLP uses a comparable budget over
    hashed character n-gram features.

    Attributes
    ----------
    hidden_dims:
        Sizes of the hidden layers; the last hidden layer is the latent
        pair representation used to initialize graph nodes (the ``[CLS]``
        analogue, 768-dimensional in the paper).
    n_features:
        Not read by the matchers or the feature encoder: changing it
        changes no feature.  The hashed feature space is
        :attr:`repro.matching.features.PairFeatureConfig.n_features`
        (256 buckets by default), set through the ``feature_config``
        argument of :class:`~repro.resolver.Resolver` and
        :class:`~repro.pipeline.PipelineRunner`.  The field stays because
        ``config.matcher`` enters every matcher-fit stage fingerprint and
        every saved model document.
    epochs, batch_size, learning_rate, weight_decay:
        Standard training knobs for the Adam optimizer.
    l2_similarity_features:
        Not read either, kept for the same reason.  Whether
        string-similarity features (Jaccard, Jaro-Winkler, ...) are
        appended is
        :attr:`~repro.matching.features.PairFeatureConfig.use_similarity_features`.
    seed:
        Seed for parameter initialization and batch shuffling.
    """

    hidden_dims: tuple[int, ...] = (96, 48)
    n_features: int = 512
    epochs: int = 30
    batch_size: int = 32
    learning_rate: float = 3e-3
    weight_decay: float = 1e-5
    l2_similarity_features: bool = True
    seed: int = 7

    def __post_init__(self) -> None:
        if not self.hidden_dims:
            raise ConfigurationError("hidden_dims must contain at least one layer")
        if any(d <= 0 for d in self.hidden_dims):
            raise ConfigurationError("hidden layer sizes must be positive")
        if self.n_features <= 0:
            raise ConfigurationError("n_features must be positive")
        if self.epochs <= 0:
            raise ConfigurationError("epochs must be positive")
        if self.batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if self.weight_decay < 0:
            raise ConfigurationError("weight_decay must be non-negative")

    @property
    def representation_dim(self) -> int:
        """Dimension of the latent pair representation (last hidden layer)."""
        return self.hidden_dims[-1]


@dataclass(frozen=True)
class GraphConfig:
    """Hyper-parameters of the multiplex intent graph (Section 4.1).

    Attributes
    ----------
    k_neighbors:
        Number of intra-layer nearest neighbours per node (``k`` in the
        paper; 0 disables intra-layer edges as in the Table 8 ablation).
    metric:
        Distance used by the kNN search ("l2" as in the paper, or
        "cosine").
    include_inter_layer:
        Whether to add inter-layer edges connecting the same record pair
        across intent layers (disabled only for ablations).
    """

    k_neighbors: int = 6
    metric: str = "l2"
    include_inter_layer: bool = True

    def __post_init__(self) -> None:
        if self.k_neighbors < 0:
            raise ConfigurationError("k_neighbors must be non-negative")
        if self.metric not in ("l2", "cosine"):
            raise ConfigurationError(f"unsupported kNN metric: {self.metric!r}")


@dataclass(frozen=True)
class GNNConfig:
    """Hyper-parameters of the GraphSAGE model (Section 5.2.1).

    The paper trains 2- or 3-layer GraphSAGE for 150 epochs with Adam
    (lr 0.01, weight decay 5e-4); hidden sizes are swept over
    {100, ..., 500} with the three-layer second hidden dim set to half of
    the first.
    """

    num_layers: int = 2
    hidden_dim: int = 64
    epochs: int = 60
    learning_rate: float = 0.01
    weight_decay: float = 5e-4
    aggregator: str = "mean"
    seed: int = 7

    def __post_init__(self) -> None:
        if self.num_layers not in (2, 3):
            raise ConfigurationError("num_layers must be 2 or 3 (as in the paper)")
        if self.hidden_dim <= 0:
            raise ConfigurationError("hidden_dim must be positive")
        if self.epochs <= 0:
            raise ConfigurationError("epochs must be positive")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if self.weight_decay < 0:
            raise ConfigurationError("weight_decay must be non-negative")
        if self.aggregator not in ("mean", "sum"):
            raise ConfigurationError(f"unsupported aggregator: {self.aggregator!r}")


@dataclass(frozen=True)
class CacheConfig:
    """Configuration of the pipeline's content-addressed artifact cache.

    The cache is deliberately *not* part of :class:`FlexERConfig`: it has
    no effect on results, so it never participates in stage fingerprints.

    Attributes
    ----------
    directory:
        Root directory of the on-disk store.  ``None`` keeps artifacts in
        memory only (the default for tests and one-shot runs).
    enabled:
        When false every lookup misses and nothing is stored, which turns
        the staged runner into a plain cold-path executor.
    keep_in_memory:
        Whether artifacts are also retained in an in-process map so
        repeated lookups skip disk entirely.
    """

    directory: str | None = None
    enabled: bool = True
    keep_in_memory: bool = True

    def __post_init__(self) -> None:
        if self.directory is not None and not str(self.directory):
            raise ConfigurationError("cache directory must be a non-empty path or None")


@dataclass(frozen=True)
class FlexERConfig:
    """End-to-end configuration of the FlexER pipeline.

    Besides the hyper-parameter sections, the configuration names the
    pluggable components of a run as *registry specs* — either a bare
    string key or a ``{"type": ..., **params}`` mapping (see
    :mod:`repro.registry`).  Specs are normalized to the canonical
    ``{"type": ..., "params": {...}}`` form at construction, so two ways
    of writing the same component fingerprint identically and warm
    pipeline re-runs hit the artifact cache.

    Attributes
    ----------
    solver:
        The intent-representation solver (``"in_parallel"`` — the
        paper's main configuration, ``"multi_label"``, or ``"naive"``).
    blocker:
        The blocking strategy used by :func:`repro.resolve` when
        starting from raw records (``"qgram"``, ``"token"``, ``"full"``).
    graph_builder:
        The multiplex graph construction (``"intent_graph"``).
    classifier:
        The per-intent node classifier (``"graphsage"``).
    executor:
        The sharded-execution backend of the run (``"serial"``,
        ``"threads"``, ``"processes"``; e.g.
        ``{"type": "processes", "workers": 4}``).  Executors never
        change results — every sharded stage is bit-identical to its
        serial run — so this spec deliberately does *not* participate
        in pipeline stage fingerprints and cached artifacts stay valid
        across executor choices.
    retry:
        Optional :class:`~repro.faults.RetryPolicy` (or its mapping
        form) applied to failed executor shards: each failed shard is
        rerun after capped exponential backoff, with broken process
        pools respawned between attempts.  ``None`` (the default)
        disables retrying.  Like ``executor``, retry never changes
        results — retried shards are pure functions of their payloads —
        so it does not participate in stage fingerprints either.
    """

    matcher: MatcherConfig = field(default_factory=MatcherConfig)
    graph: GraphConfig = field(default_factory=GraphConfig)
    gnn: GNNConfig = field(default_factory=GNNConfig)
    solver: str | Mapping[str, Any] = "in_parallel"
    blocker: str | Mapping[str, Any] = "qgram"
    graph_builder: str | Mapping[str, Any] = "intent_graph"
    classifier: str | Mapping[str, Any] = "graphsage"
    executor: str | Mapping[str, Any] = "serial"
    retry: RetryPolicy | Mapping[str, Any] | None = None

    def __post_init__(self) -> None:
        for name in ("solver", "blocker", "graph_builder", "classifier", "executor"):
            spec = normalize_spec(getattr(self, name), context=f"FlexERConfig.{name}")
            object.__setattr__(self, name, spec)
        object.__setattr__(self, "retry", as_retry_policy(self.retry))

    def to_dict(self) -> dict[str, Any]:
        """Return a plain-dict view suitable for logging or JSON dumps."""
        return asdict(self)

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "FlexERConfig":
        """Rebuild a configuration from a :meth:`to_dict` document.

        This is the inverse used by persisted
        :class:`~repro.model.ResolverModel` artifacts: the JSON-plain
        document round-trips through nested dataclass construction
        (tuples restored from lists), so
        ``FlexERConfig.from_dict(config.to_dict()) == config``.
        """
        document = dict(document)
        matcher = dict(document.get("matcher", {}))
        if "hidden_dims" in matcher:
            matcher["hidden_dims"] = tuple(matcher["hidden_dims"])
        return cls(
            matcher=MatcherConfig(**matcher),
            graph=GraphConfig(**dict(document.get("graph", {}))),
            gnn=GNNConfig(**dict(document.get("gnn", {}))),
            solver=document.get("solver", "in_parallel"),
            blocker=document.get("blocker", "qgram"),
            graph_builder=document.get("graph_builder", "intent_graph"),
            classifier=document.get("classifier", "graphsage"),
            executor=document.get("executor", "serial"),
            retry=document.get("retry"),
        )

    @classmethod
    def fast(cls) -> "FlexERConfig":
        """A configuration scaled down for unit tests and examples."""
        return cls(
            matcher=MatcherConfig(hidden_dims=(32, 16), n_features=128, epochs=8),
            graph=GraphConfig(k_neighbors=3),
            gnn=GNNConfig(hidden_dim=24, epochs=20),
        )
