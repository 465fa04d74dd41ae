"""MIER solvers built from matchers: Naïve, In-parallel, and Multi-label.

These are the three baselines of the paper (Section 5.2.4):

* **Naïve** — one-size-fits-all: a single universal (equivalence) matcher
  whose resolution is reused for every intent.
* **In-parallel** (Section 3.2) — one independently trained binary
  matcher per intent; also the source of the independent intent-based
  representations FlexER builds on.
* **Multi-label** (Section 3.3) — a single jointly trained matcher with
  one sigmoid head per intent (Eq. 2 loss).

All solvers share the interface ``fit(train) / predict(test)`` over
labeled :class:`~repro.data.pairs.CandidateSet` objects and expose
per-intent latent representations for graph construction, together
with their likelihoods, through ``intent_outputs``.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from ..config import MatcherConfig
from ..data.pairs import CandidateSet
from ..exceptions import MatchingError, NotFittedError
from .features import PairFeatureConfig, PairFeatureEncoder
from .multilabel import MultiLabelMatcher
from .pair_matcher import PairMatcher


#: Separator between intent name and parameter name in solver state dicts.
STATE_KEY_SEPARATOR = "::"


def _group_solver_state(
    state: Mapping[str, np.ndarray],
) -> dict[str, dict[str, np.ndarray]]:
    """Split ``intent::parameter`` keys into per-intent state dicts."""
    grouped: dict[str, dict[str, np.ndarray]] = {}
    for key, array in state.items():
        intent, separator, name = key.partition(STATE_KEY_SEPARATOR)
        if not separator or not name:
            raise MatchingError(f"malformed solver state key: {key!r}")
        grouped.setdefault(intent, {})[name] = array
    return grouped


def _fit_matcher_worker(payload):
    """Train one per-intent matcher from shipped arrays (executor task).

    Returns the fitted matcher's ``state_dict`` — the same serialization
    round-trip the pipeline's artifact cache uses — plus its
    :class:`~repro.matching.pair_matcher.TrainingHistory`, so the parent
    process restores a matcher indistinguishable from one trained in
    place (parameters *and* per-epoch losses).
    """
    matcher_config, features, labels = payload
    matcher = PairMatcher(matcher_config)
    matcher.fit(features, labels)
    return matcher.state_dict(), matcher.history


class BaseSolver:
    """Shared feature-encoding logic of the MIER solvers.

    Every concrete solver is registered in
    :data:`repro.registry.SOLVERS` under :attr:`spec_type` and
    serializes its solver-specific parameters via :meth:`to_spec`.
    Creation-time context (intents, matcher and feature configs) is
    deliberately not part of the spec — the registry passes it through
    ``create(spec, intents=..., matcher_config=..., feature_config=...)``.
    """

    #: Registry key of the concrete solver (set by subclasses).
    spec_type: str = ""

    def __init__(
        self,
        intents: tuple[str, ...],
        matcher_config: MatcherConfig | None = None,
        feature_config: PairFeatureConfig | None = None,
    ) -> None:
        if not intents:
            raise MatchingError("at least one intent is required")
        self.intents = tuple(intents)
        self.matcher_config = matcher_config or MatcherConfig()
        self.encoder = PairFeatureEncoder(feature_config)
        self._fitted = False
        #: Optional :class:`repro.exec.Executor` for per-intent training
        #: fan-out.  Runtime wiring (attached by the pipeline runner),
        #: not part of the spec: executors never change results.
        self.executor = None

    def to_spec(self) -> dict[str, object]:
        """Serialize the solver-specific parameters into a registry spec."""
        return {"type": self.spec_type, "params": {}}

    @classmethod
    def from_spec(
        cls,
        params: Mapping[str, object],
        *,
        intents,
        matcher_config: MatcherConfig | None = None,
        feature_config: PairFeatureConfig | None = None,
    ) -> "BaseSolver":
        """Construct the solver from spec parameters plus creation context."""
        return cls(
            tuple(intents),
            matcher_config=matcher_config,
            feature_config=feature_config,
            **params,
        )

    def encode(self, candidates: CandidateSet, one_shot: bool = False) -> np.ndarray:
        """Encode every candidate pair into the feature matrix.

        ``one_shot=True`` marks a batch that will not recur; see
        :meth:`PairFeatureEncoder.encode`.
        """
        return self.encoder.encode(candidates.dataset, candidates.pairs, one_shot)

    def _check_intents(self, candidates: CandidateSet) -> None:
        missing = set(self.intents) - set(candidates.intents)
        if missing:
            raise MatchingError(f"candidate set is missing intents: {sorted(missing)}")

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError(f"{type(self).__name__} must be fitted before predicting")

    @property
    def name(self) -> str:
        """Human-readable solver name used in reports."""
        return type(self).__name__


class NaiveSolver(BaseSolver):
    """One-size-fits-all baseline: the universal resolution serves every intent."""

    spec_type = "naive"

    def __init__(
        self,
        intents: tuple[str, ...],
        equivalence_intent: str | None = None,
        matcher_config: MatcherConfig | None = None,
        feature_config: PairFeatureConfig | None = None,
    ) -> None:
        super().__init__(intents, matcher_config, feature_config)
        self.equivalence_intent = equivalence_intent or self.intents[0]
        if self.equivalence_intent not in self.intents:
            raise MatchingError(
                f"equivalence intent {self.equivalence_intent!r} is not in {self.intents}"
            )
        self.matcher = PairMatcher(self.matcher_config)

    def to_spec(self) -> dict[str, object]:
        """Spec carrying the universal intent the matcher trains on."""
        return {
            "type": self.spec_type,
            "params": {"equivalence_intent": self.equivalence_intent},
        }

    def fit(self, train: CandidateSet) -> "NaiveSolver":
        """Train the single universal matcher on the equivalence intent."""
        self._check_intents(train)
        features = self.encode(train)
        self.matcher.fit(features, train.labels(self.equivalence_intent))
        self._fitted = True
        return self

    def state_dict(self) -> dict[str, np.ndarray]:
        """Parameters of the single universal matcher (for artifact caching)."""
        self._require_fitted()
        return dict(self.matcher.state_dict())

    def load_state_dict(self, state: Mapping[str, np.ndarray]) -> "NaiveSolver":
        """Restore the universal matcher from :meth:`state_dict` arrays."""
        self.matcher.load_state_dict(dict(state), self.encoder.dimension)
        self._fitted = True
        return self

    def predict(self, candidates: CandidateSet) -> dict[str, np.ndarray]:
        """Reuse the universal prediction for every intent."""
        self._require_fitted()
        features = self.encode(candidates)
        universal = self.matcher.predict(features)
        return {intent: universal.copy() for intent in self.intents}

    def predict_proba(self, candidates: CandidateSet) -> dict[str, np.ndarray]:
        """Reuse the universal likelihoods for every intent."""
        self._require_fitted()
        features = self.encode(candidates)
        universal = self.matcher.predict_proba(features)
        return {intent: universal.copy() for intent in self.intents}

    def intent_outputs(
        self, candidates: CandidateSet, one_shot: bool = False
    ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """The universal representations and likelihoods, reused for every intent.

        Lets the one-size-fits-all baseline serve as a FlexER
        representation source (every graph layer starts from the same
        universal matcher's latent space); one encode + forward pass.
        """
        self._require_fitted()
        features = self.encode(candidates, one_shot)
        universal_repr, universal_proba = self.matcher.outputs(features, row_invariant=one_shot)
        return (
            {intent: universal_repr.copy() for intent in self.intents},
            {intent: universal_proba.copy() for intent in self.intents},
        )


class InParallelSolver(BaseSolver):
    """One independently trained binary matcher per intent (Section 3.2)."""

    spec_type = "in_parallel"

    def __init__(
        self,
        intents: tuple[str, ...],
        matcher_config: MatcherConfig | None = None,
        feature_config: PairFeatureConfig | None = None,
    ) -> None:
        super().__init__(intents, matcher_config, feature_config)
        self.matchers: dict[str, PairMatcher] = {}

    def _intent_config(self, index: int) -> MatcherConfig:
        """Per-intent matcher configuration.

        The seed varies per intent so the independently trained matchers
        land in different latent spaces, as in the paper.
        """
        return MatcherConfig(
            hidden_dims=self.matcher_config.hidden_dims,
            n_features=self.matcher_config.n_features,
            epochs=self.matcher_config.epochs,
            batch_size=self.matcher_config.batch_size,
            learning_rate=self.matcher_config.learning_rate,
            weight_decay=self.matcher_config.weight_decay,
            l2_similarity_features=self.matcher_config.l2_similarity_features,
            seed=self.matcher_config.seed + index,
        )

    def fit(self, train: CandidateSet) -> "InParallelSolver":
        """Train one matcher per intent on the same candidate pairs.

        The per-intent trainings are independent (each is seeded by its
        own :meth:`_intent_config`), so with a parallel executor
        attached they fan out one task per intent; workers return
        matcher ``state_dict`` arrays that restore bit-identically.
        """
        self._check_intents(train)
        features = self.encode(train)
        self.matchers = {}
        if (
            self.executor is not None
            and getattr(self.executor, "is_parallel", False)
            and len(self.intents) > 1
        ):
            payloads = [
                (self._intent_config(index), features, train.labels(intent))
                for index, intent in enumerate(self.intents)
            ]
            outcomes = self.executor.map(_fit_matcher_worker, payloads)
            for index, (intent, (state, history)) in enumerate(zip(self.intents, outcomes)):
                matcher = PairMatcher(self._intent_config(index))
                matcher.load_state_dict(state, self.encoder.dimension)
                matcher.history = history
                self.matchers[intent] = matcher
        else:
            for index, intent in enumerate(self.intents):
                matcher = PairMatcher(self._intent_config(index))
                matcher.fit(features, train.labels(intent))
                self.matchers[intent] = matcher
        self._fitted = True
        return self

    def state_dict(self) -> dict[str, np.ndarray]:
        """All per-intent matcher parameters, keyed ``intent::parameter``."""
        self._require_fitted()
        state: dict[str, np.ndarray] = {}
        for intent, matcher in self.matchers.items():
            for name, array in matcher.state_dict().items():
                state[f"{intent}{STATE_KEY_SEPARATOR}{name}"] = array
        return state

    def load_state_dict(self, state: Mapping[str, np.ndarray]) -> "InParallelSolver":
        """Restore every per-intent matcher from :meth:`state_dict` arrays."""
        grouped = _group_solver_state(state)
        missing = set(self.intents) - set(grouped)
        if missing:
            raise MatchingError(f"solver state is missing intents: {sorted(missing)}")
        self.matchers = {}
        for index, intent in enumerate(self.intents):
            matcher = PairMatcher(self._intent_config(index))
            matcher.load_state_dict(grouped[intent], self.encoder.dimension)
            self.matchers[intent] = matcher
        self._fitted = True
        return self

    def predict(self, candidates: CandidateSet) -> dict[str, np.ndarray]:
        """Independent per-intent binary predictions."""
        self._require_fitted()
        features = self.encode(candidates)
        return {
            intent: matcher.predict(features) for intent, matcher in self.matchers.items()
        }

    def predict_proba(self, candidates: CandidateSet) -> dict[str, np.ndarray]:
        """Independent per-intent likelihood scores."""
        self._require_fitted()
        features = self.encode(candidates)
        return {
            intent: matcher.predict_proba(features)
            for intent, matcher in self.matchers.items()
        }

    def intent_outputs(
        self, candidates: CandidateSet, one_shot: bool = False
    ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """Per-intent representations (graph node initializations) and likelihoods.

        One encode, then one forward pass through each intent's matcher.
        """
        self._require_fitted()
        features = self.encode(candidates, one_shot)
        representations: dict[str, np.ndarray] = {}
        probabilities: dict[str, np.ndarray] = {}
        for intent, matcher in self.matchers.items():
            representations[intent], probabilities[intent] = matcher.outputs(
                features, row_invariant=one_shot
            )
        return representations, probabilities


class MultiLabelSolver(BaseSolver):
    """Jointly trained multi-label matcher (Section 3.3)."""

    spec_type = "multi_label"

    def __init__(
        self,
        intents: tuple[str, ...],
        matcher_config: MatcherConfig | None = None,
        feature_config: PairFeatureConfig | None = None,
        intent_weights: np.ndarray | None = None,
    ) -> None:
        super().__init__(intents, matcher_config, feature_config)
        self.matcher = MultiLabelMatcher(self.intents, self.matcher_config, intent_weights)

    def fit(self, train: CandidateSet) -> "MultiLabelSolver":
        """Train the joint matcher on the multi-label dataset."""
        self._check_intents(train)
        features = self.encode(train)
        self.matcher.fit(features, train.label_matrix(self.intents))
        self._fitted = True
        return self

    def state_dict(self) -> dict[str, np.ndarray]:
        """Parameters of the joint network (for artifact caching)."""
        self._require_fitted()
        return self.matcher.state_dict()

    def load_state_dict(self, state: Mapping[str, np.ndarray]) -> "MultiLabelSolver":
        """Restore the joint network from :meth:`state_dict` arrays."""
        self.matcher.load_state_dict(state, self.encoder.dimension)
        self._fitted = True
        return self

    def predict(self, candidates: CandidateSet) -> dict[str, np.ndarray]:
        """Per-intent binary predictions from the joint matcher."""
        self._require_fitted()
        features = self.encode(candidates)
        matrix = self.matcher.predict(features)
        return {intent: matrix[:, index] for index, intent in enumerate(self.intents)}

    def predict_proba(self, candidates: CandidateSet) -> dict[str, np.ndarray]:
        """Per-intent likelihoods from the joint matcher."""
        self._require_fitted()
        features = self.encode(candidates)
        matrix = self.matcher.predict_proba(features)
        return {intent: matrix[:, index] for index, intent in enumerate(self.intents)}

    def intent_outputs(
        self, candidates: CandidateSet, one_shot: bool = False
    ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """Representations and likelihoods from one encode + forward pass."""
        self._require_fitted()
        features = self.encode(candidates, one_shot)
        representations, matrix = self.matcher.outputs(features, row_invariant=one_shot)
        return (
            dict(zip(self.intents, representations)),
            {intent: matrix[:, index] for index, intent in enumerate(self.intents)},
        )
