"""Multi-label matcher (Section 3.3).

A single network with a shared trunk and one projection + sigmoid head
per intent, trained with the weighted multi-label binary cross-entropy of
Eq. 2.  Per-intent latent representations are taken from the layer prior
to each intent's output (Section 5.2.2), so the multi-task variant of
FlexER can also be built on top of this matcher.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from ..config import MatcherConfig
from ..exceptions import MatchingError, NotFittedError
from ..nn import (
    MLP,
    Adam,
    Linear,
    Module,
    ReLU,
    Sequential,
    Tensor,
    l2_penalty,
    multilabel_weighted_bce,
)
from .pair_matcher import TrainingHistory, row_stack


class _MultiHeadNetwork(Module):
    """Shared trunk with a per-intent projection and scoring head."""

    def __init__(
        self,
        in_features: int,
        hidden_dims: tuple[int, ...],
        num_intents: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.trunk = MLP(
            in_features=in_features,
            hidden_dims=hidden_dims[:-1] or hidden_dims,
            out_features=hidden_dims[-1],
            rng=rng,
        )
        self.num_intents = num_intents
        self.head_dim = hidden_dims[-1]
        self._heads: list[Sequential] = []
        for index in range(num_intents):
            head = Sequential(
                Linear(self.head_dim, self.head_dim, rng=rng, init="he"),
                ReLU(),
            )
            scorer = Linear(self.head_dim, 1, rng=rng)
            setattr(self, f"head{index}", head)
            setattr(self, f"scorer{index}", scorer)
            self._heads.append(head)

    def shared(self, inputs: Tensor) -> Tensor:
        """Shared trunk representation."""
        return self.trunk(inputs).relu()

    def intent_outputs(self, inputs: Tensor) -> tuple[list[Tensor], Tensor]:
        """Every intent's latent representation and the logits, one trunk pass."""
        shared = self.shared(inputs)
        hidden = [head(shared) for head in self._heads]
        scores = [getattr(self, f"scorer{index}")(h) for index, h in enumerate(hidden)]
        return hidden, Tensor.concat(scores, axis=-1)

    def forward(self, inputs: Tensor) -> Tensor:
        """Raw scores of shape ``(n, P)`` (one logit per intent)."""
        return self.intent_outputs(inputs)[1]


class MultiLabelMatcher:
    """Joint matcher for all intents (the Multi-label baseline).

    Parameters
    ----------
    intents:
        Ordered intent names; defines the column order of labels,
        predictions, and representations.
    config:
        Training hyper-parameters shared with :class:`PairMatcher`.
    intent_weights:
        Optional per-intent loss weights ``w_p`` of Eq. 2 (defaults to
        equal weights, as in the paper).
    """

    def __init__(
        self,
        intents: tuple[str, ...],
        config: MatcherConfig | None = None,
        intent_weights: np.ndarray | None = None,
    ) -> None:
        if not intents:
            raise MatchingError("at least one intent is required")
        self.intents = tuple(intents)
        self.config = config or MatcherConfig()
        if intent_weights is not None and len(intent_weights) != len(intents):
            raise MatchingError("intent_weights must have one entry per intent")
        self.intent_weights = (
            np.asarray(intent_weights, dtype=np.float64) if intent_weights is not None else None
        )
        self._model: _MultiHeadNetwork | None = None
        self.history: TrainingHistory | None = None

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._model is not None

    def _require_model(self) -> _MultiHeadNetwork:
        if self._model is None:
            raise NotFittedError("MultiLabelMatcher must be fitted before use")
        return self._model

    def _intent_index(self, intent: str) -> int:
        try:
            return self.intents.index(intent)
        except ValueError:
            raise MatchingError(f"unknown intent: {intent!r}") from None

    def fit(self, features: np.ndarray, label_matrix: np.ndarray) -> "MultiLabelMatcher":
        """Train on encoded features and the ``(n, P)`` binary label matrix."""
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(label_matrix, dtype=np.float64)
        if features.ndim != 2 or labels.ndim != 2:
            raise MatchingError("features and label_matrix must be 2-D")
        if features.shape[0] != labels.shape[0]:
            raise MatchingError("features and labels must have the same number of rows")
        if labels.shape[1] != len(self.intents):
            raise MatchingError(
                f"label_matrix has {labels.shape[1]} columns, expected {len(self.intents)}"
            )
        if features.shape[0] == 0:
            raise MatchingError("cannot fit a matcher on an empty training set")

        rng = np.random.default_rng(self.config.seed)
        model = _MultiHeadNetwork(
            in_features=features.shape[1],
            hidden_dims=self.config.hidden_dims,
            num_intents=len(self.intents),
            rng=rng,
        )
        optimizer = Adam(model.parameters(), lr=self.config.learning_rate)
        n = features.shape[0]
        batch_size = min(self.config.batch_size, n)
        losses: list[float] = []
        for _ in range(self.config.epochs):
            permutation = rng.permutation(n)
            epoch_loss = 0.0
            batches = 0
            for start in range(0, n, batch_size):
                batch_index = permutation[start : start + batch_size]
                logits = model(Tensor(features[batch_index]))
                loss = multilabel_weighted_bce(
                    logits, labels[batch_index], self.intent_weights
                )
                if self.config.weight_decay:
                    loss = loss + l2_penalty(
                        list(model.parameters()), self.config.weight_decay
                    )
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
                epoch_loss += loss.item()
                batches += 1
            losses.append(epoch_loss / max(batches, 1))
        self._model = model
        self.history = TrainingHistory(losses=losses)
        return self

    def state_dict(self) -> dict[str, np.ndarray]:
        """Parameter arrays of the fitted network (for artifact caching)."""
        return self._require_model().state_dict()

    def load_state_dict(
        self, state: Mapping[str, np.ndarray], in_features: int
    ) -> "MultiLabelMatcher":
        """Rebuild the fitted network from :meth:`state_dict` arrays."""
        model = _MultiHeadNetwork(
            in_features=in_features,
            hidden_dims=self.config.hidden_dims,
            num_intents=len(self.intents),
            rng=np.random.default_rng(self.config.seed),
        )
        model.load_state_dict(dict(state))
        model.eval()
        self._model = model
        self.history = None
        return self

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Per-intent likelihood matrix of shape ``(n, P)``."""
        model = self._require_model()
        model.eval()
        logits = model(Tensor(np.asarray(features, dtype=np.float64)))
        return logits.sigmoid().numpy().copy()

    def predict(self, features: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Per-intent binary prediction matrix of shape ``(n, P)``."""
        return (self.predict_proba(features) >= threshold).astype(np.int64)

    def predict_intent(
        self, features: np.ndarray, intent: str, threshold: float = 0.5
    ) -> np.ndarray:
        """Binary predictions for a single intent."""
        return self.predict(features, threshold)[:, self._intent_index(intent)]

    def outputs(
        self, features: np.ndarray, row_invariant: bool = False
    ) -> tuple[list[np.ndarray], np.ndarray]:
        """Per-intent representations and the likelihood matrix, one pass.

        The representations are each intent's layer prior to its output
        (one array per intent, in intent order); the likelihoods equal
        :meth:`predict_proba`'s.  With ``row_invariant`` each row's
        values are those of a one-row call (see
        :func:`~repro.matching.pair_matcher.row_stack`).
        """
        model = self._require_model()
        model.eval()
        inputs = row_stack(features, row_invariant)
        hidden, logits = model.intent_outputs(Tensor(inputs))
        rows = inputs.shape[0]
        representations = [head.numpy().reshape(rows, model.head_dim).copy() for head in hidden]
        probabilities = logits.sigmoid().numpy().reshape(rows, model.num_intents).copy()
        return representations, probabilities

    @property
    def representation_dim(self) -> int:
        """Dimension of each per-intent latent representation."""
        return self.config.representation_dim
