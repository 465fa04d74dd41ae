"""Per-intent binary pair matcher (the DITTO analogue).

The matcher casts single-intent entity resolution as binary
classification over two logits trained with cross-entropy (Eq. 1), which
is exactly the formulation DITTO fine-tunes.  Its last hidden layer is
exposed as the latent pair representation used to initialize the
multiplex intent graph (Section 4.1.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping

import numpy as np

from ..config import MatcherConfig
from ..exceptions import MatchingError, NotFittedError
from ..nn import MLP, Adam, Tensor, cross_entropy, l2_penalty


def row_stack(features: np.ndarray, row_invariant: bool) -> np.ndarray:
    """Feature rows as a matcher input, optionally as a ``(n, 1, d)`` stack.

    A batched BLAS product can change a row's last bits with the batch's
    row count.  Given a stack, numpy's matmul loop multiplies one
    ``(1, d)`` row at a time — the product a one-row batch makes — so
    each row's outputs no longer depend on the rows beside it.
    """
    features = np.asarray(features, dtype=np.float64)
    return features[:, np.newaxis, :] if row_invariant else features


@dataclass
class TrainingHistory:
    """Per-epoch training metadata returned by the matchers."""

    losses: list[float]

    @property
    def final_loss(self) -> float:
        """Loss of the final epoch (``nan`` when no epoch ran)."""
        return self.losses[-1] if self.losses else float("nan")


class PairMatcher:
    """Binary matcher over encoded pair features.

    Parameters
    ----------
    config:
        Training hyper-parameters (see :class:`~repro.config.MatcherConfig`).
    """

    def __init__(self, config: MatcherConfig | None = None) -> None:
        self.config = config or MatcherConfig()
        self._model: MLP | None = None
        self.history: TrainingHistory | None = None

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._model is not None

    def _require_model(self) -> MLP:
        if self._model is None:
            raise NotFittedError("PairMatcher must be fitted before use")
        return self._model

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "PairMatcher":
        """Train the matcher on encoded features and binary labels.

        Parameters
        ----------
        features:
            Matrix of shape ``(n, d)``.
        labels:
            Binary vector of shape ``(n,)``.
        """
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64).ravel()
        if features.ndim != 2:
            raise MatchingError("features must be a 2-D matrix")
        if features.shape[0] != labels.shape[0]:
            raise MatchingError("features and labels must have the same number of rows")
        if features.shape[0] == 0:
            raise MatchingError("cannot fit a matcher on an empty training set")
        if not np.isin(labels, (0, 1)).all():
            raise MatchingError("labels must be binary")

        rng = np.random.default_rng(self.config.seed)
        model = MLP(
            in_features=features.shape[1],
            hidden_dims=self.config.hidden_dims,
            out_features=2,
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
                inputs = Tensor(features[batch_index])
                logits = model(inputs)
                loss = cross_entropy(logits, labels[batch_index])
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
        """Parameter arrays of the fitted model (for artifact caching)."""
        return self._require_model().state_dict()

    def load_state_dict(
        self, state: Mapping[str, np.ndarray], in_features: int
    ) -> "PairMatcher":
        """Rebuild the fitted model from :meth:`state_dict` arrays.

        Restoring skips training entirely: the architecture is derived
        from the matcher configuration plus ``in_features`` and the
        parameters are loaded verbatim, so a restored matcher produces
        byte-identical predictions and representations.
        """
        model = MLP(
            in_features=in_features,
            hidden_dims=self.config.hidden_dims,
            out_features=2,
            rng=np.random.default_rng(self.config.seed),
        )
        model.load_state_dict(dict(state))
        model.eval()
        self._model = model
        self.history = None
        return self

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Likelihood scores (probability of the positive class) per pair."""
        model = self._require_model()
        model.eval()
        logits = model(Tensor(np.asarray(features, dtype=np.float64)))
        probabilities = logits.softmax(axis=-1).numpy()
        return probabilities[..., 1]

    def predict(self, features: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Binary predictions obtained by thresholding the likelihoods."""
        return (self.predict_proba(features) >= threshold).astype(np.int64)

    def outputs(
        self, features: np.ndarray, row_invariant: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Latent representations and likelihoods from one shared forward pass.

        The representations are the last hidden layer (the ``[CLS]``
        analogue); the likelihood head runs on them, so the likelihoods
        equal :meth:`predict_proba`'s.  With ``row_invariant`` each row's
        values are those of a one-row call (see :func:`row_stack`).
        """
        model = self._require_model()
        model.eval()
        inputs = row_stack(features, row_invariant)
        hidden = model.hidden_representation(Tensor(inputs))
        logits = model.head(hidden)
        probabilities = logits.softmax(axis=-1).numpy()[..., 1]
        rows, width = inputs.shape[0], hidden.shape[-1]
        return hidden.numpy().reshape(rows, width).copy(), probabilities.reshape(rows)

    @property
    def representation_dim(self) -> int:
        """Dimension of the latent pair representation."""
        return self.config.representation_dim
