"""Optimizers: SGD (with momentum) and Adam.

The paper fine-tunes matchers and trains the GNN with Adam (Kingma & Ba),
optionally with decoupled weight decay; both are provided here.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from ..exceptions import ConfigurationError
from .layers import Parameter


class Optimizer:
    """Base class holding the parameter list."""

    def __init__(self, parameters: Iterable[Parameter]) -> None:
        self.parameters = list(parameters)
        if not self.parameters:
            raise ConfigurationError("optimizer received no parameters")

    def zero_grad(self) -> None:
        """Clear gradients of all managed parameters."""
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters)
        if lr <= 0:
            raise ConfigurationError("learning rate must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError("momentum must be in [0, 1)")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        """Apply one SGD update using the accumulated gradients."""
        for index, parameter in enumerate(self.parameters):
            if parameter.grad is None:
                continue
            gradient = parameter.grad
            if self.weight_decay:
                gradient = gradient + self.weight_decay * parameter.data
            if self.momentum:
                self._velocity[index] = (
                    self.momentum * self._velocity[index] - self.lr * gradient
                )
                parameter.data = parameter.data + self._velocity[index]
            else:
                parameter.data = parameter.data - self.lr * gradient


class Adam(Optimizer):
    """Adam optimizer with decoupled weight decay (AdamW-style)."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters)
        if lr <= 0:
            raise ConfigurationError("learning rate must be positive")
        if not (0.0 <= betas[0] < 1.0 and 0.0 <= betas[1] < 1.0):
            raise ConfigurationError("betas must be in [0, 1)")
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        """Apply one Adam update using the accumulated gradients.

        The moments are updated in place and every update is evaluated in
        the operation order of ``m = β₁·m + (1-β₁)·g``,
        ``v = β₂·v + ((1-β₂)·g)·g``, ``p -= lr·(m̂ / (√v̂ + ε) + λ·p)``,
        so each rounding matches the out-of-place formulas.
        """
        self._step += 1
        beta1, beta2 = self.betas
        m_correction = 1.0 - beta1**self._step
        v_correction = 1.0 - beta2**self._step
        for parameter, m, v in zip(self.parameters, self._m, self._v):
            if parameter.grad is None:
                continue
            gradient = parameter.grad
            m *= beta1
            m += (1.0 - beta1) * gradient
            squared = (1.0 - beta2) * gradient
            squared *= gradient
            v *= beta2
            v += squared
            denominator = v / v_correction
            np.sqrt(denominator, out=denominator)
            denominator += self.eps
            update = m / m_correction
            update /= denominator
            if self.weight_decay:
                update += self.weight_decay * parameter.data
            update *= self.lr
            parameter.data = parameter.data - update
