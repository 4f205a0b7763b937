"""The optimizer: Adam with learning-rate decay, and gradient clipping.

The paper's training hyperparameters (App. B) include a learning rate, an
exponential learning-rate decay and an optional gradient-norm clip; those
are the optimizer's arguments (``TrainConfig`` sets them). Adam's moment
decays and epsilon are fixed: :data:`BETA1`, :data:`BETA2`, :data:`EPS`.
"""
from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor

#: Adam's first- and second-moment decay rates and denominator epsilon.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def clip_global_norm(params: list[Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``.

    Returns:
        The pre-clip global norm.
    """
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad**2).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm


class Adam:
    """Adam with bias correction (Kingma & Ba) over a fixed parameter list.

    The learning rate decays exponentially: it is multiplied by ``decay``
    once every ``decay_every`` steps.
    """

    def __init__(
        self,
        params: list[Tensor],
        lr: float = 1e-3,
        *,
        decay: float = 1.0,
        decay_every: int = 1000,
    ) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        self.base_lr = lr
        self.decay = decay
        self.decay_every = decay_every
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    @property
    def lr(self) -> float:
        """Current learning rate after exponential decay."""
        return self.base_lr * self.decay ** (self.step_count // self.decay_every)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        b1, b2 = BETA1, BETA2
        # A Python float, so parameters stay float32: a NumPy double-precision
        # scalar would promote every parameter it multiplies.
        step_size = self.lr * math.sqrt(1.0 - b2**t) / (1.0 - b1**t)
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            g = p.grad
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            p.data = p.data - step_size * m / (np.sqrt(v) + EPS)
