"""Adam optimizer over named parameter tensors, and the epoch loop that
stage I, stage II and few-shot finetuning all train with."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .config import RunConfig
from .errors import NumericalError
from .metrics import MetricsWriter
from .tensor import Tensor


class Adam:
    """Standard Adam with bias correction.

    ``step`` updates each parameter's array in place (graphs capture these
    arrays, so a graph built before a step must not be back-propagated after
    it) and then releases its gradient (``.grad = None``), so gradients do not
    stay alive until the next step.  Parameters whose ``.grad`` is ``None`` are
    skipped; a non-finite gradient aborts the whole update before any
    parameter or gradient is touched.
    """

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float = 1e-4,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = dict(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        for name, p in self.params.items():
            if p.grad is not None and not np.isfinite(p.grad).all():
                raise NumericalError(f"non-finite gradient for parameter '{name}'")
        self.step_count += 1
        t = self.step_count
        correction1 = 1.0 - self.beta1**t
        correction2 = 1.0 - self.beta2**t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            denom = np.sqrt(v / correction2)
            denom += self.eps
            update = np.divide(m, denom, out=denom)
            update *= self.lr / correction1
            p.data -= update
            p.grad = None


def train_epochs(
    params: dict[str, Tensor],
    cfg: RunConfig,
    epochs: int,
    rng: np.random.Generator,
    count: int,
    batch_loss: Callable[[np.ndarray], Tensor],
    metrics: MetricsWriter | None,
    epoch_row: Callable[[int, float], dict],
    cap: int = 0,
) -> None:
    """Train ``params`` with Adam over ``epochs`` shuffled passes of ``count`` examples.

    Each epoch draws one permutation of ``range(count)`` from ``rng``, keeps
    its first ``cap`` entries when ``cap > 0``, and takes one step per batch of
    ``cfg.batch_size`` indices on the loss tensor ``batch_loss(indices)``.
    With a writer, ``epoch_row(epoch, loss)`` then builds the epoch's metrics
    row from its batch-size-weighted mean loss.
    """
    opt = Adam(params, lr=cfg.learning_rate)
    for epoch in range(epochs):
        order = rng.permutation(count)
        if cap > 0:
            order = order[:cap]
        loss_sum = 0.0
        for lo in range(0, len(order), cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            opt.zero_grad()
            loss = batch_loss(idx)
            loss.backward()
            opt.step()
            loss_sum += loss.item() * len(idx)
        if metrics is not None:
            metrics.log(**epoch_row(epoch, loss_sum / max(len(order), 1)))
