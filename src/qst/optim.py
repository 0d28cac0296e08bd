"""Adam optimizer over named parameter tensors, and the epoch loop that
stage I, stage II and few-shot finetuning all train with."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .config import RunConfig
from .errors import NumericalError
from .metrics import MetricsWriter
from .tensor import Tensor


# Adam's moment decay rates and denominator offset (Kingma & Ba's defaults)
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Standard Adam with bias correction (Kingma & Ba, arXiv:1412.6980).

    The moments take each parameter's dtype.  ``step`` updates each
    parameter's array in place with whole-array operations (graphs capture
    these arrays, so a graph built before a step must not be back-propagated
    after it), and then releases its gradient (``.grad = None``), so gradients
    do not stay alive until the next step.  Parameters whose ``.grad`` is
    ``None`` are skipped; a non-finite gradient aborts the whole update before
    any parameter, moment or gradient is touched.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-4):
        self.params = dict(params)
        self.lr = lr
        self.step_count = 0
        # np.zeros leaves the zeroing to the page allocator; zeros_like writes it
        self.m = {name: np.zeros(p.shape, p.data.dtype) for name, p in self.params.items()}
        self.v = {name: np.zeros(p.shape, p.data.dtype) for name, p in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        for name, p in self.params.items():
            g = p.grad
            # a NaN or infinity shows in the max or the min; no boolean temporary
            if g is not None and g.size and not (np.isfinite(g.max()) and np.isfinite(g.min())):
                raise NumericalError(f"non-finite gradient for parameter '{name}'")
        self.step_count += 1
        t = self.step_count
        correction1 = 1.0 - BETA1**t
        correction2 = 1.0 - BETA2**t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m, v = self.m[name], self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            s = g * g
            s *= 1.0 - BETA2
            v += s
            np.divide(v, correction2, out=s)
            np.sqrt(s, out=s)
            s += EPS
            np.divide(m, s, out=s)
            s *= self.lr / correction1
            p.data -= s
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
