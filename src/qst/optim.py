"""Adam optimizer over named parameter tensors, and the epoch loop that
stage I, stage II and few-shot finetuning all train with."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .config import RunConfig
from .errors import ArgumentError, NumericalError
from .metrics import MetricsWriter
from .tensor import Tensor


# elements per update block: the block's slices of the parameter, gradient,
# moments and scratch buffers (at most 256 KB each) stay in cache across its
# operations
BLOCK = 1 << 15
# Adam's moment decay rates and denominator offset (Kingma & Ba's defaults)
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Standard Adam with bias correction.

    The moments and the update are float64.  ``step`` subtracts the update
    from each (float32) parameter's array in place, rounding once (graphs
    capture these arrays, so a graph built before a step must not be
    back-propagated after it), and then releases its gradient
    (``.grad = None``), so gradients do not stay alive until the next step.
    Parameters whose ``.grad`` is ``None`` are skipped; a non-finite gradient
    (or a parameter array that is not C-contiguous, which modules never
    build) aborts the whole update before any parameter or gradient is
    touched.  The update runs in blocks of
    :data:`BLOCK` elements through two preallocated float64 scratch buffers,
    with the same operations in the same order as a whole-array update, so the
    parameters it produces are bitwise the same.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-4):
        self.params = dict(params)
        self.lr = lr
        self.step_count = 0
        self.m = {name: np.zeros(p.data.shape) for name, p in self.params.items()}
        self.v = {name: np.zeros(p.data.shape) for name, p in self.params.items()}
        largest = max((p.data.size for p in self.params.values()), default=0)
        self._scratch = np.empty(min(largest, BLOCK))
        self._wide = np.empty(min(largest, BLOCK))  # the block's gradient, then its parameter

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            # a NaN or infinity shows in the max or the min; no boolean temporary
            if g.size and not (np.isfinite(g.max()) and np.isfinite(g.min())):
                raise NumericalError(f"non-finite gradient for parameter '{name}'")
            if not p.data.flags.c_contiguous:
                raise ArgumentError(f"parameter '{name}' is not a C-contiguous array")
        self.step_count += 1
        t = self.step_count
        correction1 = 1.0 - BETA1**t
        correction2 = 1.0 - BETA2**t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            data = p.data.reshape(-1)
            grad = p.grad.reshape(-1)
            m = self.m[name].reshape(-1)
            v = self.v[name].reshape(-1)
            for lo in range(0, data.size, BLOCK):
                mb = m[lo : lo + BLOCK]
                vb = v[lo : lo + BLOCK]
                s = self._scratch[: mb.size]
                # widen with one cast each way: mixed-dtype ufuncs are slower
                g = self._wide[: mb.size]
                np.copyto(g, grad[lo : lo + BLOCK])
                mb *= BETA1
                mb += np.multiply(g, 1.0 - BETA1, out=s)
                vb *= BETA2
                np.multiply(g, g, out=s)
                vb += np.multiply(s, 1.0 - BETA2, out=s)
                np.divide(vb, correction2, out=s)
                np.sqrt(s, out=s)
                s += EPS
                np.divide(mb, s, out=s)
                s *= self.lr / correction1
                np.copyto(g, data[lo : lo + BLOCK])
                g -= s
                np.copyto(data[lo : lo + BLOCK], g)
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
