"""Adam optimizer over named parameter tensors."""

from __future__ import annotations

import numpy as np

from .errors import NumericalError
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
