"""Finite-difference verification of reverse-mode gradients."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NumericalError
from .tensor import Tensor, widened

EPS = 1e-5  # central-difference step


def grad_check(scalar_function: Callable[[Tensor], Tensor], point: np.ndarray | Tensor) -> float:
    """Compare the reverse-mode gradient against central finite differences.

    ``scalar_function`` maps one tensor to a scalar tensor and must be
    differentiable at ``point`` (keep sample points away from rounding
    thresholds and mask boundaries).  Returns the maximum over components of
    ``|g_ad - g_fd| / max(1, |g_fd|)``; ``point`` itself is not modified.
    The point is rounded to float32, as a tensor holds it, and probed in
    float64 as in :func:`grad_check_params`.
    """
    x = Tensor(point.data if isinstance(point, Tensor) else point, requires_grad=True)
    return grad_check_params(lambda: scalar_function(x), {"x": x})


def grad_check_params(loss_fn: Callable[[], Tensor], params: dict[str, Tensor]) -> float:
    """grad_check over every component of a named parameter dict.

    ``loss_fn`` closes over ``params`` and rebuilds the scalar loss from their
    current data, so finite differences can perturb parameters in place.  The
    check runs on float64 copies of the parameters (a float32 step of EPS
    would be mostly rounding error); afterwards every parameter holds its
    own array again, bitwise unchanged, with no gradient.
    """
    with widened(params.values()):
        for p in params.values():
            p.grad = None
        loss = loss_fn()
        if loss.size != 1:
            raise NumericalError("grad_check needs a scalar-valued function")
        if not np.isfinite(loss.data).all():
            raise NumericalError("loss is not finite at the given parameters")
        loss.backward()

        worst = 0.0
        for name, p in params.items():
            g_ad = p.grad if p.grad is not None else np.zeros_like(p.data)
            flat = p.data.reshape(-1)
            for i in range(flat.size):
                original = flat[i]
                flat[i] = original + EPS
                hi = loss_fn().item()
                flat[i] = original - EPS
                lo = loss_fn().item()
                flat[i] = original
                if not (np.isfinite(hi) and np.isfinite(lo)):
                    raise NumericalError(f"non-finite loss while probing {name}[{i}]")
                g_fd = (hi - lo) / (2.0 * EPS)
                err = abs(g_ad.reshape(-1)[i] - g_fd) / max(1.0, abs(g_fd))
                worst = max(worst, err)
    for p in params.values():
        p.grad = None
    return worst
