"""Dense 64-bit tensors with reverse-mode automatic differentiation.

The graph is built eagerly: every operation stores its parent tensors and a
closure that maps the output gradient to parent gradients.  ``backward()``
walks the graph in reverse topological order, keeping gradients of
intermediate nodes in a transient table and accumulating (adding, never
overwriting) into ``.grad`` of leaf tensors only.  Calling ``backward()``
twice therefore doubles leaf gradients exactly.

All data is float64; 32-bit floats appear only at serialization boundaries.
Integer index arrays (embedding lookups, classification targets) are plain
numpy arrays, not tensors.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
from scipy.special import erf as _erf

from .errors import ConfigurationError, DimensionError

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph construction inside the block (evaluation fast path)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A numpy array plus the bookkeeping needed for reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- graph traversal ---------------------------------------------------

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Accumulate d(self)/d(leaf) into every reachable leaf's ``.grad``."""
        if not self.requires_grad:
            return
        if grad is None:
            if self.size != 1:
                raise DimensionError("backward() without a seed needs a scalar output")
            seed = np.ones_like(self.data)
        else:
            seed = np.asarray(grad, dtype=np.float64)
            if seed.shape != self.shape:
                raise DimensionError(f"seed shape {seed.shape} != tensor shape {self.shape}")

        # Iterative DFS: model graphs are deep enough to overflow recursion.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        flows: dict[int, np.ndarray] = {id(self): seed}
        for node in reversed(topo):
            out_grad = flows.pop(id(node), None)
            if out_grad is None:
                continue
            if node._backward is None:
                node.grad = out_grad if node.grad is None else node.grad + out_grad
                continue
            for parent, parent_grad in zip(node._parents, node._backward(out_grad)):
                if parent_grad is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in flows:
                    flows[key] = flows[key] + parent_grad
                else:
                    flows[key] = parent_grad

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, _wrap(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division is not part of the op set")
        return mul(self, _wrap(1.0 / other))

    def __neg__(self):
        return mul(self, _wrap(-1.0))

    def __pow__(self, exponent):
        return power(self, exponent)

    def __matmul__(self, other):
        return matmul(self, other)

    def tanh(self):
        return tanh(self)

    def relu(self):
        return relu(self)

    def gelu(self):
        return gelu(self)

    def abs(self):
        return absolute(self)

    def sum(self):
        return total(self)

    def mean(self):
        return mean(self)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes)


def _wrap(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float64))


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    """Build an op output without re-copying ``data`` (may be a view)."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast axes."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# -- elementwise arithmetic ----------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    return _node(
        a.data + b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)),
    )


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _node(
        a.data - b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)),
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _node(
        a.data * b.data,
        (a, b),
        lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)),
    )


def power(x: Tensor, exponent: float) -> Tensor:
    p = float(exponent)
    return _node(x.data**p, (x,), lambda g: (g * p * x.data ** (p - 1.0),))


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)
    return _node(t, (x,), lambda g: (g * (1.0 - t * t),))


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0.0)
    return _node(out, (x,), lambda g: (g * (x.data > 0.0),))


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) GELU."""
    cdf = 0.5 * (1.0 + _erf(x.data * _INV_SQRT2))
    out = x.data * cdf

    def backward(g):
        pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT_2PI
        return (g * (cdf + x.data * pdf),)

    return _node(out, (x,), backward)


def absolute(x: Tensor) -> Tensor:
    return _node(np.abs(x.data), (x,), lambda g: (g * np.sign(x.data),))


# -- reductions ------------------------------------------------------------


def total(x: Tensor) -> Tensor:
    out = np.asarray(x.data.sum())
    return _node(out, (x,), lambda g: (np.broadcast_to(g, x.shape).copy(),))


def mean(x: Tensor) -> Tensor:
    n = x.size
    out = np.asarray(x.data.mean())
    return _node(out, (x,), lambda g: (np.broadcast_to(g / n, x.shape).copy(),))


def l1_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean absolute error over every element."""
    return mean(absolute(sub(prediction, _wrap(target))))


# -- shape manipulation ----------------------------------------------------


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    return _node(x.data.reshape(shape), (x,), lambda g: (g.reshape(x.shape),))


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    inverse = tuple(np.argsort(axes))
    return _node(np.transpose(x.data, axes), (x,), lambda g: (np.transpose(g, inverse),))


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    index = [slice(None)] * x.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)

    def backward(g):
        full = np.zeros(x.shape, dtype=np.float64)
        full[index] = g
        return (full,)

    return _node(x.data[index], (x,), backward)


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    data = np.concatenate([t.data for t in tensors], axis=axis)
    splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=axis))

    return _node(data, tuple(tensors), backward)


# -- linear algebra ----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes with broadcast batch dims."""
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError("matmul operands must have at least 2 dimensions")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner dims differ: {a.shape} @ {b.shape}")

    def backward(g):
        ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        return (ga, gb)

    return _node(np.matmul(a.data, b.data), (a, b), backward)


# -- lookup / normalization / classification --------------------------------


def embedding(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup; the backward pass scatter-adds into the table gradient."""
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise DimensionError("embedding indices must be integers")

    def backward(g):
        gt = np.zeros(table.shape, dtype=np.float64)
        np.add.at(gt, idx, g)
        return (gt,)

    return _node(table.data[idx], (table,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    normed = centered * inv
    out = normed * gain.data + bias.data

    def backward(g):
        gn = g * gain.data
        # d/dx of (x - mu) * inv with mu, inv both functions of x.
        gx = inv * (
            gn
            - gn.mean(axis=-1, keepdims=True)
            - normed * (gn * normed).mean(axis=-1, keepdims=True)
        )
        reduce_axes = tuple(range(g.ndim - 1))
        ggain = (g * normed).sum(axis=reduce_axes)
        gbias = g.sum(axis=reduce_axes)
        return (gx, ggain, gbias)

    return _node(out, (x, gain, bias), backward)


def masked_softmax(scores: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Softmax over the last axis, restricted to positions where mask is True.

    Masked positions get probability exactly zero and receive no gradient.
    Raises if any row has no allowed position.
    """
    if mask is None:
        shifted = scores.data - scores.data.max(axis=-1, keepdims=True)
        expd = np.exp(shifted)
    else:
        mask = np.asarray(mask, dtype=bool)
        if not mask.any(axis=-1).all():
            raise ConfigurationError("attention mask has a row with no allowed position")
        neg = np.where(mask, scores.data, -np.inf)
        shifted = neg - neg.max(axis=-1, keepdims=True)
        expd = np.where(mask, np.exp(shifted), 0.0)
    probs = expd / expd.sum(axis=-1, keepdims=True)

    def backward(g):
        inner = (g * probs).sum(axis=-1, keepdims=True)
        return (probs * (g - inner),)

    return _node(probs, (scores,), backward)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer targets under softmax logits.

    ``logits`` has shape (..., K); ``targets`` the corresponding (...) ints.
    """
    from .errors import RangeError

    idx = np.asarray(targets)
    if idx.shape != logits.shape[:-1]:
        raise DimensionError(f"targets shape {idx.shape} != logits rows {logits.shape[:-1]}")
    k = logits.shape[-1]
    if idx.size and (idx.min() < 0 or idx.max() >= k):
        raise RangeError(f"target index out of range [0, {k})")

    flat = logits.data.reshape(-1, k)
    flat_idx = idx.reshape(-1)
    n = flat.shape[0]
    m = flat.max(axis=-1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(flat - m).sum(axis=-1))
    picked = flat[np.arange(n), flat_idx]
    out = np.asarray((lse - picked).mean())

    def backward(g):
        soft = np.exp(flat - lse[:, None])
        soft[np.arange(n), flat_idx] -= 1.0
        return ((g / n) * soft.reshape(logits.shape),)

    return _node(out, (logits,), backward)


# -- stochastic / structured ops ---------------------------------------------


def dropout(x: Tensor, p: float, rng: np.random.Generator | None, training: bool) -> Tensor:
    """Zero elements with probability p and rescale; identity at evaluation."""
    if not training or p <= 0.0:
        return x
    if rng is None:
        raise ConfigurationError("dropout in training mode needs the run's generator")
    keep = (rng.random(x.shape) >= p) / (1.0 - p)
    return mul(x, _wrap(keep))


def causal_conv1d(x: Tensor, kernel: Tensor, stride: int) -> Tensor:
    """Strided 1D convolution that never reads the future.

    ``x`` is (T, Cin) or (B, T, Cin); ``kernel`` is (K, Cin, Cout).  The input
    is left-padded with K-1 zero frames, so output index j reads input indices
    j*stride-K+1 ... j*stride and the output length is ceil(T/stride).
    """
    if kernel.ndim != 3:
        raise DimensionError(f"kernel must be (K, Cin, Cout), got {kernel.shape}")
    squeeze = x.ndim == 2
    xd = x.data[None] if squeeze else x.data
    if xd.ndim != 3:
        raise DimensionError(f"input must be (T, Cin) or (B, T, Cin), got {x.shape}")
    ksize, c_in, c_out = kernel.shape
    if xd.shape[-1] != c_in:
        raise DimensionError(f"input channels {xd.shape[-1]} != kernel channels {c_in}")
    if stride < 1:
        raise DimensionError("stride must be a positive integer")

    batch, t_in, _ = xd.shape
    t_out = -(-t_in // stride)
    padded = np.concatenate([np.zeros((batch, ksize - 1, c_in)), xd], axis=1)
    stop = (t_out - 1) * stride + 1
    out = np.zeros((batch, t_out, c_out))
    for k in range(ksize):
        out += np.matmul(padded[:, k : k + stop : stride, :], kernel.data[k])

    def backward(g):
        gb = g[None] if g.ndim == 2 else g
        gflat = gb.reshape(-1, c_out)
        gk = np.empty_like(kernel.data)
        gpad = np.zeros_like(padded)
        for k in range(ksize):
            tap = padded[:, k : k + stop : stride, :]
            gk[k] = tap.reshape(-1, c_in).T @ gflat
            gpad[:, k : k + stop : stride, :] += np.matmul(gb, kernel.data[k].T)
        gx = gpad[:, ksize - 1 :, :]
        return (gx[0] if squeeze else gx, gk)

    return _node(out[0] if squeeze else out, (x, kernel), backward)


def masked_attention(
    queries: Tensor,
    keys: Tensor,
    values: Tensor,
    mask: np.ndarray | None = None,
    p: float = 0.0,
    rng: np.random.Generator | None = None,
    training: bool = False,
) -> Tensor:
    """Scaled dot-product attention restricted to mask-allowed positions.

    Each output row is a combination of value rows j with mask[i][j] True:
    convex at evaluation, and in training mode with the attention
    probabilities passed through ``dropout(p, rng, training)``.  Shapes are
    (..., Tq, D) / (..., Tk, D) with a (Tq, Tk)-broadcastable boolean mask.
    """
    if keys.shape[-1] != queries.shape[-1]:
        raise DimensionError("queries and keys must share the feature dimension")
    if values.shape[-2] != keys.shape[-2]:
        raise DimensionError("keys and values must share the sequence length")
    scale = 1.0 / np.sqrt(queries.shape[-1])
    scores = mul(matmul(queries, transpose(keys, _swap_last(keys.ndim))), _wrap(scale))
    probs = dropout(masked_softmax(scores, mask), p, rng, training)
    return matmul(probs, values)


def _swap_last(ndim: int) -> tuple[int, ...]:
    axes = list(range(ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    return tuple(axes)


def sinusoidal_table(length: int, dim: int) -> np.ndarray:
    """Fixed sine/cosine positional table of shape (length, dim)."""
    positions = np.arange(length, dtype=np.float64)[:, None]
    freqs = np.exp(-np.log(10000.0) * (2 * (np.arange(dim) // 2)) / dim)[None, :]
    angles = positions * freqs
    table = np.empty((length, dim))
    table[:, 0::2] = np.sin(angles[:, 0::2])
    table[:, 1::2] = np.cos(angles[:, 1::2])
    return table
