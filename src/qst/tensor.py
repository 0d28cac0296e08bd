"""Dense float32 tensors with reverse-mode automatic differentiation.

The graph is built eagerly: every operation records a node (see ``_op``)
holding a closure that maps the output gradient to input gradients.  A
closure captures only the arrays and shapes its backward pass reads, never a
tensor, so an op output that no backward reads is freed as soon as the
caller drops it.  ``backward()`` walks the nodes in reverse topological
order, keeping gradients of intermediate nodes in a transient table and
accumulating (adding, never overwriting) into ``.grad`` of leaf tensors
only.  Calling ``backward()`` twice therefore doubles leaf gradients exactly.

The one dtype decision lives here: a ``Tensor`` built from data holds
:data:`DTYPE` (float32), so parameters, activations and gradients are
float32.  Ops compute in their operands' dtype, a non-tensor operand takes
the tensor operand's dtype, and every backward closure returns each input's
gradient in that input's dtype.  Float64 (:data:`WIDE`) stays where the
numerics need it: :func:`masked_attention` runs its scores, softmax,
dropout and value mix in float64 inside one graph node, which keeps only
its inputs as given, the float64 probabilities and the boolean dropout mask;
:func:`total`, :func:`mean` and
:func:`cross_entropy` reduce in float64 and return a float64 scalar;
:func:`gelu` evaluates its erf in float64 (``_erf``, numpy only) and rounds
it to the activation's dtype, bitwise what SciPy's float32 ``erf`` gives; and
:func:`widened` lets the finite-difference oracle run a whole model in
float64.  Integer index arrays (embedding lookups, classification targets)
are plain numpy arrays, not tensors.
"""

from __future__ import annotations

import ctypes
import math
import warnings
from contextlib import contextmanager

import numpy as np

from .errors import ConfigurationError, DimensionError, RangeError

DTYPE = np.float32  # parameters, activations and gradients
WIDE = np.float64  # attention, scalar reductions and finite differences

# Python floats, which take the array operand's dtype (a numpy float64 scalar
# would promote every float32 activation it touches)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# erf(x) = 2/sqrt(pi) * sum_n (-1)^n x^(2n+1) / (n! (2n+1)); for |x| < 1 the
# first 18 terms reach float64 precision.  Highest power of x^2 first.
_ERF_TAYLOR = tuple(
    2.0 / math.sqrt(math.pi) * (-1) ** n / (math.factorial(n) * (2 * n + 1)) for n in range(17, -1, -1)
)
# For 1 <= x < 6, erfc(x) = exp(-x^2) P(x) / Q(x): the rational fit of
# mpmath's float erfc (mpmath/math2.py), highest power first.  From 6 on, erf
# rounds to 1 in float64.
_ERFC_P = (
    0.00044560259661560421715, 0.0063065951710717791934, 0.045459713768411264339,
    0.20924776504163751585, 0.66275911699770787537, 1.4695509105618423961,
    2.2280433377390253297, 2.1275306946297962644, 1.0000000161203922312,
)
_ERFC_Q = (
    0.00078981003831980423513, 0.011178148899483545902, 0.080970149639040548613,
    0.37647108453729465912, 1.2146026030046904138, 2.7845640601891186528,
    4.4971472894498014205, 4.9019435608903239131, 3.2559100272784894318,
    1.0000000000000000000,
)
_ERF_ONE = 6.0

_grad_enabled = True

# glibc mallopt parameters (malloc.h) and the values set at import.  A
# training step frees a graph of hundreds of megabytes and the next step
# builds one as large.  By default glibc adapts its mmap threshold to the
# largest block freed so far and trims the heap top above twice that, so the
# freed graph goes back to the OS and the next step page-faults it in again:
# about 39k minor faults per stage-II and 54k per stage-I step at the default
# shapes and batch 64.
# A trim threshold above any step's graph keeps that heap in the process;
# the mmap threshold is then fixed, at glibc's dynamic maximum of 32 MB, so
# every array below it comes from the heap (measured against 4 MB: equal or
# better on training and batched inference, and 0 faults per training step).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_TRIM_THRESHOLD = 1 << 30
_MMAP_THRESHOLD = 32 << 20
# The first training step also allocates about a hundred small blocks that
# numpy and the interpreter keep (glibc's malloc_info counts them).  With no
# free small chunk to take them from, glibc cuts them out of the heap that
# step's graph then frees; they split that region, and the next step can
# outgrow it by tens of pages.  So import leaves a pool of free 1 KB chunks,
# each between two held ones so that they cannot merge: 1 MB of heap in all.
_POOL_CHUNKS = 512
_POOL_CHUNK_BYTES = 1024


def _keep_freed_heap() -> None:
    """Set glibc's trim and mmap thresholds once and leave the pool of free
    small chunks; a no-op where the C library has no ``mallopt``."""
    try:
        libc = ctypes.CDLL(None)
        mallopt, malloc, free = libc.mallopt, libc.malloc, libc.free
    except (OSError, TypeError, AttributeError):  # no C library symbols, or no mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in ((_M_TRIM_THRESHOLD, _TRIM_THRESHOLD), (_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)):
        if mallopt(param, value) != 1:
            warnings.warn(f"mallopt({param}, {value}) failed", RuntimeWarning, stacklevel=2)
    malloc.argtypes = (ctypes.c_size_t,)
    malloc.restype = ctypes.c_void_p
    free.argtypes = (ctypes.c_void_p,)
    free.restype = None
    chunks = [malloc(_POOL_CHUNK_BYTES) for _ in range(2 * _POOL_CHUNKS)]
    for chunk in chunks[::2]:  # the others stay allocated for the process's life
        free(chunk)


_keep_freed_heap()


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


@contextmanager
def widened(tensors):
    """Run the block with each tensor's data swapped for a float64 copy, and
    put the original arrays back afterwards.  The block never writes into
    the originals, so they come back bitwise unchanged; gradients computed
    inside stay float64."""
    originals = [t.data for t in tensors]
    for t in tensors:
        t.data = t.data.astype(WIDE)
    try:
        yield
    finally:
        for t, data in zip(tensors, originals):
            t.data = data


class Tensor:
    """A numpy array plus the bookkeeping needed for reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=DTYPE)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._node: tuple | None = None  # (backward, parents); see _op

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
            seed = np.asarray(grad, dtype=self.data.dtype)
            if seed.shape != self.shape:
                raise DimensionError(f"seed shape {seed.shape} != tensor shape {self.shape}")

        # Iterative DFS: model graphs are deep enough to overflow recursion.
        root = self if self._node is None else self._node
        topo: list = []
        visited: set[int] = set()
        stack: list[tuple] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            if type(node) is tuple:
                for parent in node[1]:
                    if parent is not None and id(parent) not in visited:
                        stack.append((parent, False))

        flows: dict[int, np.ndarray] = {id(root): seed}
        for node in reversed(topo):
            out_grad = flows.pop(id(node), None)
            if out_grad is None:
                continue
            if type(node) is not tuple:
                node.grad = out_grad if node.grad is None else node.grad + out_grad
                continue
            backward, parents = node
            for parent, parent_grad in zip(parents, backward(out_grad)):
                if parent is None or parent_grad is None:
                    continue
                key = id(parent)
                if key in flows:
                    flows[key] = flows[key] + parent_grad
                else:
                    flows[key] = parent_grad

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, _wrap(other, self))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _wrap(other, self))

    def __rsub__(self, other):
        return sub(_wrap(other, self), self)

    def __mul__(self, other):
        return mul(self, _wrap(other, self))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division is not part of the op set")
        return mul(self, _wrap(1.0 / other, self))

    def __neg__(self):
        return mul(self, _wrap(-1.0, self))

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


def _wrap(value, like: Tensor) -> Tensor:
    """``value`` as a tensor; anything but a tensor takes ``like``'s dtype."""
    if isinstance(value, Tensor):
        return value
    return _op(np.asarray(value, dtype=like.data.dtype), (), None)


def _op(data: np.ndarray, inputs: tuple[Tensor, ...], backward) -> Tensor:
    """Build an op output without re-copying ``data`` (may be a view).

    Its node is ``(backward, parents)``, with per input its node, the input
    itself if it is a leaf, or None if it needs no gradient.
    """
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = _grad_enabled and any(t.requires_grad for t in inputs)
    out._node = None
    if out.requires_grad:
        out._node = (backward, tuple(t._node or (t if t.requires_grad else None) for t in inputs))
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
    a_shape, b_shape = a.shape, b.shape
    return _op(
        a.data + b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a_shape), _unbroadcast(g, b_shape)),
    )


def sub(a: Tensor, b: Tensor) -> Tensor:
    a_shape, b_shape = a.shape, b.shape
    return _op(
        a.data - b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a_shape), _unbroadcast(-g, b_shape)),
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    a_shape, b_shape = a.shape, b.shape
    # each gradient reads the other operand: keep only the ones needed
    da = b.data if a.requires_grad else None
    db = a.data if b.requires_grad else None

    def backward(g):
        return (
            None if da is None else _unbroadcast(g * da, a_shape),
            None if db is None else _unbroadcast(g * db, b_shape),
        )

    return _op(a.data * b.data, (a, b), backward)


def power(x: Tensor, exponent: float) -> Tensor:
    p = float(exponent)
    xd = x.data
    return _op(xd**p, (x,), lambda g: (g * p * xd ** (p - 1.0),))


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)
    return _op(t, (x,), lambda g: (g * (1.0 - t * t),))


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0.0)  # positive exactly where the input is
    return _op(out, (x,), lambda g: (g * (out > 0.0),))


def _horner(coeffs: tuple[float, ...], x: np.ndarray) -> np.ndarray:
    """The polynomial with ``coeffs`` (highest power first) at ``x``, into
    one new array."""
    p = x * coeffs[0]
    for c in coeffs[1:-1]:
        p += c
        p *= x
    p += coeffs[-1]
    return p


def _erf_series(x: np.ndarray) -> np.ndarray:
    """erf for 0 <= x < 1."""
    series = _horner(_ERF_TAYLOR, x * x)
    series *= x
    return series


def _erf_tail(x: np.ndarray) -> np.ndarray:
    """erf for 1 <= x < :data:`_ERF_ONE`."""
    tail = x * x
    np.negative(tail, out=tail)
    np.exp(tail, out=tail)
    tail *= _horner(_ERFC_P, x)
    tail /= _horner(_ERFC_Q, x)
    return np.subtract(1.0, tail, out=tail)


def _erf(x: np.ndarray) -> np.ndarray:
    """erf of a float array in ``x``'s dtype, evaluated in float64: for
    float32 that is the float32 rounding of the float64 erf, as SciPy's
    float32 ``erf`` gives.  Each branch runs only on the magnitudes it
    serves, gathered by index; beyond them erf is 1 (infinities included),
    and NaN stays NaN.  The sign comes back with ``copysign``."""
    a = np.abs(x, dtype=WIDE).ravel()
    out = np.minimum(a, 1.0)
    near = np.flatnonzero(a < 1.0)
    mid = np.flatnonzero((a >= 1.0) & (a < _ERF_ONE))
    out[near] = _erf_series(a[near])
    out[mid] = _erf_tail(a[mid])
    np.copysign(out, x.ravel(), out=out)
    return out.astype(x.dtype, copy=False).reshape(x.shape)


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) GELU (Hendrycks & Gimpel, arXiv:1606.08415); the
    erf runs in float64 and rounds back to the activation dtype."""
    xd = x.data
    cdf = 0.5 * (1.0 + _erf(xd * _INV_SQRT2))

    def backward(g):
        pdf = np.exp(-0.5 * xd * xd) * _INV_SQRT_2PI
        return (g * (cdf + xd * pdf),)

    return _op(xd * cdf, (x,), backward)


def absolute(x: Tensor) -> Tensor:
    xd = x.data
    return _op(np.abs(xd), (x,), lambda g: (g * np.sign(xd),))


def round_ste(x: Tensor) -> Tensor:
    """Round to the nearest integer; the backward pass is the identity."""
    return _op(np.round(x.data), (x,), lambda g: (g,))


def cast(x: Tensor, dtype) -> Tensor:
    """``x`` converted to ``dtype`` (``x`` itself if it has it already); the
    gradient returns in ``x``'s dtype."""
    source = x.data.dtype
    if source == dtype:
        return x
    return _op(x.data.astype(dtype), (x,), lambda g: (g.astype(source),))


# -- reductions ------------------------------------------------------------


def total(x: Tensor) -> Tensor:
    """Sum of every element, accumulated in float64."""
    shape, dtype = x.shape, x.data.dtype
    out = np.asarray(x.data.sum(dtype=WIDE))
    return _op(out, (x,), lambda g: (np.full(shape, g, dtype=dtype),))


def mean(x: Tensor) -> Tensor:
    """Mean of every element, accumulated in float64."""
    n, shape, dtype = x.size, x.shape, x.data.dtype
    out = np.asarray(x.data.mean(dtype=WIDE))
    return _op(out, (x,), lambda g: (np.full(shape, g / n, dtype=dtype),))


def l1_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean absolute error over every element."""
    return mean(absolute(sub(prediction, _wrap(target, prediction))))


# -- shape manipulation ----------------------------------------------------


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    x_shape = x.shape
    return _op(x.data.reshape(shape), (x,), lambda g: (g.reshape(x_shape),))


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    inverse = tuple(np.argsort(axes))
    return _op(np.transpose(x.data, axes), (x,), lambda g: (np.transpose(g, inverse),))


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    x_shape, dtype = x.shape, x.data.dtype
    index = [slice(None)] * x.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)

    def backward(g):
        full = np.zeros(x_shape, dtype=dtype)
        full[index] = g
        return (full,)

    return _op(x.data[index], (x,), backward)


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    data = np.concatenate([t.data for t in tensors], axis=axis)
    splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=axis))

    return _op(data, tuple(tensors), backward)


# -- linear algebra ----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes with broadcast batch dims."""
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError("matmul operands must have at least 2 dimensions")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data

    def backward(g):
        ga = _unbroadcast(np.matmul(g, np.swapaxes(bd, -1, -2)), ad.shape)
        gb = _unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), g), bd.shape)
        return (ga, gb)

    return _op(np.matmul(ad, bd), (a, b), backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """``x @ weight + bias`` for x (..., Din) with at least 2 dimensions, as
    one GEMM over the flattened leading axes; weight (Din, Dout), bias (Dout,)."""
    if x.ndim < 2 or weight.ndim != 2:
        raise DimensionError("linear needs an input of at least 2 dimensions and a 2-D weight")
    d_in, d_out = weight.shape
    if x.shape[-1] != d_in:
        raise DimensionError(f"linear inner dims differ: {x.shape} @ {weight.shape}")
    x_shape, w = x.shape, weight.data
    flat = x.data.reshape(-1, d_in)
    out = np.matmul(flat, w, dtype=np.result_type(flat, w, bias.data))
    out += bias.data

    def backward(g):
        g2 = g.reshape(-1, d_out)
        return (np.matmul(g2, w.T).reshape(x_shape), np.matmul(flat.T, g2), g2.sum(axis=0))

    return _op(out.reshape(x_shape[:-1] + (d_out,)), (x, weight, bias), backward)


# -- lookup / normalization / classification --------------------------------


def embedding(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup; the backward pass scatter-adds into the table gradient."""
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise DimensionError("embedding indices must be integers")

    table_shape, dtype = table.shape, table.data.dtype

    def backward(g):
        gt = np.zeros(table_shape, dtype=dtype)
        np.add.at(gt, idx, g)
        return (gt,)

    return _op(table.data[idx], (table,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize over the last axis (variance offset 1e-5), then scale and shift."""
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    normed = centered * inv
    gd = gain.data
    out = normed * gd + bias.data

    def backward(g):
        gn = g * gd
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

    return _op(out, (x, gain, bias), backward)


def masked_softmax(scores: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Softmax over the last axis, restricted to positions where mask is True.

    Masked positions get probability exactly zero and receive no gradient.
    Raises if any row has no allowed position.
    """
    if mask is None:
        shifted = scores.data - scores.data.max(axis=-1, keepdims=True)
        expd = np.exp(shifted)
    else:
        mask = _row_mask(mask)
        neg = np.where(mask, scores.data, -np.inf)
        shifted = neg - neg.max(axis=-1, keepdims=True)
        expd = np.where(mask, np.exp(shifted), 0.0)
    probs = expd / expd.sum(axis=-1, keepdims=True)

    def backward(g):
        inner = (g * probs).sum(axis=-1, keepdims=True)
        return (probs * (g - inner),)

    return _op(probs, (scores,), backward)


def _row_mask(mask) -> np.ndarray:
    """``mask`` as booleans, refused if a row allows no position."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.any(axis=-1).all():
        raise ConfigurationError("attention mask has a row with no allowed position")
    return mask


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer targets under softmax logits,
    computed in float64.

    ``logits`` has shape (..., K); ``targets`` the corresponding (...) ints.
    """
    idx = np.asarray(targets)
    if idx.shape != logits.shape[:-1]:
        raise DimensionError(f"targets shape {idx.shape} != logits rows {logits.shape[:-1]}")
    k = logits.shape[-1]
    if idx.size and (idx.min() < 0 or idx.max() >= k):
        raise RangeError(f"target index out of range [0, {k})")

    flat = logits.data.reshape(-1, k).astype(WIDE, copy=False)
    flat_idx = idx.reshape(-1)
    n = flat.shape[0]
    m = flat.max(axis=-1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(flat - m).sum(axis=-1))
    picked = flat[np.arange(n), flat_idx]
    out = np.asarray((lse - picked).mean())
    logits_shape, dtype = logits.shape, logits.data.dtype

    def backward(g):
        soft = np.exp(flat - lse[:, None])
        soft[np.arange(n), flat_idx] -= 1.0
        return (((g / n) * soft).astype(dtype, copy=False).reshape(logits_shape),)

    return _op(out, (logits,), backward)


# -- stochastic / structured ops ---------------------------------------------


def dropout(x: Tensor, p: float, rng: np.random.Generator | None, training: bool) -> Tensor:
    """Zero elements with probability p and rescale; identity at evaluation."""
    if not training or p <= 0.0:
        return x
    return mul(x, _wrap(_keep_mask(x.shape, p, rng) / (1.0 - p), x))


def _keep_mask(shape: tuple[int, ...], p: float, rng: np.random.Generator | None) -> np.ndarray:
    """The boolean dropout mask: each element kept with probability 1 - p."""
    if rng is None:
        raise ConfigurationError("dropout in training mode needs the run's generator")
    return rng.random(shape) >= p


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
    kd = kernel.data
    dtype = np.result_type(xd, kd)
    padded = np.concatenate([np.zeros((batch, ksize - 1, c_in), dtype=dtype), xd], axis=1)
    stop = (t_out - 1) * stride + 1
    out = np.zeros((batch, t_out, c_out), dtype=dtype)
    for k in range(ksize):
        out += np.matmul(padded[:, k : k + stop : stride, :], kd[k])

    def backward(g):
        gb = g[None] if g.ndim == 2 else g
        gflat = gb.reshape(-1, c_out)
        gk = np.empty_like(kd)
        gpad = np.zeros_like(padded)
        for k in range(ksize):
            tap = padded[:, k : k + stop : stride, :]
            gk[k] = tap.reshape(-1, c_in).T @ gflat
            gpad[:, k : k + stop : stride, :] += np.matmul(gb, kd[k].T)
        gx = gpad[:, ksize - 1 :, :]
        return (gx[0] if squeeze else gx, gk)

    return _op(out[0] if squeeze else out, (x, kernel), backward)


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
    probabilities passed through dropout as :func:`dropout` draws it.
    Shapes are (..., Tq, D) / (..., Tk, D) with a (Tq, Tk)-broadcastable
    boolean mask.

    One graph node.  Scores, softmax, dropout and the value mix run in
    float64 inside it, in the order and with the values of the composition
    ``cast``, ``matmul``, ``mul``, ``masked_softmax``, ``dropout``,
    ``matmul``, ``cast``; the result has the queries' dtype.  The batch
    shape and masked-out positions then move a row's result only far below
    float32 resolution, so the prior's cached sampler and its teacher-forced
    pass give the same float32 logits.  The node keeps the three input
    arrays as given, the float64 probabilities and the boolean dropout mask;
    its backward widens q, k and v again.
    """
    if keys.shape[-1] != queries.shape[-1]:
        raise DimensionError("queries and keys must share the feature dimension")
    if values.shape[-2] != keys.shape[-2]:
        raise DimensionError("keys and values must share the sequence length")
    if mask is not None:
        mask = _row_mask(mask)
    qa, ka, va = queries.data, keys.data, values.data
    scale = 1.0 / np.sqrt(queries.shape[-1])
    probs = np.matmul(_widen(qa), np.swapaxes(_widen(ka), -1, -2))
    probs *= scale
    if mask is not None:
        np.copyto(probs, -np.inf, where=~mask)  # exp(-inf) is exactly 0 below
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    keep = _keep_mask(probs.shape, p, rng) if training and p > 0.0 else None
    out = np.matmul(_dropped(probs, keep, p), _widen(va))

    def backward(g):
        g = _widen(g)
        dropped = _dropped(probs, keep, p)
        gv = np.matmul(np.swapaxes(dropped, -1, -2), g)
        gv = _unbroadcast(gv, va.shape).astype(va.dtype, copy=False)
        grad = _unbroadcast(np.matmul(g, np.swapaxes(_widen(va), -1, -2)), probs.shape)
        if keep is not None:
            grad *= keep / (1.0 - p)
        grad -= (grad * probs).sum(axis=-1, keepdims=True)  # softmax
        grad *= probs
        grad *= scale
        gq = _unbroadcast(np.matmul(grad, _widen(ka)), qa.shape).astype(qa.dtype, copy=False)
        gk = np.matmul(np.swapaxes(_widen(qa), -1, -2), grad)
        gk = np.swapaxes(_unbroadcast(gk, np.swapaxes(ka, -1, -2).shape), -1, -2)
        return gq, gk.astype(ka.dtype, copy=False), gv

    return _op(out.astype(qa.dtype, copy=False), (queries, keys, values), backward)


def _widen(a: np.ndarray) -> np.ndarray:
    return a.astype(WIDE, copy=False)


def _dropped(probs: np.ndarray, keep: np.ndarray | None, p: float) -> np.ndarray:
    """``probs`` after the dropout mask ``keep`` (None: no dropout), with the
    values of ``probs * (keep / (1 - p))``."""
    if keep is None:
        return probs
    scaled = keep / (1.0 - p)
    scaled *= probs
    return scaled


def sinusoidal_table(length: int, dim: int) -> np.ndarray:
    """Fixed sine/cosine positional table of shape (length, dim)."""
    positions = np.arange(length, dtype=np.float64)[:, None]
    freqs = np.exp(-np.log(10000.0) * (2 * (np.arange(dim) // 2)) / dim)[None, :]
    angles = positions * freqs
    table = np.empty((length, dim), dtype=DTYPE)
    table[:, 0::2] = np.sin(angles[:, 0::2])
    table[:, 1::2] = np.cos(angles[:, 1::2])
    return table
