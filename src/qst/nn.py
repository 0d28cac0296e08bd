"""Small neural-net building blocks on top of the tensor engine.

A module's parameters are its ``Tensor`` attributes: :func:`named_params`
collects them into the flat name->Tensor dict that checkpoints and
optimizers work on.  Forward passes thread the run's random generator and a
``training`` flag for dropout.

Parameters are float32 (``tensor.DTYPE``), the dtype checkpoints store.
Every constructor that draws weights takes ``rng=None`` to leave them
uninitialised instead (``np.empty``): model loading builds its module tree that
way and lets :func:`load_params`, which refuses a missing or extra name,
overwrite every parameter, so no weight is drawn only to be thrown away.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ConfigurationError
from .tensor import Tensor


def named_params(module, prefix: str = "") -> dict[str, Tensor]:
    """Every ``Tensor`` attribute of ``module`` and its sub-modules (attributes
    with a ``__dict__``), named by dotted attribute path after ``prefix`` in
    assignment order; a list attribute ``xs`` names its items ``x0``, ``x1``."""
    out: dict[str, Tensor] = {}
    for attr, value in vars(module).items():
        if isinstance(value, list):
            items = [(f"{attr[:-1]}{i}", item) for i, item in enumerate(value)]
        else:
            items = [(attr, value)]
        for name, item in items:
            path = f"{prefix}.{name}" if prefix else name
            if isinstance(item, Tensor):
                out[path] = item
            elif hasattr(item, "__dict__"):
                out.update(named_params(item, path))
    return out


def normal_param(rng: np.random.Generator | None, std: float, shape: tuple[int, ...]) -> Tensor:
    """A trainable tensor drawn from N(0, std^2), or uninitialised when
    ``rng`` is None."""
    data = np.empty(shape, dtype=T.DTYPE) if rng is None else rng.normal(0.0, std, size=shape)
    return Tensor(data, requires_grad=True)


def causal_mask(length: int) -> np.ndarray:
    """Lower-triangular boolean mask: position i may attend to j <= i."""
    return np.tril(np.ones((length, length), dtype=bool))


class Linear:
    def __init__(self, rng: np.random.Generator | None, d_in: int, d_out: int, std: float | None = None):
        if std is None:
            std = 1.0 / np.sqrt(d_in)
        self.weight = normal_param(rng, std, (d_in, d_out))
        self.bias = Tensor(np.zeros(d_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.weight, self.bias)


class CausalConv:
    """Causal strided 1D convolution plus bias (see ``tensor.causal_conv1d``)."""

    def __init__(self, rng: np.random.Generator | None, ksize: int, c_in: int, c_out: int, stride: int):
        std = 1.0 / np.sqrt(ksize * c_in)
        self.kernel = normal_param(rng, std, (ksize, c_in, c_out))
        self.bias = Tensor(np.zeros(c_out), requires_grad=True)
        self.stride = stride

    def __call__(self, x: Tensor) -> Tensor:
        return T.causal_conv1d(x, self.kernel, self.stride) + self.bias


class LayerNorm:
    def __init__(self, dim: int):
        self.gain = Tensor(np.ones(dim), requires_grad=True)
        self.bias = Tensor(np.zeros(dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gain, self.bias)


class Embedding:
    def __init__(self, rng: np.random.Generator | None, rows: int, dim: int):
        self.table = normal_param(rng, 0.02, (rows, dim))

    def __call__(self, indices: np.ndarray) -> Tensor:
        return T.embedding(self.table, indices)


class MultiHeadAttention:
    """Masked multi-head attention; with ``kv`` given it cross-attends.

    With ``cache`` given (a list the caller owns, empty before the first
    call) the call appends the new positions' keys and values along the time
    axis, leaves ``cache == [keys, values]`` of shape (B, heads, t, head_dim),
    and attends the new queries over all t cached positions.  A cache never
    lives on the module, so :func:`named_params` cannot pick it up.
    """

    def __init__(self, rng: np.random.Generator | None, dim: int, heads: int, dropout: float):
        if dim % heads != 0:
            raise ConfigurationError(f"dim {dim} not divisible by heads {heads}")
        self.heads = heads
        self.head_dim = dim // heads
        self.dropout = dropout
        self.wq = Linear(rng, dim, dim)
        self.wk = Linear(rng, dim, dim)
        self.wv = Linear(rng, dim, dim)
        self.wo = Linear(rng, dim, dim)

    def _split(self, x: Tensor) -> Tensor:
        b, t, _ = x.shape
        return x.reshape(b, t, self.heads, self.head_dim).transpose(0, 2, 1, 3)

    def __call__(
        self,
        x: Tensor,
        kv: Tensor | None = None,
        mask: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
        training: bool = False,
        cache: list[Tensor] | None = None,
    ) -> Tensor:
        source = x if kv is None else kv
        q = self._split(self.wq(x))
        k = self._split(self.wk(source))
        v = self._split(self.wv(source))
        if cache is not None:
            if cache:
                k = T.concat([cache[0], k], axis=2)
                v = T.concat([cache[1], v], axis=2)
            cache[:] = [k, v]
        out = T.masked_attention(q, k, v, mask, self.dropout, rng, training)
        b, _, t, _ = out.shape
        merged = out.transpose(0, 2, 1, 3).reshape(b, t, self.heads * self.head_dim)
        return self.wo(merged)


class FeedForward:
    def __init__(self, rng: np.random.Generator | None, dim: int):
        self.fc1 = Linear(rng, dim, 4 * dim)
        self.fc2 = Linear(rng, 4 * dim, dim)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(T.relu(self.fc1(x)))


class TransformerBlock:
    """Pre-norm self-attention block; ``cache`` goes to the attention."""

    def __init__(self, rng: np.random.Generator | None, dim: int, heads: int, dropout: float):
        self.ln1 = LayerNorm(dim)
        self.attn = MultiHeadAttention(rng, dim, heads, dropout)
        self.ln2 = LayerNorm(dim)
        self.ffn = FeedForward(rng, dim)

    def __call__(self, x, mask=None, rng=None, training=False, cache=None):
        x = x + self.attn(self.ln1(x), mask=mask, rng=rng, training=training, cache=cache)
        return x + self.ffn(self.ln2(x))


class CrossAttentionBlock:
    """Pre-norm block: masked self-attention, then cross-attention, then FFN."""

    def __init__(self, rng: np.random.Generator | None, dim: int, heads: int, dropout: float):
        self.ln_self = LayerNorm(dim)
        self.self_attn = MultiHeadAttention(rng, dim, heads, dropout)
        self.ln_cross = LayerNorm(dim)
        self.cross_attn = MultiHeadAttention(rng, dim, heads, dropout)
        self.ln_ffn = LayerNorm(dim)
        self.ffn = FeedForward(rng, dim)

    def __call__(self, x, kv, self_mask=None, rng=None, training=False):
        x = x + self.self_attn(self.ln_self(x), mask=self_mask, rng=rng, training=training)
        x = x + self.cross_attn(self.ln_cross(x), kv=kv, rng=rng, training=training)
        return x + self.ffn(self.ln_ffn(x))


def load_params(params: dict[str, Tensor], arrays: dict[str, np.ndarray]) -> None:
    """Overwrite parameter data in place from checkpoint arrays, copying
    each (float32 on disk) into the parameter's own float32 array."""
    missing = set(params) - set(arrays)
    extra = set(arrays) - set(params)
    if missing or extra:
        raise ConfigurationError(
            f"parameter mismatch: missing={sorted(missing)} extra={sorted(extra)}"
        )
    for name, p in params.items():
        arr = np.asarray(arrays[name])
        if arr.shape != p.data.shape:
            raise ConfigurationError(
                f"shape mismatch for '{name}': {arr.shape} vs {p.data.shape}"
            )
        np.copyto(p.data, arr)


def set_requires_grad(params: dict[str, Tensor], flag: bool) -> None:
    for p in params.values():
        p.requires_grad = flag
        if not flag:
            p.grad = None
