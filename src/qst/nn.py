"""Small neural-net building blocks on top of the tensor engine.

Every module exposes ``params(prefix)`` returning a flat name->Tensor dict;
checkpoints and optimizers work on those dicts.  Forward passes thread the
run's random generator and a ``training`` flag for dropout.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ConfigurationError
from .tensor import Tensor


def causal_mask(length: int) -> np.ndarray:
    """Lower-triangular boolean mask: position i may attend to j <= i."""
    return np.tril(np.ones((length, length), dtype=bool))


class Linear:
    def __init__(self, rng: np.random.Generator, d_in: int, d_out: int, std: float | None = None):
        if std is None:
            std = 1.0 / np.sqrt(d_in)
        self.weight = Tensor(rng.normal(0.0, std, size=(d_in, d_out)), requires_grad=True)
        self.bias = Tensor(np.zeros(d_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        if x.ndim > 2:
            # one large GEMM instead of a stack of small ones
            lead = x.shape[:-1]
            flat = x.reshape(int(np.prod(lead)), x.shape[-1])
            return (flat @ self.weight + self.bias).reshape(*lead, -1)
        return x @ self.weight + self.bias

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.weight": self.weight, f"{prefix}.bias": self.bias}


class LayerNorm:
    def __init__(self, dim: int):
        self.gain = Tensor(np.ones(dim), requires_grad=True)
        self.bias = Tensor(np.zeros(dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gain, self.bias)

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.gain": self.gain, f"{prefix}.bias": self.bias}


class Embedding:
    def __init__(self, rng: np.random.Generator, rows: int, dim: int, std: float = 0.02):
        self.table = Tensor(rng.normal(0.0, std, size=(rows, dim)), requires_grad=True)

    def __call__(self, indices: np.ndarray) -> Tensor:
        return T.embedding(self.table, indices)

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.table": self.table}


class MultiHeadAttention:
    """Masked multi-head attention; with ``kv`` given it cross-attends."""

    def __init__(self, rng: np.random.Generator, dim: int, heads: int, dropout: float):
        if dim % heads != 0:
            raise ValueError(f"dim {dim} not divisible by heads {heads}")
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
    ) -> Tensor:
        source = x if kv is None else kv
        q = self._split(self.wq(x))
        k = self._split(self.wk(source))
        v = self._split(self.wv(source))
        out = T.masked_attention(q, k, v, mask, self.dropout, rng, training)
        b, _, t, _ = out.shape
        merged = out.transpose(0, 2, 1, 3).reshape(b, t, self.heads * self.head_dim)
        return self.wo(merged)

    def params(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        out.update(self.wq.params(f"{prefix}.wq"))
        out.update(self.wk.params(f"{prefix}.wk"))
        out.update(self.wv.params(f"{prefix}.wv"))
        out.update(self.wo.params(f"{prefix}.wo"))
        return out


class FeedForward:
    def __init__(self, rng: np.random.Generator, dim: int, hidden: int | None = None):
        hidden = hidden or 4 * dim
        self.fc1 = Linear(rng, dim, hidden)
        self.fc2 = Linear(rng, hidden, dim)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(T.relu(self.fc1(x)))

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {**self.fc1.params(f"{prefix}.fc1"), **self.fc2.params(f"{prefix}.fc2")}


class TransformerBlock:
    """Pre-norm self-attention block."""

    def __init__(self, rng: np.random.Generator, dim: int, heads: int, dropout: float):
        self.ln1 = LayerNorm(dim)
        self.attn = MultiHeadAttention(rng, dim, heads, dropout)
        self.ln2 = LayerNorm(dim)
        self.ffn = FeedForward(rng, dim)

    def __call__(self, x, mask=None, rng=None, training=False):
        x = x + self.attn(self.ln1(x), mask=mask, rng=rng, training=training)
        return x + self.ffn(self.ln2(x))

    def params(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        out.update(self.ln1.params(f"{prefix}.ln1"))
        out.update(self.attn.params(f"{prefix}.attn"))
        out.update(self.ln2.params(f"{prefix}.ln2"))
        out.update(self.ffn.params(f"{prefix}.ffn"))
        return out


class CrossAttentionBlock:
    """Pre-norm block: masked self-attention, then cross-attention, then FFN."""

    def __init__(self, rng: np.random.Generator, dim: int, heads: int, dropout: float):
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

    def params(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        out.update(self.ln_self.params(f"{prefix}.ln_self"))
        out.update(self.self_attn.params(f"{prefix}.self_attn"))
        out.update(self.ln_cross.params(f"{prefix}.ln_cross"))
        out.update(self.cross_attn.params(f"{prefix}.cross_attn"))
        out.update(self.ln_ffn.params(f"{prefix}.ln_ffn"))
        out.update(self.ffn.params(f"{prefix}.ffn"))
        return out


def load_params(params: dict[str, Tensor], arrays: dict[str, np.ndarray]) -> None:
    """Overwrite parameter data from checkpoint arrays (widened to float64)."""
    missing = set(params) - set(arrays)
    extra = set(arrays) - set(params)
    if missing or extra:
        raise ConfigurationError(
            f"parameter mismatch: missing={sorted(missing)} extra={sorted(extra)}"
        )
    for name, p in params.items():
        arr = np.asarray(arrays[name], dtype=np.float64)
        if arr.shape != p.data.shape:
            raise ConfigurationError(
                f"shape mismatch for '{name}': {arr.shape} vs {p.data.shape}"
            )
        p.data = arr


def set_requires_grad(params: dict[str, Tensor], flag: bool) -> None:
    for p in params.values():
        p.requires_grad = flag
        if not flag:
            p.grad = None
