"""Finite scalar quantization: bound, round with straight-through gradients,
and the mixed-radix bijection between code digits and flat vocabulary indices.

Each of the d latent dimensions is squashed into a range that contains exactly
``levels[i]`` integer rounding targets, then rounded.  The codebook is
implicit: its size is the product of the per-dimension level counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ArgumentError, ConfigurationError, RangeError
from .nn import Linear
from .tensor import Tensor


@dataclass(frozen=True)
class FsqSpec:
    """Per-dimension level counts and the derived quantization grid."""

    levels: tuple[int, ...]

    def __post_init__(self):
        if len(self.levels) == 0:
            raise ConfigurationError("levels must be non-empty")
        for a in self.levels:
            if a < 2:
                raise ConfigurationError(f"every level must be >= 2, got {a}")
            if a == 2:
                # The exact atanh shift for even levels diverges at 2.
                raise ConfigurationError("level 2 is not supported by the bounding shift")

    @property
    def dim(self) -> int:
        return len(self.levels)

    @property
    def codebook_size(self) -> int:
        return int(np.prod(self.levels))

    @property
    def half_widths(self) -> np.ndarray:
        return (np.asarray(self.levels, dtype=np.float64) - 1.0) / 2.0

    @property
    def offsets(self) -> np.ndarray:
        return np.where(np.asarray(self.levels) % 2 == 0, 0.5, 0.0)

    @property
    def shifts(self) -> np.ndarray:
        return np.arctanh(self.offsets / self.half_widths)

    @property
    def grid_min(self) -> np.ndarray:
        """Smallest rounding target per dimension."""
        return -(self.half_widths + self.offsets)

    @property
    def index_weights(self) -> np.ndarray:
        """Mixed-radix place values: weight[i] = prod(levels[i+1:])."""
        rev = np.cumprod([1] + list(self.levels[:0:-1]))[::-1]
        return rev.astype(np.int64)


def bound(e: Tensor, spec: FsqSpec) -> Tensor:
    """Squash the last axis so each dimension spans its rounding targets.

    Dimension i maps to (-(h_i + c_i), h_i - c_i) with h_i = (levels_i - 1)/2
    and c_i = 0.5 for even levels, which contains exactly levels_i integers.
    """
    shifted = e + Tensor(spec.shifts)
    return T.tanh(shifted) * Tensor(spec.half_widths) - Tensor(spec.offsets)


def quantize(e: Tensor, spec: FsqSpec) -> tuple[np.ndarray, Tensor]:
    """Quantize bounded embeddings.

    Returns ``(digits, ste_output)``: non-negative integer digits per
    dimension, and the rounded tensor whose gradient is that of ``bound``
    alone (rounding contributes identity).
    """
    return _round(bound(e, spec), spec)


def _round(bounded: Tensor, spec: FsqSpec) -> tuple[np.ndarray, Tensor]:
    ste = T.round_ste(bounded)
    digits = np.rint(ste.data - spec.grid_min).astype(np.int64)
    return digits, ste


def digits_to_grid(digits: np.ndarray, spec: FsqSpec) -> np.ndarray:
    """Map digits back to the float grid values the decoder consumes."""
    _check_digits(digits, spec)
    return digits.astype(np.float64) + spec.grid_min


def code_to_index(digits: np.ndarray, spec: FsqSpec) -> np.ndarray:
    """Mixed-radix encode: index = sum_i digit_i * prod_{j>i} levels_j."""
    _check_digits(digits, spec)
    return np.asarray(digits) @ spec.index_weights


def index_to_code(index: np.ndarray | int, spec: FsqSpec) -> np.ndarray:
    """Exact inverse of :func:`code_to_index`."""
    idx = np.asarray(index, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= spec.codebook_size):
        raise RangeError(f"index out of range [0, {spec.codebook_size})")
    digits = np.empty(idx.shape + (spec.dim,), dtype=np.int64)
    rest = idx
    for i, w in enumerate(spec.index_weights):
        digits[..., i], rest = np.divmod(rest, w)
    return digits


def _check_digits(digits: np.ndarray, spec: FsqSpec) -> None:
    d = np.asarray(digits)
    if d.shape[-1] != spec.dim:
        raise RangeError(f"expected {spec.dim} digits per code, got {d.shape[-1]}")
    levels = np.asarray(spec.levels)
    if d.size and ((d < 0).any() or (d >= levels).any()):
        raise RangeError("digit out of range for its level")


def utilization(indices: np.ndarray, spec: FsqSpec) -> float:
    """Fraction of the implicit codebook observed in an integer array of flat
    indices."""
    if not np.issubdtype(indices.dtype, np.integer):
        raise ArgumentError(f"code indices must be integers, got dtype {indices.dtype}")
    indices = indices.reshape(-1)
    if indices.size == 0:
        raise ArgumentError("utilization of an empty token stream is undefined")
    if indices.min() < 0 or indices.max() >= spec.codebook_size:
        raise RangeError(f"index out of range [0, {spec.codebook_size})")
    return float(np.unique(indices).size) / spec.codebook_size


IN_PROJ_GAIN = 1.5  # spread projections across the grid at init; tanh stays responsive


class FsqLayer:
    """Learned projections around the quantizer.

    ``in_proj`` maps encoder features to the d quantized dimensions and
    ``out_proj`` lifts quantized vectors back to the decoder width.  The
    input projection is initialized wide enough that unit-scale features
    already cover every rounding target, which keeps early codebook
    utilization high.
    """

    def __init__(self, rng: np.random.Generator | None, spec: FsqSpec, in_dim: int, out_dim: int):
        self.spec = spec
        self.in_proj = Linear(rng, in_dim, spec.dim, std=IN_PROJ_GAIN / np.sqrt(in_dim))
        self.out_proj = Linear(rng, spec.dim, out_dim)

    def quantize(self, h: Tensor) -> tuple[np.ndarray, Tensor, Tensor]:
        """Project encoder features, bound and round them.

        Returns ``(digits, bounded, ste)``: the per-dimension digits, the
        bounded values the rounding consumed, and the rounded tensor whose
        gradient is that of ``bounded`` (the straight-through estimator).
        ``bounded`` is also the rounding-free path that gradient checks
        differentiate.
        """
        bounded = bound(self.in_proj(h), self.spec)
        digits, ste = _round(bounded, self.spec)
        return digits, bounded, ste

    def codes_to_features(self, digits: np.ndarray) -> Tensor:
        return self.out_proj(Tensor(digits_to_grid(digits, self.spec)))
