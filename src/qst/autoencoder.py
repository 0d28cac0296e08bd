"""Stage I: compress action windows into discrete skill tokens and back.

The encoder runs causal strided convolutions followed by masked
self-attention at the downsampled length, then quantizes each of the n
output embeddings.  The decoder cross-attends between fixed sinusoidal
positional queries (one per action step) and the token features, so every
reconstructed step can read all tokens while query self-attention stays
causal.  No observations are consumed anywhere: the abstraction is
state-independent by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import RunConfig
from .checkpoint import Checkpoint
from .data import TrajectoryDataset, window_arrays
from .errors import ArgumentError, DimensionError
from .fsq import FsqLayer, FsqSpec, code_to_index, index_to_code
from .metrics import MetricsWriter
from .nn import (
    CausalConv,
    CrossAttentionBlock,
    LayerNorm,
    Linear,
    TransformerBlock,
    causal_mask,
    load_params,
    named_params,
    normal_param,
)
from .optim import train_epochs
from .tensor import Tensor

ACTION_HEAD_STD = 0.003  # keeps untrained outputs near action scale
ACTION_INPUT_SCALE = 16.0  # lifts ~0.05-scale actions to unit scale (exact in binary)
ENCODE_BATCH = 256  # windows per forward pass when a whole window array is encoded


class SkillEncoder:
    def __init__(self, rng: np.random.Generator | None, cfg: RunConfig):
        self.cfg = cfg
        dim = cfg.encoder_dim
        widths = (cfg.action_dim,) + (dim,) * (len(cfg.conv_kernels) - 1)
        self.convs = [
            CausalConv(rng, ksize, c_in, dim, stride)
            for ksize, c_in, stride in zip(cfg.conv_kernels, widths, cfg.conv_strides)
        ]
        self.blocks = [
            TransformerBlock(rng, dim, cfg.encoder_heads, cfg.attention_dropout)
            for _ in range(cfg.encoder_layers)
        ]
        self.ln_f = LayerNorm(dim)
        self._mask = causal_mask(cfg.n_tokens) if cfg.encoder_causal else None

    def __call__(self, actions: Tensor, rng=None, training=False) -> Tensor:
        if actions.shape[-2:] != (self.cfg.T, self.cfg.action_dim):
            raise DimensionError(
                f"expected trailing shape ({self.cfg.T}, {self.cfg.action_dim}), "
                f"got {actions.shape}"
            )
        x = actions * ACTION_INPUT_SCALE
        for conv in self.convs:
            x = T.gelu(conv(x))
        for block in self.blocks:
            x = block(x, mask=self._mask, rng=rng, training=training)
        return self.ln_f(x)


class SkillDecoder:
    def __init__(self, rng: np.random.Generator | None, cfg: RunConfig):
        self.cfg = cfg
        dim = cfg.decoder_dim
        self.query_table = T.sinusoidal_table(cfg.T, dim)  # fixed, not learned
        self.token_pos = normal_param(rng, 0.02, (cfg.n_tokens, dim))
        self.blocks = [
            CrossAttentionBlock(rng, dim, cfg.decoder_heads, cfg.attention_dropout)
            for _ in range(cfg.decoder_layers)
        ]
        self.ln_f = LayerNorm(dim)
        self.head = Linear(rng, dim, cfg.action_dim, std=ACTION_HEAD_STD)
        self._mask = causal_mask(cfg.T) if cfg.decoder_causal else None

    def __call__(self, token_features: Tensor, rng=None, training=False) -> Tensor:
        batch = token_features.shape[0]
        table = self.query_table
        queries = Tensor(np.broadcast_to(table, (batch,) + table.shape).copy())
        # no normalization here: scale distinctions between codes carry
        # information the cross-attention values must keep
        kv = token_features + self.token_pos
        x = queries
        for block in self.blocks:
            x = block(x, kv, self_mask=self._mask, rng=rng, training=training)
        return self.head(self.ln_f(x))


@dataclass
class EncodeResult:
    """Skill tokens for one batch of windows plus pre-quantization values."""

    indices: np.ndarray  # (..., n) flat codebook ids
    digits: np.ndarray  # (..., n, d) per-dimension digits
    prequant: np.ndarray  # (..., n, d) bounded embeddings before rounding


class SkillAutoencoder:
    """Encoder, quantizer projections and decoder; ``rng=None`` leaves the
    weights uninitialised for :meth:`from_checkpoint` to fill."""

    def __init__(self, cfg: RunConfig, rng: np.random.Generator | None):
        self.cfg = cfg
        self.spec = FsqSpec(cfg.fsq_levels)
        self.encoder = SkillEncoder(rng, cfg)
        self.fsq = FsqLayer(rng, self.spec, cfg.encoder_dim, cfg.decoder_dim)
        self.decoder = SkillDecoder(rng, cfg)

    # -- inference ----------------------------------------------------------

    def encode(self, actions: np.ndarray) -> EncodeResult:
        """Tokenize action windows (no dropout, no graph)."""
        arr = np.asarray(actions)
        single = arr.ndim == 2
        if single:
            arr = arr[None]
        with T.no_grad():
            digits, bounded, _ = self.fsq.quantize(self.encoder(Tensor(arr)))
        indices = code_to_index(digits, self.spec)
        prequant = bounded.data
        if single:
            return EncodeResult(indices[0], digits[0], prequant[0])
        return EncodeResult(indices, digits, prequant)

    def decode(self, indices: np.ndarray) -> np.ndarray:
        """Reconstruct action windows from flat token ids (evaluation mode)."""
        idx = np.asarray(indices)
        single = idx.ndim == 1
        if single:
            idx = idx[None]
        with T.no_grad():
            out = self.decode_tensor(idx).data
        return out[0] if single else out

    def decode_tensor(self, indices: np.ndarray, rng=None, training=False) -> Tensor:
        """Decoder output (B, T, action_dim) for flat token ids (B, n); the
        graph reaches the decoder-side weights, never the token ids."""
        feats = self.fsq.codes_to_features(index_to_code(indices, self.spec))
        return self.decoder(feats, rng=rng, training=training)

    # -- training -----------------------------------------------------------

    def recon_loss(self, actions: np.ndarray, rng=None, training=False):
        """Mean elementwise absolute reconstruction error; returns the loss
        tensor and the emitted token ids."""
        target = Tensor(actions)
        h = self.encoder(target, rng=rng, training=training)
        digits, _, ste = self.fsq.quantize(h)
        pred = self.decoder(self.fsq.out_proj(ste), rng=rng, training=training)
        return T.l1_loss(pred, target), code_to_index(digits, self.spec)

    def surrogate_loss(self, actions: np.ndarray) -> Tensor:
        """Reconstruction loss with rounding replaced by identity: the exact
        function whose gradient the straight-through estimator computes."""
        target = Tensor(actions)
        _, bounded, _ = self.fsq.quantize(self.encoder(target))
        pred = self.decoder(self.fsq.out_proj(bounded))
        return T.l1_loss(pred, target)

    def params(self) -> dict[str, Tensor]:
        return named_params(self)

    def encoder_side_params(self) -> dict[str, Tensor]:
        """Everything frozen after stage 1 from the prior's point of view."""
        return named_params(self.encoder, "encoder") | named_params(self.fsq, "fsq")

    def decoder_side_params(self) -> dict[str, Tensor]:
        return named_params(self.decoder, "decoder")

    @classmethod
    def from_checkpoint(cls, ckpt: Checkpoint) -> "SkillAutoencoder":
        cfg = RunConfig.from_text(ckpt.config_text)
        model = cls(cfg, None)
        load_params(model.params(), ckpt.params)
        return model

    def to_checkpoint(self) -> Checkpoint:
        return Checkpoint.from_tensors(self.params(), {"stage": "stage1"}, self.cfg.snapshot())


def train_stage1(
    dataset: TrajectoryDataset,
    cfg: RunConfig,
    seed: int,
    metrics: MetricsWriter | None = None,
) -> Checkpoint:
    """Train the autoencoder on every stride-1 window of the dataset."""
    if len(dataset) == 0:
        raise ArgumentError("cannot train on an empty dataset")
    if dataset.act_dim != cfg.action_dim:
        raise DimensionError(
            f"dataset action dim {dataset.act_dim} != config {cfg.action_dim}"
        )
    windows, _, _, _ = window_arrays(dataset, cfg.T)
    model = SkillAutoencoder(cfg, np.random.default_rng(np.random.SeedSequence((seed, 11))))
    run_rng = np.random.default_rng(np.random.SeedSequence((seed, 12)))
    seen: set[int] = set()  # codes emitted since the last metrics row

    def batch_loss(idx):
        loss, indices = model.recon_loss(windows[idx], rng=run_rng, training=True)
        seen.update(np.unique(indices).tolist())
        return loss

    def epoch_row(epoch, loss):
        used = len(seen) / model.spec.codebook_size
        seen.clear()
        return dict(phase="stage1", epoch=epoch, loss=loss, codebook_utilization=used, seed=seed)

    train_epochs(
        model.params(),
        cfg,
        cfg.stage1_epochs,
        run_rng,
        len(windows),
        batch_loss,
        metrics,
        epoch_row,
        cap=cfg.stage1_windows_per_epoch,
    )
    return model.to_checkpoint()


def mean_reconstruction_error(model: SkillAutoencoder, windows: np.ndarray) -> float:
    """Held-out evaluation: mean absolute error of decode(encode(w))."""
    total = 0.0
    count = 0
    for lo in range(0, windows.shape[0], ENCODE_BATCH):
        chunk = windows[lo : lo + ENCODE_BATCH]
        recon = model.decode(model.encode(chunk).indices)
        total += float(np.abs(recon - chunk).sum())
        count += chunk.size
    return total / count
