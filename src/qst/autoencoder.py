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
from .fsq import FsqLayer, FsqSpec, bound, code_to_index, index_to_code, quantize
from .metrics import MetricsWriter
from .nn import (
    CrossAttentionBlock,
    LayerNorm,
    Linear,
    TransformerBlock,
    causal_mask,
    load_params,
)
from .optim import Adam
from .tensor import Tensor

ACTION_HEAD_STD = 0.003  # keeps untrained outputs near action scale
ACTION_INPUT_SCALE = 16.0  # lifts ~0.05-scale actions to unit scale (exact in binary)


class SkillEncoder:
    def __init__(self, rng: np.random.Generator, cfg: RunConfig):
        self.cfg = cfg
        dim = cfg.encoder_dim
        self.convs = []
        c_in = cfg.action_dim
        for ksize in cfg.conv_kernels:
            std = 1.0 / np.sqrt(ksize * c_in)
            kernel = Tensor(rng.normal(0.0, std, size=(ksize, c_in, dim)), requires_grad=True)
            bias = Tensor(np.zeros(dim), requires_grad=True)
            self.convs.append((kernel, bias))
            c_in = dim
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
        for (kernel, bias), stride in zip(self.convs, self.cfg.conv_strides):
            x = T.gelu(T.causal_conv1d(x, kernel, stride) + bias)
        for block in self.blocks:
            x = block(x, mask=self._mask, rng=rng, training=training)
        return self.ln_f(x)

    def params(self, prefix: str = "encoder") -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i, (kernel, bias) in enumerate(self.convs):
            out[f"{prefix}.conv{i}.kernel"] = kernel
            out[f"{prefix}.conv{i}.bias"] = bias
        for i, block in enumerate(self.blocks):
            out.update(block.params(f"{prefix}.block{i}"))
        out.update(self.ln_f.params(f"{prefix}.ln_f"))
        return out


class SkillDecoder:
    def __init__(self, rng: np.random.Generator, cfg: RunConfig):
        self.cfg = cfg
        dim = cfg.decoder_dim
        self.query_table = T.sinusoidal_table(cfg.T, dim)  # fixed, not learned
        self.token_pos = Tensor(
            rng.normal(0.0, 0.02, size=(cfg.n_tokens, dim)), requires_grad=True
        )
        self.blocks = [
            CrossAttentionBlock(rng, dim, cfg.decoder_heads, cfg.attention_dropout)
            for _ in range(cfg.decoder_layers)
        ]
        self.ln_f = LayerNorm(dim)
        self.head = Linear(rng, dim, cfg.action_dim, std=ACTION_HEAD_STD)
        self._mask = causal_mask(cfg.T) if cfg.decoder_causal else None

    def __call__(
        self,
        token_features: Tensor,
        rng=None,
        training=False,
        query_table: np.ndarray | None = None,
    ) -> Tensor:
        batch = token_features.shape[0]
        table = self.query_table if query_table is None else query_table
        queries = Tensor(np.broadcast_to(table, (batch,) + table.shape).copy())
        # no normalization here: scale distinctions between codes carry
        # information the cross-attention values must keep
        kv = token_features + self.token_pos
        x = queries
        for block in self.blocks:
            x = block(x, kv, self_mask=self._mask, rng=rng, training=training)
        return self.head(self.ln_f(x))

    def params(self, prefix: str = "decoder") -> dict[str, Tensor]:
        out: dict[str, Tensor] = {f"{prefix}.token_pos": self.token_pos}
        out.update(self.ln_kv.params(f"{prefix}.ln_kv"))
        for i, block in enumerate(self.blocks):
            out.update(block.params(f"{prefix}.block{i}"))
        out.update(self.ln_f.params(f"{prefix}.ln_f"))
        out.update(self.head.params(f"{prefix}.head"))
        return out


@dataclass
class EncodeResult:
    """Skill tokens for one batch of windows plus pre-quantization values."""

    indices: np.ndarray  # (..., n) flat codebook ids
    digits: np.ndarray  # (..., n, d) per-dimension digits
    prequant: np.ndarray  # (..., n, d) bounded embeddings before rounding


class SkillAutoencoder:
    def __init__(self, cfg: RunConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.spec = FsqSpec(cfg.fsq_levels)
        self.encoder = SkillEncoder(rng, cfg)
        self.fsq = FsqLayer(rng, self.spec, cfg.encoder_dim, cfg.decoder_dim)
        self.decoder = SkillDecoder(rng, cfg)

    # -- inference ----------------------------------------------------------

    def encode(self, actions: np.ndarray) -> EncodeResult:
        """Tokenize action windows (no dropout, no graph)."""
        arr = np.asarray(actions, dtype=np.float64)
        single = arr.ndim == 2
        if single:
            arr = arr[None]
        with T.no_grad():
            h = self.encoder(Tensor(arr))
            e = self.fsq.in_proj(h)
            prequant = bound(e, self.spec).data
            digits, _ = quantize(e, self.spec)
        indices = code_to_index(digits, self.spec)
        if single:
            return EncodeResult(indices[0], digits[0], prequant[0])
        return EncodeResult(indices, digits, prequant)

    def decode(self, indices: np.ndarray) -> np.ndarray:
        """Reconstruct action windows from flat token ids (evaluation mode)."""
        idx = np.asarray(indices)
        single = idx.ndim == 1
        if single:
            idx = idx[None]
        digits = index_to_code(idx, self.spec)
        with T.no_grad():
            feats = self.fsq.codes_to_features(digits)
            out = self.decoder(feats).data
        return out[0] if single else out

    # -- training -----------------------------------------------------------

    def recon_loss(self, actions: np.ndarray, rng=None, training=False):
        """Mean elementwise absolute reconstruction error; returns the loss
        tensor and the emitted token ids."""
        arr = np.asarray(actions, dtype=np.float64)
        target = Tensor(arr)
        h = self.encoder(target, rng=rng, training=training)
        digits, ste = self.fsq.quantize_features(h)
        feats = self.fsq.ste_to_features(ste)
        pred = self.decoder(feats, rng=rng, training=training)
        return T.l1_loss(pred, target), code_to_index(digits, self.spec)

    def surrogate_loss(self, actions: np.ndarray) -> Tensor:
        """Reconstruction loss with rounding replaced by identity: the exact
        function whose gradient the straight-through estimator computes."""
        target = Tensor(np.asarray(actions, dtype=np.float64))
        h = self.encoder(target)
        feats = self.fsq.bounded_features(h)
        pred = self.decoder(feats)
        return T.l1_loss(pred, target)

    def params(self) -> dict[str, Tensor]:
        out = self.encoder.params("encoder")
        out.update(self.fsq.params("fsq"))
        out.update(self.decoder.params("decoder"))
        return out

    def encoder_side_params(self) -> dict[str, Tensor]:
        """Everything frozen after stage 1 from the prior's point of view."""
        out = self.encoder.params("encoder")
        out.update(self.fsq.params("fsq"))
        return out

    def decoder_side_params(self) -> dict[str, Tensor]:
        return self.decoder.params("decoder")

    @classmethod
    def from_checkpoint(cls, ckpt: Checkpoint) -> "SkillAutoencoder":
        cfg = RunConfig.from_text(ckpt.config_text)
        model = cls(cfg, np.random.default_rng(0))
        load_params(model.params(), ckpt.params_f64())
        return model

    def to_checkpoint(self, meta: dict[str, str] | None = None) -> Checkpoint:
        base = {"stage": "stage1"}
        base.update(meta or {})
        return Checkpoint.from_tensors(self.params(), base, self.cfg.snapshot())


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
    opt = Adam(model.params(), lr=cfg.learning_rate)

    count = windows.shape[0]
    for epoch in range(cfg.stage1_epochs):
        order = run_rng.permutation(count)
        if cfg.stage1_windows_per_epoch > 0:
            order = order[: cfg.stage1_windows_per_epoch]
        seen: set[int] = set()
        loss_sum = 0.0
        loss_n = 0
        for lo in range(0, len(order), cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            opt.zero_grad()
            loss, indices = model.recon_loss(windows[idx], rng=run_rng, training=True)
            loss.backward()
            opt.step()
            loss_sum += loss.item() * len(idx)
            loss_n += len(idx)
            seen.update(np.unique(indices).tolist())
        if metrics is not None:
            metrics.log(
                phase="stage1",
                epoch=epoch,
                loss=loss_sum / max(loss_n, 1),
                codebook_utilization=len(seen) / model.spec.codebook_size,
                seed=seed,
            )
    return model.to_checkpoint()


def mean_reconstruction_error(model: SkillAutoencoder, windows: np.ndarray, batch: int = 256) -> float:
    """Held-out evaluation: mean absolute error of decode(encode(w))."""
    total = 0.0
    count = 0
    for lo in range(0, windows.shape[0], batch):
        chunk = windows[lo : lo + batch]
        recon = model.decode(model.encode(chunk).indices)
        total += float(np.abs(recon - chunk).sum())
        count += chunk.size
    return total / count
