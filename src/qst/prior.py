"""Stage II: decoder-only transformer over skill tokens.

The context is ordered [task embedding, observation token(s), start token,
skill tokens]; sinusoidal positions are added to the skill-token inputs only.
Logits are produced for the n positions from the start token onward, so row i
predicts token i+1 and is causally independent of anything later.  The
stage-1 encoder is frozen wherever this module consumes it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .autoencoder import SkillAutoencoder
from .checkpoint import Checkpoint
from .config import RunConfig
from .data import TrajectoryDataset, window_arrays
from .errors import ArgumentError, ConfigurationError, DimensionError, RangeError
from .fsq import index_to_code
from .metrics import MetricsWriter
from .nn import (
    Embedding,
    LayerNorm,
    Linear,
    TransformerBlock,
    causal_mask,
    load_params,
    set_requires_grad,
)
from .optim import Adam
from .tensor import Tensor


@dataclass(frozen=True)
class PriorConfig:
    vocab: int = 1000
    n_tokens: int = 8
    dim: int = 384
    layers: int = 6
    heads: int = 6
    attn_dropout: float = 0.1
    embd_dropout: float = 0.1
    history: int = 1
    obs_dim: int = 4

    @property
    def start_id(self) -> int:
        return self.vocab  # one extra embedding row marks sequence start

    @classmethod
    def from_run_config(cls, cfg: RunConfig) -> "PriorConfig":
        return cls(
            vocab=cfg.vocab_size,
            n_tokens=cfg.n_tokens,
            dim=cfg.prior_dim,
            layers=cfg.prior_layers,
            heads=cfg.prior_heads,
            attn_dropout=cfg.prior_attention_dropout,
            embd_dropout=cfg.prior_embedding_dropout,
            history=cfg.observation_history,
            obs_dim=cfg.obs_dim,
        )


class ObservationEncoder:
    """MLP from proprioceptive input to one model-dim token per timestep."""

    def __init__(self, rng: np.random.Generator, obs_dim: int, dim: int):
        self.fc1 = Linear(rng, obs_dim, dim)
        self.fc2 = Linear(rng, dim, dim)

    def __call__(self, obs: Tensor) -> Tensor:
        return self.fc2(T.gelu(self.fc1(obs)))

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {**self.fc1.params(f"{prefix}.fc1"), **self.fc2.params(f"{prefix}.fc2")}


class SkillPrior:
    def __init__(self, cfg: PriorConfig, task_names: list[str], rng: np.random.Generator):
        if not task_names:
            raise ArgumentError("the prior needs at least one task")
        self.cfg = cfg
        self.task_names = list(task_names)
        self.token_emb = Embedding(rng, cfg.vocab + 1, cfg.dim)
        self.task_table = Tensor(
            rng.normal(0.0, 0.02, size=(len(task_names), cfg.dim)), requires_grad=True
        )
        self.obs_encoder = ObservationEncoder(rng, cfg.obs_dim, cfg.dim)
        self.blocks = [
            TransformerBlock(rng, cfg.dim, cfg.heads, cfg.attn_dropout)
            for _ in range(cfg.layers)
        ]
        self.ln_f = LayerNorm(cfg.dim)
        self.head = Linear(rng, cfg.dim, cfg.vocab, std=0.02)
        self.pos_table = T.sinusoidal_table(cfg.n_tokens, cfg.dim)

    # -- bookkeeping -----------------------------------------------------------

    def task_index(self, name: str) -> int:
        try:
            return self.task_names.index(name)
        except ValueError:
            raise ArgumentError(f"unknown task '{name}'") from None

    def ensure_task(self, name: str, rng: np.random.Generator) -> int:
        """Return the task row, appending a fresh embedding row if unseen."""
        if name in self.task_names:
            return self.task_names.index(name)
        row = rng.normal(0.0, 0.02, size=(1, self.cfg.dim))
        self.task_table = Tensor(
            np.concatenate([self.task_table.data, row]), requires_grad=True
        )
        self.task_names.append(name)
        return len(self.task_names) - 1

    def params(self, prefix: str = "prior") -> dict[str, Tensor]:
        out = self.token_emb.params(f"{prefix}.token_emb")
        out[f"{prefix}.task_table"] = self.task_table
        out.update(self.obs_encoder.params(f"{prefix}.obs"))
        for i, block in enumerate(self.blocks):
            out.update(block.params(f"{prefix}.block{i}"))
        out.update(self.ln_f.params(f"{prefix}.ln_f"))
        out.update(self.head.params(f"{prefix}.head"))
        return out

    # -- forward ---------------------------------------------------------------

    def logits(
        self,
        task_idx: np.ndarray,
        obs: np.ndarray,
        tokens: np.ndarray,
        rng=None,
        training=False,
    ) -> Tensor:
        """Next-token logits.

        ``tokens`` holds the already-available skill tokens (B, L) with
        0 <= L <= n-1; the result is (B, L+1, vocab), row i predicting token
        i+1 of the sequence.
        """
        cfg = self.cfg
        task_idx = np.asarray(task_idx)
        obs = np.asarray(obs, dtype=np.float64)
        tokens = np.asarray(tokens, dtype=np.int64)
        batch = task_idx.shape[0]
        if obs.shape != (batch, cfg.history, cfg.obs_dim):
            raise DimensionError(
                f"observations must be (batch, {cfg.history}, {cfg.obs_dim}), got {obs.shape}"
            )
        n_given = tokens.shape[1] if tokens.ndim == 2 else 0
        if n_given > cfg.n_tokens - 1:
            raise ConfigurationError(
                f"context of {n_given} skill tokens exceeds the configured "
                f"maximum of {cfg.n_tokens - 1}"
            )
        if tokens.size and (tokens.min() < 0 or tokens.max() >= cfg.vocab):
            raise RangeError(f"skill token id out of range [0, {cfg.vocab})")
        tasks = len(self.task_names)
        if task_idx.size and (task_idx.min() < 0 or task_idx.max() >= tasks):
            raise RangeError(f"task id out of range [0, {tasks})")

        parts = [
            T.reshape(T.embedding(self.task_table, task_idx), (batch, 1, cfg.dim)),
            self.obs_encoder(Tensor(obs)),
            self.token_emb(np.full((batch, 1), cfg.start_id)),
        ]
        if n_given:
            parts.append(self.token_emb(tokens) + Tensor(self.pos_table[:n_given]))
        x = T.concat(parts, axis=1)
        x = T.dropout(x, cfg.embd_dropout, rng, training)
        mask = causal_mask(x.shape[1])
        for block in self.blocks:
            x = block(x, mask=mask, rng=rng, training=training)
        x = self.ln_f(x)
        x = T.narrow(x, 1, 1 + cfg.history, n_given + 1)
        return self.head(x)

    def nll(self, task_idx, obs, targets, rng=None, training=False) -> Tensor:
        """Mean negative log-likelihood of full target token sequences (B, n)."""
        targets = np.asarray(targets, dtype=np.int64)
        if targets.shape[1] != self.cfg.n_tokens:
            raise DimensionError(
                f"targets must have {self.cfg.n_tokens} tokens, got {targets.shape[1]}"
            )
        if targets.min() < 0 or targets.max() >= self.cfg.vocab:
            raise RangeError(f"target token id out of range [0, {self.cfg.vocab})")
        logits = self.logits(task_idx, obs, targets[:, :-1], rng=rng, training=training)
        return T.cross_entropy(logits, targets)

    def sample(
        self,
        task_idx: np.ndarray,
        obs: np.ndarray,
        k: int,
        temperature: float,
        rngs,
    ) -> np.ndarray:
        """Autoregressive top-k sampling of full token sequences.

        At each of the n steps the k largest logits survive, are divided by
        the temperature, renormalized with a softmax, and sampled.  ``rngs``
        is one generator shared by the batch or a list with one per row.
        """
        cfg = self.cfg
        if not 1 <= k <= cfg.vocab:
            raise ConfigurationError(f"k must lie in [1, {cfg.vocab}]")
        if temperature <= 0:
            raise ConfigurationError("temperature must be positive")
        batch = np.asarray(task_idx).shape[0]
        row_rngs = rngs if isinstance(rngs, (list, tuple)) else [rngs] * batch
        if len(row_rngs) != batch:
            raise DimensionError("need one generator per batch row")

        tokens = np.zeros((batch, 0), dtype=np.int64)
        with T.no_grad():
            for _ in range(cfg.n_tokens):
                logits = self.logits(task_idx, obs, tokens).data[:, -1, :]
                picks = np.empty((batch, 1), dtype=np.int64)
                for row in range(batch):
                    picks[row, 0] = _sample_top_k(logits[row], k, temperature, row_rngs[row])
                tokens = np.concatenate([tokens, picks], axis=1)
        return tokens

    # -- persistence -------------------------------------------------------------

    def to_checkpoint(self, cfg: RunConfig, meta: dict[str, str]) -> Checkpoint:
        base = {"stage": "stage2", "tasks": ",".join(self.task_names)}
        base.update(meta)
        return Checkpoint.from_tensors(self.params(), base, cfg.snapshot())

    @classmethod
    def from_checkpoint(cls, ckpt: Checkpoint) -> tuple["SkillPrior", RunConfig]:
        cfg = RunConfig.from_text(ckpt.config_text)
        task_names = ckpt.meta.get("tasks", "").split(",")
        if task_names == [""]:
            raise ConfigurationError("checkpoint is missing its task list")
        prior = cls(PriorConfig.from_run_config(cfg), task_names, np.random.default_rng(0))
        arrays = {k: v for k, v in ckpt.params_f64().items() if k.startswith("prior.")}
        load_params(prior.params(), arrays)
        return prior, cfg


def _sample_top_k(logits: np.ndarray, k: int, temperature: float, rng) -> int:
    if k == 1:
        return int(np.argmax(logits))
    top = np.argpartition(logits, -k)[-k:]
    scaled = logits[top] / temperature
    scaled = scaled - scaled.max()
    probs = np.exp(scaled)
    probs /= probs.sum()
    return int(top[rng.choice(k, p=probs)])


# -- training -------------------------------------------------------------------


def check_structural_match(cfg: RunConfig, ckpt: Checkpoint, what: str) -> None:
    other = RunConfig.from_text(ckpt.config_text)
    ours = cfg.structural_keys()
    theirs = other.structural_keys()
    bad = {k: (ours[k], theirs[k]) for k in ours if ours[k] != theirs[k]}
    if bad:
        raise ConfigurationError(f"config does not match {what} checkpoint: {bad}")


def encode_targets(
    autoencoder: SkillAutoencoder, windows: np.ndarray, batch: int = 256
) -> np.ndarray:
    """Tokenize every window with the frozen stage-1 encoder."""
    out = []
    for lo in range(0, windows.shape[0], batch):
        out.append(autoencoder.encode(windows[lo : lo + batch]).indices)
    return np.concatenate(out, axis=0)


def train_stage2(
    dataset: TrajectoryDataset,
    stage1_ckpt: Checkpoint,
    cfg: RunConfig,
    seed: int,
    metrics: MetricsWriter | None = None,
) -> Checkpoint:
    """Train the skill prior on frozen-encoder tokens of every window."""
    if len(dataset) == 0:
        raise ArgumentError("cannot train on an empty dataset")
    check_structural_match(cfg, stage1_ckpt, "stage-1")
    autoencoder = SkillAutoencoder.from_checkpoint(stage1_ckpt)
    set_requires_grad(autoencoder.params(), False)

    windows, obs, task_ids, _ = window_arrays(dataset, cfg.T, cfg.observation_history)
    if obs.shape[-1] != cfg.obs_dim:
        raise DimensionError(f"dataset obs dim {obs.shape[-1]} != config {cfg.obs_dim}")
    targets = encode_targets(autoencoder, windows)

    prior = SkillPrior(
        PriorConfig.from_run_config(cfg),
        dataset.task_names(),
        np.random.default_rng(np.random.SeedSequence((seed, 21))),
    )
    run_rng = np.random.default_rng(np.random.SeedSequence((seed, 22)))
    opt = Adam(prior.params(), lr=cfg.learning_rate)

    count = windows.shape[0]
    for epoch in range(cfg.stage2_epochs):
        order = run_rng.permutation(count)
        if cfg.stage2_windows_per_epoch > 0:
            order = order[: cfg.stage2_windows_per_epoch]
        loss_sum, loss_n = 0.0, 0
        for lo in range(0, len(order), cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            opt.zero_grad()
            loss = prior.nll(task_ids[idx], obs[idx], targets[idx], rng=run_rng, training=True)
            loss.backward()
            opt.step()
            loss_sum += loss.item() * len(idx)
            loss_n += len(idx)
        if metrics is not None:
            metrics.log(phase="stage2", epoch=epoch, loss=loss_sum / max(loss_n, 1), seed=seed)
    return prior.to_checkpoint(cfg, {"stage1_sha256": stage1_ckpt.content_sha256()})


def finetune_fewshot(
    stage1_ckpt: Checkpoint,
    stage2_ckpt: Checkpoint,
    demos: TrajectoryDataset,
    cfg: RunConfig,
    seed: int,
    decoder_finetune: bool = True,
    loss_scale: float | None = None,
    metrics: MetricsWriter | None = None,
) -> Checkpoint:
    """Adapt the prior (and optionally the decoder) to a handful of demos.

    The encoder and quantizer projections stay frozen.  With decoder
    finetuning on, each batch also decodes skill tokens sampled from the
    current prior and adds ``loss_scale`` times their reconstruction error;
    the sampled tokens are integers, so no gradient can reach the prior
    through them.
    """
    if len(demos) == 0:
        raise ArgumentError("cannot finetune on an empty dataset")
    if loss_scale is None:
        loss_scale = cfg.decoder_loss_scale
    check_structural_match(cfg, stage1_ckpt, "stage-1")
    if stage2_ckpt.meta.get("stage1_sha256") not in (None, stage1_ckpt.content_sha256()):
        raise ConfigurationError(
            "stage-2 checkpoint was trained against a different stage-1 checkpoint"
        )
    autoencoder = SkillAutoencoder.from_checkpoint(stage1_ckpt)
    set_requires_grad(autoencoder.encoder_side_params(), False)
    set_requires_grad(autoencoder.decoder_side_params(), decoder_finetune)

    prior, _ = SkillPrior.from_checkpoint(stage2_ckpt)
    row_rng = np.random.default_rng(np.random.SeedSequence((seed, 31)))
    for name in demos.task_names():
        prior.ensure_task(name, row_rng)

    windows, obs, local_ids, _ = window_arrays(demos, cfg.T, cfg.observation_history)
    local_names = demos.task_names()
    task_ids = np.asarray([prior.task_index(local_names[i]) for i in local_ids])
    targets = encode_targets(autoencoder, windows)

    trainable = prior.params()
    if decoder_finetune:
        trainable.update(autoencoder.decoder_side_params())
    run_rng = np.random.default_rng(np.random.SeedSequence((seed, 32)))
    opt = Adam(trainable, lr=cfg.learning_rate)

    count = windows.shape[0]
    for epoch in range(cfg.finetune_epochs):
        order = run_rng.permutation(count)
        loss_sum, loss_n = 0.0, 0
        for lo in range(0, len(order), cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            opt.zero_grad()
            loss = prior.nll(task_ids[idx], obs[idx], targets[idx], rng=run_rng, training=True)
            if decoder_finetune:
                sampled = prior.sample(
                    task_ids[idx], obs[idx], cfg.top_k, cfg.temperature, run_rng
                )
                digits = index_to_code(sampled, autoencoder.spec)
                feats = autoencoder.fsq.codes_to_features(digits)
                pred = autoencoder.decoder(feats, rng=run_rng, training=True)
                loss = loss + loss_scale * T.l1_loss(pred, Tensor(windows[idx]))
            loss.backward()
            opt.step()
            loss_sum += loss.item() * len(idx)
            loss_n += len(idx)
        if metrics is not None:
            metrics.log(phase="finetune", epoch=epoch, loss=loss_sum / max(loss_n, 1), seed=seed)

    tensors = prior.params()
    meta = {
        "stage1_sha256": stage2_ckpt.meta.get("stage1_sha256", stage1_ckpt.content_sha256()),
        "decoder_finetuned": "true" if decoder_finetune else "false",
    }
    if decoder_finetune:
        tensors.update(autoencoder.decoder_side_params())
    base = {"stage": "stage2", "tasks": ",".join(prior.task_names)}
    base.update(meta)
    return Checkpoint.from_tensors(tensors, base, cfg.snapshot())
