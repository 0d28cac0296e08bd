"""Stage II: decoder-only transformer over skill tokens.

The context is ordered [task embedding, observation token(s), start token,
skill tokens]; sinusoidal positions are added to the skill-token inputs only.

:meth:`SkillPrior.logits` is the teacher-forced path that training and
``nll`` use: one causal pass over the whole context, with logits for the n
positions from the start token onward, so row i predicts token i+1 and is
causally independent of anything later.  :meth:`SkillPrior.sample` draws
from the same distribution with a key/value cache that lives for one call:
one causal pass over the prefix [task, observation(s), start], then one new
position per drawn token, attending over the cached keys/values of every
block; only the newest row goes through ``ln_f`` and the head.  The stage-1
encoder is frozen wherever this module consumes it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .autoencoder import ENCODE_BATCH, SkillAutoencoder
from .checkpoint import Checkpoint
from .config import RunConfig
from .data import TrajectoryDataset, window_arrays
from .errors import ArgumentError, ConfigurationError, DimensionError, RangeError
from .metrics import MetricsWriter
from .nn import (
    Embedding,
    LayerNorm,
    Linear,
    TransformerBlock,
    causal_mask,
    load_params,
    named_params,
    normal_param,
    set_requires_grad,
)
from .optim import train_epochs
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

    def __init__(self, rng: np.random.Generator | None, obs_dim: int, dim: int):
        self.fc1 = Linear(rng, obs_dim, dim)
        self.fc2 = Linear(rng, dim, dim)

    def __call__(self, obs: Tensor) -> Tensor:
        return self.fc2(T.gelu(self.fc1(obs)))


class SkillPrior:
    """The stage-II transformer; ``rng=None`` leaves the weights
    uninitialised for :meth:`from_checkpoint` to fill."""

    def __init__(self, cfg: PriorConfig, task_names: list[str], rng: np.random.Generator | None):
        if not task_names:
            raise ArgumentError("the prior needs at least one task")
        self.cfg = cfg
        self.task_names = list(task_names)
        self.token_emb = Embedding(rng, cfg.vocab + 1, cfg.dim)
        self.task_table = normal_param(rng, 0.02, (len(task_names), cfg.dim))
        self.obs = ObservationEncoder(rng, cfg.obs_dim, cfg.dim)
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

    def params(self) -> dict[str, Tensor]:
        return named_params(self, "prior")

    # -- forward ---------------------------------------------------------------

    def _checked_inputs(self, task_idx, obs, tokens=None):
        """Validate one context batch; return (task ids, observations, tokens)
        as arrays, with tokens (B, 0) when none are given."""
        cfg = self.cfg
        task_idx = np.asarray(task_idx)
        if task_idx.ndim != 1:
            raise DimensionError(f"task ids must be (batch,), got {task_idx.shape}")
        batch = task_idx.shape[0]
        obs = np.asarray(obs)
        if obs.shape != (batch, cfg.history, cfg.obs_dim):
            raise DimensionError(
                f"observations must be (batch, {cfg.history}, {cfg.obs_dim}), got {obs.shape}"
            )
        tokens = np.asarray(np.zeros((batch, 0)) if tokens is None else tokens, dtype=np.int64)
        if tokens.ndim != 2 or tokens.shape[0] != batch:
            raise DimensionError(f"skill tokens must be ({batch}, length), got {tokens.shape}")
        if tokens.shape[1] > cfg.n_tokens - 1:
            raise ConfigurationError(
                f"context of {tokens.shape[1]} skill tokens exceeds the configured "
                f"maximum of {cfg.n_tokens - 1}"
            )
        if tokens.size and (tokens.min() < 0 or tokens.max() >= cfg.vocab):
            raise RangeError(f"skill token id out of range [0, {cfg.vocab})")
        tasks = len(self.task_names)
        if task_idx.size and (task_idx.min() < 0 or task_idx.max() >= tasks):
            raise RangeError(f"task id out of range [0, {tasks})")
        return task_idx, obs, tokens

    def _context(self, task_idx, obs, tokens) -> Tensor:
        """Input rows [task, observation(s), start, skill tokens] of checked inputs."""
        batch = task_idx.shape[0]
        parts = [
            T.reshape(T.embedding(self.task_table, task_idx), (batch, 1, self.cfg.dim)),
            self.obs(Tensor(obs)),
            self.token_emb(np.full((batch, 1), self.cfg.start_id)),
        ]
        if tokens.shape[1]:
            parts.append(self._token_inputs(tokens, 0))
        return T.concat(parts, axis=1)

    def _token_inputs(self, tokens, first: int) -> Tensor:
        """Skill-token input rows: embedding plus the sinusoid of positions
        ``first``, ``first + 1``, ... among the skill tokens."""
        return self.token_emb(tokens) + Tensor(self.pos_table[first : first + tokens.shape[1]])

    def logits(
        self,
        task_idx: np.ndarray,
        obs: np.ndarray,
        tokens: np.ndarray,
        rng=None,
        training=False,
    ) -> Tensor:
        """Teacher-forced next-token logits.

        ``tokens`` holds the already-available skill tokens (B, L) with
        0 <= L <= n-1; the result is (B, L+1, vocab), row i predicting token
        i+1 of the sequence.
        """
        cfg = self.cfg
        task_idx, obs, tokens = self._checked_inputs(task_idx, obs, tokens)
        x = T.dropout(self._context(task_idx, obs, tokens), cfg.embd_dropout, rng, training)
        mask = causal_mask(x.shape[1])
        for block in self.blocks:
            x = block(x, mask=mask, rng=rng, training=training)
        x = self.ln_f(x)
        x = T.narrow(x, 1, 1 + cfg.history, tokens.shape[1] + 1)
        return self.head(x)

    def nll(self, task_idx, obs, targets, rng=None, training=False) -> Tensor:
        """Mean negative log-likelihood of full target token sequences (B, n)."""
        targets = np.asarray(targets, dtype=np.int64)
        if targets.ndim != 2 or targets.shape[1] != self.cfg.n_tokens:
            raise DimensionError(
                f"targets must be (batch, {self.cfg.n_tokens}), got {targets.shape}"
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
        The prefix goes through the blocks once; each later step feeds only
        the token drawn last, against every block's key/value cache.
        """
        cfg = self.cfg
        if not 1 <= k <= cfg.vocab:
            raise ConfigurationError(f"k must lie in [1, {cfg.vocab}]")
        if temperature <= 0:
            raise ConfigurationError("temperature must be positive")
        task_idx, obs, no_tokens = self._checked_inputs(task_idx, obs)
        batch = task_idx.shape[0]
        row_rngs = rngs if isinstance(rngs, (list, tuple)) else [rngs] * batch
        if len(row_rngs) != batch:
            raise DimensionError("need one generator per batch row")

        tokens = np.empty((batch, cfg.n_tokens), dtype=np.int64)
        caches = [[] for _ in self.blocks]
        with T.no_grad():
            x = self._context(task_idx, obs, no_tokens)
            mask = causal_mask(x.shape[1])
            for i in range(cfg.n_tokens):
                if i:
                    x, mask = self._token_inputs(tokens[:, i - 1 : i], i - 1), None
                for block, cache in zip(self.blocks, caches):
                    x = block(x, mask=mask, cache=cache)
                logits = self.head(self.ln_f(T.narrow(x, 1, x.shape[1] - 1, 1))).data[:, 0]
                for row in range(batch):
                    tokens[row, i] = _sample_top_k(logits[row], k, temperature, row_rngs[row])
        return tokens

    # -- persistence -------------------------------------------------------------

    def to_checkpoint(
        self, cfg: RunConfig, meta: dict[str, str], decoder: dict[str, Tensor] | None = None
    ) -> Checkpoint:
        """The prior's parameters, then ``decoder`` (finetuned ``decoder.*``
        tensors, if any), under stage-2 metadata followed by ``meta``."""
        base = {"stage": "stage2", "tasks": ",".join(self.task_names)}
        base.update(meta)
        return Checkpoint.from_tensors(self.params() | (decoder or {}), base, cfg.snapshot())

    @classmethod
    def from_checkpoint(cls, ckpt: Checkpoint) -> tuple["SkillPrior", RunConfig]:
        cfg = RunConfig.from_text(ckpt.config_text)
        task_names = ckpt.meta.get("tasks", "").split(",")
        if task_names == [""]:
            raise ConfigurationError("checkpoint is missing its task list")
        prior = cls(PriorConfig.from_run_config(cfg), task_names, None)
        arrays = {k: v for k, v in ckpt.params.items() if k.startswith("prior.")}
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


def check_stage1_link(stage1_ckpt: Checkpoint, stage2_ckpt: Checkpoint) -> str:
    """Hash the stage-1 checkpoint; raise if the stage-2 checkpoint records
    another stage-1 hash.  Returns the hash."""
    sha256 = stage1_ckpt.content_sha256()
    if stage2_ckpt.meta.get("stage1_sha256") not in (None, sha256):
        raise ConfigurationError(
            "stage-2 checkpoint was trained against a different stage-1 checkpoint"
        )
    return sha256


def load_pair(
    stage1_ckpt: Checkpoint, stage2_ckpt: Checkpoint
) -> tuple[SkillAutoencoder, SkillPrior, RunConfig, str]:
    """Load a stage-1/stage-2 checkpoint pair.

    Checks the stage-1 link and the stage-2 config against the stage-1
    checkpoint's structure, then loads both models.  The ``decoder.*`` arrays
    a stage-2 checkpoint ships (from decoder finetuning) replace the stage-1
    decoder's.  Returns the autoencoder, the prior, the stage-2 config and
    the stage-1 hash.
    """
    stage1_sha256 = check_stage1_link(stage1_ckpt, stage2_ckpt)
    autoencoder = SkillAutoencoder.from_checkpoint(stage1_ckpt)
    prior, cfg = SkillPrior.from_checkpoint(stage2_ckpt)
    check_structural_match(cfg, stage1_ckpt, "stage-1")
    decoder = {k: v for k, v in stage2_ckpt.params.items() if k.startswith("decoder.")}
    if decoder:
        load_params(autoencoder.decoder_side_params(), decoder)
    return autoencoder, prior, cfg, stage1_sha256


def encode_targets(autoencoder: SkillAutoencoder, windows: np.ndarray) -> np.ndarray:
    """Tokenize every window with the frozen stage-1 encoder."""
    out = []
    for lo in range(0, windows.shape[0], ENCODE_BATCH):
        out.append(autoencoder.encode(windows[lo : lo + ENCODE_BATCH]).indices)
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
    train_epochs(
        prior.params(),
        cfg,
        cfg.stage2_epochs,
        run_rng,
        len(windows),
        lambda idx: prior.nll(task_ids[idx], obs[idx], targets[idx], rng=run_rng, training=True),
        metrics,
        lambda epoch, loss: dict(phase="stage2", epoch=epoch, loss=loss, seed=seed),
        cap=cfg.stage2_windows_per_epoch,
    )
    return prior.to_checkpoint(cfg, {"stage1_sha256": stage1_ckpt.content_sha256()})


def finetune_fewshot(
    stage1_ckpt: Checkpoint,
    stage2_ckpt: Checkpoint,
    demos: TrajectoryDataset,
    cfg: RunConfig,
    seed: int,
    decoder_finetune: bool = True,
    metrics: MetricsWriter | None = None,
) -> Checkpoint:
    """Adapt the prior (and optionally the decoder) to a handful of demos.

    The encoder and quantizer projections stay frozen.  Training starts from
    the decoder :func:`load_pair` loads, so a stage-2 checkpoint's finetuned
    decoder is trained on (decoder finetuning on) or passed on unchanged
    (off).  With decoder
    finetuning on, each batch also decodes skill tokens sampled from the
    current prior and adds ``cfg.decoder_loss_scale`` times their
    reconstruction error; the sampled tokens are integers, so no gradient can
    reach the prior through them.
    """
    if len(demos) == 0:
        raise ArgumentError("cannot finetune on an empty dataset")
    check_structural_match(cfg, stage1_ckpt, "stage-1")
    autoencoder, prior, _, stage1_sha256 = load_pair(stage1_ckpt, stage2_ckpt)
    decoder = autoencoder.decoder_side_params()
    set_requires_grad(autoencoder.encoder_side_params(), False)
    set_requires_grad(decoder, decoder_finetune)

    row_rng = np.random.default_rng(np.random.SeedSequence((seed, 31)))
    task_rows = np.asarray([prior.ensure_task(name, row_rng) for name in demos.task_names()])

    windows, obs, local_ids, _ = window_arrays(demos, cfg.T, cfg.observation_history)
    task_ids = task_rows[local_ids]
    targets = encode_targets(autoencoder, windows)
    run_rng = np.random.default_rng(np.random.SeedSequence((seed, 32)))

    def batch_loss(idx):
        loss = prior.nll(task_ids[idx], obs[idx], targets[idx], rng=run_rng, training=True)
        if not decoder_finetune:
            return loss
        sampled = prior.sample(task_ids[idx], obs[idx], cfg.top_k, cfg.temperature, run_rng)
        pred = autoencoder.decode_tensor(sampled, rng=run_rng, training=True)
        return loss + cfg.decoder_loss_scale * T.l1_loss(pred, Tensor(windows[idx]))

    train_epochs(
        prior.params() | (decoder if decoder_finetune else {}),
        cfg,
        cfg.finetune_epochs,
        run_rng,
        len(windows),
        batch_loss,
        metrics,
        lambda epoch, loss: dict(phase="finetune", epoch=epoch, loss=loss, seed=seed),
    )
    finetuned = "true" if decoder_finetune else "false"
    meta = {"stage1_sha256": stage1_sha256, "decoder_finetuned": finetuned}
    # a decoder the stage-2 checkpoint shipped ships on, trained or not
    ships = decoder_finetune or any(k.startswith("decoder.") for k in stage2_ckpt.params)
    return prior.to_checkpoint(cfg, meta, decoder if ships else None)

