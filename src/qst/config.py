"""Run configuration: flat ``key = value`` text with documented defaults.

Every hyperparameter of every stage lives here so a config snapshot plus a
seed fully determines a run.  Unknown keys are rejected; a snapshot of the
effective config is embedded in every checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigurationError

_DOCS = {
    "T": "action-sequence (plan) length in steps",
    "action_dim": "environment action dimensionality",
    "obs_dim": "proprioceptive observation dimensionality (position + goal)",
    "fsq_levels": "per-dimension quantizer level counts",
    "encoder_dim": "encoder model width",
    "encoder_layers": "encoder self-attention blocks",
    "encoder_heads": "encoder attention heads",
    "conv_kernels": "encoder conv kernel sizes",
    "conv_strides": "encoder conv strides; their product is the downsampling factor",
    "encoder_causal": "causal encoder convolutions/attention (off = ablation)",
    "decoder_dim": "decoder model width",
    "decoder_layers": "decoder blocks (self-attention + cross-attention + FFN)",
    "decoder_heads": "decoder attention heads",
    "decoder_causal": "causal decoder query self-attention (off = ablation)",
    "attention_dropout": "stage-1 attention dropout",
    "prior_dim": "skill prior model width",
    "prior_layers": "skill prior transformer blocks",
    "prior_heads": "skill prior attention heads",
    "prior_attention_dropout": "skill prior attention dropout",
    "prior_embedding_dropout": "skill prior embedding dropout",
    "observation_history": "observation tokens per context",
    "top_k": "sampler keeps the k most likely tokens",
    "temperature": "sampler temperature",
    "decoder_loss_scale": "weight of the decoder loss during few-shot finetuning",
    "execution_horizon": "actions executed per replan",
    "max_episode_steps": "environment step budget per evaluation episode",
    "optimizer": "only 'adam' is implemented",
    "learning_rate": "Adam learning rate",
    "batch_size": "windows per optimization step",
    "stage1_epochs": "autoencoder training epochs",
    "stage1_windows_per_epoch": "windows sampled per stage-1 epoch (0 = all)",
    "stage2_epochs": "skill-prior training epochs",
    "stage2_windows_per_epoch": "windows sampled per stage-2 epoch (0 = all)",
    "finetune_epochs": "few-shot finetuning epochs",
    "demos_per_task": "pretraining demonstrations generated per task",
    "fewshot_demos": "demonstrations for the held-out task",
    "holdout_demos_per_task": "demos per task reserved for reconstruction eval",
}

# Smallest value of each integer key; a window cap of 0 means "all windows".
_MINIMUM = dict.fromkeys(
    "T action_dim obs_dim encoder_dim encoder_layers encoder_heads decoder_dim decoder_layers "
    "decoder_heads prior_dim prior_layers prior_heads observation_history max_episode_steps "
    "batch_size demos_per_task fewshot_demos".split(),
    1,
) | dict.fromkeys(
    "stage1_epochs stage2_epochs finetune_epochs stage1_windows_per_epoch "
    "stage2_windows_per_epoch holdout_demos_per_task".split(),
    0,
)


@dataclass
class RunConfig:
    T: int = 32
    action_dim: int = 2
    obs_dim: int = 4
    fsq_levels: tuple[int, ...] = (8, 5, 5, 5)
    encoder_dim: int = 256
    encoder_layers: int = 2
    encoder_heads: int = 4
    conv_kernels: tuple[int, ...] = (5, 3, 3)
    conv_strides: tuple[int, ...] = (2, 2, 1)
    encoder_causal: bool = True
    decoder_dim: int = 256
    decoder_layers: int = 4
    decoder_heads: int = 4
    decoder_causal: bool = True
    attention_dropout: float = 0.1
    prior_dim: int = 384
    prior_layers: int = 6
    prior_heads: int = 6
    prior_attention_dropout: float = 0.1
    prior_embedding_dropout: float = 0.1
    observation_history: int = 1
    top_k: int = 5
    temperature: float = 1.0
    decoder_loss_scale: float = 10.0
    execution_horizon: int = 8
    max_episode_steps: int = 96
    optimizer: str = "adam"
    learning_rate: float = 1e-4
    batch_size: int = 64
    stage1_epochs: int = 8
    stage1_windows_per_epoch: int = 4096
    stage2_epochs: int = 8
    stage2_windows_per_epoch: int = 8192
    finetune_epochs: int = 40
    demos_per_task: int = 50
    fewshot_demos: int = 5
    holdout_demos_per_task: int = 5

    def __post_init__(self):
        self.validate()

    # -- derived quantities -------------------------------------------------

    @property
    def downsampling(self) -> int:
        return int(np.prod(self.conv_strides))

    @property
    def n_tokens(self) -> int:
        return self.T // self.downsampling

    @property
    def vocab_size(self) -> int:
        return int(np.prod(self.fsq_levels))

    def validate(self) -> None:
        for name, least in _MINIMUM.items():
            value = getattr(self, name)
            if value < least:
                raise ConfigurationError(f"{name} must be at least {least}, got {value}")
        for part in ("encoder", "decoder", "prior"):
            if getattr(self, f"{part}_dim") % getattr(self, f"{part}_heads"):
                raise ConfigurationError(f"{part}_heads must divide {part}_dim")
        for name in ("attention_dropout", "prior_attention_dropout", "prior_embedding_dropout"):
            if not 0 <= getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must lie in [0, 1)")
        if not 0 < self.learning_rate < np.inf:
            raise ConfigurationError("learning_rate must be positive and finite")
        if not 0 <= self.decoder_loss_scale < np.inf:
            raise ConfigurationError("decoder_loss_scale must be non-negative and finite")
        if min(self.conv_kernels + self.conv_strides, default=0) < 1:
            raise ConfigurationError("conv_kernels and conv_strides need positive entries")
        if len(self.conv_kernels) != len(self.conv_strides):
            raise ConfigurationError("conv_kernels and conv_strides must pair up")
        if self.T % self.downsampling != 0:
            raise ConfigurationError(
                f"T={self.T} is not divisible by the downsampling factor "
                f"{self.downsampling}; the token count must be exact"
            )
        if self.optimizer != "adam":
            raise ConfigurationError(f"unsupported optimizer '{self.optimizer}'")
        if not 1 <= self.execution_horizon <= self.T:
            raise ConfigurationError("execution_horizon must lie in [1, T]")
        if not 0 < self.temperature < np.inf:
            raise ConfigurationError("temperature must be positive and finite")
        if not 1 <= self.top_k <= self.vocab_size:
            raise ConfigurationError("top_k must lie in [1, vocab size]")

    # -- text round-trip ------------------------------------------------------

    def snapshot(self) -> str:
        lines = []
        for f in fields(self):
            lines.append(f"{f.name} = {_format_value(getattr(self, f.name))}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        known = {f.name: f for f in fields(cls)}
        values = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ConfigurationError(f"line {lineno}: expected 'key = value', got {raw!r}")
            key = key.strip()
            if key not in known:
                raise ConfigurationError(f"line {lineno}: unknown config key '{key}'")
            values[key] = _parse_value(known[key], value.strip(), lineno)
        return cls(**values)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path, "r", encoding="ascii") as fh:
            return cls.from_text(fh.read())

    @classmethod
    def documented_defaults(cls) -> str:
        """Defaults with doc comments, as a config file that parses back to ``RunConfig()``."""
        default = cls()
        lines = []
        for f in fields(cls):
            lines.append(f"# {_DOCS[f.name]}")
            lines.append(f"{f.name} = {_format_value(getattr(default, f.name))}")
        return "\n".join(lines) + "\n"

    def structural_keys(self) -> dict[str, str]:
        """The keys that must match between a checkpoint and a config for the
        two to describe the same model."""
        names = (
            "T",
            "action_dim",
            "obs_dim",
            "fsq_levels",
            "encoder_dim",
            "encoder_layers",
            "encoder_heads",
            "conv_kernels",
            "conv_strides",
            "decoder_dim",
            "decoder_layers",
            "decoder_heads",
            "prior_dim",
            "prior_layers",
            "prior_heads",
            "observation_history",
        )
        return {n: _format_value(getattr(self, n)) for n in names}


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def _parse_value(field, text: str, lineno: int):
    kind = field.type
    try:
        if kind == "bool":
            lowered = text.lower()
            if lowered in ("true", "on", "1"):
                return True
            if lowered in ("false", "off", "0"):
                return False
            raise ValueError(f"not a boolean: {text!r}")
        if kind == "int":
            return int(text)
        if kind == "float":
            return float(text)
        if kind.startswith("tuple"):
            return tuple(int(part) for part in text.split(",") if part.strip())
        return text
    except ValueError as exc:
        raise ConfigurationError(f"line {lineno}: bad value for '{field.name}': {exc}") from None
