"""Run configuration: flat ``key = value`` text with documented defaults.

Every hyperparameter of every stage lives here so a config snapshot plus a
seed fully determines a run.  Unknown keys are rejected; a snapshot of the
effective config is embedded in every checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigurationError
from .fsq import FsqSpec


def _key(default, doc: str, least: int | None = None, structural: bool = False):
    """One config key: its default, its doc line, its least value (None when
    it has none) and whether it fixes the shape of a model."""
    return field(default=default, metadata={"doc": doc, "least": least, "structural": structural})


@dataclass
class RunConfig:
    T: int = _key(32, "action-sequence (plan) length in steps", least=1, structural=True)
    action_dim: int = _key(2, "environment action dimensionality", least=1, structural=True)
    obs_dim: int = _key(
        4, "proprioceptive observation dimensionality (position + goal)", least=1, structural=True
    )
    fsq_levels: tuple[int, ...] = _key(
        (8, 5, 5, 5), "per-dimension quantizer level counts", structural=True
    )
    encoder_dim: int = _key(256, "encoder model width", least=1, structural=True)
    encoder_layers: int = _key(2, "encoder self-attention blocks", least=1, structural=True)
    encoder_heads: int = _key(4, "encoder attention heads", least=1, structural=True)
    conv_kernels: tuple[int, ...] = _key((5, 3, 3), "encoder conv kernel sizes", structural=True)
    conv_strides: tuple[int, ...] = _key(
        (2, 2, 1), "encoder conv strides; their product is the downsampling factor", structural=True
    )
    encoder_causal: bool = _key(True, "causal encoder convolutions/attention (off = ablation)")
    decoder_dim: int = _key(256, "decoder model width", least=1, structural=True)
    decoder_layers: int = _key(
        4, "decoder blocks (self-attention + cross-attention + FFN)", least=1, structural=True
    )
    decoder_heads: int = _key(4, "decoder attention heads", least=1, structural=True)
    decoder_causal: bool = _key(True, "causal decoder query self-attention (off = ablation)")
    attention_dropout: float = _key(0.1, "stage-1 attention dropout")
    prior_dim: int = _key(384, "skill prior model width", least=1, structural=True)
    prior_layers: int = _key(6, "skill prior transformer blocks", least=1, structural=True)
    prior_heads: int = _key(6, "skill prior attention heads", least=1, structural=True)
    prior_attention_dropout: float = _key(0.1, "skill prior attention dropout")
    prior_embedding_dropout: float = _key(0.1, "skill prior embedding dropout")
    observation_history: int = _key(1, "observation tokens per context", least=1, structural=True)
    top_k: int = _key(5, "sampler keeps the k most likely tokens")
    temperature: float = _key(1.0, "sampler temperature")
    decoder_loss_scale: float = _key(10.0, "weight of the decoder loss during few-shot finetuning")
    execution_horizon: int = _key(8, "actions executed per replan")
    max_episode_steps: int = _key(96, "environment step budget per evaluation episode", least=1)
    optimizer: str = _key("adam", "only 'adam' is implemented")
    learning_rate: float = _key(1e-4, "Adam learning rate")
    batch_size: int = _key(64, "windows per optimization step", least=1)
    stage1_epochs: int = _key(8, "autoencoder training epochs", least=0)
    stage1_windows_per_epoch: int = _key(
        4096, "windows sampled per stage-1 epoch (0 = all)", least=0
    )
    stage2_epochs: int = _key(8, "skill-prior training epochs", least=0)
    stage2_windows_per_epoch: int = _key(
        8192, "windows sampled per stage-2 epoch (0 = all)", least=0
    )
    finetune_epochs: int = _key(40, "few-shot finetuning epochs", least=0)
    demos_per_task: int = _key(50, "pretraining demonstrations generated per task", least=1)
    fewshot_demos: int = _key(5, "demonstrations for the held-out task", least=1)
    holdout_demos_per_task: int = _key(
        5, "demos per task reserved for reconstruction eval", least=0
    )

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
        for f in fields(self):
            least, value = f.metadata["least"], getattr(self, f.name)
            if least is not None and value < least:
                raise ConfigurationError(f"{f.name} must be at least {least}, got {value}")
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
        try:
            FsqSpec(self.fsq_levels)
        except ConfigurationError as exc:
            raise ConfigurationError(f"fsq_levels: {exc}") from None
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
            lines.append(f"# {f.metadata['doc']}")
            lines.append(f"{f.name} = {_format_value(getattr(default, f.name))}")
        return "\n".join(lines) + "\n"

    def structural_keys(self) -> dict[str, str]:
        """The keys that must match between a checkpoint and a config for the
        two to describe the same model."""
        return {
            f.name: _format_value(getattr(self, f.name))
            for f in fields(self)
            if f.metadata["structural"]
        }


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def _parse_value(key, text: str, lineno: int):
    kind = key.type
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
        raise ConfigurationError(f"line {lineno}: bad value for '{key.name}': {exc}") from None
