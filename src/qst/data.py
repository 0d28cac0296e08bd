"""Trajectory dataset container, sliding-window views, and file IO.

File format (version 1): the magic line ``QSTD1``, a text header with the
generation seed, episode count, observation/action dims and one line per
episode (``episode <length> <task>``), a blank line, then little-endian
32-bit float blobs: per episode the observations ((length+1) x obs_dim) and
then the actions (length x act_dim), row-major, concatenated in episode
order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ArgumentError,
    BadMagicError,
    DataFormatError,
    TruncatedFileError,
    VersionError,
)

MAGIC_PREFIX = "QSTD"
FORMAT_VERSION = 1


@dataclass
class Episode:
    """One demonstration: per-step observations (one extra row) and actions."""

    task: str
    observations: np.ndarray  # (length+1, obs_dim)
    actions: np.ndarray  # (length, act_dim)

    def __post_init__(self):
        if self.observations.shape[0] != self.actions.shape[0] + 1:
            raise ArgumentError(
                "episode needs exactly one more observation row than action rows"
            )

    @property
    def length(self) -> int:
        return self.actions.shape[0]


@dataclass
class TrajectoryDataset:
    episodes: list[Episode] = field(default_factory=list)
    seed: int = 0
    version: int = FORMAT_VERSION

    def __len__(self) -> int:
        return len(self.episodes)

    @property
    def obs_dim(self) -> int:
        if not self.episodes:
            raise ArgumentError("empty dataset has no observation dimension")
        return self.episodes[0].observations.shape[1]

    @property
    def act_dim(self) -> int:
        if not self.episodes:
            raise ArgumentError("empty dataset has no action dimension")
        return self.episodes[0].actions.shape[1]

    def task_names(self) -> list[str]:
        return sorted({ep.task for ep in self.episodes})

    def by_task(self) -> dict[str, list[Episode]]:
        grouped: dict[str, list[Episode]] = {}
        for ep in self.episodes:
            grouped.setdefault(ep.task, []).append(ep)
        return grouped

    def split_heldout(self, heldout_per_task: int) -> tuple["TrajectoryDataset", "TrajectoryDataset"]:
        """Split off the last ``heldout_per_task`` demos of every task."""
        train, held = [], []
        for eps in self.by_task().values():
            cut = max(len(eps) - heldout_per_task, 0)
            train.extend(eps[:cut])
            held.extend(eps[cut:])
        return (
            TrajectoryDataset(train, seed=self.seed),
            TrajectoryDataset(held, seed=self.seed),
        )


def window_starts(dataset: TrajectoryDataset, window: int) -> list[tuple[int, int]]:
    """Stride-1 enumeration of (episode index, start step) full-length windows.

    Episode tails shorter than ``window`` are discarded, never padded.
    """
    starts = []
    for e, ep in enumerate(dataset.episodes):
        for t in range(ep.length - window + 1):
            starts.append((e, t))
    return starts


def window_arrays(
    dataset: TrajectoryDataset, window: int, history: int = 1
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Materialize every window for training.

    Returns ``(actions, observations, task_ids, starts)`` with shapes
    (W, window, act_dim), (W, history, obs_dim), (W,) int task ids indexing
    ``dataset.task_names()``, and the (W, 2) episode/step table.  Observation
    histories before episode start repeat the first observation.
    """
    if not dataset.episodes:
        raise ArgumentError("dataset has no episodes")
    starts = window_starts(dataset, window)
    if not starts:
        raise ArgumentError(f"no episode is at least {window} steps long")
    names = dataset.task_names()
    task_index = {n: i for i, n in enumerate(names)}
    w = len(starts)
    acts = np.empty((w, window, dataset.act_dim))
    obs = np.empty((w, history, dataset.obs_dim))
    tasks = np.empty(w, dtype=np.int64)
    for row, (e, t) in enumerate(starts):
        ep = dataset.episodes[e]
        acts[row] = ep.actions[t : t + window]
        idx = np.clip(np.arange(t - history + 1, t + 1), 0, ep.length)
        obs[row] = ep.observations[idx]
        tasks[row] = task_index[ep.task]
    return acts, obs, tasks, np.asarray(starts, dtype=np.int64)


# -- file IO -------------------------------------------------------------------


def header_int(text: str, what: str, signed: bool = False) -> int:
    """Parse one decimal integer of a file header; counts, dims and offsets
    are unsigned."""
    if re.fullmatch(r"-?\d+" if signed else r"\d+", text) is None:
        kind = "an integer" if signed else "a non-negative integer"
        raise DataFormatError(f"{what} must be {kind}, got {text!r}")
    return int(text)


def write_dataset(dataset: TrajectoryDataset, path) -> None:
    lines = [f"{MAGIC_PREFIX}{dataset.version}"]
    lines.append(f"seed {dataset.seed}")
    lines.append(f"episodes {len(dataset.episodes)}")
    obs_dim = dataset.obs_dim if dataset.episodes else 0
    act_dim = dataset.act_dim if dataset.episodes else 0
    lines.append(f"obs_dim {obs_dim}")
    lines.append(f"act_dim {act_dim}")
    for ep in dataset.episodes:
        lines.append(f"episode {ep.length} {ep.task}")
    header = "\n".join(lines) + "\n\n"
    blobs = []
    for ep in dataset.episodes:
        blobs.append(ep.observations.astype("<f4").tobytes())
        blobs.append(ep.actions.astype("<f4").tobytes())
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for blob in blobs:
            fh.write(blob)


def read_dataset(path) -> TrajectoryDataset:
    with open(path, "rb") as fh:
        raw = fh.read()
    split = raw.find(b"\n\n")
    if split < 0:
        raise DataFormatError("missing blank line after header")
    try:
        header = raw[: split + 1].decode("ascii")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"header is not ascii text: {exc}") from None
    payload = raw[split + 2 :]

    lines = header.splitlines()
    magic = re.fullmatch(rf"{MAGIC_PREFIX}(\d+)", lines[0])
    if magic is None:
        raise BadMagicError(f"expected magic '{MAGIC_PREFIX}<version>', got {lines[0]!r}")
    version = int(magic.group(1))
    if version != FORMAT_VERSION:
        raise VersionError(f"unsupported dataset version {version} (expected {FORMAT_VERSION})")

    fields: dict[str, int] = {}
    episode_meta: list[tuple[int, str]] = []
    for line in lines[1:]:
        key, _, rest = line.partition(" ")
        if key == "episode":
            length_text, _, task = rest.partition(" ")
            episode_meta.append((header_int(length_text, "episode length"), task))
        elif key in ("seed", "episodes", "obs_dim", "act_dim"):
            fields[key] = header_int(rest, key, signed=key == "seed")
        else:
            raise DataFormatError(f"unknown header line {line!r}")
    for required in ("seed", "episodes", "obs_dim", "act_dim"):
        if required not in fields:
            raise DataFormatError(f"header is missing '{required}'")
    if fields["episodes"] != len(episode_meta):
        raise DataFormatError(
            f"header declares {fields['episodes']} episodes but lists {len(episode_meta)}"
        )

    obs_dim, act_dim = fields["obs_dim"], fields["act_dim"]
    expected = sum(
        4 * ((length + 1) * obs_dim + length * act_dim) for length, _ in episode_meta
    )
    if len(payload) != expected:
        raise TruncatedFileError(
            f"payload holds {len(payload)} bytes, header requires {expected}"
        )

    episodes = []
    offset = 0
    for length, task in episode_meta:
        n_obs = (length + 1) * obs_dim
        obs = np.frombuffer(payload, dtype="<f4", count=n_obs, offset=offset)
        offset += 4 * n_obs
        n_act = length * act_dim
        act = np.frombuffer(payload, dtype="<f4", count=n_act, offset=offset)
        offset += 4 * n_act
        episodes.append(
            Episode(
                task=task,
                observations=obs.astype(np.float64).reshape(length + 1, obs_dim),
                actions=act.astype(np.float64).reshape(length, act_dim),
            )
        )
    return TrajectoryDataset(episodes=episodes, seed=fields["seed"], version=version)
