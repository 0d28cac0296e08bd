"""Trajectory dataset container, sliding-window views, and file IO.

File format (version 1): the magic line ``QSTD1``, a header with the seed,
episode count and observation/action dims (each once) and one
``episode <length> <task>`` line per episode, a blank line, then the
payload: per episode the observations ((length+1) x obs_dim), then the
actions (length x act_dim).  The payload codec here, ``payload_chunks`` and
``read_payload``, also carries checkpoints: little-endian float32 arrays,
row-major, back to back in header order; the reader refuses a short, long
or non-finite payload.
"""

from __future__ import annotations

import math
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


def history_rows(last, history: int) -> np.ndarray:
    """Row indices of the ``history`` observations that end at row ``last``
    (an int, or an int array for one history per entry), clipped at 0: a
    history that reaches back before the first row repeats it."""
    return np.maximum(np.asarray(last)[..., None] + np.arange(1 - history, 1), 0)


def window_arrays(
    dataset: TrajectoryDataset, window: int, history: int = 1
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Materialize every stride-1 window for training.

    Returns ``(actions, observations, task_ids, starts)`` with shapes
    (W, window, act_dim), (W, history, obs_dim), (W,) int task ids indexing
    ``dataset.task_names()``, and the (W, 2) episode/step table, in episode
    then step order.  An episode shorter than ``window`` gives no window
    (none is padded); observation histories follow :func:`history_rows`.
    """
    if not dataset.episodes:
        raise ArgumentError("dataset has no episodes")
    task_index = {n: i for i, n in enumerate(dataset.task_names())}
    steps = np.arange(window)
    parts = []
    for e, ep in enumerate(dataset.episodes):
        t = np.arange(ep.length - window + 1)
        parts.append((
            ep.actions[t[:, None] + steps],
            ep.observations[history_rows(t, history)],
            np.full(t.size, task_index[ep.task]),
            np.stack([np.full_like(t, e), t], axis=1),
        ))
    dtypes = (np.float64, np.float64, np.int64, np.int64)
    acts, obs, tasks, starts = (
        np.concatenate(column, dtype=dtype) for column, dtype in zip(zip(*parts), dtypes)
    )
    if not tasks.size:
        raise ArgumentError(f"no episode is at least {window} steps long")
    return acts, obs, tasks, starts


# -- file IO -------------------------------------------------------------------


def header_int(text: str, what: str, signed: bool = False) -> int:
    """Parse one decimal integer of a file header; counts, dims and offsets
    are unsigned."""
    if re.fullmatch(r"-?\d+" if signed else r"\d+", text) is None:
        kind = "an integer" if signed else "a non-negative integer"
        raise DataFormatError(f"{what} must be {kind}, got {text!r}")
    return int(text)


def header_line(text: str, what: str) -> str:
    """``text``, if it is one non-empty line of ASCII, as each entry of a
    dataset or checkpoint header must be; else :class:`ArgumentError`."""
    if not text.isascii() or text.splitlines() != [text]:
        raise ArgumentError(f"{what} {text!r} is not one non-empty line of ASCII")
    return text


def split_header(raw: bytes, what: str) -> tuple[list[str], memoryview]:
    """Split a file at its first blank line into the lines of its ASCII
    header and a view of the binary payload after it (no copy)."""
    split = raw.find(b"\n\n")
    if split < 0:
        raise DataFormatError(f"missing blank line after {what}")
    try:
        header = raw[: split + 1].decode("ascii")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{what} is not ascii text: {exc}") from None
    return header.splitlines(), memoryview(raw)[split + 2 :]


def payload_chunks(arrays):
    """The payload of a dataset or checkpoint file: each array's
    little-endian float32 bytes as a memoryview, back to back in the given
    order (no copy for an array that already is contiguous ``<f4``)."""
    for arr in arrays:
        yield np.ascontiguousarray(arr, dtype="<f4").reshape(-1).data


def read_payload(payload: memoryview, shapes, what: str) -> list[np.ndarray]:
    """Split ``payload`` into read-only ``<f4`` views of the ``(label,
    shape)`` pairs its header declares, in header order.  A payload shorter
    than the shapes need raises :class:`TruncatedFileError`; a longer one,
    or a non-finite value (named by its label), :class:`DataFormatError`."""
    sizes = [math.prod(shape) for _, shape in shapes]
    need = 4 * sum(sizes)
    if len(payload) != need:
        error = TruncatedFileError if len(payload) < need else DataFormatError
        raise error(f"{what} payload holds {len(payload)} bytes, header requires {need}")
    flat = np.frombuffer(payload, dtype="<f4")
    ends = np.cumsum(sizes, dtype=np.int64)
    if flat.size and not (np.isfinite(flat.max()) and np.isfinite(flat.min())):
        first = np.flatnonzero(~np.isfinite(flat))[0]
        label = shapes[np.searchsorted(ends, first, side="right")][0]
        raise DataFormatError(f"{what} {label} holds a non-finite value")
    return [part.reshape(shape) for part, (_, shape) in zip(np.split(flat, ends[:-1]), shapes)]


def write_dataset(dataset: TrajectoryDataset, path) -> None:
    """Write ``dataset`` to ``path``.  An episode whose observation or
    action width differs from the first episode's, or a task name that is
    not one non-empty line of ASCII, raises :class:`ArgumentError` before
    ``path`` is opened."""
    widths = [(ep.observations.shape[1:], ep.actions.shape[1:]) for ep in dataset.episodes]
    for e, ep in enumerate(dataset.episodes):
        if widths[e] != widths[0]:
            raise ArgumentError(
                f"episode {e} has (observation, action) widths {widths[e]}, episode 0 {widths[0]}"
            )
        header_line(ep.task, f"episode {e} task name")
    lines = [f"{MAGIC_PREFIX}{FORMAT_VERSION}"]
    lines.append(f"seed {dataset.seed}")
    lines.append(f"episodes {len(dataset.episodes)}")
    obs_dim = dataset.obs_dim if dataset.episodes else 0
    act_dim = dataset.act_dim if dataset.episodes else 0
    lines.append(f"obs_dim {obs_dim}")
    lines.append(f"act_dim {act_dim}")
    for ep in dataset.episodes:
        lines.append(f"episode {ep.length} {ep.task}")
    header = "\n".join(lines) + "\n\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.writelines(
            payload_chunks(a for ep in dataset.episodes for a in (ep.observations, ep.actions))
        )


def read_dataset(path) -> TrajectoryDataset:
    with open(path, "rb") as fh:
        raw = fh.read()
    lines, payload = split_header(raw, "header")
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
            if not task:
                raise DataFormatError(f"episode line {line!r} names no task")
            episode_meta.append((header_int(length_text, "episode length"), task))
        elif key in ("seed", "episodes", "obs_dim", "act_dim"):
            if key in fields:
                raise DataFormatError(f"header field '{key}' is given twice")
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
    shapes = []
    for e, (length, _) in enumerate(episode_meta):
        shapes.append((f"episode {e} observations", (length + 1, obs_dim)))
        shapes.append((f"episode {e} actions", (length, act_dim)))
    arrays = read_payload(payload, shapes, "dataset")
    episodes = [
        Episode(task=task, observations=obs.astype(np.float64), actions=act.astype(np.float64))
        for (_, task), obs, act in zip(episode_meta, arrays[0::2], arrays[1::2])
    ]
    return TrajectoryDataset(episodes=episodes, seed=fields["seed"])
