"""Synthetic 2D point-agent benchmark.

Task families are built so that several trajectories share an identical
prefix by construction (the same semicircular arc, traversed with the same
per-demo noise stream), which makes prefix-reuse of skill tokens directly
testable.  Episodes end with a stationary hold at the template endpoint so
every phase of an episode, including "stay put", appears in the data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Episode, TrajectoryDataset
from .errors import ArgumentError, ConfigurationError

ARENA = 1.0
MAX_STEP = 0.1
EPS = 0.05  # success: the agent ends within EPS of the template endpoint
DELTA = 0.1  # corridor: every visited point lies within DELTA of the template
START_NOISE = 0.01
ACTION_NOISE = 0.002
SEQUENCE_LENGTH = 32
HOLD_STEPS = 32

# stream labels for per-demo generators
_PREFIX_STREAM = 101
_TASK_STREAM = 202
PREFIX_SHARE_STEPS = SEQUENCE_LENGTH // 2
PREFIX_GROUP = ("circle-ccw", "s-curve", "figure-eight")


@dataclass(frozen=True)
class TaskSpec:
    """One benchmark task: its template branch(es)."""

    name: str
    ordinal: int
    branches: tuple[np.ndarray, ...]  # each (steps+1, 2), hold tail included
    goal: np.ndarray  # template endpoint, shared by all branches

    def __post_init__(self):
        for branch in self.branches:
            steps = branch.shape[0] - 1
            if steps < SEQUENCE_LENGTH or steps % SEQUENCE_LENGTH != 0:
                raise ConfigurationError(
                    f"task '{self.name}': template length {steps} is not a "
                    f"positive multiple of {SEQUENCE_LENGTH}"
                )
            if np.abs(branch).max() > 0.95:
                raise ConfigurationError(f"task '{self.name}': template leaves the arena")

    @property
    def start(self) -> np.ndarray:
        return self.branches[0][0]


def _arc(center, radius, theta0, theta1, steps) -> np.ndarray:
    theta = np.linspace(theta0, theta1, steps + 1)
    return np.stack(
        [center[0] + radius * np.cos(theta), center[1] + radius * np.sin(theta)], axis=-1
    )


def _chain(*segments: np.ndarray) -> np.ndarray:
    """Concatenate path segments, dropping duplicated junction points."""
    parts = [segments[0]]
    for seg in segments[1:]:
        parts.append(seg[1:])
    return np.concatenate(parts, axis=0)


def _resample(points: np.ndarray, steps: int) -> np.ndarray:
    """Arc-length-uniform resampling of a polyline to steps+1 points."""
    deltas = np.linalg.norm(np.diff(points, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(deltas)])
    targets = np.linspace(0.0, cum[-1], steps + 1)
    x = np.interp(targets, cum, points[:, 0])
    y = np.interp(targets, cum, points[:, 1])
    return np.stack([x, y], axis=-1)


def _with_hold(curve: np.ndarray, hold: int = HOLD_STEPS) -> np.ndarray:
    tail = np.tile(curve[-1], (hold, 1))
    return np.concatenate([curve, tail], axis=0)


def _build_task(name, ordinal, curves) -> TaskSpec:
    branches = tuple(_with_hold(c) for c in curves)
    return TaskSpec(name=name, ordinal=ordinal, branches=branches, goal=curves[0][-1].copy())


def _registry() -> dict[str, TaskSpec]:
    half = SEQUENCE_LENGTH // 2
    base_center = (0.0, 0.0)
    r = 0.3
    # The shared primitive: one counterclockwise semicircle, 16 steps.
    shared = _arc(base_center, r, np.pi, 2 * np.pi, half)

    circle_ccw = _chain(shared, _arc(base_center, r, 2 * np.pi, 3 * np.pi, half))
    s_curve = _chain(shared, _arc((0.6, 0.0), r, np.pi, 0.0, half))
    figure_eight = _chain(
        shared,
        _arc(base_center, r, 2 * np.pi, 3 * np.pi, half),
        _arc((-0.6, 0.0), r, 0.0, -2 * np.pi, 2 * half),
    )
    circle_cw = _arc((0.0, 0.45), r, np.pi, -np.pi, SEQUENCE_LENGTH)
    c_short = _arc((-0.3, -0.5), r, np.pi, 0.5 * np.pi, SEQUENCE_LENGTH)
    c_long = _arc((-0.3, -0.5), r, np.pi, 2.5 * np.pi, SEQUENCE_LENGTH)
    line = np.stack(
        [np.linspace(-0.8, 0.8, SEQUENCE_LENGTH + 1), np.full(SEQUENCE_LENGTH + 1, 0.8)],
        axis=-1,
    )
    zigzag = _resample(
        np.array([[-0.8, -0.8], [-0.4, -0.55], [0.0, -0.8], [0.4, -0.55], [0.8, -0.8]]),
        SEQUENCE_LENGTH,
    )
    theta = np.linspace(0.0, 4 * np.pi, 2 * SEQUENCE_LENGTH + 1)
    radius = 0.05 + 0.3 * theta / (4 * np.pi)
    spiral = np.stack(
        [0.5 + radius * np.cos(theta), 0.35 + radius * np.sin(theta)], axis=-1
    )
    reverse_s = s_curve * np.array([1.0, -1.0])

    specs = [
        _build_task("circle-ccw", 0, [circle_ccw]),
        _build_task("circle-cw", 1, [circle_cw]),
        _build_task("s-curve", 2, [s_curve]),
        _build_task("c-curve", 3, [c_short, c_long]),
        _build_task("figure-eight", 4, [figure_eight]),
        _build_task("line-across", 5, [line]),
        _build_task("zigzag", 6, [zigzag]),
        _build_task("spiral", 7, [spiral]),
        _build_task("reverse-s", 8, [reverse_s]),
    ]
    return {spec.name: spec for spec in specs}


TASKS: dict[str, TaskSpec] = _registry()
PRETRAIN_TASKS = (
    "circle-ccw",
    "circle-cw",
    "s-curve",
    "c-curve",
    "figure-eight",
    "line-across",
    "zigzag",
    "spiral",
)
FEWSHOT_TASKS = ("reverse-s",)


def get_task(name: str) -> TaskSpec:
    try:
        return TASKS[name]
    except KeyError:
        raise ArgumentError(f"unknown task '{name}'") from None


# -- demonstration generation -------------------------------------------------


def _demo_rng(seed: int, stream: int, ordinal: int, demo: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, stream, ordinal, demo)))


def _generate_demo(task: TaskSpec, seed: int, demo: int) -> Episode:
    template = task.branches[demo % len(task.branches)]
    steps = template.shape[0] - 1
    ideal = np.diff(template, axis=0)

    noise = np.empty((steps, 2))
    if task.name in PREFIX_GROUP:
        pre = _demo_rng(seed, _PREFIX_STREAM, 0, demo)
        start = template[0] + START_NOISE * pre.normal(size=2)
        noise[:PREFIX_SHARE_STEPS] = ACTION_NOISE * pre.normal(size=(PREFIX_SHARE_STEPS, 2))
        own = _demo_rng(seed, _TASK_STREAM, task.ordinal, demo)
        noise[PREFIX_SHARE_STEPS:] = ACTION_NOISE * own.normal(
            size=(steps - PREFIX_SHARE_STEPS, 2)
        )
    else:
        own = _demo_rng(seed, _TASK_STREAM, task.ordinal, demo)
        start = template[0] + START_NOISE * own.normal(size=2)
        noise[:] = ACTION_NOISE * own.normal(size=(steps, 2))

    actions = ideal + noise
    positions = np.empty((steps + 1, 2))
    positions[0] = start
    np.cumsum(actions, axis=0, out=positions[1:])
    positions[1:] += start

    observations = np.concatenate(
        [positions, np.tile(task.goal, (steps + 1, 1))], axis=1
    )
    return Episode(task=task.name, observations=observations, actions=actions)


def generate_suite(
    seed: int,
    task_names=PRETRAIN_TASKS,
    demos_per_task: int = 50,
) -> TrajectoryDataset:
    """Build the multitask demonstration dataset for the given seed.

    Generation is a pure function of (seed, task list, demos per task).  Demos of
    prefix-group tasks with equal demo index share their first
    ``PREFIX_SHARE_STEPS`` actions bitwise.
    """
    if not task_names:
        raise ArgumentError("task list is empty")
    episodes = []
    for name in task_names:
        task = get_task(name)
        for demo in range(demos_per_task):
            episodes.append(_generate_demo(task, seed, demo))
    return TrajectoryDataset(episodes=episodes, seed=seed)


# -- environment ---------------------------------------------------------------


class PointEnv:
    """Deterministic 2D point agent with bounded per-axis displacement.

    Tracks, per branch, the running corridor violation and the furthest
    template point reached in order, so success can be checked cheaply after
    every step.
    """

    def __init__(self, task: TaskSpec):
        self.task = task
        self.reset()

    def reset(self, rng: np.random.Generator | None = None) -> np.ndarray:
        start = self.task.start.copy()
        if rng is not None:
            start = start + START_NOISE * rng.normal(size=2)
        self.position = np.clip(start, -ARENA, ARENA)
        self.step_count = 0
        self._worst = np.zeros(len(self.task.branches))
        self._reached = [-1] * len(self.task.branches)
        self._track()
        return self.observation()

    def _track(self):
        for b, branch in enumerate(self.task.branches):
            d = np.linalg.norm(branch - self.position, axis=1)
            self._worst[b] = max(self._worst[b], d.min())
            # advance through the template points the agent lies near, in order
            i = self._reached[b]
            while i + 1 < len(d) and d[i + 1] <= DELTA:
                i += 1
            self._reached[b] = i

    def step(self, action: np.ndarray) -> np.ndarray:
        a = np.clip(np.asarray(action, dtype=np.float64), -MAX_STEP, MAX_STEP)
        self.position = np.clip(self.position + a, -ARENA, ARENA)
        self.step_count += 1
        self._track()
        return self.observation()

    def observation(self) -> np.ndarray:
        return np.concatenate([self.position, self.task.goal])

    def succeeded(self) -> bool:
        """The success predicate: on some branch, every visited point lies
        within ``DELTA`` of a template point, every template point was reached
        in order (the agent came within ``DELTA`` of each after the one
        before), and the current point lies within ``EPS`` of the endpoint."""
        for b, branch in enumerate(self.task.branches):
            if (
                self._worst[b] <= DELTA
                and self._reached[b] == len(branch) - 1
                and np.linalg.norm(self.position - branch[-1]) <= EPS
            ):
                return True
        return False
