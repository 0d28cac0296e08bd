"""Closed-loop inference: receding-horizon execution of decoded skill plans.

A plan covers the stage-1 window of ``T`` steps; the first
``execution_horizon`` actions are executed before replanning.  Forward passes
run in evaluation mode, so the only randomness is the token sampler's
(``top_k``/``temperature`` of the ``ControlConfig``), which draws from
per-episode generator streams.  One loop steps episodes in lockstep so the
prior and decoder run on batches: ``rollout`` runs it on one episode,
``evaluate_suite`` on every episode of a seed.  Episodes remain logically
independent (each has its own environment, history, and sampler stream).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import Checkpoint
from .config import RunConfig
from .errors import ArgumentError, ConfigurationError
from .prior import load_pair
from .tasks import PointEnv, get_task


@dataclass(frozen=True)
class ControlConfig:
    execution_horizon: int = 8
    top_k: int = 5
    temperature: float = 1.0
    max_episode_steps: int = 96

    def __post_init__(self):
        if self.execution_horizon < 1:
            raise ConfigurationError("execution horizon must be at least 1")

    @classmethod
    def from_run_config(cls, cfg: RunConfig) -> "ControlConfig":
        return cls(
            execution_horizon=cfg.execution_horizon,
            top_k=cfg.top_k,
            temperature=cfg.temperature,
            max_episode_steps=cfg.max_episode_steps,
        )


@dataclass
class RolloutResult:
    task: str
    seed: int
    episode: int
    success: bool
    steps: int
    aborted: bool
    actions: np.ndarray  # (steps, action_dim), as executed
    token_log: list[list[int]]
    final_state: tuple[float, float]

    def to_json(self) -> str:
        return json.dumps(
            {
                "task": self.task,
                "seed": self.seed,
                "episode": self.episode,
                "success": self.success,
                "steps": self.steps,
                "aborted": self.aborted,
                "tokens": self.token_log,
                "final_state": list(self.final_state),
            }
        )


class Policy:
    """Frozen checkpoint pair bound into a callable planner."""

    def __init__(self, stage1_ckpt: Checkpoint, stage2_ckpt: Checkpoint):
        self.autoencoder, self.prior, self.run_config, _ = load_pair(stage1_ckpt, stage2_ckpt)

    def plan_batch(
        self, task_idx: np.ndarray, obs_histories: np.ndarray, rngs, top_k: int, temperature: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sample one token sequence per row and decode it into a plan;
        returns the tokens (B, n) and the plans (B, T, action_dim)."""
        tokens = self.prior.sample(task_idx, obs_histories, top_k, temperature, rngs)
        return tokens, self.autoencoder.decode(tokens)


def stack_history(observations: list[np.ndarray], history: int) -> np.ndarray:
    """Last ``history`` observations, left-padded by repeating the first."""
    take = observations[-history:]
    pad = [observations[0]] * (history - len(take))
    return np.stack(pad + take, axis=0)


@dataclass
class _Slot:
    """One episode of the lockstep loop; its environment is already reset."""

    env: PointEnv
    rng: np.random.Generator
    seed: int = -1
    episode: int = -1
    observations: list = field(default_factory=list)
    actions: list = field(default_factory=list)
    token_log: list = field(default_factory=list)
    chunk: np.ndarray | None = None
    success: bool = False
    aborted: bool = False

    def __post_init__(self):
        self.observations.append(self.env.observation())

    def result(self, action_dim: int) -> RolloutResult:
        return RolloutResult(
            task=self.env.task.name,
            seed=self.seed,
            episode=self.episode,
            success=self.success,
            steps=len(self.actions),
            aborted=self.aborted,
            actions=np.array(self.actions, dtype=np.float64).reshape(-1, action_dim),
            token_log=self.token_log,
            final_state=(float(self.env.position[0]), float(self.env.position[1])),
        )


def _run_lockstep(policy: Policy, slots: list[_Slot], cfg: ControlConfig) -> list[RolloutResult]:
    """Run every slot to success, abort, or the step budget.

    All slots replan together every ``execution_horizon`` steps, in one
    planner call.  Success is checked after every step; the observation
    history the planner sees is refreshed at replans only.  An exception from
    ``env.step`` aborts that episode alone.
    """
    plan_cfg = policy.autoencoder.cfg
    if cfg.execution_horizon > plan_cfg.T:
        raise ConfigurationError(
            f"execution horizon {cfg.execution_horizon} exceeds the plan length T={plan_cfg.T}"
        )
    history = policy.run_config.observation_history
    active = list(slots)
    t = 0
    while active and t < cfg.max_episode_steps:
        if t % cfg.execution_horizon == 0:
            task_idx = np.asarray([policy.prior.task_index(s.env.task.name) for s in active])
            histories = np.stack([stack_history(s.observations, history) for s in active])
            tokens, plans = policy.plan_batch(
                task_idx, histories, [s.rng for s in active], cfg.top_k, cfg.temperature
            )
            for slot, row, plan in zip(active, tokens, plans):
                slot.chunk = plan
                slot.token_log.append(row.tolist())
        still = []
        for slot in active:
            action = slot.chunk[t % cfg.execution_horizon]
            try:
                obs = slot.env.step(action)
            except Exception:
                slot.aborted = True
                continue
            slot.observations.append(obs)
            slot.actions.append(action)
            if slot.env.succeeded():
                slot.success = True
            else:
                still.append(slot)
        active = still
        t += 1
    return [slot.result(plan_cfg.action_dim) for slot in slots]


def rollout(env: PointEnv, policy: Policy, cfg: ControlConfig, rng) -> RolloutResult:
    """Run one episode on ``env``, already reset to its start state."""
    return _run_lockstep(policy, [_Slot(env, rng)], cfg)[0]


def evaluate_suite(
    policy: Policy,
    task_names,
    episodes: int,
    seeds,
    cfg: ControlConfig,
) -> tuple[list[RolloutResult], dict]:
    """Closed-loop evaluation over tasks x episodes x seeds.

    Episodes of one seed run in lockstep so model passes are batched; each
    episode owns its environment and its sampler stream derived from
    (seed, task, episode).  At least one episode and one seed are needed,
    so that every task's success rate averages episodes that ran.
    """
    if episodes < 1:
        raise ArgumentError(f"episodes must be at least 1, got {episodes}")
    if not seeds:
        raise ArgumentError("no evaluation seeds given")
    results: list[RolloutResult] = []
    for seed in seeds:
        slots = []
        for task_name in task_names:
            task = get_task(task_name)
            for episode in range(episodes):
                env = PointEnv(task)
                env.reset(np.random.default_rng(np.random.SeedSequence((seed, task.ordinal, episode, 1))))
                rng = np.random.default_rng(np.random.SeedSequence((seed, task.ordinal, episode, 2)))
                slots.append(_Slot(env, rng, seed=seed, episode=episode))
        results.extend(_run_lockstep(policy, slots, cfg))
    return results, summarize(results, task_names, seeds)


def summarize(results: list[RolloutResult], task_names, seeds) -> dict:
    """Per-task and overall success means (and std across seeds)."""
    hits: dict[tuple[str, int], list[bool]] = {}
    for r in results:
        hits.setdefault((r.task, r.seed), []).append(r.success)
    per_seed = {
        name: [float(np.mean(hits[name, seed])) for seed in seeds]
        for name in task_names
    }
    per_seed["overall"] = [
        float(np.mean(means)) for means in zip(*(per_seed[name] for name in task_names))
    ]
    return {
        name: {"mean": float(np.mean(rates)), "std": float(np.std(rates)), "per_seed": rates}
        for name, rates in per_seed.items()
    }
