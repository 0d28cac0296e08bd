"""Closed-loop inference: receding-horizon execution of decoded skill plans.

A plan covers ``plan_horizon`` steps; the first ``execution_horizon`` actions
are executed before replanning.  Forward passes run in evaluation mode, so
the only randomness is the token sampler's, which draws from per-episode
generator streams.  The suite evaluator steps many episodes in lockstep so
the prior and decoder run on batches; episodes remain logically independent
(each has its own environment, history, and sampler stream).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .autoencoder import SkillAutoencoder
from .checkpoint import Checkpoint
from .config import RunConfig
from .errors import ConfigurationError
from .nn import load_params
from .prior import SkillPrior
from .tasks import PointEnv, get_task


@dataclass(frozen=True)
class ControlConfig:
    plan_horizon: int = 32
    execution_horizon: int = 8
    top_k: int = 5
    temperature: float = 1.0
    max_episode_steps: int = 96

    def __post_init__(self):
        if not 1 <= self.execution_horizon <= self.plan_horizon:
            raise ConfigurationError("execution horizon must lie in [1, plan horizon]")

    @classmethod
    def from_run_config(cls, cfg: RunConfig) -> "ControlConfig":
        return cls(
            plan_horizon=cfg.T,
            execution_horizon=cfg.execution_horizon,
            top_k=cfg.top_k,
            temperature=cfg.temperature,
            max_episode_steps=cfg.max_episode_steps,
        )


@dataclass
class Plan:
    actions: np.ndarray  # (plan_horizon, action_dim)
    tokens: np.ndarray  # (n,) flat skill token ids


@dataclass
class RolloutResult:
    task: str
    seed: int
    episode: int
    success: bool
    steps: int
    aborted: bool
    actions: np.ndarray
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
        linked = stage2_ckpt.meta.get("stage1_sha256")
        if linked is not None and linked != stage1_ckpt.content_sha256():
            raise ConfigurationError(
                "stage-2 checkpoint was trained against a different stage-1 checkpoint"
            )
        self.autoencoder = SkillAutoencoder.from_checkpoint(stage1_ckpt)
        self.prior, self.run_config = SkillPrior.from_checkpoint(stage2_ckpt)
        if tuple(self.autoencoder.cfg.fsq_levels) != tuple(self.run_config.fsq_levels):
            raise ConfigurationError("stage-1/stage-2 quantizer specs differ")
        if stage2_ckpt.meta.get("decoder_finetuned") == "true":
            overrides = {k: v for k, v in stage2_ckpt.params.items() if k.startswith("decoder.")}
            load_params(self.autoencoder.decoder_side_params(), overrides)

    def task_index(self, task_name: str) -> int:
        return self.prior.task_index(task_name)

    def plan_batch(self, task_idx: np.ndarray, obs_histories: np.ndarray, rngs) -> list[Plan]:
        tokens = self.prior.sample(
            task_idx,
            obs_histories,
            self.run_config.top_k,
            self.run_config.temperature,
            rngs,
        )
        actions = self.autoencoder.decode(tokens)
        return [Plan(actions=actions[i], tokens=tokens[i]) for i in range(len(tokens))]

    def plan(self, obs_history: np.ndarray, task_name: str, rng) -> Plan:
        task_idx = np.array([self.task_index(task_name)])
        return self.plan_batch(task_idx, obs_history[None], [rng])[0]


def stack_history(observations: list[np.ndarray], history: int) -> np.ndarray:
    """Last ``history`` observations, left-padded by repeating the first."""
    take = observations[-history:]
    pad = [observations[0]] * (history - len(take))
    return np.stack(pad + take, axis=0)


def act(
    stage1_ckpt: Checkpoint,
    stage2_ckpt: Checkpoint,
    obs_history: np.ndarray,
    task_name: str,
    cfg: ControlConfig,
    rng,
) -> np.ndarray:
    """One replan: sample tokens, decode a plan, return its first
    ``execution_horizon`` actions."""
    policy = Policy(stage1_ckpt, stage2_ckpt)
    plan = policy.plan(np.asarray(obs_history), task_name, rng)
    return plan.actions[: cfg.execution_horizon]


def rollout(env: PointEnv, policy: Policy, cfg: ControlConfig, rng) -> RolloutResult:
    """Run one episode to success, abort, or the step budget.

    The environment must already be reset to its task-specific start state.
    Success is checked after every step; the observation history the planner
    sees is refreshed at replans only.
    """
    history = policy.run_config.observation_history
    observations = [env.observation()]
    executed: list[np.ndarray] = []
    token_log: list[list[int]] = []
    success = False
    aborted = False
    chunk = None

    t = 0
    while t < cfg.max_episode_steps:
        if t % cfg.execution_horizon == 0:
            plan = policy.plan(stack_history(observations, history), env.task.name, rng)
            chunk = plan.actions
            token_log.append([int(x) for x in plan.tokens])
        action = chunk[t % cfg.execution_horizon]
        try:
            obs = env.step(action)
        except Exception:
            aborted = True
            break
        observations.append(obs)
        executed.append(np.asarray(action))
        t += 1
        if env.succeeded():
            success = True
            break

    action_dim = executed[0].shape[0] if executed else 0
    return RolloutResult(
        task=env.task.name,
        seed=-1,
        episode=-1,
        success=success,
        steps=len(executed),
        aborted=aborted,
        actions=np.asarray(executed).reshape(len(executed), action_dim),
        token_log=token_log,
        final_state=(float(env.position[0]), float(env.position[1])),
    )


@dataclass
class _Slot:
    env: PointEnv
    task_name: str
    prior_task: int
    episode: int
    seed: int
    rng: np.random.Generator
    observations: list = field(default_factory=list)
    executed: int = 0
    token_log: list = field(default_factory=list)
    chunk: np.ndarray | None = None
    success: bool = False
    aborted: bool = False


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
    (seed, task, episode).
    """
    history = policy.run_config.observation_history
    results: list[RolloutResult] = []

    for seed in seeds:
        slots: list[_Slot] = []
        for task_name in task_names:
            task = get_task(task_name)
            for episode in range(episodes):
                env = PointEnv(task)
                env.reset(np.random.default_rng(np.random.SeedSequence((seed, task.ordinal, episode, 1))))
                slots.append(
                    _Slot(
                        env=env,
                        task_name=task_name,
                        prior_task=policy.task_index(task_name),
                        episode=episode,
                        seed=seed,
                        rng=np.random.default_rng(
                            np.random.SeedSequence((seed, task.ordinal, episode, 2))
                        ),
                        observations=[env.observation()],
                    )
                )

        active = list(slots)
        t = 0
        while active and t < cfg.max_episode_steps:
            if t % cfg.execution_horizon == 0:
                task_idx = np.asarray([s.prior_task for s in active])
                histories = np.stack(
                    [stack_history(s.observations, history) for s in active]
                )
                plans = policy.plan_batch(task_idx, histories, [s.rng for s in active])
                for slot, plan in zip(active, plans):
                    slot.chunk = plan.actions
                    slot.token_log.append([int(x) for x in plan.tokens])
            still = []
            for slot in active:
                action = slot.chunk[t % cfg.execution_horizon]
                try:
                    obs = slot.env.step(action)
                except Exception:
                    slot.aborted = True
                    continue
                slot.observations.append(obs)
                slot.executed += 1
                if slot.env.succeeded():
                    slot.success = True
                else:
                    still.append(slot)
            active = still
            t += 1

        for slot in slots:
            results.append(
                RolloutResult(
                    task=slot.task_name,
                    seed=slot.seed,
                    episode=slot.episode,
                    success=slot.success,
                    steps=slot.executed,
                    aborted=slot.aborted,
                    actions=np.zeros((0, 2)),
                    token_log=slot.token_log,
                    final_state=(
                        float(slot.env.position[0]),
                        float(slot.env.position[1]),
                    ),
                )
            )

    summary = summarize(results, task_names, seeds)
    return results, summary


def summarize(results: list[RolloutResult], task_names, seeds) -> dict:
    """Per-task and overall success means (and std across seeds)."""
    table: dict[str, dict] = {}
    per_seed_overall = []
    for seed in seeds:
        task_means = []
        for task_name in task_names:
            hits = [r.success for r in results if r.task == task_name and r.seed == seed]
            task_means.append(float(np.mean(hits)) if hits else 0.0)
        per_seed_overall.append(float(np.mean(task_means)))
    for task_name in task_names:
        per_seed = []
        for seed in seeds:
            hits = [r.success for r in results if r.task == task_name and r.seed == seed]
            per_seed.append(float(np.mean(hits)) if hits else 0.0)
        table[task_name] = {
            "mean": float(np.mean(per_seed)),
            "std": float(np.std(per_seed)),
            "per_seed": per_seed,
        }
    table["overall"] = {
        "mean": float(np.mean(per_seed_overall)),
        "std": float(np.std(per_seed_overall)),
        "per_seed": per_seed_overall,
    }
    return table
