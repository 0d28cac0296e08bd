"""Set-up and the three closed-loop workloads of the qst benchmark.

Every workload is a generator over benchmark operations.  It yields the
index of the block the next operation belongs to *before* running it, so the
caller decides, between operations, whether to go on.  A block is a fixed,
seed-determined unit of work of two to five seconds: ``SINGLE_BLOCK`` or
``BATCH_BLOCK`` planner calls, or ``TRAIN_BLOCK`` training iterations.  The
first ``PREFIX_BLOCKS`` blocks are the fixed prefix every run finishes: the
traced work, and what the token and loss digests cover.

Models are seeded random initialisations: the cost of every call is
independent of the weight values, and training them first would make set-up
dominate the run.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import resource
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from qst import data, tasks
from qst import tensor as T
from qst.autoencoder import SkillAutoencoder
from qst.checkpoint import Checkpoint
from qst.config import RunConfig
from qst.controller import ControlConfig, stack_history
from qst.optim import Adam
from qst.prior import PriorConfig, SkillPrior, encode_targets

# control-batch slots per task: 32 rows, `qst eval --episodes 4`.  The
# default --episodes 20 gives 160 rows, but rows per CPU second are the same
# at both sizes, and a 160-row call takes ~7 s: a run then holds only four
# calls and its median spread 12% across seeds
BATCH_EPISODES = 4
SINGLE_BLOCK = 16  # planner calls per control-single block
BATCH_BLOCK = 2  # planner calls per control-batch block
TRAIN_BLOCK = 2  # training iterations per train block
PREFIX_BLOCKS = 4
LOSS_TAIL = 4  # stage losses are averaged over the last steps of the prefix
TRAIN_POOL = 256  # windows encoded at set-up and cycled through by train
TOP_K_TOL = 1e-9  # sampling and teacher forcing compute the same logits up to rounding


def cpu_time() -> float:
    """CPU seconds of this process, all its threads and its waited-for
    children: the clock every gated figure is read from.  With BLAS on one
    thread it is an operation's latency on a core of its own; unlike wall
    time it leaves out the time the host takes from a shared VM."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(key))


@dataclass
class Models:
    cfg: RunConfig
    task_names: list[str]
    autoencoder: SkillAutoencoder
    prior: SkillPrior
    checkpoint_intact: bool
    # train only: the window pool, its observations, task ids and tokens
    windows: np.ndarray | None = None
    obs: np.ndarray | None = None
    task_ids: np.ndarray | None = None
    targets: np.ndarray | None = None


def set_up(workload: str, seed: int, workdir) -> Models:
    """Build what a workload needs, through the public constructors.

    The prior is round-tripped through a checkpoint file, as model loading
    does; ``train`` also generates, writes and reads the demonstration
    suite, windows it, and tokenizes a pool of windows with the encoder.
    """
    cfg = RunConfig()
    task_names = sorted(tasks.PRETRAIN_TASKS)
    pool = None
    if workload == "train":
        path = workdir / "suite.qstd"
        data.write_dataset(tasks.generate_suite(seed), path)
        dataset = data.read_dataset(path)
        task_names = dataset.task_names()
        windows, obs, task_ids, _ = data.window_arrays(dataset, cfg.T, cfg.observation_history)
        pool = _rng(seed, 23).choice(windows.shape[0], TRAIN_POOL, replace=False)

    autoencoder = SkillAutoencoder(cfg, _rng(seed, 11))
    fresh = SkillPrior(PriorConfig.from_run_config(cfg), task_names, _rng(seed, 21))
    ckpt = fresh.to_checkpoint(cfg, {"seed": str(seed)})
    path = workdir / "prior.ckpt"
    ckpt.save(path)
    loaded = Checkpoint.load(path)
    # the parsed checkpoint re-serialises to what was written, and the loaded
    # prior holds exactly the f32-rounded weights
    intact = loaded.content_sha256() == ckpt.content_sha256()
    prior_model, _ = SkillPrior.from_checkpoint(loaded)
    params = prior_model.params()
    intact = intact and params.keys() == ckpt.params.keys()
    intact = intact and all(np.array_equal(params[k].data, ckpt.params[k].astype(np.float64)) for k in params)
    models = Models(cfg, task_names, autoencoder, prior_model, intact)

    if pool is not None:
        models.windows = windows[pool]
        models.obs = obs[pool]
        models.task_ids = task_ids[pool]
        models.targets = encode_targets(autoencoder, models.windows)
    return models


@dataclass
class Record:
    """What one pass over a workload did: operations, timings and checks."""

    attempted: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)
    errors: dict = field(default_factory=dict)  # kind -> {exception type: count}
    first_error: dict = field(default_factory=dict)  # "kind: type" -> message
    op_seconds: list = field(default_factory=list)  # CPU time of successful timed operations
    op_wall_seconds: list = field(default_factory=list)  # their wall time
    rows: int = 0
    env_steps: int = 0
    checks: Counter = field(default_factory=Counter)
    check_failures: Counter = field(default_factory=Counter)
    verify_s: float = 0.0  # CPU time of checks that run model passes, kept out of rates
    verifying: object = nullcontext  # traced runs swap in Tracer.verifying
    stage_windows: Counter = field(default_factory=Counter)  # train, successful steps
    stage_busy_s: Counter = field(default_factory=Counter)  # CPU time
    tokens: list = field(default_factory=list)  # prefix only
    losses: dict = field(default_factory=lambda: {"stage1": [], "stage2": []})  # prefix only

    def attempt(self, kind: str, fn, *args):
        """Run one operation; a failure is counted by type and never raised."""
        self.attempted[kind] += 1
        try:
            return True, fn(*args)
        except Exception as exc:  # the run goes on; the failure is reported
            name = type(exc).__name__
            self.failed[kind] += 1
            self.errors.setdefault(kind, Counter())[name] += 1
            self.first_error.setdefault(f"{kind}: {name}", str(exc))
            return False, None

    def check(self, name: str, ok) -> None:
        self.checks[name] += 1
        if not ok:
            self.check_failures[name] += 1

    def done(self, seconds: float, wall: float, rows: int) -> None:
        self.op_seconds.append(seconds)
        self.op_wall_seconds.append(wall)
        self.rows += rows

    def token_digest(self) -> str:
        h = hashlib.sha256()
        for tokens in self.tokens:
            h.update(np.ascontiguousarray(tokens, dtype="<i8").tobytes())
        return h.hexdigest()

    def loss_digest(self, stage: str) -> str | None:
        if not self.losses[stage]:
            return None
        return hashlib.sha256(np.asarray(self.losses[stage], dtype="<f8").tobytes()).hexdigest()


# -- control -------------------------------------------------------------------


@dataclass
class _Episode:
    env: tasks.PointEnv
    prior_task: int
    rng: np.random.Generator
    observations: list
    chunk: np.ndarray | None = None


def _episode(models: Models, seed: int, task_name: str, episode: int) -> _Episode:
    """Environment and sampler streams seeded exactly as evaluate_suite seeds them."""
    task = tasks.get_task(task_name)
    env = tasks.PointEnv(task)
    env.reset(_rng(seed, task.ordinal, episode, 1))
    return _Episode(
        env=env,
        prior_task=models.prior.task_index(task_name),
        rng=_rng(seed, task.ordinal, episode, 2),
        observations=[env.observation()],
    )


def _plan(models: Models, task_idx, histories, rngs):
    """One planner call: top-k token sampling, then decoding into plans."""
    cfg = models.cfg
    tokens = models.prior.sample(task_idx, histories, cfg.top_k, cfg.temperature, rngs)
    return tokens, models.autoencoder.decode(tokens)


def _check_plan(models: Models, rec: Record, tokens, plans, rows: int) -> None:
    cfg = models.cfg
    rec.check("tokens_integer", np.issubdtype(tokens.dtype, np.integer))
    rec.check("tokens_shape", tokens.shape == (rows, cfg.n_tokens))
    rec.check("tokens_in_vocab", tokens.min() >= 0 and tokens.max() < cfg.vocab_size)
    rec.check("plan_shape", plans.shape == (rows, cfg.T, cfg.action_dim))
    rec.check("plan_finite", bool(np.isfinite(plans).all()))


def _check_top_k(models: Models, rec: Record, task_idx, histories, tokens) -> None:
    """Check the sampled tokens against one teacher-forced pass, the
    full-context path nll and training take: every token must be among the
    top_k logits at its position given the tokens sampled before it."""
    k = models.cfg.top_k
    start = cpu_time()
    try:
        with rec.verifying(), T.no_grad():
            logits = models.prior.logits(task_idx, histories, tokens[:, :-1]).data
        kth = np.partition(logits, -k, axis=-1)[..., -k]
        picked = np.take_along_axis(logits, tokens[..., None], axis=-1)[..., 0]
        ok = bool(np.all(picked >= kth - TOP_K_TOL))
    except Exception as exc:  # a failing check pass is a failed check, not a crash
        rec.first_error.setdefault(f"check tokens_in_top_k: {type(exc).__name__}", str(exc))
        ok = False
    rec.check("tokens_in_top_k", ok)
    rec.verify_s += cpu_time() - start


def _closed_loop(models: Models, rec: Record, streams: list, replans_per_block: int):
    """Lockstep closed loop with one batch row per slot.

    Each slot runs the episodes of its stream back to back on evaluate_suite's
    schedule: replan every execution_horizon steps, stop an episode on
    success or at max_episode_steps.  A slot whose episode ended waits for
    the next replan and starts its next episode there, so every planner call
    has one row per slot whatever the episodes' outcomes.  The first planner
    call of each block is also checked against teacher forcing.
    """
    control = ControlConfig.from_run_config(models.cfg)
    history = models.cfg.observation_history
    slots = [None] * len(streams)
    for t in itertools.count():
        phase = t % control.execution_horizon
        if phase == 0:
            slots = [ep if ep is not None else next(stream) for ep, stream in zip(slots, streams)]
            replan = t // control.execution_horizon
            block = replan // replans_per_block
            yield block
            task_idx = np.asarray([ep.prior_task for ep in slots])
            histories = np.stack([stack_history(ep.observations, history) for ep in slots])
            start, wall = cpu_time(), time.perf_counter()
            ok, out = rec.attempt("plan", _plan, models, task_idx, histories, [ep.rng for ep in slots])
            seconds, wall = cpu_time() - start, time.perf_counter() - wall
            if not ok:  # these episodes cannot go on; the slots start afresh
                slots = [None] * len(streams)
                continue
            tokens, plans = out
            rec.done(seconds, wall, len(slots))
            _check_plan(models, rec, tokens, plans, len(slots))
            if replan % replans_per_block == 0:
                _check_top_k(models, rec, task_idx, histories, tokens)
            if block < PREFIX_BLOCKS:
                rec.tokens.append(tokens)
            for ep, plan in zip(slots, plans):
                ep.chunk = plan
        for i, ep in enumerate(slots):
            if ep is None:
                continue
            ok, obs = rec.attempt("env_step", ep.env.step, ep.chunk[phase])
            if not ok:
                slots[i] = None
                continue
            rec.env_steps += 1
            rec.check("position_in_arena", bool(np.all(np.abs(ep.env.position) <= tasks.ARENA)))
            ep.observations.append(obs)
            if ep.env.succeeded() or ep.env.step_count >= control.max_episode_steps:
                slots[i] = None


def _episodes(models: Models, seed: int, pairs):
    for task_name, episode in pairs:
        yield _episode(models, seed, task_name, episode)


def control_single(models: Models, rec: Record, seed: int):
    """One slot at batch 1: episode i of every task in turn, each alone."""
    pairs = ((name, i) for i in itertools.count() for name in models.task_names)
    return _closed_loop(models, rec, [_episodes(models, seed, pairs)], SINGLE_BLOCK)


def control_batch(models: Models, rec: Record, seed: int):
    """BATCH_EPISODES slots per task; slot e of a task runs its episodes
    e, e + BATCH_EPISODES, e + 2 * BATCH_EPISODES, ..."""
    streams = [
        _episodes(models, seed, zip(itertools.repeat(name), itertools.count(e, BATCH_EPISODES)))
        for name in models.task_names
        for e in range(BATCH_EPISODES)
    ]
    return _closed_loop(models, rec, streams, BATCH_BLOCK)


# -- training ------------------------------------------------------------------


def _batches(rng: np.random.Generator, count: int, size: int):
    """Endless epochs of shuffled batches, as train_stage1/2 draw them."""
    while True:
        order = rng.permutation(count)
        for lo in range(0, count, size):
            yield order[lo : lo + size]


class _Trainer:
    """Stage-I and stage-II steps exactly as train_stage1/train_stage2 take them."""

    def __init__(self, models: Models, seed: int):
        self.models = models
        self.rng1 = _rng(seed, 12)
        self.rng2 = _rng(seed, 22)
        self.opt1 = None  # built by the first stage-I step, as train_stage1 builds it
        self.opt2 = Adam(models.prior.params(), lr=models.cfg.learning_rate)

    def stage1(self, idx) -> float:
        model = self.models.autoencoder
        if self.opt1 is None:
            self.opt1 = Adam(model.params(), lr=self.models.cfg.learning_rate)
        self.opt1.zero_grad()
        loss, _ = model.recon_loss(self.models.windows[idx], rng=self.rng1, training=True)
        loss.backward()
        self.opt1.step()
        return loss.item()

    def stage2(self, idx) -> float:
        m = self.models
        self.opt2.zero_grad()
        loss = m.prior.nll(m.task_ids[idx], m.obs[idx], m.targets[idx], rng=self.rng2, training=True)
        loss.backward()
        self.opt2.step()
        return loss.item()


def train(models: Models, rec: Record, seed: int):
    """Alternate one stage-I and one stage-II step on batches from the pool."""
    trainer = _Trainer(models, seed)
    size = models.cfg.batch_size
    batches1 = _batches(trainer.rng1, TRAIN_POOL, size)
    batches2 = _batches(trainer.rng2, TRAIN_POOL, size)
    for it in itertools.count():
        block = it // TRAIN_BLOCK
        yield block
        for stage, step, batches in (
            ("stage1", trainer.stage1, batches1),
            ("stage2", trainer.stage2, batches2),
        ):
            idx = next(batches)
            start, wall = cpu_time(), time.perf_counter()
            ok, loss = rec.attempt(f"{stage}_step", step, idx)
            seconds, wall = cpu_time() - start, time.perf_counter() - wall
            if not ok:
                continue
            rec.check("loss_finite", math.isfinite(loss))
            rec.stage_windows[stage] += len(idx)
            rec.stage_busy_s[stage] += seconds
            if stage == "stage2":
                rec.done(seconds, wall, len(idx))
            if block < PREFIX_BLOCKS:
                rec.losses[stage].append(loss)


LOOPS = {"control-single": control_single, "control-batch": control_batch, "train": train}


def warm_up(workload: str, models: Models, seed: int) -> None:
    """One untimed pass through the hot path at the workload's batch shape,
    so first-call allocation is not timed; it leaves no state behind."""
    cfg = models.cfg
    if workload == "train":
        size = cfg.batch_size
        loss = models.prior.nll(
            models.task_ids[:size], models.obs[:size], models.targets[:size],
            rng=_rng(seed, 99), training=True,
        )
        loss.backward()
        for p in models.prior.params().values():
            p.grad = None
        return
    rows = len(models.task_names) * BATCH_EPISODES if workload == "control-batch" else 1
    ep = _episode(models, seed, models.task_names[0], 0)
    history = stack_history(ep.observations, cfg.observation_history)
    _plan(models, np.zeros(rows, dtype=np.int64), np.stack([history] * rows), _rng(seed, 99))
