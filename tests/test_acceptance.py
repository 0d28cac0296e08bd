"""Acceptance suite: one test per criterion, one pass/fail line each.

Criteria 5-7 train the real pipeline on the synthetic suite and reuse the
session-scoped checkpoints below; their training budgets were fixed by
pilot runs on a 2-CPU box and are recorded in ACCEPT_CONFIG.  Runtime
budgets are asserted per criterion; the trained criteria are also stopped
once their budget runs out, since a later check cannot rescue them.  They
carry the ``trained`` marker: ``pytest -m "not trained"`` runs the rest.
"""

import contextlib
import signal
import time

import numpy as np
import pytest

from qst import fsq, tasks
from qst.autoencoder import SkillAutoencoder, mean_reconstruction_error, train_stage1
from qst.checkpoint import Checkpoint
from qst.config import RunConfig
from qst.controller import ControlConfig, Policy, evaluate_suite
from qst.data import read_dataset, window_arrays, write_dataset
from qst.gradcheck import grad_check_params
from qst.metrics import MetricsWriter
from qst.prior import PriorConfig, SkillPrior, finetune_fewshot, train_stage2
from qst.tensor import Tensor

SPEC = fsq.FsqSpec((8, 5, 5, 5))

# Pilot-calibrated run configuration for the heavyweight criteria (5-7).
ACCEPT_CONFIG = RunConfig(
    learning_rate=1e-3,
    batch_size=16,
    stage1_epochs=8,
    stage1_windows_per_epoch=1024,
    stage2_epochs=8,
    stage2_windows_per_epoch=2048,
    finetune_epochs=30,
)
DATA_SEED = 0
TRAIN_SEED = 0
EVAL_SEEDS = [0, 1]
EPISODES = 20
STAGE1_BUDGET_S = 600.0  # criterion 5: stage-1 training + held-out evaluation
STAGE2_BUDGET_S = 900.0  # criterion 6: stage-2 training + closed-loop evaluation
FEWSHOT_BUDGET_S = 600.0  # criterion 7: finetuning, from-scratch baseline, evaluation


def report(criterion: str, ok: bool, detail: str):
    marker = "PASS" if ok else "FAIL"
    print(f"[{marker}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


class BudgetExceeded(BaseException):
    """Raised by ``time_limit``; a BaseException so no ``except Exception`` in
    the code under test (e.g. around ``PointEnv.step``) can swallow it."""


@contextlib.contextmanager
def time_limit(criterion: str, seconds: float):
    """Stop the block with a FAIL line once ``seconds`` of wall time pass."""

    def expire(signum, frame):
        detail = f"stopped at its {seconds:.0f}s budget"
        print(f"[FAIL] {criterion}: {detail}")
        raise BudgetExceeded(f"{criterion}: {detail}")

    previous = signal.signal(signal.SIGALRM, expire)
    # a zero interval would disarm the timer instead of expiring at once
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 1e-3))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# -- criterion 1: FSQ structure ---------------------------------------------------


def test_criterion_1_fsq_structure():
    start = time.perf_counter()
    ok = SPEC.codebook_size == 1000

    indices = np.arange(1000)
    digits = fsq.index_to_code(indices, SPEC)
    roundtrip = np.array_equal(fsq.code_to_index(digits, SPEC), indices)
    distinct = len(np.unique(digits, axis=0)) == 1000

    sweep = np.linspace(-10.0, 10.0, 20001)
    swept, _ = fsq.quantize(Tensor(np.stack([sweep] * 4, axis=-1)), SPEC)
    per_dim = [len(np.unique(swept[:, i])) == SPEC.levels[i] for i in range(4)]

    elapsed = time.perf_counter() - start
    report(
        "criterion 1 (FSQ structure)",
        ok and roundtrip and distinct and all(per_dim) and elapsed < 1.0,
        f"K=1000 roundtrip={roundtrip} per-dim levels={per_dim} in {elapsed:.2f}s (< 1s)",
    )


# -- criterion 2: straight-through gradients ---------------------------------------


def test_criterion_2_straight_through():
    start = time.perf_counter()
    rng = np.random.default_rng(2)

    exact = True
    for _ in range(100):
        point = rng.normal(size=(3, 4))
        x1 = Tensor(point.copy(), requires_grad=True)
        _, ste = fsq.quantize(x1, SPEC)
        ste.backward(np.ones_like(point))
        x2 = Tensor(point.copy(), requires_grad=True)
        fsq.bound(x2, SPEC).backward(np.ones_like(point))
        exact = exact and np.array_equal(x1.grad, x2.grad)

    tiny = RunConfig(
        T=8,
        action_dim=2,
        fsq_levels=(5, 3),
        encoder_dim=8,
        encoder_layers=2,
        encoder_heads=2,
        conv_kernels=(3, 3),
        conv_strides=(2, 2),
        decoder_dim=8,
        decoder_layers=1,
        decoder_heads=2,
        prior_dim=8,
        prior_layers=1,
        prior_heads=2,
        top_k=3,
        execution_horizon=4,
    )
    model = SkillAutoencoder(tiny, np.random.default_rng(5))
    windows = np.random.default_rng(6).normal(size=(2, 8, 2))
    err = grad_check_params(lambda: model.surrogate_loss(windows), model.params())

    elapsed = time.perf_counter() - start
    report(
        "criterion 2 (straight-through)",
        exact and err < 1e-4 and elapsed < 30.0,
        f"backward(quantize)==backward(bound) at 100 points: {exact}; "
        f"composite grad error {err:.2e} (< 1e-4) in {elapsed:.1f}s (< 30s)",
    )


# -- criterion 3: causality --------------------------------------------------------


def _perturbation_violations(model: SkillAutoencoder, cases: int, rng) -> int:
    """Count receptive-field violations over random windows/perturbations."""
    stride = model.cfg.downsampling
    base = 0.05 * rng.normal(size=(cases, 32, 2))
    bump_at = rng.integers(1, 32, size=cases)
    bumped = base.copy()
    bumped[np.arange(cases), bump_at] += 1.0
    tok_a = model.encode(base).prequant
    tok_b = model.encode(bumped).prequant
    violations = 0
    for c in range(cases):
        for j in range(model.cfg.n_tokens):
            if j * stride < bump_at[c] and not np.array_equal(tok_a[c, j], tok_b[c, j]):
                violations += 1
    return violations


def test_criterion_3_causality():
    start = time.perf_counter()
    rng = np.random.default_rng(3)

    causal = SkillAutoencoder(RunConfig(), np.random.default_rng(30))
    encoder_ok = _perturbation_violations(causal, 100, rng) == 0

    prior = SkillPrior(
        PriorConfig.from_run_config(RunConfig()), ["probe"], np.random.default_rng(31)
    )
    obs = rng.normal(size=(2, 1, 4))
    task_idx = np.zeros(2, dtype=int)
    tokens = rng.integers(0, 1000, size=(2, 7))
    base = prior.logits(task_idx, obs, tokens).data
    prior_ok = True
    for pos in range(7):
        bumped = tokens.copy()
        bumped[:, pos] = (bumped[:, pos] + 101) % 1000
        out = prior.logits(task_idx, obs, bumped).data
        prior_ok = prior_ok and np.array_equal(base[:, : pos + 1], out[:, : pos + 1])

    noncausal = SkillAutoencoder(
        RunConfig(encoder_causal=False), np.random.default_rng(30)
    )
    encoder_ablation_fails = _perturbation_violations(noncausal, 20, rng) > 0

    # decoder analog: perturbing a late sinusoidal query must leak backward
    # only when query self-attention is unmasked
    decoder_ok, decoder_ablation_fails = [], []
    for flag in (True, False):
        m = SkillAutoencoder(RunConfig(decoder_causal=flag), np.random.default_rng(32))
        codes = np.arange(8) * 3
        base_out = m.decode(codes)
        m.decoder.query_table = m.decoder.query_table.copy()
        m.decoder.query_table[24] += 1.0
        bumped_out = m.decode(codes)
        clean = np.array_equal(base_out[:24], bumped_out[:24])
        if flag:
            decoder_ok = clean
        else:
            decoder_ablation_fails = not clean

    elapsed = time.perf_counter() - start
    report(
        "criterion 3 (causality)",
        encoder_ok
        and prior_ok
        and encoder_ablation_fails
        and decoder_ok
        and decoder_ablation_fails
        and elapsed < 60.0,
        f"encoder 100-case perturbation clean={encoder_ok}, prior logits causal={prior_ok}, "
        f"witnesses fail under non-causal flags={encoder_ablation_fails and decoder_ablation_fails}, "
        f"in {elapsed:.1f}s (< 1min)",
    )


# -- criterion 4: shared-prefix skill reuse ----------------------------------------


def test_criterion_4_shared_prefix():
    start = time.perf_counter()
    suite = tasks.generate_suite(DATA_SEED)
    by_task = suite.by_task()
    pairs = list(zip(by_task["circle-ccw"], by_task["s-curve"]))

    actions_shared = all(
        np.array_equal(a.actions[:16], b.actions[:16]) for a, b in pairs
    )

    circle = np.stack([a.actions[:32] for a, _ in pairs])
    scurve = np.stack([b.actions[:32] for _, b in pairs])
    model = SkillAutoencoder(RunConfig(), np.random.default_rng(40))
    tok_c = model.encode(circle).indices
    tok_s = model.encode(scurve).indices
    tokens_shared = np.array_equal(tok_c[:, :4], tok_s[:, :4])

    noncausal = SkillAutoencoder(
        RunConfig(encoder_causal=False), np.random.default_rng(40)
    )
    nc_c = noncausal.encode(circle).indices
    nc_s = noncausal.encode(scurve).indices
    violated = bool((nc_c[:, :4] != nc_s[:, :4]).any())

    elapsed = time.perf_counter() - start
    report(
        "criterion 4 (shared-prefix reuse)",
        actions_shared and tokens_shared and violated and elapsed < 60.0,
        f"50 pairs share 16 actions={actions_shared}, first 4 tokens equal={tokens_shared}, "
        f"non-causal violates={violated}, in {elapsed:.1f}s (< 1min)",
    )


# -- criteria 5-7: trained pipeline ------------------------------------------------

_timings: dict[str, float] = {}


@pytest.fixture(scope="module")
def suite_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept")
    full = tasks.generate_suite(DATA_SEED)
    write_dataset(full, root / "dataset.qstd")
    fewshot = tasks.generate_suite(DATA_SEED, tasks.FEWSHOT_TASKS, 5)
    write_dataset(fewshot, root / "fewshot.qstd")
    return root


@pytest.fixture(scope="module")
def stage1(suite_files):
    full = read_dataset(suite_files / "dataset.qstd")
    train, held = full.split_heldout(ACCEPT_CONFIG.holdout_demos_per_task)
    t0 = time.perf_counter()
    with time_limit("criterion 5 (stage-1 training)", STAGE1_BUDGET_S):
        ckpt = train_stage1(
            train, ACCEPT_CONFIG, TRAIN_SEED, MetricsWriter(suite_files / "metrics.jsonl")
        )
    _timings["stage1"] = time.perf_counter() - t0
    ckpt.save(suite_files / "stage1.ckpt")
    return ckpt, train, held


@pytest.fixture(scope="module")
def stage2(suite_files, stage1):
    ckpt1, train, _ = stage1
    full = read_dataset(suite_files / "dataset.qstd")
    t0 = time.perf_counter()
    with time_limit("criterion 6 (stage-2 + closed loop)", STAGE2_BUDGET_S):
        ckpt = train_stage2(
            full, ckpt1, ACCEPT_CONFIG, TRAIN_SEED, MetricsWriter(suite_files / "metrics.jsonl")
        )
    _timings["stage2"] = time.perf_counter() - t0
    ckpt.save(suite_files / "stage2.ckpt")
    return ckpt


@pytest.mark.trained
def test_criterion_5_stage1_training(stage1):
    ckpt, _, held = stage1
    t0 = time.perf_counter()
    with time_limit("criterion 5 (stage-1 training)", STAGE1_BUDGET_S - _timings["stage1"]):
        held_windows, _, _, _ = window_arrays(held, ACCEPT_CONFIG.T)

        untrained = SkillAutoencoder(
            ACCEPT_CONFIG, np.random.default_rng(np.random.SeedSequence((TRAIN_SEED, 11)))
        )
        err_untrained = mean_reconstruction_error(untrained, held_windows)
        model = SkillAutoencoder.from_checkpoint(ckpt)
        err_trained = mean_reconstruction_error(model, held_windows)
        ratio = err_trained / err_untrained

        indices = model.encode(held_windows).indices
        util = fsq.utilization(indices, model.spec)

        # trained-model probe: swapping two tokens must change the decoded plan
        toks = model.encode(held_windows[0]).indices
        swapped = toks.copy()
        swapped[[2, 5]] = swapped[[5, 2]]
        swap_changes = not np.allclose(model.decode(toks), model.decode(swapped))

    elapsed = _timings["stage1"] + (time.perf_counter() - t0)
    report(
        "criterion 5 (stage-1 training)",
        ratio < 0.15 and util > 0.05 and swap_changes and elapsed < STAGE1_BUDGET_S,
        f"held-out L1 {err_trained:.5f} vs untrained {err_untrained:.5f} "
        f"(ratio {ratio:.3f} < 0.15), utilization {util:.3f} (> 0.05), "
        f"token-swap changes output={swap_changes}, in {elapsed:.0f}s (< {STAGE1_BUDGET_S:.0f}s)",
    )


@pytest.mark.trained
def test_criterion_6_stage2_closed_loop(suite_files, stage1, stage2):
    t0 = time.perf_counter()
    with time_limit("criterion 6 (stage-2 + closed loop)", STAGE2_BUDGET_S - _timings["stage2"]):
        policy = Policy(Checkpoint.load(suite_files / "stage1.ckpt"), stage2)
        control = ControlConfig.from_run_config(ACCEPT_CONFIG)
        results, summary = evaluate_suite(
            policy, list(tasks.PRETRAIN_TASKS), EPISODES, EVAL_SEEDS, control
        )
        with open(suite_files / "rollouts.jsonl", "a", encoding="ascii") as fh:
            for r in results:
                fh.write(r.to_json() + "\n")
    rate = summary["overall"]["mean"]
    elapsed = _timings["stage2"] + (time.perf_counter() - t0)
    per_task = {k: round(v["mean"], 3) for k, v in summary.items() if k != "overall"}
    report(
        "criterion 6 (stage-2 + closed loop)",
        rate >= 0.90 and elapsed < STAGE2_BUDGET_S,
        f"multitask success {rate:.3f} (>= 0.90) over 8 tasks x {EPISODES} episodes x "
        f"{len(EVAL_SEEDS)} seeds, per-task {per_task}, in {elapsed:.0f}s (< {STAGE2_BUDGET_S:.0f}s)",
    )


@pytest.mark.trained
def test_criterion_7_few_shot(suite_files, stage1, stage2):
    t0 = time.perf_counter()
    with time_limit("criterion 7 (few-shot)", FEWSHOT_BUDGET_S):
        ckpt1, _, _ = stage1
        demos = read_dataset(suite_files / "fewshot.qstd")
        control = ControlConfig.from_run_config(ACCEPT_CONFIG)

        ft_decoder = finetune_fewshot(
            ckpt1, stage2, demos, ACCEPT_CONFIG, TRAIN_SEED, decoder_finetune=True
        )
        ft_frozen = finetune_fewshot(
            ckpt1, stage2, demos, ACCEPT_CONFIG, TRAIN_SEED, decoder_finetune=False
        )

        scratch_cfg = RunConfig(**{**ACCEPT_CONFIG.__dict__})
        scratch_cfg.stage1_epochs = ACCEPT_CONFIG.finetune_epochs
        scratch_cfg.stage2_epochs = ACCEPT_CONFIG.finetune_epochs
        scratch_cfg.stage1_windows_per_epoch = 0
        scratch_cfg.stage2_windows_per_epoch = 0
        scratch1 = train_stage1(demos, scratch_cfg, TRAIN_SEED)
        scratch2 = train_stage2(demos, scratch1, scratch_cfg, TRAIN_SEED)

        def success_rate(s1, s2):
            policy = Policy(s1, s2)
            _, summary = evaluate_suite(
                policy, ["reverse-s"], EPISODES, EVAL_SEEDS, control
            )
            return summary["overall"]["mean"]

        rate_decoder = success_rate(ckpt1, ft_decoder)
        rate_frozen = success_rate(ckpt1, ft_frozen)
        rate_scratch = success_rate(scratch1, scratch2)

    elapsed = time.perf_counter() - t0
    margin = rate_decoder - rate_scratch
    mode_gap = rate_decoder - rate_frozen
    report(
        "criterion 7 (few-shot)",
        margin >= 0.20 and mode_gap >= -0.10 and elapsed < FEWSHOT_BUDGET_S,
        f"finetuned {rate_decoder:.3f} vs from-scratch {rate_scratch:.3f} "
        f"(margin {margin:+.3f} >= +0.20); frozen-decoder {rate_frozen:.3f} "
        f"(decoder-finetuned - frozen = {mode_gap:+.3f} >= -0.10), in {elapsed:.0f}s (< {FEWSHOT_BUDGET_S:.0f}s)",
    )


# -- criterion 8: determinism and formats ------------------------------------------


def test_criterion_8_determinism_and_formats(tmp_path):
    start = time.perf_counter()
    cfg = RunConfig(
        fsq_levels=(5, 3),
        encoder_dim=16,
        encoder_heads=2,
        decoder_dim=16,
        decoder_heads=2,
        prior_dim=16,
        prior_layers=1,
        prior_heads=2,
        top_k=3,
        stage1_epochs=1,
        stage2_epochs=1,
        stage1_windows_per_epoch=32,
        stage2_windows_per_epoch=32,
        batch_size=16,
        demos_per_task=2,
    )
    ds = tasks.generate_suite(7, task_names=("s-curve", "zigzag"), demos_per_task=2)
    write_dataset(ds, tmp_path / "d.qstd")
    loaded = read_dataset(tmp_path / "d.qstd")
    write_dataset(loaded, tmp_path / "d2.qstd")
    dataset_roundtrip = (tmp_path / "d.qstd").read_bytes() == (tmp_path / "d2.qstd").read_bytes()

    def run(tag):
        metrics_path = tmp_path / f"metrics_{tag}.jsonl"
        s1 = train_stage1(loaded, cfg, seed=3, metrics=MetricsWriter(metrics_path))
        s2 = train_stage2(loaded, s1, cfg, seed=3, metrics=MetricsWriter(metrics_path))
        return s1.to_bytes(), s2.to_bytes(), metrics_path.read_bytes()

    a1, a2, am = run("a")
    b1, b2, bm = run("b")
    run_deterministic = a1 == b1 and a2 == b2 and am == bm

    (tmp_path / "s1.ckpt").write_bytes(a1)
    ckpt_roundtrip = Checkpoint.load(tmp_path / "s1.ckpt").to_bytes() == a1

    prior, _ = SkillPrior.from_checkpoint(Checkpoint.from_bytes(a2))
    rng = np.random.default_rng(9)
    obs = rng.normal(size=(2, 1, 4))
    task_idx = np.zeros(2, dtype=int)
    g1 = prior.sample(task_idx, obs, 1, 1.0, np.random.default_rng(1))
    g2 = prior.sample(task_idx, obs, 1, 1.0, np.random.default_rng(2))
    greedy_deterministic = np.array_equal(g1, g2)

    uniform = SkillPrior(
        PriorConfig.from_run_config(RunConfig()), ["u"], np.random.default_rng(10)
    )
    uniform.head.weight.data[:] = 0.0
    uniform.head.bias.data[:] = 0.0
    targets = rng.integers(0, 1000, size=(4, 8))
    nll = uniform.nll(np.zeros(4, dtype=int), rng.normal(size=(4, 1, 4)), targets).item()
    uniform_exact = abs(nll - np.log(1000.0)) < 1e-9

    elapsed = time.perf_counter() - start
    report(
        "criterion 8 (determinism & formats)",
        dataset_roundtrip
        and run_deterministic
        and ckpt_roundtrip
        and greedy_deterministic
        and uniform_exact,
        f"dataset bitwise roundtrip={dataset_roundtrip}, same (config,seed) gives identical "
        f"checkpoints+metrics={run_deterministic}, checkpoint roundtrip={ckpt_roundtrip}, "
        f"k=1 sampling deterministic={greedy_deterministic}, uniform NLL=ln(1000) within "
        f"1e-9={uniform_exact}, in {elapsed:.0f}s",
    )
