"""Command-line entry points for data generation, training, and evaluation.

Artifacts live under ``--out``: dataset.qstd, fewshot.qstd, stage1.ckpt,
stage2.ckpt, finetuned.ckpt, metrics.jsonl, rollouts.jsonl, embeddings.csv,
codebook_stats.json.  Every subcommand takes ``--config`` (defaults apply
when omitted) and ``--seed``; a run is reproducible from that pair.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

import numpy as np

from . import tasks
from . import tensor as T
from .autoencoder import SkillAutoencoder, train_stage1
from .checkpoint import Checkpoint
from .config import RunConfig
from .controller import ControlConfig, Policy, evaluate_suite
from .data import read_dataset, window_arrays, write_dataset
from .errors import ConfigurationError, QstError
from .fsq import digits_to_grid, index_to_code, utilization
from .gradcheck import grad_check, grad_check_params
from .metrics import MetricsWriter
from .nn import LayerNorm
from .prior import (
    PriorConfig,
    SkillPrior,
    check_structural_match,
    encode_targets,
    finetune_fewshot,
    train_stage2,
)
from .tensor import Tensor

GRAD_CHECK_TOLERANCE = 1e-4


def seed_arg(text: str) -> int:
    """``--seed``: a non-negative integer, as ``np.random.SeedSequence``
    takes; anything else is a usage error."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qst", description="Quantized skill-token policy harness."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="path to a 'key = value' config file")
        p.add_argument("--seed", type=seed_arg, default=0)
        p.add_argument("--out", default=".", help="run directory for artifacts")

    p = sub.add_parser("gen-data", help="generate the synthetic demonstration suite")
    common(p)
    p.add_argument("--suite", choices=("pretrain", "fewshot"), default="pretrain")

    p = sub.add_parser("train-stage1", help="train the skill autoencoder")
    common(p)
    p.add_argument("--data", help="dataset path (default <out>/dataset.qstd)")

    p = sub.add_parser("train-stage2", help="train the skill prior")
    common(p)
    p.add_argument("--data", help="dataset path (default <out>/dataset.qstd)")
    p.add_argument("--stage1", help="stage-1 checkpoint (default <out>/stage1.ckpt)")

    p = sub.add_parser("finetune", help="few-shot finetuning on held-out demos")
    common(p)
    p.add_argument("--demos", required=True, help="few-shot dataset path")
    p.add_argument("--stage1", help="stage-1 checkpoint (default <out>/stage1.ckpt)")
    p.add_argument("--stage2", help="stage-2 checkpoint (default <out>/stage2.ckpt)")
    p.add_argument("--decoder-finetune", choices=("on", "off"), default="on")

    p = sub.add_parser("eval", help="closed-loop multitask evaluation")
    common(p)
    p.add_argument("--episodes", type=int, default=20)
    p.add_argument("--tasks", help="comma-separated task names (default: training tasks)")
    p.add_argument("--num-seeds", type=int, default=1)
    p.add_argument("--stage1", help="stage-1 checkpoint (default <out>/stage1.ckpt)")
    p.add_argument("--stage2", help="stage-2 checkpoint (default <out>/stage2.ckpt)")

    p = sub.add_parser("codebook-stats", help="codebook utilization over a dataset")
    common(p)
    p.add_argument("--data", help="dataset path (default <out>/dataset.qstd)")
    p.add_argument("--stage1", help="stage-1 checkpoint (default <out>/stage1.ckpt)")

    p = sub.add_parser("export-embeddings", help="dump per-window quantized embeddings")
    common(p)
    p.add_argument("--data", help="dataset path (default <out>/dataset.qstd)")
    p.add_argument("--stage1", help="stage-1 checkpoint (default <out>/stage1.ckpt)")

    p = sub.add_parser("grad-check", help="finite-difference oracle over every primitive")
    common(p)

    return parser


def load_config(args) -> RunConfig:
    if args.config is None:
        return RunConfig()
    if not os.path.exists(args.config):
        # usage error: the invocation named a file that is not there
        print(f"config file not found: {args.config}", file=sys.stderr)
        raise SystemExit(2)
    return RunConfig.from_file(args.config)


def _path(args, attr: str, default_name: str) -> str:
    given = getattr(args, attr, None)
    return given if given else os.path.join(args.out, default_name)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args)
        os.makedirs(args.out, exist_ok=True)
        return _dispatch(args, cfg)
    except (QstError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


def _dispatch(args, cfg: RunConfig) -> int:
    command = args.command
    metrics = MetricsWriter(os.path.join(args.out, "metrics.jsonl"))

    if command == "gen-data":
        if args.suite == "pretrain":
            ds = tasks.generate_suite(args.seed, tasks.PRETRAIN_TASKS, cfg.demos_per_task)
            out = os.path.join(args.out, "dataset.qstd")
        else:
            ds = tasks.generate_suite(args.seed, tasks.FEWSHOT_TASKS, cfg.fewshot_demos)
            out = os.path.join(args.out, "fewshot.qstd")
        write_dataset(ds, out)
        print(f"wrote {len(ds)} episodes to {out}")
        return 0

    if command == "train-stage1":
        ds = read_dataset(_path(args, "data", "dataset.qstd"))
        ckpt = train_stage1(ds, cfg, args.seed, metrics)
        out = os.path.join(args.out, "stage1.ckpt")
        ckpt.save(out)
        print(f"wrote {out}")
        return 0

    if command == "train-stage2":
        ds = read_dataset(_path(args, "data", "dataset.qstd"))
        stage1 = Checkpoint.load(_path(args, "stage1", "stage1.ckpt"))
        ckpt = train_stage2(ds, stage1, cfg, args.seed, metrics)
        out = os.path.join(args.out, "stage2.ckpt")
        ckpt.save(out)
        print(f"wrote {out}")
        return 0

    if command == "finetune":
        demos = read_dataset(args.demos)
        stage1 = Checkpoint.load(_path(args, "stage1", "stage1.ckpt"))
        stage2 = Checkpoint.load(_path(args, "stage2", "stage2.ckpt"))
        ckpt = finetune_fewshot(
            stage1,
            stage2,
            demos,
            cfg,
            args.seed,
            decoder_finetune=args.decoder_finetune == "on",
            metrics=metrics,
        )
        out = os.path.join(args.out, "finetuned.ckpt")
        ckpt.save(out)
        print(f"wrote {out}")
        return 0

    if command == "eval":
        stage1 = Checkpoint.load(_path(args, "stage1", "stage1.ckpt"))
        stage2 = Checkpoint.load(_path(args, "stage2", "stage2.ckpt"))
        check_structural_match(cfg, stage1, "stage-1")
        check_structural_match(cfg, stage2, "stage-2")
        policy = Policy(stage1, stage2)
        names = args.tasks.split(",") if args.tasks else list(tasks.PRETRAIN_TASKS)
        seeds = list(range(args.seed, args.seed + args.num_seeds))
        results, summary = evaluate_suite(
            policy, names, args.episodes, seeds, ControlConfig.from_run_config(cfg)
        )
        with open(os.path.join(args.out, "rollouts.jsonl"), "a", encoding="ascii") as fh:
            for r in results:
                fh.write(r.to_json() + "\n")
        for name in names:
            row = summary[name]
            metrics.log(
                phase="eval", task_id=name, success_rate=row["mean"], seed=args.seed
            )
            print(f"{name:16s} success {row['mean']:.3f} +- {row['std']:.3f}")
        overall = summary["overall"]
        metrics.log(phase="eval", task_id="overall", success_rate=overall["mean"], seed=args.seed)
        print(f"{'overall':16s} success {overall['mean']:.3f} +- {overall['std']:.3f}")
        return 0

    if command == "codebook-stats":
        ds = read_dataset(_path(args, "data", "dataset.qstd"))
        stage1 = Checkpoint.load(_path(args, "stage1", "stage1.ckpt"))
        stats = codebook_stats(stage1, ds)
        out = os.path.join(args.out, "codebook_stats.json")
        with open(out, "w", encoding="ascii") as fh:
            json.dump(stats, fh, indent=2)
        print(json.dumps(stats, indent=2))
        return 0

    if command == "export-embeddings":
        ds = read_dataset(_path(args, "data", "dataset.qstd"))
        stage1 = Checkpoint.load(_path(args, "stage1", "stage1.ckpt"))
        out = os.path.join(args.out, "embeddings.csv")
        rows = export_embeddings(stage1, ds, out)
        print(f"wrote {rows} rows to {out}")
        return 0

    if command == "grad-check":
        worst = run_grad_check_suite(args.seed)
        print(f"max relative error {worst:.3e} (tolerance {GRAD_CHECK_TOLERANCE:.0e})")
        return 0 if worst < GRAD_CHECK_TOLERANCE else 1

    raise AssertionError(f"unhandled command {command}")


# -- harness operations ----------------------------------------------------------


def codebook_stats(stage1_ckpt: Checkpoint, dataset) -> dict:
    """Utilization and most-frequent codes over every dataset window."""
    model = SkillAutoencoder.from_checkpoint(stage1_ckpt)
    windows, _, _, _ = window_arrays(dataset, model.cfg.T)
    indices = encode_targets(model, windows)
    flat = indices.reshape(-1)
    counts = np.bincount(flat, minlength=model.spec.codebook_size)
    top = np.argsort(counts)[::-1][:16]
    return {
        "windows": int(windows.shape[0]),
        "tokens": int(flat.size),
        "codebook_size": model.spec.codebook_size,
        "utilization": utilization(flat, model.spec),
        "top_codes": [
            {"index": int(i), "count": int(counts[i])} for i in top if counts[i] > 0
        ],
    }


def export_embeddings(stage1_ckpt: Checkpoint, dataset, path) -> int:
    """One CSV row per (episode, window): the flattened n x d quantized
    embedding vector at that timestep, ready for offline t-SNE/plotting."""
    model = SkillAutoencoder.from_checkpoint(stage1_ckpt)
    if dataset.act_dim != model.cfg.action_dim:
        raise ConfigurationError(
            f"dataset action dim {dataset.act_dim} != checkpoint {model.cfg.action_dim}"
        )
    windows, _, _, starts = window_arrays(dataset, model.cfg.T)
    n, d = model.cfg.n_tokens, model.spec.dim
    digits = index_to_code(encode_targets(model, windows), model.spec)
    grids = digits_to_grid(digits, model.spec).reshape(len(windows), n * d)
    header = ["task", "episode", "timestep"] + [
        f"z{i}_{j}" for i in range(n) for j in range(d)
    ]
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for (episode, timestep), grid in zip(starts, grids):
            task = dataset.episodes[episode].task
            writer.writerow([task, int(episode), int(timestep)] + [f"{v:.1f}" for v in grid])
    return windows.shape[0]


def run_grad_check_suite(seed: int) -> float:
    """Finite-difference oracle over every differentiable primitive plus the
    composed stage-1 and stage-2 losses at a tiny configuration."""
    rng = np.random.default_rng(seed)
    worst = 0.0

    def check(name, err):
        nonlocal worst
        print(f"  {name:24s} {err:.3e}")
        worst = max(worst, err)

    for trial in range(10):
        x = rng.normal(size=(4, 3))
        check(f"square[{trial}]", grad_check(lambda t: (t**2.0).sum(), x))
    w = rng.normal(size=(3, 4))
    check("matmul", grad_check(lambda t: (t @ Tensor(w)).tanh().sum(), rng.normal(size=(5, 3))))
    bias = Tensor(rng.normal(size=4))
    check(
        "linear",
        grad_check(lambda t: T.linear(t, Tensor(w), bias).tanh().sum(), rng.normal(size=(2, 5, 3))),
    )
    check("tanh", grad_check(lambda t: t.tanh().sum(), rng.normal(size=8)))
    check("gelu", grad_check(lambda t: t.gelu().sum(), rng.normal(size=8)))
    relu_point = rng.normal(size=8)
    relu_point = np.where(np.abs(relu_point) < 0.1, relu_point + 0.4, relu_point)
    check("relu", grad_check(lambda t: t.relu().sum(), relu_point))
    abs_point = np.where(np.abs(rng.normal(size=8)) < 0.2, 0.7, rng.normal(size=8))
    check("abs", grad_check(lambda t: t.abs().sum(), abs_point))

    ln = LayerNorm(6)
    check(
        "layer_norm",
        grad_check(lambda t: (ln(t) ** 2.0).mean(), rng.normal(size=(3, 6))),
    )
    idx = rng.integers(0, 5, size=(4, 2))
    check(
        "embedding",
        grad_check(lambda t: T.embedding(t, idx).tanh().sum(), rng.normal(size=(5, 3))),
    )
    targets = rng.integers(0, 7, size=5)
    check(
        "cross_entropy",
        grad_check(lambda t: T.cross_entropy(t, targets), rng.normal(size=(5, 7))),
    )
    check(
        "l1_loss",
        grad_check(
            lambda t: T.l1_loss(t, Tensor(np.zeros((3, 3)))), rng.normal(size=(3, 3)) + 2.0
        ),
    )
    mask = np.tril(np.ones((4, 4), dtype=bool))
    check(
        "masked_softmax",
        grad_check(
            lambda t: (T.masked_softmax(t, mask) ** 2.0).sum(), rng.normal(size=(4, 4))
        ),
    )
    kv = Tensor(rng.normal(size=(4, 6)))
    check(
        "masked_attention",
        grad_check(
            lambda t: T.masked_attention(t, kv, kv, mask).tanh().sum(),
            rng.normal(size=(4, 6)),
        ),
    )
    kernel = Tensor(rng.normal(size=(3, 2, 4)))
    check(
        "causal_conv1d",
        grad_check(
            lambda t: T.causal_conv1d(t, kernel, 2).tanh().sum(), rng.normal(size=(9, 2))
        ),
    )

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
    model = SkillAutoencoder(tiny, np.random.default_rng(seed + 1))
    windows = rng.normal(size=(2, 8, 2))
    check(
        "stage1_composite",
        grad_check_params(lambda: model.surrogate_loss(windows), model.params()),
    )

    probe = dataclasses.replace(tiny, conv_strides=(2, 1), obs_dim=3)  # 4 tokens of vocab 15
    prior = SkillPrior(PriorConfig.from_run_config(probe), ["a"], np.random.default_rng(seed + 2))
    obs = rng.normal(size=(2, 1, 3))
    tgt = rng.integers(0, 15, size=(2, 4))
    check(
        "stage2_composite",
        grad_check_params(
            lambda: prior.nll(np.zeros(2, dtype=int), obs, tgt), prior.params()
        ),
    )

    # masked_attention along keys and values with distinct tensors, and in
    # training mode with its dropout mask fixed by a generator made per call
    # (the output takes the queries' dtype, so float64 queries keep the loss float64)
    queries = T.cast(Tensor(rng.normal(size=(4, 6))), T.WIDE)
    keys, values = Tensor(rng.normal(size=(4, 6))), Tensor(rng.normal(size=(4, 6)))
    check(
        "masked_attention_keys",
        grad_check(
            lambda t: T.masked_attention(queries, t, values, mask).tanh().sum(),
            rng.normal(size=(4, 6)),
        ),
    )
    check(
        "masked_attention_values",
        grad_check(
            lambda t: T.masked_attention(queries, keys, t, mask).tanh().sum(),
            rng.normal(size=(4, 6)),
        ),
    )
    check(
        "masked_attention_train",
        grad_check(
            lambda t: T.masked_attention(
                t, keys, values, mask, 0.25, np.random.default_rng(seed + 3), True
            ).tanh().sum(),
            rng.normal(size=(4, 6)),
        ),
    )
    return worst
