"""qst benchmark: closed-loop planning, control throughput and training steps.

Run from the repository root:

    python3 perfbench/run.py --workload control-single --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run sets the models up ``SETUP_REPEATS`` times, then
times whole blocks of the workload: the fixed prefix, and more blocks while
``--seconds`` of wall time have not passed.  It prints the end-to-end
metrics, read from the process CPU clock (``workloads.cpu_time``) with BLAS
on one thread; wall-time figures are in the detail line.  With
``--trace 1`` it sets up once under the span tracer, runs the prefix traced,
runs it again untraced, and prints per-layer self times, counts and the
tracing overhead.
The last stdout line is the result object; the line before it holds the
details (environment, operations by kind, failures, checks, digests).
Scratch files go to ``.bench_build/perfbench`` under the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 3

# per-layer call-count metric -> the spans it counts
SPAN_CALLS = {
    "prior.sample_calls": ("prior.sample",),
    "prior.logits_calls": ("prior.logits",),
    "nn.block_calls": ("nn.transformer_block", "nn.cross_attention_block"),
    "tensor.backward_calls": ("tensor.backward",),
    "tasks.env_steps": ("tasks.env_step",),
}
# per-layer counters taken at the boundary -> unit
BOUNDARY_COUNTS = {
    "prior.logits_rows": "count",
    "autoencoder.windows": "count",
    "optim.adam_elements": "count",
    "data.windows": "count",
    "checkpoint.bytes": "bytes",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("control-single", "control-batch", "train"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def pin_threads() -> int:
    """One process and one BLAS thread, so that an operation's CPU time is
    its latency; numpy reads these variables when it is first imported.
    On a VM of a few vCPUs, a second BLAS thread made the same training step
    spread three times as much from step to step."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def environment(nproc: int) -> dict:
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "nproc": nproc,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentiles_ms(seconds: list) -> tuple:
    import numpy as np

    if not seconds:
        return None, None
    p50, p90 = np.percentile(np.asarray(seconds) * 1000.0, [50, 90])
    return float(p50), float(p90)


def run_blocks(loop, blocks: int, tracer=None) -> float:
    """Run exactly ``blocks`` blocks of a workload; returns the CPU time."""
    from workloads import cpu_time

    start = cpu_time()
    with tracer.span("loop") if tracer else nullcontext():
        for op, block in enumerate(loop):
            if block >= blocks:
                break
            if tracer:
                tracer.op = op
    loop.close()
    return cpu_time() - start


def ops_summary(rec) -> dict:
    return {
        kind: {
            "attempted": rec.attempted[kind],
            "succeeded": rec.attempted[kind] - rec.failed[kind],
            "failed": rec.failed[kind],
            "errors": dict(rec.errors.get(kind, {})),
        }
        for kind in sorted(rec.attempted)
    }


def workload_detail(workload: str, rec, cpu: float) -> dict:
    """Figures particular to one workload, under their own names; ``cpu``
    is the CPU time of the loop."""
    import numpy as np

    from workloads import LOSS_TAIL

    p50, p90 = percentiles_ms(rec.op_seconds)
    wall_p50, _ = percentiles_ms(rec.op_wall_seconds)
    if workload == "train":
        tail = {s: rec.losses[s][-LOSS_TAIL:] for s in ("stage1", "stage2")}
        busy = rec.stage_busy_s["stage1"]
        return {
            "stage1_windows_per_s": rec.stage_windows["stage1"] / busy if busy else None,
            "step_ms_p50": p50,
            "step_ms_p90": p90,
            "step_wall_ms_p50": wall_p50,
            "step_samples": len(rec.op_seconds),
            "stage1_loss": float(np.mean(tail["stage1"])) if tail["stage1"] else None,
            "stage2_loss": float(np.mean(tail["stage2"])) if tail["stage2"] else None,
            "stage1_loss_digest": rec.loss_digest("stage1"),
            "stage2_loss_digest": rec.loss_digest("stage2"),
        }
    return {
        "env_steps_per_s": rec.env_steps / cpu,
        "plan_ms_p50": p50,
        "plan_ms_p90": p90,
        "plan_wall_ms_p50": wall_p50,
        "plan_samples": len(rec.op_seconds),
        "plan_rows": rec.rows,
        "env_steps": rec.env_steps,
        "token_digest": rec.token_digest(),
    }


def timed_run(workload: str, seed: int, seconds: int, workdir: Path):
    from workloads import LOOPS, PREFIX_BLOCKS, Record, cpu_time, set_up, warm_up

    setup_s, setup_wall_s = [], []
    models = None
    for _ in range(SETUP_REPEATS):
        models = None  # let the previous build go before the next one
        start, wall = cpu_time(), time.perf_counter()
        models = set_up(workload, seed, workdir)
        setup_s.append(cpu_time() - start)
        setup_wall_s.append(time.perf_counter() - wall)
    warm_up(workload, models, seed)

    # whole blocks only: after the prefix a new block starts while wall time
    # is left, and a started block is finished
    rec = Record()
    loop = LOOPS[workload](models, rec, seed)
    start = time.perf_counter()
    deadline = start + seconds
    # (CPU time, rows, busy seconds, check seconds) at block boundaries
    marks = [(cpu_time(), 0, 0.0, 0.0)]
    current = 0
    for block in loop:
        if block != current:
            marks.append((cpu_time(), rec.rows, rec.stage_busy_s["stage2"], rec.verify_s))
            if block >= PREFIX_BLOCKS and time.perf_counter() >= deadline:
                break
            current = block
    loop.close()
    wall = time.perf_counter() - start
    cpu = marks[-1][0] - marks[0][0]

    # rows_per_cpu_s is the median over blocks of each block's rate.
    # control: plan rows per CPU second of the closed loop, less the
    # teacher-forced check passes; train: stage-II windows per CPU second of
    # stage-II steps, so stage-I work does not dilute it
    rates = []
    for (t0, rows0, busy0, check0), (t1, rows1, busy1, check1) in zip(marks, marks[1:]):
        spent = busy1 - busy0 if workload == "train" else (t1 - t0) - (check1 - check0)
        if rows1 > rows0 and spent > 0:
            rates.append((rows1 - rows0) / spent)
    rows_per_cpu_s = statistics.median(rates) if rates else None
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "rows_per_cpu_s": (rows_per_cpu_s, "1/s"),
        "op_cpu_ms_p50": (percentiles_ms(rec.op_seconds)[0], "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    detail = {
        "wall_s": wall,
        "cpu_s": cpu,
        "check_s": rec.verify_s,
        "blocks": len(marks) - 1,
        "block_rates": rates,
        "setup_s_samples": setup_s,
        "setup_wall_s_samples": setup_wall_s,
        **workload_detail(workload, rec, cpu),
    }
    return models, rec, metrics, detail


def traced_run(workload: str, seed: int, workdir: Path, trace_path: Path):
    from spans import HOOKS, Tracer
    from workloads import LOOPS, PREFIX_BLOCKS, Record, set_up, warm_up

    tracer = Tracer()
    with tracer.installed(), tracer.span("setup"):
        models = set_up(workload, seed, workdir)
    warm_up(workload, models, seed)

    rec = Record(verifying=tracer.verifying)
    with tracer.installed():
        traced_s = run_blocks(LOOPS[workload](models, rec, seed), PREFIX_BLOCKS, tracer)
    replay = Record()
    untraced_s = run_blocks(LOOPS[workload](models, replay, seed), PREFIX_BLOCKS)
    if workload != "train":  # training moved the weights, so only control replays bitwise
        rec.check("trace_transparent", replay.token_digest() == rec.token_digest())
    tracer.write(trace_path)

    self_s = tracer.self_times()
    calls = tracer.calls()
    metrics = {f"{name}_s": (self_s.get(name, 0.0), "s") for _, _, name, _ in HOOKS}
    metrics["setup.self_s"] = (self_s.get("setup", 0.0), "s")
    metrics["loop.self_s"] = (self_s.get("loop", 0.0), "s")
    for metric, names in SPAN_CALLS.items():
        metrics[metric] = (sum(calls.get(n, 0) for n in names), "count")
    for metric, unit in BOUNDARY_COUNTS.items():
        metrics[metric] = (tracer.counts.get(metric, 0), unit)
    metrics["trace.ops"] = (sum(rec.attempted.values()), "count")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.overhead_share"] = ((traced_s - untraced_s) / untraced_s, "ratio")
    detail = {
        "trace_file": str(trace_path.relative_to(ROOT)),
        "spans": len(tracer.spans),
        "span_errors": sorted({f"{s[0]}: {s[5]}" for s in tracer.spans if s[5]}),
        **workload_detail(workload, rec, traced_s),
    }
    return models, rec, metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qst" / "__init__.py").is_file():
        print(f"perfbench: no qst sources at {ROOT / 'src' / 'qst'}", file=sys.stderr)
        return 2
    nproc = pin_threads()
    sys.path.insert(0, str(ROOT / "src"))

    workdir = SCRATCH / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            trace_path = SCRATCH / f"trace-{args.workload}-seed{args.seed}.jsonl"
            models, rec, metrics, detail = traced_run(args.workload, args.seed, workdir, trace_path)
        else:
            models, rec, metrics, detail = timed_run(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rec.check("checkpoint_intact", models.checkpoint_intact)
    attempted = sum(rec.attempted.values())
    failed = sum(rec.failed.values())
    values_present = all(value is not None for value, _ in metrics.values())
    correct = not rec.check_failures and values_present and attempted > 0
    for key, message in rec.first_error.items():
        print(f"perfbench: {key}: {message}", file=sys.stderr)

    detail.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        environment=environment(nproc),
        ops=ops_summary(rec),
        ops_failed_share=failed / attempted if attempted else None,
        first_error=rec.first_error,
        checks={name: {"run": n, "failed": rec.check_failures[name]} for name, n in sorted(rec.checks.items())},
    )
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
