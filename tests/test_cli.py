"""CLI: exit codes, artifact plumbing, and a tiny end-to-end run."""

import json
import os

import numpy as np
import pytest

from qst.autoencoder import SkillAutoencoder
from qst.checkpoint import Checkpoint
from qst.cli import export_embeddings, main
from qst.config import RunConfig
from qst.controller import Policy
from qst.data import Episode, TrajectoryDataset
from qst.errors import ConfigurationError

from test_autoencoder import tiny_config
from test_config import overridden


TINY = tiny_config(
    T=32,
    conv_kernels=(5, 3, 3),
    conv_strides=(2, 2, 1),
    fsq_levels=(5, 3),
    stage1_epochs=1,
    stage2_epochs=1,
    stage1_windows_per_epoch=32,
    stage2_windows_per_epoch=32,
    batch_size=16,
    finetune_epochs=1,
    execution_horizon=8,
    top_k=3,
    max_episode_steps=8,
    demos_per_task=2,
    fewshot_demos=2,
)


def write_tiny_config(path) -> str:
    path.write_text(TINY.snapshot())
    return str(path)


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["gen-data", "--bogus"])
        assert err.value.code == 2

    def test_missing_config_file_exits_2_with_path(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["gen-data", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
        assert err.value.code == 2
        assert "nope.cfg" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gen-data", "eval", "grad-check"])
    def test_negative_seed_is_usage_error(self, command, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main([command, "--seed", "-2", "--out", str(tmp_path)])
        assert err.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    def test_runtime_failure_exits_1(self, tmp_path, capsys):
        # stage-1 training without a dataset
        code = main(["train-stage1", "--out", str(tmp_path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_grad_check_passes_and_prints_error(self, tmp_path, capsys):
        code = main(["grad-check", "--seed", "3", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "max relative error" in out


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """gen-data + both training stages through the CLI, once per module."""
    out = tmp_path_factory.mktemp("run")
    cfg_path = out / "tiny.cfg"
    write_tiny_config(cfg_path)
    argv = ["--config", str(cfg_path), "--seed", "0", "--out", str(out)]
    assert main(["gen-data", *argv]) == 0
    assert main(["gen-data", "--suite", "fewshot", *argv]) == 0
    assert main(["train-stage1", *argv]) == 0
    assert main(["train-stage2", *argv]) == 0
    return out, cfg_path


class TestPipeline:
    def test_artifacts_exist(self, run_dir):
        out, _ = run_dir
        for name in ("dataset.qstd", "fewshot.qstd", "stage1.ckpt", "stage2.ckpt", "metrics.jsonl"):
            assert (out / name).exists()

    def test_metrics_rows_have_required_fields(self, run_dir):
        out, _ = run_dir
        rows = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
        phases = {r["phase"] for r in rows}
        assert {"stage1", "stage2"} <= phases
        stage1 = [r for r in rows if r["phase"] == "stage1"]
        assert all("codebook_utilization" in r and "loss" in r and "seed" in r for r in stage1)

    def test_finetune_and_eval_run(self, run_dir, capsys):
        out, cfg_path = run_dir
        argv = ["--config", str(cfg_path), "--seed", "0", "--out", str(out)]
        assert (
            main(
                [
                    "finetune",
                    "--demos",
                    str(out / "fewshot.qstd"),
                    "--decoder-finetune",
                    "off",
                    *argv,
                ]
            )
            == 0
        )
        assert (out / "finetuned.ckpt").exists()
        code = main(
            ["eval", "--episodes", "2", "--tasks", "line-across", "--num-seeds", "2", *argv]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "overall" in printed
        rollouts = [
            json.loads(l) for l in (out / "rollouts.jsonl").read_text().splitlines()
        ]
        assert len(rollouts) == 4  # 1 task x 2 episodes x 2 seeds
        assert {r["seed"] for r in rollouts} == {0, 1}
        for r in rollouts:
            assert set(r) >= {"task", "seed", "success", "steps", "tokens"}

    def test_eval_refuses_a_repeated_task_and_writes_nothing(self, run_dir, tmp_path, capsys):
        out, cfg_path = run_dir
        code = main([
            "eval", "--tasks", "line-across,line-across", "--episodes", "2",
            "--stage1", str(out / "stage1.ckpt"), "--stage2", str(out / "stage2.ckpt"),
            "--config", str(cfg_path), "--seed", "0", "--out", str(tmp_path),
        ])
        assert code == 1
        assert "named twice" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    def test_eval_refuses_a_non_finite_checkpoint_and_writes_nothing(self, run_dir, tmp_path, capsys):
        out, cfg_path = run_dir
        stage2 = Checkpoint.load(out / "stage2.ckpt")
        bias = stage2.params["prior.head.bias"].copy()
        bias[0] = np.nan
        poisoned = tmp_path / "poisoned.ckpt"
        Checkpoint({**stage2.params, "prior.head.bias": bias}, stage2.meta, stage2.config_text).save(poisoned)
        dest = tmp_path / "run"
        code = main([
            "eval", "--tasks", "line-across", "--episodes", "2",
            "--stage1", str(out / "stage1.ckpt"), "--stage2", str(poisoned),
            "--config", str(cfg_path), "--seed", "0", "--out", str(dest),
        ])
        assert code == 1
        assert "error: checkpoint parameter 'prior.head.bias' holds a non-finite" in capsys.readouterr().err
        assert not os.listdir(dest)

    def test_refinetuning_a_finetuned_decoder_starts_from_it(self, run_dir, tmp_path):
        """Finetuning from a checkpoint whose decoder was finetuned: with the
        decoder off, the output ships that decoder unchanged and the policy
        runs it; with the decoder on (and no epochs), training starts from it."""
        out, cfg_path = run_dir
        no_epochs = tmp_path / "no_epochs.cfg"
        no_epochs.write_text(RunConfig(**{**TINY.__dict__, "finetune_epochs": 0}).snapshot())

        def finetune(stage2, decoder, name, config=cfg_path):
            dest = tmp_path / name
            argv = ["--config", str(config), "--seed", "0", "--out", str(dest)]
            assert main([
                "finetune", "--demos", str(out / "fewshot.qstd"), "--decoder-finetune", decoder,
                "--stage1", str(out / "stage1.ckpt"), "--stage2", str(stage2), *argv,
            ]) == 0
            return Checkpoint.load(dest / "finetuned.ckpt")

        on = finetune(out / "stage2.ckpt", "on", "on")
        decoder = {k: v for k, v in on.params.items() if k.startswith("decoder.")}
        stage1 = Checkpoint.load(out / "stage1.ckpt")
        assert decoder and any(not np.array_equal(v, stage1.params[k]) for k, v in decoder.items())
        off = finetune(tmp_path / "on" / "finetuned.ckpt", "off", "off")
        again = finetune(tmp_path / "on" / "finetuned.ckpt", "on", "again", no_epochs)
        assert off.meta["decoder_finetuned"] == "false"
        assert again.meta["decoder_finetuned"] == "true"
        policy = Policy(stage1, off)
        for name, p in policy.autoencoder.decoder_side_params().items():
            np.testing.assert_array_equal(off.params[name], decoder[name])
            np.testing.assert_array_equal(again.params[name], decoder[name])
            np.testing.assert_array_equal(p.data, decoder[name])

    def test_eval_refuses_mismatched_config(self, run_dir, tmp_path):
        out, _ = run_dir
        wrong = RunConfig(**{**TINY.__dict__, "prior_layers": 2})
        bad_cfg = tmp_path / "bad.cfg"
        bad_cfg.write_text(wrong.snapshot())
        code = main(
            ["eval", "--config", str(bad_cfg), "--out", str(out), "--episodes", "1"]
        )
        assert code == 1

    @pytest.mark.parametrize("flag, value", [("--num-seeds", "0"), ("--episodes", "-3")])
    def test_eval_without_episodes_is_refused(self, run_dir, capsys, flag, value):
        # a success rate over no episodes would read NaN or 0
        out, cfg_path = run_dir
        before = (out / "metrics.jsonl").read_text()
        code = main(["eval", "--config", str(cfg_path), "--out", str(out), flag, value])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert (out / "metrics.jsonl").read_text() == before

    def test_eval_on_untrained_prior_has_low_success(self, run_dir, capsys):
        out, cfg_path = run_dir
        code = main(
            [
                "eval",
                "--config",
                str(cfg_path),
                "--seed",
                "0",
                "--out",
                str(out),
                "--episodes",
                "5",
                "--tasks",
                "s-curve",
            ]
        )
        assert code == 0
        rows = [
            json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()
        ]
        evals = [r for r in rows if r["phase"] == "eval" and r["task_id"] == "s-curve"]
        assert evals and evals[-1]["success_rate"] <= 0.2

    def test_codebook_stats(self, run_dir, capsys):
        out, cfg_path = run_dir
        argv = ["--config", str(cfg_path), "--seed", "0", "--out", str(out)]
        assert main(["codebook-stats", *argv]) == 0
        stats = json.loads((out / "codebook_stats.json").read_text())
        assert stats["codebook_size"] == 15
        assert 0 < stats["utilization"] <= 1.0
        assert stats["tokens"] == stats["windows"] * 8

    def test_export_embeddings_columns_and_rows(self, run_dir):
        out, cfg_path = run_dir
        argv = ["--config", str(cfg_path), "--seed", "0", "--out", str(out)]
        assert main(["export-embeddings", *argv]) == 0
        lines = (out / "embeddings.csv").read_text().splitlines()
        header = lines[0].split(",")
        n, d = TINY.n_tokens, len(TINY.fsq_levels)
        assert len(header) == 3 + n * d
        from qst.data import read_dataset, window_arrays

        ds = read_dataset(out / "dataset.qstd")
        assert len(lines) - 1 == len(window_arrays(ds, TINY.T)[3])

    def test_export_embeddings_prefix_pairs_match(self, run_dir):
        # causal encoder: the first-window rows of prefix-sharing demos agree
        # on every column covered by the shared tokens
        out, _ = run_dir
        import csv as csv_mod

        with open(out / "embeddings.csv") as fh:
            rows = list(csv_mod.DictReader(fh))
        d = len(TINY.fsq_levels)
        shared_cols = [f"z{i}_{j}" for i in range(4) for j in range(d)]

        def first_window(task, nth):
            hits = [r for r in rows if r["task"] == task and r["timestep"] == "0"]
            return hits[nth]

        for demo in range(2):
            a = first_window("circle-ccw", demo)
            b = first_window("s-curve", demo)
            assert [a[c] for c in shared_cols] == [b[c] for c in shared_cols]


def test_export_embeddings_refuses_an_action_dim_mismatch(tmp_path):
    stage1 = SkillAutoencoder(tiny_config(), np.random.default_rng(0)).to_checkpoint()
    wide = TrajectoryDataset([Episode("a", np.zeros((9, 4)), np.zeros((8, 3)))])
    with pytest.raises(ConfigurationError, match="action dim 3 != checkpoint 2"):
        export_embeddings(stage1, wide, tmp_path / "embeddings.csv")
    assert not os.listdir(tmp_path)


class TestAblationFlags:
    def test_encoder_causal_off_is_recorded_in_checkpoint(self, tmp_path):
        out = tmp_path
        cfg_path = out / "tiny.cfg"
        cfg_path.write_text(overridden(TINY, encoder_causal="off", decoder_causal="off"))
        argv = ["--config", str(cfg_path), "--seed", "0", "--out", str(out)]
        assert main(["gen-data", *argv]) == 0
        assert main(["train-stage1", *argv]) == 0
        from qst.checkpoint import Checkpoint

        ckpt = Checkpoint.load(out / "stage1.ckpt")
        cfg = RunConfig.from_text(ckpt.config_text)
        assert cfg.encoder_causal is False and cfg.decoder_causal is False
