"""Skill prior: context layout, causality, losses, sampling, freezing."""

import numpy as np
import pytest

from qst import optim, tasks
from qst.autoencoder import SkillAutoencoder, train_stage1
from qst.config import RunConfig
from qst.controller import Policy
from qst.errors import ArgumentError, ConfigurationError, DimensionError, RangeError
from qst.gradcheck import grad_check_params
from qst.nn import TransformerBlock
from qst.prior import (
    ObservationEncoder,
    PriorConfig,
    SkillPrior,
    finetune_fewshot,
    train_stage2,
)

from test_autoencoder import tiny_config


def small_prior(seed=0, vocab=1000, **overrides) -> SkillPrior:
    fields = dict(vocab=vocab, n_tokens=8, dim=24, layers=2, heads=2, obs_dim=4)
    fields.update(overrides)
    cfg = PriorConfig(**fields)
    return SkillPrior(cfg, ["a", "b"], np.random.default_rng(seed))


def context_batch(rng, batch=3, history=1, obs_dim=4):
    task_idx = rng.integers(0, 2, size=batch)
    obs = rng.normal(size=(batch, history, obs_dim))
    return task_idx, obs


def test_param_names_and_order_are_pinned():
    block = [
        "ln1.gain", "ln1.bias",
        "attn.wq.weight", "attn.wq.bias", "attn.wk.weight", "attn.wk.bias",
        "attn.wv.weight", "attn.wv.bias", "attn.wo.weight", "attn.wo.bias",
        "ln2.gain", "ln2.bias",
        "ffn.fc1.weight", "ffn.fc1.bias", "ffn.fc2.weight", "ffn.fc2.bias",
    ]
    expected = (
        ["prior.token_emb.table", "prior.task_table"]
        + ["prior.obs.fc1.weight", "prior.obs.fc1.bias", "prior.obs.fc2.weight", "prior.obs.fc2.bias"]
        + [f"prior.block0.{name}" for name in block]
        + [f"prior.block1.{name}" for name in block]
        + ["prior.ln_f.gain", "prior.ln_f.bias", "prior.head.weight", "prior.head.bias"]
    )
    assert list(small_prior().params()) == expected


class TestObservationEncoder:
    def test_zero_obs_through_zeroed_final_layer_gives_zero_token(self):
        enc = ObservationEncoder(np.random.default_rng(0), 4, 16)
        enc.fc2.weight.data[:] = 0.0
        enc.fc2.bias.data[:] = 0.0
        from qst.tensor import Tensor

        out = enc(Tensor(np.zeros((2, 1, 4))))
        assert (out.data == 0.0).all()

    def test_distinct_observations_give_distinct_tokens(self):
        enc = ObservationEncoder(np.random.default_rng(1), 4, 16)
        from qst.tensor import Tensor

        a = enc(Tensor(np.array([[0.1, 0.2, 0.3, 0.4]]))).data
        b = enc(Tensor(np.array([[0.5, 0.2, 0.3, 0.4]]))).data
        assert not np.array_equal(a, b)


class TestLogits:
    def test_history_one_yields_one_observation_token(self):
        prior = small_prior()
        rng = np.random.default_rng(2)
        task_idx, obs = context_batch(rng)
        out = prior.logits(task_idx, obs, np.zeros((3, 0), dtype=int))
        assert out.shape == (3, 1, 1000)
        full = prior.logits(task_idx, obs, rng.integers(0, 1000, size=(3, 7)))
        assert full.shape == (3, 8, 1000)

    def test_causal_invariance_to_later_tokens(self):
        prior = small_prior()
        rng = np.random.default_rng(3)
        task_idx, obs = context_batch(rng)
        tokens = rng.integers(0, 1000, size=(3, 7))
        base = prior.logits(task_idx, obs, tokens).data
        for pos in range(7):
            bumped = tokens.copy()
            bumped[:, pos] = (bumped[:, pos] + 17) % 1000
            out = prior.logits(task_idx, obs, bumped).data
            np.testing.assert_array_equal(base[:, : pos + 1], out[:, : pos + 1])
            assert not np.array_equal(base[:, pos + 1], out[:, pos + 1])

    def test_softmax_rows_normalize(self):
        prior = small_prior()
        rng = np.random.default_rng(4)
        task_idx, obs = context_batch(rng)
        logits = prior.logits(task_idx, obs, rng.integers(0, 1000, size=(3, 7))).data
        logits = logits.astype(np.float64)  # normalise in float64, as sampling checks do
        probs = np.exp(logits - logits.max(axis=-1, keepdims=True))
        probs /= probs.sum(axis=-1, keepdims=True)
        assert np.abs(probs.sum(axis=-1) - 1.0).max() < 1e-12

    def test_context_length_cap(self):
        prior = small_prior()
        rng = np.random.default_rng(5)
        task_idx, obs = context_batch(rng)
        with pytest.raises(ConfigurationError):
            prior.logits(task_idx, obs, rng.integers(0, 1000, size=(3, 8)))

    def test_task_id_out_of_range(self):
        prior = small_prior()
        rng = np.random.default_rng(12)
        _, obs = context_batch(rng, batch=1)
        tokens = np.zeros((1, 0), dtype=int)
        for bad in (-1, 2):
            with pytest.raises(RangeError, match="task id"):
                prior.logits(np.array([bad]), obs, tokens)

    def test_untrained_nll_is_near_uniform(self):
        cfg = RunConfig()
        prior = SkillPrior(
            PriorConfig.from_run_config(cfg), ["x"], np.random.default_rng(6)
        )
        rng = np.random.default_rng(7)
        batch = 16
        obs = rng.normal(size=(batch, 1, 4))
        targets = rng.integers(0, 1000, size=(batch, 8))
        loss = prior.nll(np.zeros(batch, dtype=int), obs, targets).item()
        assert abs(loss - np.log(1000.0)) < 0.2


class TestNll:
    def test_uniform_model_matches_analytic_value(self):
        prior = small_prior()
        prior.head.weight.data[:] = 0.0
        prior.head.bias.data[:] = 0.0
        rng = np.random.default_rng(8)
        task_idx, obs = context_batch(rng)
        targets = rng.integers(0, 1000, size=(3, 8))
        loss = prior.nll(task_idx, obs, targets).item()
        assert abs(loss - np.log(1000.0)) < 1e-9

    def test_probability_one_on_targets_gives_zero_loss(self):
        prior = small_prior(vocab=15)
        rng = np.random.default_rng(9)
        task_idx, obs = context_batch(rng)
        targets = rng.integers(0, 15, size=(3, 8))

        logits = prior.logits(task_idx, obs, targets[:, :-1])
        onehot = np.full(logits.shape, -1e9)
        for b in range(3):
            for i in range(8):
                onehot[b, i, targets[b, i]] = 0.0
        from qst import tensor as T
        from qst.tensor import Tensor

        loss = T.cross_entropy(Tensor(onehot), targets)
        assert loss.item() < 1e-12

    def test_target_out_of_range(self):
        prior = small_prior()
        rng = np.random.default_rng(10)
        task_idx, obs = context_batch(rng)
        targets = np.zeros((3, 8), dtype=int)
        targets[0, 0] = 1000
        with pytest.raises(RangeError):
            prior.nll(task_idx, obs, targets)

    def test_targets_must_be_batch_by_n(self):
        prior = small_prior()
        rng = np.random.default_rng(17)
        task_idx, obs = context_batch(rng)
        for bad in (np.zeros(8, dtype=int), np.zeros((3, 7), dtype=int)):
            with pytest.raises(DimensionError, match="targets"):
                prior.nll(task_idx, obs, bad)

    def test_gradcheck_on_tiny_prior(self):
        prior = small_prior(vocab=15, n_tokens=4, dim=8, layers=1, heads=2, obs_dim=3)
        rng = np.random.default_rng(11)
        task_idx = rng.integers(0, 2, size=2)
        obs = rng.normal(size=(2, 1, 3))
        targets = rng.integers(0, 15, size=(2, 4))
        err = grad_check_params(
            lambda: prior.nll(task_idx, obs, targets), prior.params()
        )
        assert err < 1e-4


class TestFromCheckpoint:
    def _checkpoint(self):
        cfg = tiny_config()
        prior = SkillPrior(PriorConfig.from_run_config(cfg), ["a"], np.random.default_rng(0))
        return prior.to_checkpoint(cfg, {})

    def test_missing_parameter_is_configuration_error(self):
        ckpt = self._checkpoint()
        del ckpt.params["prior.ln_f.gain"]
        with pytest.raises(ConfigurationError, match="prior.ln_f.gain"):
            SkillPrior.from_checkpoint(ckpt)

    def test_reshaped_parameter_is_configuration_error(self):
        ckpt = self._checkpoint()
        ckpt.params["prior.head.bias"] = ckpt.params["prior.head.bias"][:-1]
        with pytest.raises(ConfigurationError, match="shape mismatch"):
            SkillPrior.from_checkpoint(ckpt)

    def test_loading_draws_no_random_weights(self, monkeypatch):
        """Loading builds its modules uninitialised and fills every weight
        from the checkpoint, bitwise the stored float32 values."""
        cfg = tiny_config()
        rng = np.random.default_rng(5)
        autoencoder = SkillAutoencoder(cfg, rng)
        stage1 = autoencoder.to_checkpoint()
        prior = SkillPrior(PriorConfig.from_run_config(cfg), ["a", "b"], rng)
        meta = {"stage1_sha256": stage1.content_sha256(), "decoder_finetuned": "true"}
        for p in autoencoder.decoder_side_params().values():
            p.data += 0.25  # finetuned decoder weights differ from stage 1's
        stage2 = prior.to_checkpoint(cfg, meta, autoencoder.decoder_side_params())

        def no_draws(*args, **kwargs):
            raise AssertionError("loading made a random generator")

        # numpy's Generator type is immutable, so its methods cannot be
        # patched; qst gets every generator it draws from default_rng
        monkeypatch.setattr(np.random, "default_rng", no_draws)
        loaded_ae = SkillAutoencoder.from_checkpoint(stage1)
        loaded_prior, _ = SkillPrior.from_checkpoint(stage2)
        policy = Policy(stage1, stage2)

        def assert_bitwise(params, ckpt):
            for name, p in params.items():
                assert p.data.dtype == np.float32
                np.testing.assert_array_equal(p.data, ckpt.params[name])

        assert_bitwise(loaded_ae.params(), stage1)
        assert_bitwise(loaded_prior.params(), stage2)
        assert_bitwise(policy.prior.params(), stage2)
        assert_bitwise(policy.autoencoder.encoder_side_params(), stage1)
        assert_bitwise(policy.autoencoder.decoder_side_params(), stage2)

    def test_missing_task_list_is_configuration_error(self):
        ckpt = self._checkpoint()
        del ckpt.meta["tasks"]
        with pytest.raises(ConfigurationError, match="task list"):
            SkillPrior.from_checkpoint(ckpt)

    def test_autoencoder_missing_parameter_is_configuration_error(self):
        ckpt = SkillAutoencoder(tiny_config(), np.random.default_rng(6)).to_checkpoint()
        del ckpt.params["decoder.token_pos"]
        with pytest.raises(ConfigurationError, match="decoder.token_pos"):
            SkillAutoencoder.from_checkpoint(ckpt)


class TestSampling:
    def test_k_one_is_deterministic(self):
        prior = small_prior()
        rng = np.random.default_rng(12)
        task_idx, obs = context_batch(rng)
        a = prior.sample(task_idx, obs, 1, 1.0, np.random.default_rng(0))
        b = prior.sample(task_idx, obs, 1, 1.0, np.random.default_rng(99))
        np.testing.assert_array_equal(a, b)
        assert a.shape == (3, 8)

    def test_full_k_samples_from_whole_softmax(self):
        prior = small_prior(vocab=15)
        rng = np.random.default_rng(13)
        task_idx, obs = context_batch(rng, batch=1)
        draws = prior.sample(
            np.repeat(task_idx, 64, 0), np.repeat(obs, 64, 0), 15, 4.0,
            np.random.default_rng(1),
        )
        assert len(np.unique(draws)) > 5  # hot temperature reaches many codes

    @pytest.mark.parametrize(
        "k, temperature, generators, error, match",
        [
            (0, 1.0, 1, ConfigurationError, "k must lie"),
            (16, 1.0, 1, ConfigurationError, "k must lie"),
            (3, 0.0, 1, ConfigurationError, "temperature"),
            (3, 1.0, 2, DimensionError, "one generator per batch row"),
        ],
        ids=["k-zero", "k-above-vocab", "zero-temperature", "generator-count"],
    )
    def test_bad_sampler_arguments_refused(self, k, temperature, generators, error, match):
        prior = small_prior(vocab=15)
        task_idx, obs = context_batch(np.random.default_rng(16))
        rngs = [np.random.default_rng(i) for i in range(generators)]
        with pytest.raises(error, match=match):
            prior.sample(task_idx, obs, k, temperature, rngs)

    def test_top2_frequency_matches_renormalized_probability(self):
        prior = small_prior(vocab=50, n_tokens=1, dim=16, layers=1, heads=2)
        rng = np.random.default_rng(14)
        task_idx, obs = context_batch(rng, batch=1)
        logits = prior.logits(task_idx, obs, np.zeros((1, 0), dtype=int)).data[0, -1]
        top2 = np.argsort(logits)[-2:]
        gap = logits[top2[1]] - logits[top2[0]]
        expected = 1.0 / (1.0 + np.exp(-gap))

        draws = 10_000
        sampler_rng = np.random.default_rng(15)
        hits = 0
        batch_task = np.repeat(task_idx, 100, 0)
        batch_obs = np.repeat(obs, 100, 0)
        for _ in range(draws // 100):
            out = prior.sample(batch_task, batch_obs, 2, 1.0, sampler_rng)
            hits += int((out[:, 0] == top2[1]).sum())
        assert abs(hits / draws - expected) < 0.02


class TestCachedSampling:
    """``sample`` runs a key/value cache; ``logits`` is the teacher-forced pass."""

    @staticmethod
    def _setup(history):
        prior = small_prior(history=history)
        rng = np.random.default_rng(20 + history)
        task_idx = np.array([0, 1, 1, 0])
        obs = rng.normal(size=(4, history, 4))
        return prior, task_idx, obs

    @pytest.mark.parametrize("history", [1, 2])
    def test_greedy_tokens_are_teacher_forced_argmax(self, history):
        prior, task_idx, obs = self._setup(history)
        tokens = prior.sample(task_idx, obs, 1, 1.0, np.random.default_rng(0))
        logits = prior.logits(task_idx, obs, tokens[:, :-1]).data
        np.testing.assert_array_equal(tokens, logits.argmax(axis=-1))

    @pytest.mark.parametrize("history", [1, 2])
    def test_top_k_tokens_lie_in_teacher_forced_top_k(self, history):
        prior, task_idx, obs = self._setup(history)
        tokens = prior.sample(task_idx, obs, 5, 1.0, np.random.default_rng(1))
        logits = prior.logits(task_idx, obs, tokens[:, :-1]).data
        kth = np.partition(logits, -5, axis=-1)[..., -5]
        picked = np.take_along_axis(logits, tokens[..., None], axis=-1)[..., 0]
        assert (picked >= kth - 1e-9).all()

    @pytest.mark.parametrize("history", [1, 2])
    def test_one_new_position_per_block_call_after_the_prefix(self, history, monkeypatch):
        prior, task_idx, obs = self._setup(history)
        seen = []
        original = TransformerBlock.__call__

        def spy(block, x, *args, **kwargs):
            seen.append((id(block), x.shape[1]))
            return original(block, x, *args, **kwargs)

        monkeypatch.setattr(TransformerBlock, "__call__", spy)
        prior.sample(task_idx, obs, 3, 1.0, np.random.default_rng(2))
        layers, n = prior.cfg.layers, prior.cfg.n_tokens
        assert len(seen) == n * layers
        assert [b for b, _ in seen] == [id(b) for b in prior.blocks] * n
        assert [t for _, t in seen] == [2 + history] * layers + [1] * (n - 1) * layers

    def test_sample_checks_observations_and_task_ids(self):
        prior, task_idx, obs = self._setup(1)
        rng = np.random.default_rng(3)
        with pytest.raises(DimensionError, match="observations"):
            prior.sample(task_idx, obs[:, :, :3], 1, 1.0, rng)
        with pytest.raises(RangeError, match="task id"):
            prior.sample(np.array([0, 1, 2, 0]), obs, 1, 1.0, rng)
        with pytest.raises(DimensionError, match="task ids"):
            prior.sample(task_idx[:, None], obs, 1, 1.0, rng)

    @pytest.mark.parametrize(
        "tokens, task_axes, match",
        [
            (np.array([3, 4]), 1, "skill tokens"),  # 1-D, not "no tokens"
            (np.zeros((3, 2), dtype=int), 1, "skill tokens"),  # batch 3 vs 4
            (np.zeros((4, 0), dtype=int), 2, "task ids"),
        ],
        ids=["1-D-tokens", "token-batch-mismatch", "2-D-task-ids"],
    )
    def test_logits_rejects_misshapen_inputs(self, tokens, task_axes, match):
        prior, task_idx, obs = self._setup(1)
        task_idx = task_idx.reshape(task_idx.shape + (1,) * (task_axes - 1))
        with pytest.raises(DimensionError, match=match):
            prior.logits(task_idx, obs, tokens)


@pytest.fixture(scope="module")
def tiny_pipeline(tmp_path_factory):
    """A tiny but real two-stage pipeline over generated data."""
    cfg = tiny_config(
        T=32,
        conv_kernels=(5, 3, 3),
        conv_strides=(2, 2, 1),
        fsq_levels=(5, 3),
        stage1_epochs=1,
        stage2_epochs=1,
        stage1_windows_per_epoch=64,
        stage2_windows_per_epoch=64,
        batch_size=16,
        finetune_epochs=1,
        execution_horizon=8,
        top_k=3,
    )
    ds = tasks.generate_suite(3, task_names=("circle-ccw", "line-across"), demos_per_task=2)
    stage1 = train_stage1(ds, cfg, seed=0)
    stage2 = train_stage2(ds, stage1, cfg, seed=0)
    return cfg, ds, stage1, stage2


class TestTrainStage2:
    def test_encoder_params_bitwise_frozen(self, tiny_pipeline):
        cfg, ds, stage1, stage2 = tiny_pipeline
        model = SkillAutoencoder.from_checkpoint(stage1)
        before = {k: v.data.copy() for k, v in model.params().items()}
        train_stage2(ds, stage1, cfg, seed=1)
        for key, val in model.params().items():
            np.testing.assert_array_equal(val.data, before[key])
        # and the checkpoint carries no stage-1 weights
        assert all(k.startswith("prior.") for k in stage2.params)

    def test_determinism_and_linkage(self, tiny_pipeline):
        cfg, ds, stage1, _ = tiny_pipeline
        a = train_stage2(ds, stage1, cfg, seed=4)
        b = train_stage2(ds, stage1, cfg, seed=4)
        assert a.to_bytes() == b.to_bytes()
        assert a.meta["stage1_sha256"] == stage1.content_sha256()

    def test_loss_improves_after_training(self, tiny_pipeline):
        from qst.metrics import MetricsWriter, read_metrics
        import tempfile, os

        cfg, ds, stage1, _ = tiny_pipeline
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "m.jsonl")
            cfg2 = tiny_config(**{**cfg.__dict__, "stage2_epochs": 3})
            train_stage2(ds, stage1, cfg2, seed=0, metrics=MetricsWriter(path))
            rows = [r for r in read_metrics(path) if r["phase"] == "stage2"]
            assert rows[-1]["loss"] < rows[0]["loss"]

    def test_structural_mismatch_rejected(self, tiny_pipeline):
        cfg, ds, stage1, _ = tiny_pipeline
        bad = tiny_config(**{**cfg.__dict__, "fsq_levels": (5, 5)})
        with pytest.raises(ConfigurationError):
            train_stage2(ds, stage1, bad, seed=0)

    def test_empty_dataset_rejected(self, tiny_pipeline):
        from qst.data import TrajectoryDataset

        cfg, _, stage1, _ = tiny_pipeline
        with pytest.raises(ArgumentError):
            train_stage2(TrajectoryDataset([]), stage1, cfg, seed=0)


class TestFinetune:
    @pytest.mark.parametrize("decoder_finetune", [False, True])
    def test_optimizer_trains_prior_and_optionally_decoder(
        self, tiny_pipeline, monkeypatch, decoder_finetune
    ):
        cfg, ds, stage1, stage2 = tiny_pipeline
        handed = []

        class RecordingAdam(optim.Adam):
            def __init__(self, params, **kwargs):
                handed.extend(params)
                super().__init__(params, **kwargs)

        monkeypatch.setattr(optim, "Adam", RecordingAdam)
        demos = tasks.generate_suite(5, task_names=("zigzag",), demos_per_task=2)
        out = finetune_fewshot(stage1, stage2, demos, cfg, seed=0, decoder_finetune=decoder_finetune)
        expected = set(SkillPrior.from_checkpoint(stage2)[0].params())
        if decoder_finetune:
            expected |= set(SkillAutoencoder.from_checkpoint(stage1).decoder_side_params())
        assert len(handed) == len(set(handed))
        assert set(handed) == expected
        assert not any(name.startswith(("encoder.", "fsq.")) for name in handed)
        assert set(out.params) == expected
        assert out.meta["decoder_finetuned"] == ("true" if decoder_finetune else "false")

    def test_decoder_finetune_changes_decoder_and_ships_it(self, tiny_pipeline):
        cfg, ds, stage1, stage2 = tiny_pipeline
        demos = tasks.generate_suite(5, task_names=("zigzag",), demos_per_task=2)
        out = finetune_fewshot(stage1, stage2, demos, cfg, seed=0, decoder_finetune=True)
        assert out.meta["decoder_finetuned"] == "true"
        changed = [k for k in out.params if k.startswith("decoder.")]
        assert changed
        base = SkillAutoencoder.from_checkpoint(stage1).params()
        assert any(
            not np.array_equal(out.params[k].astype(np.float64), base[k].data)
            for k in changed
        )

    def test_unknown_task_appends_embedding_row(self, tiny_pipeline):
        cfg, ds, stage1, stage2 = tiny_pipeline
        demos = tasks.generate_suite(5, task_names=("zigzag",), demos_per_task=2)
        out = finetune_fewshot(stage1, stage2, demos, cfg, seed=0, decoder_finetune=False)
        assert "zigzag" in out.meta["tasks"].split(",")
        prior, _ = SkillPrior.from_checkpoint(out)
        assert prior.task_table.shape[0] == 3

    def test_stop_gradient_blocks_decoder_loss_from_prior(self, tiny_pipeline):
        from qst import tensor as T
        from qst.nn import set_requires_grad
        from qst.tensor import Tensor

        cfg, ds, stage1, stage2 = tiny_pipeline
        autoencoder = SkillAutoencoder.from_checkpoint(stage1)
        set_requires_grad(autoencoder.encoder_side_params(), False)
        prior, _ = SkillPrior.from_checkpoint(stage2)
        rng = np.random.default_rng(16)
        obs = rng.normal(size=(2, 1, 4))
        task_idx = np.zeros(2, dtype=int)
        sampled = prior.sample(task_idx, obs, cfg.top_k, 1.0, rng)
        pred = autoencoder.decode_tensor(sampled)
        loss = T.l1_loss(pred, Tensor(rng.normal(size=pred.shape)))
        for p in prior.params().values():
            p.grad = None
        loss.backward()
        assert all(p.grad is None for p in prior.params().values())
        assert any(p.grad is not None for p in autoencoder.decoder_side_params().values())

    def test_mismatched_stage1_rejected(self, tiny_pipeline):
        cfg, ds, stage1, stage2 = tiny_pipeline
        other_stage1 = train_stage1(ds, cfg, seed=42)
        demos = tasks.generate_suite(5, task_names=("zigzag",), demos_per_task=2)
        with pytest.raises(ConfigurationError):
            finetune_fewshot(other_stage1, stage2, demos, cfg, seed=0)
