"""Stage-I autoencoder: shapes, causality, prefix reuse, gradients."""

import numpy as np
import pytest

from qst import tasks
from qst.autoencoder import SkillAutoencoder, train_stage1
from qst.config import RunConfig
from qst.data import TrajectoryDataset
from qst.errors import ArgumentError, DimensionError
from qst.fsq import bound
from qst.gradcheck import grad_check_params
from qst.tensor import Tensor, l1_loss


def tiny_config(**overrides) -> RunConfig:
    base = dict(
        T=8,
        action_dim=2,
        fsq_levels=(5, 3),
        encoder_dim=8,
        encoder_layers=1,
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
        batch_size=8,
        stage1_epochs=2,
        stage1_windows_per_epoch=0,
        execution_horizon=4,
    )
    base.update(overrides)
    return RunConfig(**base)


def default_model(causal=True, seed=0) -> SkillAutoencoder:
    cfg = RunConfig(encoder_causal=causal)
    return SkillAutoencoder(cfg, np.random.default_rng(seed))


@pytest.fixture(scope="module")
def model():
    return default_model()


class TestEncode:
    def test_default_config_yields_eight_tokens(self, model):
        out = model.encode(np.zeros((32, 2)))
        assert out.indices.shape == (8,)
        assert out.digits.shape == (8, 4)
        assert out.prequant.shape == (8, 4)

    def test_length_mismatch_raises(self, model):
        with pytest.raises(DimensionError):
            model.encode(np.zeros((31, 2)))
        with pytest.raises(DimensionError):
            model.encode(np.zeros((32, 3)))

    def test_tail_perturbation_leaves_early_tokens(self, model):
        rng = np.random.default_rng(1)
        a = 0.05 * rng.normal(size=(32, 2))
        base = model.encode(a)
        bumped = a.copy()
        bumped[31] += 0.5
        out = model.encode(bumped)
        np.testing.assert_array_equal(base.prequant[:7], out.prequant[:7])
        np.testing.assert_array_equal(base.indices[:7], out.indices[:7])

    def test_receptive_field_bound_on_random_cases(self, model):
        rng = np.random.default_rng(2)
        stride = model.cfg.downsampling
        for _ in range(20):
            a = 0.05 * rng.normal(size=(32, 2))
            t = int(rng.integers(1, 32))
            bumped = a.copy()
            bumped[t] += 1.0
            base = model.encode(a)
            out = model.encode(bumped)
            for j in range(8):
                if j * stride < t:
                    np.testing.assert_array_equal(base.prequant[j], out.prequant[j])

    def test_shared_prefix_gives_shared_leading_tokens(self, model):
        rng = np.random.default_rng(3)
        a = 0.05 * rng.normal(size=(32, 2))
        b = a.copy()
        b[16:] = 0.05 * rng.normal(size=(16, 2))
        ta = model.encode(a)
        tb = model.encode(b)
        np.testing.assert_array_equal(ta.indices[:4], tb.indices[:4])

    def test_non_causal_encoder_breaks_prefix_property(self):
        noncausal = default_model(causal=False)
        rng = np.random.default_rng(4)
        violated = False
        for _ in range(10):
            a = 0.05 * rng.normal(size=(32, 2))
            b = a.copy()
            b[16:] = 0.05 * rng.normal(size=(16, 2))
            if not np.array_equal(
                noncausal.encode(a).prequant[:4], noncausal.encode(b).prequant[:4]
            ):
                violated = True
                break
        assert violated


    def test_non_causal_encoder_keeps_causal_convolutions(self):
        """``encoder_causal = off`` drops the self-attention mask only.  Step
        28 is the last one the conv stack reads (token 7 ends there); with
        the attention blocks taken out, perturbing it moves row 7 alone of
        the conv stack's output (through the row-wise ``ln_f``), and with
        them in, the earlier tokens move too."""
        noncausal = default_model(causal=False)
        a = 0.05 * np.random.default_rng(5).normal(size=(32, 2))
        bumped = a.copy()
        bumped[28] += 0.5
        assert not np.array_equal(
            noncausal.encode(a).prequant[:7], noncausal.encode(bumped).prequant[:7]
        )
        noncausal.encoder.blocks = []
        base, out = noncausal.encode(a).prequant, noncausal.encode(bumped).prequant
        np.testing.assert_array_equal(base[:7], out[:7])
        assert not np.array_equal(base[7], out[7])


class TestDecode:
    def test_untrained_decode_is_finite_with_right_shape(self, model):
        rng = np.random.default_rng(5)
        indices = rng.integers(0, 1000, size=8)
        out = model.decode(indices)
        assert out.shape == (32, 2)
        assert np.isfinite(out).all()

    def test_invalid_code_raises_range_error(self, model):
        from qst.errors import RangeError

        with pytest.raises(RangeError):
            model.decode(np.array([0, 1, 2, 3, 4, 5, 6, 1000]))

    def test_decoder_query_causality_witness(self):
        # Perturbing the sinusoidal query at position p must leave outputs at
        # earlier positions untouched iff query self-attention is causal.
        for causal, expect_clean in ((True, True), (False, False)):
            cfg = RunConfig(decoder_causal=causal)
            m = SkillAutoencoder(cfg, np.random.default_rng(6))
            indices = np.arange(8) * 100
            base = m.decode(indices)
            m.decoder.query_table = m.decoder.query_table.copy()
            m.decoder.query_table[20] += 1.0
            bumped = m.decode(indices)
            clean = np.array_equal(base[:20], bumped[:20])
            assert clean == expect_clean


class TestReconLoss:
    def test_perfect_prediction_gives_zero(self):
        a = np.random.default_rng(7).normal(size=(4, 32, 2))
        assert l1_loss(Tensor(a), Tensor(a)).item() == 0.0

    def test_batch_order_invariance(self, model):
        rng = np.random.default_rng(8)
        batch = 0.05 * rng.normal(size=(6, 32, 2))
        loss_a, _ = model.recon_loss(batch)
        loss_b, _ = model.recon_loss(batch[::-1].copy())
        assert abs(loss_a.item() - loss_b.item()) < 1e-12

    def test_gradcheck_through_quantizer_on_tiny_model(self):
        cfg = tiny_config(encoder_dim=4, decoder_dim=4, conv_kernels=(2, 2))
        m = SkillAutoencoder(cfg, np.random.default_rng(9))
        windows = 0.05 * np.random.default_rng(10).normal(size=(2, 8, 2))
        err = grad_check_params(lambda: m.surrogate_loss(windows), m.params())
        assert err < 1e-4

    def test_encode_emits_the_tokens_of_the_loss_path(self):
        m = SkillAutoencoder(tiny_config(), np.random.default_rng(14))
        windows = 0.05 * np.random.default_rng(15).normal(size=(5, 8, 2))
        result = m.encode(windows)
        _, ids = m.recon_loss(windows, training=False)
        np.testing.assert_array_equal(result.indices, ids)
        # prequant is the bounded value the rounding consumed
        bounded = bound(m.fsq.in_proj(m.encoder(Tensor(windows))), m.spec).data
        np.testing.assert_array_equal(result.prequant, bounded)
        np.testing.assert_array_equal(np.rint(bounded) - m.spec.grid_min, result.digits)


class TestTrainStage1:
    def _tiny_dataset(self, episodes=4, length=16) -> TrajectoryDataset:
        rng = np.random.default_rng(11)
        eps = []
        from qst.data import Episode

        for _ in range(episodes):
            actions = 0.05 * rng.normal(size=(length, 2))
            positions = np.concatenate([np.zeros((1, 2)), np.cumsum(actions, axis=0)])
            obs = np.concatenate([positions, np.zeros((length + 1, 2))], axis=1)
            eps.append(Episode(task="toy", observations=obs, actions=actions))
        return TrajectoryDataset(eps, seed=0)

    def test_loss_decreases_and_is_deterministic(self, tmp_path):
        from qst.metrics import read_metrics, MetricsWriter

        ds = self._tiny_dataset()
        cfg = tiny_config(stage1_epochs=3, learning_rate=3e-3)
        path_a = tmp_path / "a.jsonl"
        ck_a = train_stage1(ds, cfg, seed=5, metrics=MetricsWriter(path_a))
        rows = read_metrics(path_a)
        assert rows[-1]["loss"] < rows[0]["loss"]
        ck_b = train_stage1(ds, cfg, seed=5)
        assert ck_a.to_bytes() == ck_b.to_bytes()
        ck_c = train_stage1(ds, cfg, seed=6)
        assert ck_a.to_bytes() != ck_c.to_bytes()

    def test_signature_admits_actions_only(self):
        # state-independence: observations never reach the autoencoder
        import inspect

        sig = inspect.signature(SkillAutoencoder.recon_loss)
        assert "observations" not in sig.parameters

    def test_empty_dataset_rejected(self):
        with pytest.raises(ArgumentError):
            train_stage1(TrajectoryDataset([]), tiny_config(), seed=0)

    def test_action_dim_mismatch_rejected(self):
        ds = self._tiny_dataset()
        with pytest.raises(DimensionError, match="action dim 2 != config 3"):
            train_stage1(ds, tiny_config(action_dim=3), seed=0)

    def test_checkpoint_roundtrip_restores_model(self, tmp_path):
        ds = self._tiny_dataset()
        cfg = tiny_config()
        ckpt = train_stage1(ds, cfg, seed=1)
        path = tmp_path / "s1.ckpt"
        ckpt.save(path)
        from qst.checkpoint import Checkpoint

        loaded = Checkpoint.load(path)
        m = SkillAutoencoder.from_checkpoint(loaded)
        a = 0.05 * np.random.default_rng(12).normal(size=(8, 2))
        m2 = SkillAutoencoder.from_checkpoint(ckpt)
        np.testing.assert_array_equal(m.encode(a).indices, m2.encode(a).indices)


# Names and order as checkpoints store them; a list attribute ``xs`` names
# its items ``x0``, ``x1``, ...
TINY_PARAM_NAMES = [
    "encoder.conv0.kernel", "encoder.conv0.bias", "encoder.conv1.kernel", "encoder.conv1.bias",
    "encoder.block0.ln1.gain", "encoder.block0.ln1.bias",
    "encoder.block0.attn.wq.weight", "encoder.block0.attn.wq.bias",
    "encoder.block0.attn.wk.weight", "encoder.block0.attn.wk.bias",
    "encoder.block0.attn.wv.weight", "encoder.block0.attn.wv.bias",
    "encoder.block0.attn.wo.weight", "encoder.block0.attn.wo.bias",
    "encoder.block0.ln2.gain", "encoder.block0.ln2.bias",
    "encoder.block0.ffn.fc1.weight", "encoder.block0.ffn.fc1.bias",
    "encoder.block0.ffn.fc2.weight", "encoder.block0.ffn.fc2.bias",
    "encoder.ln_f.gain", "encoder.ln_f.bias",
    "fsq.in_proj.weight", "fsq.in_proj.bias", "fsq.out_proj.weight", "fsq.out_proj.bias",
    "decoder.token_pos",
    "decoder.block0.ln_self.gain", "decoder.block0.ln_self.bias",
    "decoder.block0.self_attn.wq.weight", "decoder.block0.self_attn.wq.bias",
    "decoder.block0.self_attn.wk.weight", "decoder.block0.self_attn.wk.bias",
    "decoder.block0.self_attn.wv.weight", "decoder.block0.self_attn.wv.bias",
    "decoder.block0.self_attn.wo.weight", "decoder.block0.self_attn.wo.bias",
    "decoder.block0.ln_cross.gain", "decoder.block0.ln_cross.bias",
    "decoder.block0.cross_attn.wq.weight", "decoder.block0.cross_attn.wq.bias",
    "decoder.block0.cross_attn.wk.weight", "decoder.block0.cross_attn.wk.bias",
    "decoder.block0.cross_attn.wv.weight", "decoder.block0.cross_attn.wv.bias",
    "decoder.block0.cross_attn.wo.weight", "decoder.block0.cross_attn.wo.bias",
    "decoder.block0.ln_ffn.gain", "decoder.block0.ln_ffn.bias",
    "decoder.block0.ffn.fc1.weight", "decoder.block0.ffn.fc1.bias",
    "decoder.block0.ffn.fc2.weight", "decoder.block0.ffn.fc2.bias",
    "decoder.ln_f.gain", "decoder.ln_f.bias", "decoder.head.weight", "decoder.head.bias",
]


def test_param_names_and_order_are_pinned():
    model = SkillAutoencoder(tiny_config(), np.random.default_rng(0))
    assert list(model.params()) == TINY_PARAM_NAMES
    sides = {**model.encoder_side_params(), **model.decoder_side_params()}
    assert list(sides) == TINY_PARAM_NAMES
    assert all(sides[k] is v for k, v in model.params().items())


def test_shared_prefix_on_generated_suite_with_default_encoder(model):
    ds = tasks.generate_suite(13, task_names=("circle-ccw", "s-curve"), demos_per_task=3)
    by = ds.by_task()
    for i in range(3):
        a = by["circle-ccw"][i].actions[:32]
        b = by["s-curve"][i].actions[:32]
        ta = model.encode(a)
        tb = model.encode(b)
        np.testing.assert_array_equal(ta.indices[:4], tb.indices[:4])
