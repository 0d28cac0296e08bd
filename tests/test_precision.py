"""Float32 compute: what stays float32, and the float64 places.

Models compute in float32; attention, the scalar loss reductions and the
finite-difference oracle run in float64 (see ``qst.tensor``).  One stray
float64 operand would silently promote the whole network, so the hot paths
are checked op by op.
"""

import numpy as np
import pytest

from qst import optim
from qst import prior as prior_module
from qst import tensor as T
from qst.autoencoder import SkillAutoencoder
from qst.errors import NumericalError
from qst.gradcheck import grad_check, grad_check_params
from qst.nn import normal_param
from qst.prior import PriorConfig, SkillPrior
from qst.tensor import Tensor

from test_autoencoder import tiny_config
from test_prior import small_prior

# where float64 is the design: attention and the scalar reductions of losses
WIDE_OPS = ("masked_attention", "cross_entropy", "mean", "total")


@pytest.fixture
def dtype_log(monkeypatch):
    """Record the dtype of every op output outside ``WIDE_OPS`` and check
    that every backward closure returns each input's gradient in that
    input's dtype."""
    log = {"outputs": [], "bad_grads": []}
    depth = [0]
    real_op = T._op

    def op(data, inputs, backward):
        out = real_op(data, inputs, backward)
        if depth[0] == 0:
            log["outputs"].append(out.data.dtype)
        if out._node is not None:
            in_dtypes = [t.data.dtype for t in inputs]

            def checked(g):
                grads = backward(g)
                for grad, dtype in zip(grads, in_dtypes):
                    if grad is not None and grad.dtype != dtype:
                        log["bad_grads"].append((grad.dtype, dtype))
                return grads

            out._node = (checked, out._node[1])
        return out

    def exempt(fn):
        def wrapped(*args, **kwargs):
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapped

    monkeypatch.setattr(T, "_op", op)
    for name in WIDE_OPS:
        monkeypatch.setattr(T, name, exempt(getattr(T, name)))
    return log


def _assert_float32(log):
    assert log["outputs"], "no op was recorded"
    assert set(log["outputs"]) == {np.dtype(np.float32)}
    assert log["bad_grads"] == []


def _train_step(params, loss):
    opt = optim.Adam(params, lr=1e-3)
    loss.backward()
    assert {p.grad.dtype for p in params.values() if p.grad is not None} == {np.dtype(np.float32)}
    opt.step()
    assert {p.data.dtype for p in params.values()} == {np.dtype(np.float32)}


def test_stage1_step_stays_float32(dtype_log):
    model = SkillAutoencoder(tiny_config(), np.random.default_rng(0))
    rng = np.random.default_rng(1)
    windows = rng.normal(size=(4, 8, 2)) * 0.05  # float64 input, as datasets hold it
    loss, _ = model.recon_loss(windows, rng=rng, training=True)
    assert loss.data.dtype == np.float64  # a float64 reduction
    _train_step(model.params(), loss)
    _assert_float32(dtype_log)


def test_stage2_step_stays_float32(dtype_log):
    prior = small_prior(fsq_levels=(5, 3))
    rng = np.random.default_rng(2)
    obs = rng.normal(size=(4, 1, 4))
    targets = rng.integers(0, 15, size=(4, 8))
    loss = prior.nll(np.array([0, 1, 0, 1]), obs, targets, rng=rng, training=True)
    _train_step(prior.params(), loss)
    _assert_float32(dtype_log)


def test_sampling_and_decoding_stay_float32(dtype_log):
    cfg = tiny_config()
    model = SkillAutoencoder(cfg, np.random.default_rng(3))
    prior = SkillPrior(PriorConfig.from_run_config(cfg), ["a", "b"], np.random.default_rng(4))
    rng = np.random.default_rng(5)
    obs = rng.normal(size=(3, cfg.observation_history, cfg.obs_dim))
    tokens = prior.sample(np.array([0, 1, 1]), obs, cfg.top_k, cfg.temperature, rng)
    plans = model.decode(tokens)
    assert plans.dtype == np.float32
    _assert_float32(dtype_log)


def test_non_tensor_operands_take_the_tensor_dtype():
    x = Tensor(np.arange(3.0))
    wide = np.ones(3)  # float64 array operand
    for out in (x * 2.0, 2.0 - x, x / 3, -x, x + np.float64(1.0), x * wide, x**2.0):
        assert out.data.dtype == np.float32
    assert T.l1_loss(x, wide).data.dtype == np.float64  # the reduction, not the operand


def test_attention_runs_wide_and_returns_the_query_dtype():
    rng = np.random.default_rng(6)
    q, k, v = (Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True) for _ in range(3))
    out = T.masked_attention(q, k, v, np.tril(np.ones((3, 3), dtype=bool)))
    assert out.data.dtype == np.float32
    T.total(out).backward()
    assert {q.grad.dtype, k.grad.dtype, v.grad.dtype} == {np.dtype(np.float32)}


def test_cached_sampler_draws_from_the_teacher_forced_logits_bitwise(monkeypatch):
    """At batch >= 2 the logits each sampling step draws from are bitwise the
    teacher-forced ``logits`` rows of the tokens drawn: every token lies in
    the top k of one full pass, with no tolerance."""
    prior = small_prior(seed=7)
    drawn = []
    real = prior_module._sample_top_k

    def spy(logits, k, temperature, rng):
        drawn.append(logits.copy())
        return real(logits, k, temperature, rng)

    monkeypatch.setattr(prior_module, "_sample_top_k", spy)
    rng = np.random.default_rng(8)
    task_idx, obs = rng.integers(0, 2, size=4), rng.normal(size=(4, 1, 4))
    tokens = prior.sample(task_idx, obs, 5, 1.0, [np.random.default_rng(i) for i in range(4)])
    with T.no_grad():
        forced = prior.logits(task_idx, obs, tokens[:, :-1]).data
    # _sample_top_k runs once per (position, row), rows innermost
    sampled = np.stack(drawn).reshape(8, 4, -1).transpose(1, 0, 2)
    assert sampled.dtype == forced.dtype == np.float32
    assert np.array_equal(sampled, forced)


class TestFiniteDifferenceOracle:
    def test_probes_in_float64_and_restores_float32_params_bitwise(self):
        prior = small_prior(fsq_levels=(5, 3), T=16, prior_dim=8, prior_layers=1, obs_dim=3)
        params = prior.params()
        arrays = {name: p.data for name, p in params.items()}
        before = {name: arr.copy() for name, arr in arrays.items()}
        rng = np.random.default_rng(9)
        obs, targets = rng.normal(size=(2, 1, 3)), rng.integers(0, 15, size=(2, 4))
        seen = set()

        def loss():
            seen.update(p.data.dtype for p in params.values())
            return prior.nll(np.array([0, 1]), obs, targets)

        assert grad_check_params(loss, params) < 1e-4
        assert seen == {np.dtype(np.float64)}
        for name, p in params.items():
            assert p.data is arrays[name] and p.data.dtype == np.float32
            np.testing.assert_array_equal(p.data, before[name])
            assert p.grad is None

    def test_restores_params_when_the_check_fails(self):
        w = Tensor(np.ones(3), requires_grad=True)
        original = w.data
        with pytest.raises(NumericalError):
            grad_check_params(lambda: T.total(w * np.inf), {"w": w})
        assert w.data is original and w.data.dtype == np.float32

    def test_grad_check_leaves_its_point_alone(self):
        point = Tensor(np.linspace(-1.0, 1.0, 5))
        before = point.data.copy()
        assert grad_check(lambda t: (t**3.0).sum(), point) < 1e-6
        assert point.data.dtype == np.float32
        np.testing.assert_array_equal(point.data, before)


def test_uninitialised_parameters_are_allocated_float32():
    with np.errstate(all="raise"):  # no float64 garbage cast down
        param = normal_param(None, 0.02, (64, 64))
    assert param.data.dtype == np.float32 and param.requires_grad
