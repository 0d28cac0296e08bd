"""Tensor engine: primitive contracts and gradient oracles."""

import ctypes
import gc
import math
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

from qst import optim
from qst import tensor as T
from qst.config import RunConfig
from qst.errors import ConfigurationError, DimensionError, NumericalError
from qst.gradcheck import grad_check, grad_check_params
from qst.optim import Adam, train_epochs
from qst.tensor import Tensor


def test_sum_of_squares_gradient_is_exact():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 3))
    assert grad_check(lambda t: (t**2).sum(), x) < 1e-6


def test_abs_gradient_away_from_zero():
    rng = np.random.default_rng(1)
    x = rng.normal(size=12)
    x = np.where(np.abs(x) < 0.2, x + 0.5, x)
    assert grad_check(lambda t: t.abs().sum(), x) < 1e-6


@pytest.mark.parametrize(
    "name,fn",
    [
        ("tanh", lambda t: t.tanh().sum()),
        ("relu", lambda t: t.relu().sum()),
        ("gelu", lambda t: t.gelu().sum()),
        ("mean", lambda t: (t * t).mean()),
        ("reshape", lambda t: t.reshape(6, 2).tanh().sum()),
        ("transpose", lambda t: t.transpose(1, 0).tanh().sum()),
        ("power", lambda t: (t**3.0).sum()),
    ],
)
def test_primitive_gradients_at_random_points(name, fn):
    rng = np.random.default_rng(hash(name) % 2**32)
    for trial in range(10):
        x = rng.normal(size=(4, 3))
        if name == "relu":  # keep away from the kink
            x = np.where(np.abs(x) < 0.1, x + 0.3, x)
        err = grad_check(fn, x)
        assert err < 1e-4, f"{name} trial {trial}: {err}"


def _erf_inputs(dtype) -> np.ndarray:
    """About 1e5 seeded values in [-7, 7], then the branch edges 0, 1 and 6
    with their neighbours, subnormals and infinities, each with both signs,
    then NaN."""
    rng = np.random.default_rng(20)
    edges = np.array([0.0, 1.0, 6.0], dtype)
    finfo = np.finfo(dtype)
    values = np.concatenate(
        [
            rng.uniform(-7.0, 7.0, 100_000).astype(dtype),
            edges,
            np.nextafter(edges, dtype(-np.inf)),
            np.nextafter(edges, dtype(np.inf)),
            np.array([finfo.smallest_subnormal, 3 * finfo.smallest_subnormal], dtype),
            np.array([finfo.smallest_normal / 2, np.inf], dtype),
        ]
    )
    return np.concatenate([values, -values, np.array([np.nan], dtype)])


def test_erf_float32_is_the_float64_erf_rounded():
    x = _erf_inputs(np.float32)
    got = T._erf(x)
    assert got.dtype == np.float32
    want = np.array([np.float32(math.erf(float(v))) for v in x])
    np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))


def test_erf_float64_lies_within_two_ulp():
    x = _erf_inputs(np.float64)
    got = T._erf(x)
    assert got.dtype == np.float64
    want = np.array([math.erf(v) for v in x])
    assert np.isnan(got[-1]) and not np.isnan(got[:-1]).any()
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
    ulps = np.abs(got[:-1] - want[:-1]) / np.spacing(np.abs(want[:-1]))
    assert ulps.max() <= 2.0


_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # every scipy import now raises ImportError
import numpy as np
import qst
from qst import tensor as T
from qst.autoencoder import SkillAutoencoder
from qst.config import RunConfig

x = T.Tensor(np.linspace(-3.0, 3.0, 12).reshape(3, 4), requires_grad=True)
T.gelu(x).sum().backward()
assert x.grad.shape == (3, 4)
cfg = RunConfig(T=8, action_dim=2, fsq_levels=(5, 3), encoder_dim=8, encoder_layers=1, encoder_heads=2,
                conv_kernels=(3, 3), conv_strides=(2, 2), decoder_dim=8, decoder_layers=1, decoder_heads=2)
SkillAutoencoder(cfg, np.random.default_rng(0)).encode(np.zeros((2, 8, 2)))
"""


def test_runs_without_scipy():
    """``qst`` needs numpy only: GELU and the encoder that uses it run with
    every SciPy import refused."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr


def test_matmul_gradients_including_batched():
    rng = np.random.default_rng(2)
    w = rng.normal(size=(3, 5))
    for _ in range(10):
        x = rng.normal(size=(2, 4, 3))
        err = grad_check(lambda t: (t @ Tensor(w)).tanh().sum(), x)
        assert err < 1e-4
    # gradient w.r.t. the broadcast right operand
    x_const = rng.normal(size=(2, 4, 3))
    err = grad_check(lambda t: (Tensor(x_const) @ t).tanh().sum(), w)
    assert err < 1e-4


@pytest.mark.parametrize("op", ["add", "mul"])
@pytest.mark.parametrize("small", [(3, 1, 4), (1, 4)], ids=["kept-axis", "kept-and-leading"])
def test_broadcast_gradient_sums_over_size_one_axes(op, small):
    """An operand broadcast along a size-1 axis it keeps gets the gradient
    summed over that axis (and over any leading axes it lacks)."""
    rng = np.random.default_rng(3)
    big = Tensor(rng.normal(size=(3, 5, 4)))
    fn = T.add if op == "add" else T.mul
    x = rng.normal(size=small)
    assert grad_check(lambda t: fn(t, big).tanh().sum(), x) < 1e-4
    assert grad_check(lambda t: fn(big, t).tanh().sum(), x) < 1e-4


def test_matmul_shape_errors():
    a = Tensor(np.zeros((2, 3)))
    with pytest.raises(DimensionError):
        T.matmul(a, Tensor(np.zeros((4, 2))))
    with pytest.raises(DimensionError):
        T.matmul(a, Tensor(np.zeros(3)))


@pytest.mark.parametrize("lead", [(5,), (2, 4)], ids=["2d", "3d"])
def test_linear_gradients_and_bitwise_match(lead):
    rng = np.random.default_rng(24)
    x, w, b = (rng.normal(size=s).astype(np.float32) for s in (lead + (3,), (3, 4), (4,)))
    out = T.linear(Tensor(x), Tensor(w), Tensor(b))
    np.testing.assert_array_equal(out.data, x @ w + b)
    assert out.shape == lead + (4,)
    assert grad_check(lambda t: T.linear(t, Tensor(w), Tensor(b)).tanh().sum(), x) < 1e-4
    assert grad_check(lambda t: T.linear(Tensor(x), t, Tensor(b)).tanh().sum(), w) < 1e-4
    assert grad_check(lambda t: T.linear(Tensor(x), Tensor(w), t).tanh().sum(), b) < 1e-4


def test_linear_shape_errors():
    w, b = Tensor(np.zeros((3, 4))), Tensor(np.zeros(4))
    with pytest.raises(DimensionError):
        T.linear(Tensor(np.zeros(3)), w, b)
    with pytest.raises(DimensionError):
        T.linear(Tensor(np.zeros((2, 5))), w, b)


def test_layer_norm_gradients():
    rng = np.random.default_rng(3)
    g = Tensor(rng.normal(1.0, 0.1, size=5), requires_grad=True)
    b = Tensor(rng.normal(size=5), requires_grad=True)
    x = rng.normal(size=(4, 5))
    assert grad_check(lambda t: T.layer_norm(t, g, b).tanh().sum(), x) < 1e-4


def test_embedding_lookup_and_scatter_gradient():
    rng = np.random.default_rng(4)
    idx = np.array([[0, 2], [2, 1]])
    table = rng.normal(size=(3, 4)).astype(np.float32)
    out = T.embedding(Tensor(table), idx)
    np.testing.assert_array_equal(out.data, table[idx])
    # repeated rows must accumulate gradient
    err = grad_check(lambda t: T.embedding(t, idx).tanh().sum(), table)
    assert err < 1e-4


def test_cross_entropy_matches_analytic_uniform():
    logits = Tensor(np.zeros((7, 10)))
    targets = np.arange(7) % 10
    loss = T.cross_entropy(logits, targets)
    assert abs(loss.item() - np.log(10.0)) < 1e-12


def test_cross_entropy_gradient():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(6, 9))
    targets = rng.integers(0, 9, size=6)
    assert grad_check(lambda t: T.cross_entropy(t, targets), logits) < 1e-4


def test_cross_entropy_target_range():
    from qst.errors import RangeError

    with pytest.raises(RangeError):
        T.cross_entropy(Tensor(np.zeros((2, 5))), np.array([0, 5]))


def test_masked_softmax_rows_sum_to_one():
    rng = np.random.default_rng(6)
    scores = T.cast(Tensor(rng.normal(size=(3, 8, 8))), np.float64)
    mask = np.tril(np.ones((8, 8), dtype=bool))
    probs = T.masked_softmax(scores, mask)
    sums = probs.data.sum(axis=-1)
    assert np.abs(sums - 1.0).max() < 1e-12
    assert (probs.data[:, mask == False] == 0.0).all()  # noqa: E712


def test_masked_softmax_rejects_empty_rows():
    mask = np.ones((2, 2), dtype=bool)
    mask[1] = False
    with pytest.raises(ConfigurationError):
        T.masked_softmax(Tensor(np.zeros((2, 2))), mask)


def test_masked_softmax_gradient():
    rng = np.random.default_rng(7)
    mask = np.tril(np.ones((5, 5), dtype=bool))
    x = rng.normal(size=(5, 5))
    assert grad_check(lambda t: (T.masked_softmax(t, mask) ** 2.0).sum(), x) < 1e-4


class TestMaskedAttention:
    def test_uniform_scores_average_values(self):
        rng = np.random.default_rng(8)
        v = rng.normal(size=(4, 3))
        q = Tensor(np.zeros((2, 3)))
        k = Tensor(np.zeros((4, 3)))
        out = T.masked_attention(q, k, Tensor(v))
        np.testing.assert_allclose(out.data, np.tile(v.mean(axis=0), (2, 1)), atol=1e-12)

    def test_causal_mask_blocks_future_values(self):
        rng = np.random.default_rng(9)
        q = rng.normal(size=(6, 4))
        k = rng.normal(size=(6, 4))
        v = rng.normal(size=(6, 4))
        mask = np.tril(np.ones((6, 6), dtype=bool))
        base = T.masked_attention(Tensor(q), Tensor(k), Tensor(v), mask).data
        v2 = v.copy()
        v2[4] += 10.0
        bumped = T.masked_attention(Tensor(q), Tensor(k), Tensor(v2), mask).data
        np.testing.assert_array_equal(base[:4], bumped[:4])
        assert not np.array_equal(base[4:], bumped[4:])

    def test_single_key_value_returns_value(self):
        rng = np.random.default_rng(10)
        v = rng.normal(size=(1, 5))
        q = rng.normal(size=(3, 5))
        out = T.masked_attention(Tensor(q), Tensor(rng.normal(size=(1, 5))), Tensor(v))
        np.testing.assert_allclose(out.data, np.tile(v, (3, 1)), atol=1e-12)

    def test_gradients(self):
        """Along queries, keys and values, at evaluation and with a dropout
        mask fixed by a generator made per call."""
        rng = np.random.default_rng(11)
        points = [rng.normal(size=(4, 3)) for _ in range(3)]
        mask = np.tril(np.ones((4, 4), dtype=bool))
        for along in range(3):
            for training in (False, True):

                def loss(t):
                    args = [T.cast(Tensor(point), np.float64) for point in points]
                    args[along] = t
                    dropout_rng = np.random.default_rng(3)
                    return T.masked_attention(*args, mask, 0.25, dropout_rng, training).tanh().sum()

                assert grad_check(loss, points[along]) < 1e-4, (along, training)

    def test_node_keeps_float32_inputs_probabilities_and_boolean_mask(self):
        rng = np.random.default_rng(15)
        q, k, v = (Tensor(rng.normal(size=(2, 3, 5, 4)), requires_grad=True) for _ in range(3))
        mask = np.tril(np.ones((5, 5), dtype=bool))
        out = T.masked_attention(q, k, v, mask, 0.5, np.random.default_rng(0), True)
        backward, parents = out._node
        assert [parent is t for parent, t in zip(parents, (q, k, v))] == [True] * 3  # one node
        kept = [
            cell.cell_contents
            for cell in backward.__closure__
            if isinstance(cell.cell_contents, np.ndarray)
        ]
        shaped_like_inputs = [a for a in kept if a.shape == q.shape]
        assert len(shaped_like_inputs) == 3
        assert all(a.dtype == np.float32 for a in shaped_like_inputs)
        assert sorted(str(a.dtype) for a in kept if a.shape == (2, 3, 5, 5)) == ["bool", "float64"]


class TestCausalConv1d:
    def test_output_lengths_through_default_stack(self):
        rng = np.random.default_rng(12)
        lengths = []
        x = Tensor(rng.normal(size=(32, 2)))
        for ksize, stride, c_in in [(5, 2, 2), (3, 2, 8), (3, 1, 8)]:
            kernel = Tensor(rng.normal(size=(ksize, c_in, 8)))
            x = T.causal_conv1d(x, kernel, stride)
            lengths.append(x.shape[0])
        assert lengths == [16, 8, 8]

    def test_identity_kernel_stride_two_samples_even_indices(self):
        x = np.arange(12, dtype=np.float64).reshape(6, 2)
        kernel = np.eye(2)[None]  # K=1 identity channel map
        out = T.causal_conv1d(Tensor(x), Tensor(kernel), 2)
        np.testing.assert_array_equal(out.data, x[[0, 2, 4]])

    def test_zero_input_gives_zero_output(self):
        rng = np.random.default_rng(13)
        kernel = Tensor(rng.normal(size=(3, 4, 5)))
        out = T.causal_conv1d(Tensor(np.zeros((10, 4))), kernel, 2)
        assert (out.data == 0.0).all()

    def test_future_perturbation_leaves_output_unchanged(self):
        rng = np.random.default_rng(14)
        kernel = Tensor(rng.normal(size=(3, 2, 4)))
        x = rng.normal(size=(16, 2))
        stride = 2
        base = T.causal_conv1d(Tensor(x), kernel, stride).data
        for t in range(16):
            x2 = x.copy()
            x2[t] += 1.0
            bumped = T.causal_conv1d(Tensor(x2), kernel, stride).data
            for j in range(base.shape[0]):
                if t > j * stride:
                    np.testing.assert_array_equal(base[j], bumped[j])

    def test_channel_mismatch_raises(self):
        with pytest.raises(DimensionError):
            T.causal_conv1d(Tensor(np.zeros((8, 3))), Tensor(np.zeros((3, 2, 4))), 1)

    def test_gradients_for_input_and_kernel(self):
        rng = np.random.default_rng(15)
        kernel = rng.normal(size=(3, 2, 3))
        x = rng.normal(size=(2, 7, 2))
        err = grad_check(
            lambda t: T.causal_conv1d(t, Tensor(kernel), 2).tanh().sum(), x
        )
        assert err < 1e-4
        x_const = Tensor(rng.normal(size=(7, 2)))
        err = grad_check(
            lambda t: T.causal_conv1d(x_const, t, 2).tanh().sum(), kernel
        )
        assert err < 1e-4


def test_backward_accumulates_and_doubles_exactly():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    y = (x * x).sum()
    y.backward()
    first = x.grad.copy()
    y.backward()
    np.testing.assert_array_equal(x.grad, 2.0 * first)


def test_graph_keeps_only_arrays_backward_reads():
    rng = np.random.default_rng(25)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    w1 = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    w2 = Tensor(rng.normal(size=(6, 1)), requires_grad=True)
    zero = Tensor(np.zeros(6))
    hidden = T.linear(x, w1, zero)  # relu's backward reads its output, not this
    loss = T.linear(T.relu(hidden), w2, Tensor(np.zeros(1))).sum()
    dropped = weakref.ref(hidden.data)
    del hidden
    gc.collect()
    assert dropped() is None
    loss.backward()  # the graph itself is still alive
    first = (x.grad.copy(), w1.grad.copy(), w2.grad.copy())
    loss.backward()
    for param, grad in zip((x, w1, w2), first):
        np.testing.assert_array_equal(param.grad, 2.0 * grad)


def test_narrow_and_concat_roundtrip_gradients():
    rng = np.random.default_rng(16)
    x = rng.normal(size=(3, 6))

    def fn(t):
        left = T.narrow(t, 1, 0, 2)
        right = T.narrow(t, 1, 2, 4)
        return T.concat([right, left], axis=1).tanh().sum()

    assert grad_check(fn, x) < 1e-4


def test_dropout_disabled_at_eval_and_seeded_in_training():
    rng = np.random.default_rng(17)
    x = Tensor(np.ones((4, 4)))
    assert T.dropout(x, 0.5, None, training=False) is x
    a = T.dropout(x, 0.5, np.random.default_rng(3), training=True).data
    b = T.dropout(x, 0.5, np.random.default_rng(3), training=True).data
    np.testing.assert_array_equal(a, b)
    assert (a == 0.0).any() and (a == 2.0).any()
    del rng


def test_no_grad_suppresses_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    with T.no_grad():
        y = (x * x).sum()
    assert not y.requires_grad
    y.backward()  # silently a no-op
    assert x.grad is None


def _leaf(*shape):
    return Tensor(np.ones(shape), requires_grad=True)


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: (_leaf(3) * 2.0).backward(np.ones(2)), DimensionError, "seed shape"),
        (lambda: (_leaf(3) * 2.0).backward(), DimensionError, "without a seed"),
        (lambda: T.embedding(_leaf(4, 2), np.array([0.0, 1.0])), DimensionError, "integers"),
        (lambda: T.cross_entropy(_leaf(3, 5), np.zeros(2, int)), DimensionError, "targets shape"),
        (lambda: T.dropout(_leaf(3), 0.5, None, True), ConfigurationError, "generator"),
        (lambda: T.causal_conv1d(_leaf(8, 2), _leaf(2, 4), 1), DimensionError, "kernel must be"),
        (lambda: T.causal_conv1d(_leaf(1, 1, 8, 2), _leaf(3, 2, 4), 1), DimensionError, "input must be"),
        (lambda: T.causal_conv1d(_leaf(8, 2), _leaf(3, 2, 4), 0), DimensionError, "stride"),
        (lambda: T.masked_attention(_leaf(2, 4), _leaf(2, 3), _leaf(2, 3), None), DimensionError, "feature"),
        (lambda: T.masked_attention(_leaf(2, 4), _leaf(2, 4), _leaf(3, 4), None), DimensionError, "sequence"),
        (lambda: grad_check_params(lambda: _leaf(3) * 2.0, {}), NumericalError, "scalar-valued"),
        (lambda: grad_check_params(lambda: (_leaf(3) * np.inf).sum(), {}), NumericalError, "not finite"),
    ],
    ids=[
        "seed-shape", "no-seed-on-non-scalar", "float-embedding-indices", "cross-entropy-targets",
        "dropout-without-generator", "conv-kernel-rank", "conv-input-rank", "conv-stride",
        "attention-features", "attention-lengths", "grad-check-non-scalar", "grad-check-non-finite",
    ],
)
def test_refusals(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_sinusoidal_table_shape_and_range():
    table = T.sinusoidal_table(32, 256)
    assert table.shape == (32, 256)
    assert np.abs(table).max() <= 1.0
    assert not np.array_equal(table[0], table[1])


class TestAdam:
    def _params(self, rng):
        return {"w": Tensor(rng.normal(size=(3, 2)), requires_grad=True)}

    def test_zero_gradient_fresh_state_leaves_params(self):
        params = self._params(np.random.default_rng(18))
        before = params["w"].data.copy()
        opt = Adam(params, lr=0.1)
        params["w"].grad = np.zeros_like(before)
        opt.step()
        np.testing.assert_array_equal(params["w"].data, before)

    def test_constant_gradient_moves_against_sign(self):
        params = self._params(np.random.default_rng(19))
        before = params["w"].data.copy()
        g = np.sign(np.random.default_rng(20).normal(size=before.shape)) + 0.5
        opt = Adam(params, lr=0.01)
        for _ in range(50):
            params["w"].grad = g.copy()
            opt.step()
        assert (np.sign(params["w"].data - before) == -np.sign(g)).all()

    def test_identical_seeds_produce_identical_params(self):
        def run():
            rng = np.random.default_rng(21)
            params = {"w": Tensor(rng.normal(size=4), requires_grad=True)}
            opt = Adam(params, lr=0.05)
            for _ in range(25):
                opt.zero_grad()
                loss = ((params["w"] - 3.0) ** 2.0).sum()
                loss.backward()
                opt.step()
            return params["w"].data

        a, b = run(), run()
        np.testing.assert_array_equal(a, b)

    def test_non_finite_gradient_aborts_with_name(self):
        params = self._params(np.random.default_rng(22))
        before = params["w"].data.copy()
        opt = Adam(params)
        params["w"].grad = np.full_like(before, np.nan)
        with pytest.raises(NumericalError, match="w"):
            opt.step()
        np.testing.assert_array_equal(params["w"].data, before)
        assert np.isnan(params["w"].grad).all()

    def test_step_updates_in_place_and_releases_applied_gradients(self):
        rng = np.random.default_rng(26)
        params = {
            "a": Tensor(rng.normal(size=(3, 2)), requires_grad=True),
            "b": Tensor(rng.normal(size=4), requires_grad=True),
            "unused": Tensor(rng.normal(size=2), requires_grad=True),
        }
        arrays = {name: p.data for name, p in params.items()}
        before = {name: arr.copy() for name, arr in arrays.items()}
        opt = Adam(params, lr=0.1)
        ((params["a"] * 2.0).sum() + (params["b"] ** 2.0).sum()).backward()
        opt.step()
        assert all(p.grad is None for p in params.values())
        for name, p in params.items():
            assert p.data is arrays[name]
        assert not np.array_equal(params["a"].data, before["a"])
        np.testing.assert_array_equal(params["unused"].data, before["unused"])

    def test_step_counter_increments(self):
        params = self._params(np.random.default_rng(23))
        opt = Adam(params)
        params["w"].grad = np.ones_like(params["w"].data)
        opt.step()
        opt.step()
        assert opt.step_count == 2

    @staticmethod
    def _mixed_params(rng):
        """Two large parameters, one of them a transposed (non-contiguous)
        view, a small one, and one that never receives a gradient."""
        return {
            "big": Tensor(rng.normal(size=70_000), requires_grad=True),
            "wide": Tensor(rng.normal(size=(3, 20_000)), requires_grad=True),
            "tall": Tensor(rng.normal(size=(5, 300)).T, requires_grad=True),
            "small": Tensor(rng.normal(size=(2, 3)), requires_grad=True),
            "unused": Tensor(rng.normal(size=5), requires_grad=True),
        }

    def test_step_is_bitwise_the_float32_reference_recurrence(self):
        lr, beta1, beta2, eps = 1e-3, optim.BETA1, optim.BETA2, optim.EPS
        rng = np.random.default_rng(27)
        params = self._mixed_params(rng)
        assert not params["tall"].data.flags.c_contiguous
        ref = {name: p.data.copy() for name, p in params.items()}
        m = {name: np.zeros(arr.shape, np.float32) for name, arr in ref.items()}
        v = {name: np.zeros(arr.shape, np.float32) for name, arr in ref.items()}
        opt = Adam(params, lr=lr)
        for t in range(1, 5):
            grads = {
                name: rng.normal(size=p.shape).astype(np.float32)
                for name, p in params.items()
                if name != "unused"
            }
            for name, g in grads.items():
                params[name].grad = g.copy()
            opt.step()
            # Kingma & Ba's recurrence with float32 moments of the float32
            # gradient, written out operation by operation
            c1, c2 = 1.0 - beta1**t, 1.0 - beta2**t
            for name, g in grads.items():
                m[name] = beta1 * m[name] + (1.0 - beta1) * g
                v[name] = beta2 * v[name] + (1.0 - beta2) * (g * g)
                denom = np.sqrt(v[name] / c2) + eps
                ref[name] = ref[name] - (m[name] / denom) * (lr / c1)
            for name, p in params.items():
                assert p.data.dtype == opt.m[name].dtype == opt.v[name].dtype == np.float32
                np.testing.assert_array_equal(p.data, ref[name])
                np.testing.assert_array_equal(opt.m[name], m[name])
                np.testing.assert_array_equal(opt.v[name], v[name])
        assert all(p.grad is None for p in params.values())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_last_element_aborts_before_any_update(self, bad):
        rng = np.random.default_rng(28)
        params = self._mixed_params(rng)
        opt = Adam(params, lr=0.1)
        for p in params.values():  # one clean step so the moments are not all zero
            p.grad = rng.normal(size=p.shape)
        opt.step()
        for name in ("big", "wide", "tall", "small"):
            params[name].grad = rng.normal(size=params[name].shape)
        params["wide"].grad[-1, -1] = bad
        data = {name: p.data.copy() for name, p in params.items()}
        m = {name: arr.copy() for name, arr in opt.m.items()}
        v = {name: arr.copy() for name, arr in opt.v.items()}
        grads = {name: p.grad.copy() for name, p in params.items() if p.grad is not None}
        with pytest.raises(NumericalError, match="'wide'"):
            opt.step()
        assert opt.step_count == 1
        for name, p in params.items():
            np.testing.assert_array_equal(p.data, data[name])
            np.testing.assert_array_equal(opt.m[name], m[name])
            np.testing.assert_array_equal(opt.v[name], v[name])
            if name in grads:
                np.testing.assert_array_equal(p.grad, grads[name])


# One warm-up stage-II step of a small prior, then two more: the minor page
# faults of the last two.  Its activations, weights and gradients (128 KB to
# 1.3 MB) all lie above glibc's default 128 KB mmap threshold.
_STEP_FAULTS = """
import resource
import numpy as np
from qst.config import RunConfig
from qst.optim import Adam
from qst.prior import PriorConfig, SkillPrior

rng = np.random.default_rng(0)
cfg = RunConfig(fsq_levels=(5, 5, 5, 4), prior_dim=128, prior_layers=2, prior_heads=4)  # vocab 500
prior = SkillPrior(PriorConfig.from_run_config(cfg), ["a", "b"], rng)
opt = Adam(prior.params(), lr=1e-4)
task, obs, targets = rng.integers(0, 2, 32), rng.normal(size=(32, 1, 4)), rng.integers(0, 500, (32, 8))

def step():
    opt.zero_grad()
    prior.nll(task, obs, targets, rng=rng, training=True).backward()
    opt.step()

step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
step()
step()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(
    not hasattr(ctypes.CDLL(None) if os.name == "posix" else None, "mallopt"),
    reason="the C library has no mallopt",
)
def test_training_steps_reuse_freed_heap():
    """A step rebuilds a graph as large as the one the previous step freed;
    the heap that graph lived in stays in the process, so after one warm-up
    step the next steps fault no pages in."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", _STEP_FAULTS], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) < 50


class TestTrainEpochs:
    def test_caps_epochs_steps_once_per_batch_and_logs_weighted_mean(self, monkeypatch):
        steps = []
        step = optim.Adam.step
        monkeypatch.setattr(optim.Adam, "step", lambda opt: steps.append(1) or step(opt))
        w = Tensor(np.zeros(2), requires_grad=True)
        rng = np.random.default_rng(31)
        batches = []

        def batch_loss(idx):
            batches.append(idx.copy())
            rng.random()  # stands in for dropout draws on the shared generator
            return (w * 0.0).sum() + float(idx.mean())

        class Rows:
            rows = []

            def log(self, **row):
                self.rows.append(row)

        metrics = Rows()
        cfg = RunConfig(batch_size=3, learning_rate=0.1)
        row = lambda epoch, loss: {"epoch": epoch, "loss": loss}
        train_epochs({"w": w}, cfg, 2, rng, 10, batch_loss, metrics, row, cap=7)

        replay = np.random.default_rng(31)
        for epoch in range(2):
            order = replay.permutation(10)[:7]
            expected = [order[0:3], order[3:6], order[6:7]]
            got = batches[3 * epoch : 3 * epoch + 3]
            for a, b in zip(got, expected):
                np.testing.assert_array_equal(a, b)
                replay.random()
            assert metrics.rows[epoch]["epoch"] == epoch
            assert metrics.rows[epoch]["loss"] == pytest.approx(order.mean(), abs=1e-12)
        assert len(batches) == 6 and len(steps) == 6 and len(metrics.rows) == 2
        assert rng.random() == replay.random()

    def test_no_writer_builds_no_row(self):
        w = Tensor(np.zeros(2), requires_grad=True)

        def row(epoch, loss):
            raise AssertionError("row built without a metrics writer")

        rng = np.random.default_rng(0)
        loss = lambda idx: (w * 1.0).sum()
        train_epochs({"w": w}, RunConfig(batch_size=4), 1, rng, 5, loss, None, row)
