"""Quantizer: bounding, straight-through rounding, and the code bijection."""

import numpy as np
import pytest

from qst import fsq
from qst.errors import ArgumentError, ConfigurationError, RangeError
from qst.gradcheck import grad_check
from qst.tensor import Tensor

SPEC = fsq.FsqSpec((8, 5, 5, 5))


class TestBound:
    def test_odd_level_is_symmetric_at_zero(self):
        spec = fsq.FsqSpec((5,))
        out = fsq.bound(Tensor(np.zeros((1, 1))), spec)
        assert abs(out.data[0, 0]) < 1e-12

    def test_even_level_shift_cancels_offset_at_zero(self):
        # tanh(shift) * 3.5 == 0.5, so the offset cancels exactly
        spec = fsq.FsqSpec((8,))
        out = fsq.bound(Tensor(np.zeros((1, 1))), spec)
        assert abs(out.data[0, 0]) < 1e-12

    def test_saturation_limits_for_level_five(self):
        spec = fsq.FsqSpec((5,))
        hi = fsq.bound(Tensor(np.full((1, 1), 40.0)), spec).data[0, 0]
        lo = fsq.bound(Tensor(np.full((1, 1), -40.0)), spec).data[0, 0]
        assert abs(hi - 2.0) < 1e-9 and abs(lo + 2.0) < 1e-9

    def test_each_dimension_realizes_exactly_its_level_count(self):
        sweep = np.linspace(-10.0, 10.0, 20001)
        e = Tensor(np.stack([sweep] * SPEC.dim, axis=-1))
        digits, _ = fsq.quantize(e, SPEC)
        for i, levels in enumerate(SPEC.levels):
            assert len(np.unique(digits[:, i])) == levels

    def test_level_two_rejected(self):
        with pytest.raises(ConfigurationError):
            fsq.FsqSpec((2, 5))


class TestQuantize:
    def test_zero_vector_maps_to_center_digits(self):
        digits, _ = fsq.quantize(Tensor(np.zeros((1, 4))), SPEC)
        assert digits.tolist() == [[4, 2, 2, 2]]

    def test_straight_through_backward_equals_bound_backward(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            e = rng.normal(size=(3, 4))
            x1 = Tensor(e.copy(), requires_grad=True)
            _, ste = fsq.quantize(x1, SPEC)
            (ste * ste).sum().backward()
            x2 = Tensor(e.copy(), requires_grad=True)
            b = fsq.bound(x2, SPEC)
            # seed with the same upstream gradient 2*round(bound) at b
            b.backward(2.0 * np.round(fsq.bound(Tensor(e), SPEC).data))
            np.testing.assert_array_equal(x1.grad, x2.grad)

    def test_digits_are_stable_under_requantization_of_grid_values(self):
        rng = np.random.default_rng(1)
        digits, ste = fsq.quantize(Tensor(rng.normal(size=(10, 4))), SPEC)
        regrid = np.rint(ste.data - SPEC.grid_min).astype(np.int64)
        np.testing.assert_array_equal(regrid, digits)

    def test_grid_values_roundtrip_through_digits(self):
        rng = np.random.default_rng(2)
        digits, ste = fsq.quantize(Tensor(rng.normal(size=(10, 4))), SPEC)
        np.testing.assert_array_equal(fsq.digits_to_grid(digits, SPEC), ste.data)


class TestIndexBijection:
    @staticmethod
    def _assert_pair(digits, index):
        assert fsq.code_to_index(np.array(digits), SPEC) == index
        assert fsq.index_to_code(index, SPEC).tolist() == list(digits)

    def test_zero_digits_map_to_index_zero(self):
        self._assert_pair((0, 0, 0, 0), 0)

    def test_max_digits_map_to_last_index(self):
        self._assert_pair((7, 4, 4, 4), 999)

    def test_leading_digit_weight(self):
        self._assert_pair((1, 0, 0, 0), 125)

    def test_roundtrip_over_entire_codebook(self):
        all_indices = np.arange(SPEC.codebook_size)
        digits = fsq.index_to_code(all_indices, SPEC)
        back = fsq.code_to_index(digits, SPEC)
        np.testing.assert_array_equal(back, all_indices)
        assert len(np.unique(digits, axis=0)) == SPEC.codebook_size

    def test_out_of_range_rejected(self):
        with pytest.raises(RangeError):
            fsq.index_to_code(1000, SPEC)
        with pytest.raises(RangeError):
            fsq.code_to_index(np.array([8, 0, 0, 0]), SPEC)
        with pytest.raises(RangeError):
            fsq.code_to_index(np.array([-1, 0, 0, 0]), SPEC)


class TestUtilization:
    def test_full_coverage_is_one(self):
        assert fsq.utilization(np.arange(1000), SPEC) == 1.0

    def test_single_repeated_code(self):
        assert fsq.utilization(np.full(50, 123), SPEC) == 0.001

    def test_empty_stream_rejected(self):
        with pytest.raises(ArgumentError):
            fsq.utilization(np.array([], dtype=int), SPEC)

    def test_counts_distinct_indices_across_rows(self):
        assert fsq.utilization(np.array([[1, 1], [2, 1]]), SPEC) == 0.002

    def test_non_integer_indices_rejected(self):
        with pytest.raises(ArgumentError):
            fsq.utilization(np.array([1.0, 2.0]), SPEC)


class TestFsqLayer:
    def test_projection_shapes(self):
        rng = np.random.default_rng(3)
        layer = fsq.FsqLayer(rng, SPEC, in_dim=16, out_dim=12)
        digits, bounded, ste = layer.quantize(Tensor(rng.normal(size=(5, 16))))
        assert digits.shape == bounded.shape == ste.shape == (5, 4)
        assert layer.out_proj(ste).shape == (5, 12)

    def test_gradient_flows_through_straight_through_path(self):
        # rounding replaced by identity: exactly the function STE differentiates
        rng = np.random.default_rng(4)
        layer = fsq.FsqLayer(rng, SPEC, in_dim=6, out_dim=6)
        x = rng.normal(size=(3, 6))
        err = grad_check(lambda t: (layer.out_proj(layer.quantize(t)[1]) ** 2.0).mean(), x)
        assert err < 1e-4

    def test_codes_to_features_matches_ste_features(self):
        rng = np.random.default_rng(5)
        layer = fsq.FsqLayer(rng, SPEC, in_dim=6, out_dim=6)
        digits, _, ste = layer.quantize(Tensor(rng.normal(size=(4, 6))))
        np.testing.assert_allclose(
            layer.codes_to_features(digits).data,
            layer.out_proj(ste).data,
            atol=1e-12,
        )
