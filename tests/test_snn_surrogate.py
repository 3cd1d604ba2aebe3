"""Surrogate gradients, and the reference spike function built on them."""

from __future__ import annotations

import numpy as np
import pytest

from repro.snn import available_surrogates, surrogate_derivative
from repro.tensor import Tensor
from tests.reference_ops import spike_function


class TestSurrogateDerivatives:
    @pytest.mark.parametrize("family", available_surrogates())
    def test_peak_at_threshold(self, family):
        x = np.linspace(-1.0, 1.0, 201)
        h = surrogate_derivative(x, method=family, alpha=10.0)
        assert h[100] == h.max()  # x = 0 is the threshold crossing

    @pytest.mark.parametrize("family", available_surrogates())
    def test_symmetry(self, family):
        # alpha chosen so no grid point lands exactly on a compact-support
        # edge (where float sign asymmetry would flip the indicator).
        x = np.linspace(-1.0, 1.0, 201)
        h = surrogate_derivative(x, method=family, alpha=7.0)
        np.testing.assert_allclose(h, h[::-1], rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("family", available_surrogates())
    def test_non_negative(self, family):
        x = np.linspace(-5.0, 5.0, 101)
        assert np.all(surrogate_derivative(x, method=family, alpha=5.0) >= 0.0)

    def test_superspike_formula(self):
        x = np.array([0.0, 0.1, -0.1])
        h = surrogate_derivative(x, method="superspike", alpha=10.0)
        np.testing.assert_allclose(h, 1.0 / (1.0 + 10.0 * np.abs(x)) ** 2, rtol=1e-6)

    def test_triangle_compact_support(self):
        h = surrogate_derivative(np.array([0.2]), method="triangle", alpha=10.0)
        assert h[0] == 0.0  # outside support 1/alpha = 0.1

    def test_straight_box_width(self):
        x = np.array([0.0, 0.04, 0.06])
        h = surrogate_derivative(x, method="straight", alpha=10.0)
        np.testing.assert_array_equal(h, [1.0, 1.0, 0.0])

    def test_larger_alpha_is_sharper(self):
        x = np.array([0.5])
        soft = surrogate_derivative(x, method="superspike", alpha=1.0)
        sharp = surrogate_derivative(x, method="superspike", alpha=100.0)
        assert sharp[0] < soft[0]

    def test_unknown_family_raises(self):
        with pytest.raises(ValueError, match="unknown surrogate"):
            surrogate_derivative(np.zeros(1), method="bogus")

    def test_nonpositive_alpha_raises(self):
        with pytest.raises(ValueError):
            surrogate_derivative(np.zeros(1), alpha=0.0)

    def test_sigmoid_extreme_input_no_overflow(self):
        h = surrogate_derivative(np.array([1000.0, -1000.0]), method="sigmoid", alpha=10.0)
        assert np.all(np.isfinite(h))


class TestSpikeFunction:
    def test_forward_is_heaviside(self):
        v = Tensor([-0.5, 0.0, 0.5])
        z = spike_function(v)
        np.testing.assert_array_equal(z.data, [0.0, 0.0, 1.0])

    def test_forward_is_binary(self, rng):
        v = Tensor(rng.standard_normal(100))
        z = spike_function(v)
        assert set(np.unique(z.data)).issubset({0.0, 1.0})

    def test_backward_uses_surrogate(self):
        v = Tensor(np.array([0.0, 0.2, -0.2]), requires_grad=True, dtype=np.float64)
        z = spike_function(v, method="superspike", alpha=10.0)
        z.backward(np.ones(3))
        expected = surrogate_derivative(v.data, "superspike", 10.0)
        np.testing.assert_allclose(v.grad, expected, rtol=1e-6)

    def test_backward_respects_upstream_gradient(self):
        v = Tensor(np.array([0.1]), requires_grad=True, dtype=np.float64)
        z = spike_function(v, alpha=10.0)
        (z * 5.0).sum().backward()
        expected = 5.0 * surrogate_derivative(v.data, "superspike", 10.0)
        np.testing.assert_allclose(v.grad, expected, rtol=1e-6)

    def test_gradient_nonzero_below_threshold(self):
        # the whole point of surrogates: sub-threshold neurons stay learnable
        v = Tensor(np.array([-0.3]), requires_grad=True, dtype=np.float64)
        spike_function(v, method="superspike", alpha=10.0).backward(np.ones(1))
        assert v.grad[0] > 0.0

    def test_dtype_preserved(self):
        v = Tensor(np.zeros(3, dtype=np.float32))
        assert spike_function(v).dtype == np.float32
