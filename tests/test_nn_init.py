"""Weight initialisers: fan computation and distribution statistics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.nn import init


class TestFans:
    def test_linear_fans(self):
        assert init.calculate_fans((8, 4)) == (4, 8)

    def test_conv_fans_include_kernel_area(self):
        assert init.calculate_fans((16, 3, 5, 5)) == (3 * 25, 16 * 25)

    def test_one_dim_raises(self):
        with pytest.raises(ValueError):
            init.calculate_fans((7,))


class TestDistributions:
    def test_kaiming_uniform_bound(self, rng):
        shape = (64, 128)
        w = init.kaiming_uniform(shape, rng)
        bound = math.sqrt(2.0) * math.sqrt(3.0 / 128)
        assert np.abs(w).max() <= bound + 1e-7
        assert np.abs(w).max() > bound * 0.9  # actually fills the range

    def test_dtype_default_float32(self, rng):
        assert init.kaiming_uniform((4, 4), rng).dtype == np.float32

    def test_dtype_override(self, rng):
        assert init.kaiming_uniform((4, 4), rng, dtype=np.float64).dtype == np.float64

    def test_deterministic_given_rng(self):
        a = init.kaiming_uniform((5, 5), np.random.default_rng(3))
        b = init.kaiming_uniform((5, 5), np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_mean_near_zero(self, rng):
        w = init.kaiming_uniform((500, 500), rng)
        assert abs(w.mean()) < 1e-3
