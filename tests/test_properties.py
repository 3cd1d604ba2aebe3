"""Hypothesis property-based tests on core invariants.

These complement the example-based suites with randomized coverage of the
laws the system relies on: attack projections, broadcasting gradients,
LIF dynamics monotonicity, encoder statistics and dataset determinism.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.attacks.base import Attack
from repro.snn import LIFCell, LIFParameters, surrogate_derivative
from repro.tensor import Tensor
from repro.tensor.tensor import _unbroadcast
from tests.reference_ops import spike_function

# Keep hypothesis fast and deterministic for CI-style runs.
FAST = settings(max_examples=30, deadline=None)


class _NullAttack(Attack):
    """Attack returning an arbitrary candidate; used to test projection."""

    def __init__(self, epsilon, candidate, **kwargs):
        super().__init__(epsilon, **kwargs)
        self._candidate = candidate

    def _perturb(self, model, images, labels, clean_gradient):
        return self._candidate


small_images = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(2, 5), st.integers(2, 5)),
    elements=st.floats(0.0, 1.0, allow_nan=False),
)


class TestProjectionProperties:
    @FAST
    @given(
        reference=small_images,
        epsilon=st.floats(0.01, 2.0),
        noise_scale=st.floats(0.0, 5.0),
        seed=st.integers(0, 2**16),
    )
    def test_projection_always_inside_ball_and_box(
        self, reference, epsilon, noise_scale, seed
    ):
        rng = np.random.default_rng(seed)
        candidate = reference + rng.normal(0, noise_scale, size=reference.shape)
        attack = _NullAttack(epsilon, candidate)
        labels = np.zeros(len(reference), dtype=np.int64)
        projected = attack.generate(None, reference, labels)
        assert np.abs(projected - reference).max() <= epsilon + 1e-9
        assert projected.min() >= 0.0 - 1e-9
        assert projected.max() <= 1.0 + 1e-9

    @FAST
    @given(reference=small_images, epsilon=st.floats(0.01, 1.0))
    def test_projection_is_idempotent(self, reference, epsilon):
        attack = _NullAttack(epsilon, reference)
        once = attack.project(reference, reference + epsilon * 3)
        twice = attack.project(reference, once)
        np.testing.assert_array_equal(once, twice)

    @FAST
    @given(reference=small_images)
    def test_point_inside_ball_unchanged(self, reference):
        attack = _NullAttack(0.5, reference)
        inside = np.clip(reference + 0.1, 0.0, 1.0)
        projected = attack.project(reference, inside)
        # anything within both the ball and the box stays put
        mask = np.abs(inside - reference) <= 0.5
        np.testing.assert_allclose(projected[mask], inside[mask])


class TestUnbroadcastProperties:
    @FAST
    @given(
        rows=st.integers(1, 5),
        cols=st.integers(1, 5),
        seed=st.integers(0, 2**16),
    )
    def test_unbroadcast_inverts_row_broadcast(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        grad = rng.normal(size=(rows, cols))
        reduced = _unbroadcast(grad, (cols,))
        np.testing.assert_allclose(reduced, grad.sum(axis=0))

    @FAST
    @given(
        shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        seed=st.integers(0, 2**16),
    )
    def test_unbroadcast_identity_on_same_shape(self, shape, seed):
        rng = np.random.default_rng(seed)
        grad = rng.normal(size=shape)
        np.testing.assert_array_equal(_unbroadcast(grad, shape), grad)

    @FAST
    @given(
        n=st.integers(1, 4),
        m=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    def test_gradient_of_broadcast_sum_is_count(self, n, m, seed):
        # d/dx sum(x + y) where x: (m,), y: (n, m) => each x_i counted n times
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=m), requires_grad=True, dtype=np.float64)
        y = Tensor(rng.normal(size=(n, m)), dtype=np.float64)
        (x + y).sum().backward()
        np.testing.assert_allclose(x.grad, np.full(m, float(n)))


class TestLIFProperties:
    @FAST
    @given(
        current=st.floats(0.0, 5.0),
        v_th=st.floats(0.3, 3.0),
        steps=st.integers(10, 60),
    )
    def test_spikes_binary_and_membrane_below_threshold_after_reset(
        self, current, v_th, steps
    ):
        cell = LIFCell(LIFParameters(v_th=v_th))
        x = np.array([current])
        state = None
        for _ in range(steps):
            z, state = cell.step_numpy(x, state)
            assert float(z[0]) in (0.0, 1.0)
            if z[0] == 1.0:
                # hard reset puts the membrane at v_reset
                assert state[1][0] == pytest.approx(0.0)

    @FAST
    @given(current=st.floats(0.0, 3.0), steps=st.integers(5, 50))
    def test_rate_monotone_in_threshold(self, current, steps):
        def rate(v_th):
            cell = LIFCell(LIFParameters(v_th=v_th))
            x = np.array([current])
            state, total = None, 0.0
            for _ in range(steps):
                z, state = cell.step_numpy(x, state)
                total += float(z.sum())
            return total

        assert rate(0.5) >= rate(1.5)

    @FAST
    @given(
        scale=st.floats(1.0, 50.0),
        x=st.floats(-2.0, 2.0),
    )
    def test_surrogate_matches_spike_backward(self, scale, x):
        v = Tensor(np.array([x]), requires_grad=True, dtype=np.float64)
        z = spike_function(v, method="superspike", alpha=scale)
        z.backward(np.ones(1))
        expected = surrogate_derivative(np.array([x]), "superspike", scale)
        np.testing.assert_allclose(v.grad, expected, rtol=1e-9)


class TestReductionProperties:
    @FAST
    @given(
        data=hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 5), st.integers(1, 5)),
            elements=st.floats(-10, 10, allow_nan=False),
        )
    )
    def test_sum_gradient_is_ones(self, data):
        x = Tensor(data, requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones_like(data))

    @FAST
    @given(
        data=hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(2, 5), st.integers(2, 5)),
            elements=st.floats(-10, 10, allow_nan=False),
        )
    )
    def test_max_gradient_sums_to_one_per_reduced_slice(self, data):
        x = Tensor(data, requires_grad=True)
        out = x.max(axis=1)
        out.backward(np.ones_like(out.data))
        np.testing.assert_allclose(x.grad.sum(axis=1), np.ones(data.shape[0]))

    @FAST
    @given(
        data=hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 4), st.integers(1, 6)),
            elements=st.floats(-5, 5, allow_nan=False),
        )
    )
    def test_softmax_rows_are_distributions(self, data):
        from repro.tensor import functional as F

        s = F.softmax(Tensor(data), axis=1).data
        assert np.all(s >= 0)
        np.testing.assert_allclose(s.sum(axis=1), np.ones(data.shape[0]), rtol=1e-6)


class TestDatasetProperties:
    @FAST
    @given(count=st.integers(10, 40), seed=st.integers(0, 2**10))
    def test_generation_deterministic(self, count, seed):
        from repro.data import SynthConfig, SyntheticMNIST

        config = SynthConfig(image_size=12)
        a = SyntheticMNIST(config, seed=seed).generate(count)
        b = SyntheticMNIST(config, seed=seed).generate(count)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    @FAST
    @given(count=st.integers(10, 30), seed=st.integers(0, 2**10))
    def test_pixel_range(self, count, seed):
        from repro.data import SynthConfig, SyntheticMNIST

        data = SyntheticMNIST(SynthConfig(image_size=12), seed=seed).generate(count)
        assert data.images.min() >= 0.0
        assert data.images.max() <= 1.0
