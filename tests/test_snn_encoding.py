"""Input encoders: spike statistics and gradient paths."""

from __future__ import annotations

import numpy as np
import pytest

from repro.snn import ConstantCurrentLIFEncoder, LIFParameters, PoissonEncoder


def _frames(encoder, image, time_steps: int) -> list[np.ndarray]:
    """Unroll an encoder's ``step_numpy`` twin and collect the frames."""
    state = None
    frames = []
    for _ in range(time_steps):
        spikes, state = encoder.step_numpy(image, state)
        frames.append(spikes)
    return frames


def _total_spikes(frames) -> float:
    return float(sum(frame.sum() for frame in frames))


def _image_gradient(encoder, image, time_steps: int) -> np.ndarray:
    """Gradient of the total spike count w.r.t. the image, via the twins."""
    state = None
    ctxs = []
    for _ in range(time_steps):
        spikes, state, ctx = encoder.step_record_numpy(image, state)
        ctxs.append(ctx)
    grad = np.zeros_like(image)
    g_state = None
    for ctx in reversed(ctxs):
        piece, g_state = encoder.step_backward_numpy(np.ones_like(image), g_state, ctx)
        grad = grad + piece
    return grad


class TestConstantCurrentEncoder:
    def test_spike_count_monotone_in_intensity(self):
        enc = ConstantCurrentLIFEncoder(input_scale=2.0)
        counts = []
        for intensity in (0.2, 0.5, 1.0):
            counts.append(_total_spikes(_frames(enc, np.full((1, 1), intensity), 50)))
        assert counts == sorted(counts)
        assert counts[-1] > counts[0]

    def test_zero_input_is_silent(self):
        enc = ConstantCurrentLIFEncoder()
        assert _total_spikes(_frames(enc, np.zeros((2, 3)), 30)) == 0.0

    def test_deterministic(self):
        enc = ConstantCurrentLIFEncoder()
        x = np.linspace(0, 1, 10).reshape(2, 5)
        np.testing.assert_array_equal(
            np.stack(_frames(enc, x, 20)), np.stack(_frames(enc, x, 20))
        )

    def test_higher_threshold_fewer_spikes(self):
        low = ConstantCurrentLIFEncoder(LIFParameters(v_th=0.5))
        high = ConstantCurrentLIFEncoder(LIFParameters(v_th=2.0))
        x = np.full((1, 4), 0.8)
        assert _total_spikes(_frames(low, x, 50)) > _total_spikes(_frames(high, x, 50))

    def test_gradient_path_to_image(self):
        enc = ConstantCurrentLIFEncoder(LIFParameters(surrogate_alpha=5.0))
        grad = _image_gradient(enc, np.full((1, 2), 0.7), 30)
        assert np.abs(grad).sum() > 0

    def test_invalid_scale_raises(self):
        with pytest.raises(ValueError):
            ConstantCurrentLIFEncoder(input_scale=0.0)

    def test_frames_count(self):
        enc = ConstantCurrentLIFEncoder()
        assert len(_frames(enc, np.zeros((1, 1)), 17)) == 17


class TestPoissonEncoder:
    def test_rate_tracks_intensity(self):
        enc = PoissonEncoder(scale=1.0, rng=0)
        frames = _frames(enc, np.full((50, 50), 0.3), 40)
        rate = _total_spikes(frames) / (40 * 50 * 50)
        assert rate == pytest.approx(0.3, abs=0.02)

    def test_spikes_binary(self):
        enc = PoissonEncoder(rng=0)
        for frame in _frames(enc, np.random.default_rng(0).random((5, 5)), 10):
            assert set(np.unique(frame)).issubset({0.0, 1.0})

    def test_probability_clipped_to_one(self):
        enc = PoissonEncoder(scale=10.0, rng=0)
        frames = _frames(enc, np.ones((4, 4)), 5)
        assert _total_spikes(frames) == 5 * 16  # every pixel spikes every step

    def test_straight_through_gradient(self):
        enc = PoissonEncoder(scale=0.5, rng=0)
        grad = _image_gradient(enc, np.full((3, 3), 0.5), 1)
        # derivative of expectation = scale inside the active region
        np.testing.assert_allclose(grad, np.full((3, 3), 0.5))

    def test_gradient_zero_in_saturated_region(self):
        enc = PoissonEncoder(scale=10.0, rng=0)
        np.testing.assert_allclose(_image_gradient(enc, np.ones((2, 2)), 1), 0.0)

    def test_seeded_determinism(self):
        x = np.full((4, 4), 0.5)
        a = _frames(PoissonEncoder(rng=7), x, 6)
        b = _frames(PoissonEncoder(rng=7), x, 6)
        np.testing.assert_array_equal(np.stack(a), np.stack(b))

    def test_record_twin_draws_like_step_twin(self):
        x = np.random.default_rng(1).random((3, 4)).astype(np.float32)
        plain, recorded = PoissonEncoder(rng=5), PoissonEncoder(rng=5)
        for _ in range(3):
            spikes, _state = plain.step_numpy(x)
            recorded_spikes, _state, _ctx = recorded.step_record_numpy(x)
            assert spikes.tobytes() == recorded_spikes.tobytes()

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            PoissonEncoder(scale=0.0)
