"""Forward correctness and gradients of the functional ops."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.tensor import Tensor, functional as F
from tests.conftest import make_tensor
from tests.gradcheck import gradcheck


class TestSoftmaxFamily:
    def test_softmax_sums_to_one(self, rng):
        x = Tensor(rng.standard_normal((4, 7)))
        s = F.softmax(x, axis=1)
        np.testing.assert_allclose(s.data.sum(axis=1), np.ones(4), rtol=1e-6)

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = Tensor(rng.standard_normal((3, 5)), dtype=np.float64)
        np.testing.assert_allclose(
            F.log_softmax(x, axis=1).data, np.log(F.softmax(x, axis=1).data), rtol=1e-10
        )

    def test_softmax_stable_for_large_logits(self):
        x = Tensor([[1000.0, 1000.0], [-1000.0, 1000.0]])
        s = F.softmax(x, axis=1)
        assert np.all(np.isfinite(s.data))
        np.testing.assert_allclose(s.data[0], [0.5, 0.5])

    def test_softmax_invariant_to_shift(self, rng):
        x = rng.standard_normal((2, 6))
        a = F.softmax(Tensor(x), axis=1).data
        b = F.softmax(Tensor(x + 100.0), axis=1).data
        np.testing.assert_allclose(a, b, rtol=1e-5)

    def test_log_softmax_grad(self, rng):
        assert gradcheck(lambda x: F.log_softmax(x, axis=-1), [make_tensor(rng, 4, 6)])

    def test_softmax_grad(self, rng):
        assert gradcheck(lambda x: F.softmax(x, axis=0), [make_tensor(rng, 4, 6)])


class TestLosses:
    def test_nll_picks_target_entries(self):
        logp = Tensor(np.log(np.array([[0.7, 0.3], [0.2, 0.8]])))
        loss = F.nll_loss(logp, np.array([0, 1]))
        expected = -(np.log(0.7) + np.log(0.8)) / 2
        assert loss.item() == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("reduction", ["mean", "sum", "none"])
    def test_nll_reductions(self, rng, reduction):
        logp = F.log_softmax(make_tensor(rng, 5, 3), axis=1)
        targets = np.array([0, 1, 2, 0, 1])
        out = F.nll_loss(logp, targets, reduction=reduction)
        if reduction == "none":
            assert out.shape == (5,)
        else:
            assert out.size == 1

    def test_nll_invalid_reduction(self, rng):
        with pytest.raises(ValueError):
            F.nll_loss(make_tensor(rng, 2, 2), np.array([0, 1]), reduction="bogus")

    def test_nll_shape_checks(self, rng):
        with pytest.raises(ShapeError):
            F.nll_loss(make_tensor(rng, 2, 3, 4), np.array([0, 1]))
        with pytest.raises(ShapeError):
            F.nll_loss(make_tensor(rng, 2, 3), np.array([0, 1, 2]))

    def test_cross_entropy_matches_manual(self, rng):
        logits = make_tensor(rng, 4, 3)
        targets = np.array([0, 2, 1, 1])
        manual = F.nll_loss(F.log_softmax(logits, axis=-1), targets)
        fused = F.cross_entropy(logits, targets)
        assert fused.item() == pytest.approx(manual.item(), rel=1e-10)

    @pytest.mark.parametrize("reduction", ["mean", "sum", "none"])
    def test_cross_entropy_grad(self, rng, reduction):
        logits = make_tensor(rng, 4, 5)
        targets = np.array([0, 1, 2, 4])
        assert gradcheck(
            lambda l: F.cross_entropy(l, targets, reduction=reduction), [logits]
        )

    def test_mse(self, rng):
        pred = Tensor([1.0, 2.0])
        target = np.array([0.0, 4.0])
        assert F.mse_loss(pred, target).item() == pytest.approx((1 + 4) / 2)
        assert F.mse_loss(pred, target, reduction="sum").item() == pytest.approx(5.0)

    def test_mse_grad(self, rng):
        pred, target = make_tensor(rng, 3, 4), make_tensor(rng, 3, 4, requires_grad=False)
        assert gradcheck(lambda p: F.mse_loss(p, target), [pred])


class TestOneHot:
    def test_basic(self):
        out = F.one_hot(np.array([0, 2]), 3)
        np.testing.assert_array_equal(out, [[1, 0, 0], [0, 0, 1]])

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            F.one_hot(np.array([3]), 3)
        with pytest.raises(ValueError):
            F.one_hot(np.array([-1]), 3)

    def test_wrong_rank_raises(self):
        with pytest.raises(ShapeError):
            F.one_hot(np.zeros((2, 2), dtype=int), 3)


def _reference_conv2d(x, w, b, stride, padding):
    """Direct scipy cross-correlation reference (skips without scipy)."""
    signal = pytest.importorskip("scipy.signal")
    n, c_in, h, width = x.shape
    c_out, _, kh, kw = w.shape
    sh, sw = stride if isinstance(stride, tuple) else (stride, stride)
    ph, pw = padding if isinstance(padding, tuple) else (padding, padding)
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (width + 2 * pw - kw) // sw + 1
    out = np.zeros((n, c_out, oh, ow))
    for i in range(n):
        for o in range(c_out):
            acc = np.zeros((xp.shape[2] - kh + 1, xp.shape[3] - kw + 1))
            for ci in range(c_in):
                acc += signal.correlate2d(xp[i, ci], w[o, ci], mode="valid")
            out[i, o] = acc[::sh, ::sw]
            if b is not None:
                out[i, o] += b[o]
    return out


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 2), ((1, 2), (2, 1))])
    def test_matches_scipy_reference(self, rng, stride, padding):
        x = rng.standard_normal((2, 3, 8, 9))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        ours = F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        ref = _reference_conv2d(x, w, b, stride, padding)
        np.testing.assert_allclose(ours.data, ref, rtol=1e-5, atol=1e-6)

    def test_no_bias(self, rng):
        x = rng.standard_normal((1, 2, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        ours = F.conv2d(Tensor(x), Tensor(w))
        ref = _reference_conv2d(x, w, None, 1, 0)
        np.testing.assert_allclose(ours.data, ref, rtol=1e-5, atol=1e-6)

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ShapeError):
            F.conv2d(Tensor(np.zeros((1, 3, 5, 5))), Tensor(np.zeros((2, 4, 3, 3))))

    def test_bad_rank_raises(self, rng):
        with pytest.raises(ShapeError):
            F.conv2d(Tensor(np.zeros((3, 5, 5))), Tensor(np.zeros((2, 3, 3, 3))))

    def test_too_small_input_raises(self, rng):
        with pytest.raises(ShapeError):
            F.conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))))

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1)])
    def test_grad(self, rng, stride, padding):
        x = make_tensor(rng, 2, 2, 6, 6)
        w = make_tensor(rng, 3, 2, 3, 3)
        b = make_tensor(rng, 3)
        assert gradcheck(
            lambda x, w, b: F.conv2d(x, w, b, stride=stride, padding=padding), [x, w, b]
        )

    def test_grad_no_bias(self, rng):
        x = make_tensor(rng, 1, 2, 5, 5)
        w = make_tensor(rng, 2, 2, 3, 3)
        assert gradcheck(lambda x, w: F.conv2d(x, w), [x, w])


class TestPooling:
    def test_max_pool_forward(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(x), 2)
        np.testing.assert_array_equal(out.data[0, 0], [[5, 7], [13, 15]])

    def test_avg_pool_forward(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = F.avg_pool2d(Tensor(x), 2)
        np.testing.assert_allclose(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_max_pool_overlapping_stride(self, rng):
        x = rng.standard_normal((1, 1, 5, 5))
        out = F.max_pool2d(Tensor(x), 3, stride=1)
        assert out.shape == (1, 1, 3, 3)
        assert out.data[0, 0, 0, 0] == x[0, 0, :3, :3].max()

    def test_bad_rank_raises(self):
        with pytest.raises(ShapeError):
            F.max_pool2d(Tensor(np.zeros((4, 4))), 2)
        with pytest.raises(ShapeError):
            F.avg_pool2d(Tensor(np.zeros((4, 4))), 2)

    def test_max_pool_grad(self, rng):
        assert gradcheck(lambda x: F.max_pool2d(x, 2), [make_tensor(rng, 2, 2, 6, 6)])

    def test_max_pool_grad_overlapping(self, rng):
        assert gradcheck(
            lambda x: F.max_pool2d(x, 3, stride=2), [make_tensor(rng, 1, 2, 7, 7)]
        )

    def test_avg_pool_grad(self, rng):
        assert gradcheck(lambda x: F.avg_pool2d(x, 2), [make_tensor(rng, 2, 2, 6, 6)])

    def test_avg_pool_grad_rect_kernel(self, rng):
        assert gradcheck(
            lambda x: F.avg_pool2d(x, (2, 3), (2, 3)), [make_tensor(rng, 1, 1, 6, 9)]
        )

    def test_max_pool_routes_grad_to_argmax(self):
        x = Tensor(
            np.array([[[[1.0, 2.0], [3.0, 9.0]]]]), requires_grad=True, dtype=np.float64
        )
        out = F.max_pool2d(x, 2)
        out.backward(np.ones_like(out.data))
        np.testing.assert_array_equal(x.grad[0, 0], [[0, 0], [0, 1]])

    @pytest.mark.parametrize("kernel,stride", [(2, None), (3, 1), (3, 2)])
    def test_max_pool_backward_matches_add_at_reference(self, rng, kernel, stride):
        # The bincount-based scatter must accumulate exactly like the
        # np.add.at formulation it replaced (float64 tensors: both exact).
        x = make_tensor(rng, 2, 3, 7, 7)
        out = F.max_pool2d(x, kernel, stride)
        upstream = rng.standard_normal(out.shape)
        out.backward(upstream)

        kh = kw = kernel
        sh = sw = stride if stride is not None else kernel
        windows = np.lib.stride_tricks.sliding_window_view(
            x.data, (kh, kw), axis=(2, 3)
        )[:, :, ::sh, ::sw]
        n, c, oh, ow = out.shape
        arg = windows.reshape(n, c, oh, ow, kh * kw).argmax(axis=-1)
        ki, kj = np.divmod(arg, kw)
        n_idx, c_idx, oi, oj = np.indices(arg.shape)
        reference = np.zeros_like(x.data)
        np.add.at(
            reference,
            (n_idx, c_idx, oi * sh + ki, oj * sw + kj),
            upstream.astype(x.data.dtype),
        )
        np.testing.assert_array_equal(x.grad, reference)

    def test_max_pool_backward_float32_non_overlapping_exact(self, rng):
        # Non-overlapping pooling (the registry models' configuration)
        # routes at most one contribution per pixel, so the float64
        # bincount accumulation must be exact even in float32 — attack
        # gradients of the standard models stay bit-identical.
        x = Tensor(
            rng.standard_normal((2, 3, 8, 8)).astype(np.float32), requires_grad=True
        )
        out = F.max_pool2d(x, 2)
        upstream = rng.standard_normal(out.shape).astype(np.float32)
        out.backward(upstream)
        assert x.grad.dtype == np.float32
        expected = np.zeros_like(x.data)
        flat = x.data.reshape(2, 3, 4, 2, 4, 2).transpose(0, 1, 2, 4, 3, 5)
        arg = flat.reshape(2, 3, 4, 4, 4).argmax(axis=-1)
        ki, kj = np.divmod(arg, 2)
        n_idx, c_idx, oi, oj = np.indices(arg.shape)
        expected[n_idx, c_idx, oi * 2 + ki, oj * 2 + kj] = upstream
        np.testing.assert_array_equal(x.grad, expected)
