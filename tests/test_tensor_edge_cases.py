"""Edge cases of the autograd engine: dtypes, degenerate shapes, chains."""

from __future__ import annotations

import numpy as np

from repro.tensor import Tensor, functional as F, stack


class TestDtypes:
    def test_mixed_precision_promotes(self):
        a = Tensor(np.ones(2, dtype=np.float32))
        b = Tensor(np.ones(2, dtype=np.float64))
        assert (a + b).dtype == np.float64

    def test_float32_stays_float32(self):
        a = Tensor(np.ones(2, dtype=np.float32))
        assert (a * 2.0).dtype == np.float32
        assert a.tanh().dtype == np.float32
        assert a.sum().dtype == np.float32

    def test_gradient_dtype_matches_parameter(self):
        a = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        (a * a).sum().backward()
        assert a.grad.dtype == np.float32


class TestDegenerateShapes:
    def test_zero_dim_scalar_tensor(self):
        a = Tensor(np.array(2.0), requires_grad=True)
        (a * 3).backward()
        assert a.grad.shape == ()
        np.testing.assert_allclose(a.grad, 3.0)

    def test_single_element_ops(self):
        a = Tensor([[5.0]], requires_grad=True)
        out = a.reshape(1).sum()
        out.backward()
        assert a.grad.shape == (1, 1)

    def test_empty_batch_forward(self):
        x = Tensor(np.zeros((0, 4)))
        out = x @ Tensor(np.zeros((4, 2)))
        assert out.shape == (0, 2)

    def test_size_one_axes_reduce(self):
        a = Tensor(np.ones((1, 3, 1)), requires_grad=True)
        a.sum(axis=(0, 2)).sum().backward()
        np.testing.assert_array_equal(a.grad, np.ones((1, 3, 1)))


class TestNumericalStability:
    def test_log_softmax_extreme_logits(self):
        logits = Tensor(np.array([[1e4, -1e4, 0.0]]))
        out = F.log_softmax(logits, axis=1)
        assert np.all(np.isfinite(out.data))

    def test_cross_entropy_confident_correct_is_small(self):
        logits = Tensor(np.array([[100.0, 0.0]]))
        loss = F.cross_entropy(logits, np.array([0]))
        assert loss.item() < 1e-6

    def test_cross_entropy_confident_wrong_is_large_but_finite(self):
        logits = Tensor(np.array([[100.0, 0.0]]))
        loss = F.cross_entropy(logits, np.array([1]))
        assert 50.0 < loss.item() < np.inf


class TestLongCompositions:
    def test_alternating_ops_chain(self):
        x = Tensor([0.5], requires_grad=True, dtype=np.float64)
        y = x
        for _ in range(30):
            y = (y * 1.01).tanh() + 0.01
        y.sum().backward()
        assert np.isfinite(x.grad[0])

    def test_many_consumers_of_one_tensor(self):
        x = Tensor([2.0], requires_grad=True)
        total = None
        for k in range(10):
            term = x * float(k)
            total = term if total is None else total + term
        total.sum().backward()
        np.testing.assert_allclose(x.grad, [sum(range(10))])

    def test_stack_then_unstack_roundtrip_grad(self):
        parts = [Tensor([float(i)], requires_grad=True) for i in range(4)]
        stacked = stack(parts, axis=0)
        stacked.sum().backward()
        for part in parts:
            np.testing.assert_allclose(part.grad, [1.0])


class TestViewsAndAliasing:
    def test_detach_shares_data(self):
        a = Tensor([1.0, 2.0])
        d = a.detach()
        assert d.data is a.data

    def test_getitem_returns_contiguous_copy(self):
        a = Tensor(np.arange(16, dtype=np.float64).reshape(4, 4))
        view = a[::2, ::2]
        assert view.data.flags["C_CONTIGUOUS"]

    def test_numpy_returns_underlying_buffer(self):
        a = Tensor([1.0])
        assert a.numpy() is a.data
