"""Forward-pass semantics of Tensor primitives."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.tensor import Tensor, stack


class TestConstruction:
    def test_from_list_promotes_to_float(self):
        t = Tensor([1, 2, 3])
        assert np.issubdtype(t.dtype, np.floating)

    def test_from_int_array_promotes_to_float(self):
        t = Tensor(np.arange(4))
        assert np.issubdtype(t.dtype, np.floating)

    def test_explicit_dtype_respected(self):
        t = Tensor([1.0, 2.0], dtype=np.float64)
        assert t.dtype == np.float64

    def test_float_array_preserved_without_copy_semantics(self):
        data = np.ones(3, dtype=np.float32)
        t = Tensor(data)
        assert t.data.dtype == np.float32

    def test_shape_ndim_size(self):
        t = Tensor.zeros(2, 3, 4)
        assert t.shape == (2, 3, 4)
        assert t.ndim == 3
        assert t.size == 24

    def test_zeros_ones_full(self):
        assert np.all(Tensor.zeros(2, 2).data == 0)
        assert np.all(Tensor.ones(2, 2).data == 1)
        assert np.all(Tensor.full((2, 2), 7.5).data == 7.5)

    def test_randn_rand_seeded(self):
        gen1 = np.random.default_rng(0)
        gen2 = np.random.default_rng(0)
        a = Tensor.randn(3, 3, rng=gen1)
        b = Tensor.randn(3, 3, rng=gen2)
        np.testing.assert_array_equal(a.data, b.data)
        u = Tensor.rand(10, rng=np.random.default_rng(1))
        assert np.all((u.data >= 0) & (u.data < 1))

    def test_repr_mentions_shape_and_grad(self):
        t = Tensor.zeros(2, 2, requires_grad=True)
        assert "shape=(2, 2)" in repr(t)
        assert "requires_grad=True" in repr(t)

    def test_len(self):
        assert len(Tensor.zeros(5, 2)) == 5


class TestScalarAccess:
    def test_item_on_scalar(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)

    def test_item_on_vector_raises(self):
        with pytest.raises(ValueError, match="single-element"):
            Tensor([1.0, 2.0]).item()

    def test_detach_cuts_graph(self):
        x = Tensor([1.0], requires_grad=True)
        y = (x * 2).detach()
        assert not y.requires_grad
        assert y._backward_fn is None

    def test_copy_is_deep(self):
        x = Tensor([1.0, 2.0])
        y = x.copy()
        y.data[0] = 99.0
        assert x.data[0] == 1.0


class TestArithmetic:
    def test_add_sub_mul_div(self):
        a = Tensor([2.0, 4.0])
        b = Tensor([1.0, 2.0])
        np.testing.assert_allclose((a + b).data, [3.0, 6.0])
        np.testing.assert_allclose((a - b).data, [1.0, 2.0])
        np.testing.assert_allclose((a * b).data, [2.0, 8.0])
        np.testing.assert_allclose((a / b).data, [2.0, 2.0])

    def test_scalar_reflected_ops(self):
        a = Tensor([1.0, 2.0])
        np.testing.assert_allclose((1.0 + a).data, [2.0, 3.0])
        np.testing.assert_allclose((3.0 - a).data, [2.0, 1.0])
        np.testing.assert_allclose((2.0 * a).data, [2.0, 4.0])
        np.testing.assert_allclose((2.0 / a).data, [2.0, 1.0])

    def test_neg_pow(self):
        a = Tensor([1.0, -2.0])
        np.testing.assert_allclose((-a).data, [-1.0, 2.0])
        np.testing.assert_allclose((a ** 2).data, [1.0, 4.0])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_broadcasting_add(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.ones(3))
        assert (a + b).shape == (2, 3)

    def test_matmul(self):
        a = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
        b = Tensor(np.arange(12, dtype=np.float64).reshape(3, 4))
        np.testing.assert_allclose((a @ b).data, a.data @ b.data)

    def test_matmul_rejects_vectors(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]) @ Tensor([[1.0], [2.0]])

    def test_batched_matmul(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.standard_normal((4, 2, 3)))
        b = Tensor(rng.standard_normal((4, 3, 5)))
        np.testing.assert_allclose((a @ b).data, a.data @ b.data, rtol=1e-6)


class TestComparisons:
    def test_comparisons_return_numpy_bool(self):
        a = Tensor([1.0, 2.0, 3.0])
        mask = a > 1.5
        assert isinstance(mask, np.ndarray)
        np.testing.assert_array_equal(mask, [False, True, True])
        np.testing.assert_array_equal(a >= 2.0, [False, True, True])
        np.testing.assert_array_equal(a < 2.0, [True, False, False])
        np.testing.assert_array_equal(a <= 1.0, [True, False, False])

    def test_comparison_against_tensor(self):
        a = Tensor([1.0, 5.0])
        b = Tensor([2.0, 2.0])
        np.testing.assert_array_equal(a > b, [False, True])


class TestElementwiseFunctions:
    def test_tanh_bounded(self):
        a = Tensor(np.linspace(-50, 50, 11))
        assert np.all(np.abs(a.tanh().data) <= 1.0)

    def test_relu_abs(self):
        a = Tensor([-2.0, 0.0, 3.0])
        np.testing.assert_allclose(a.relu().data, [0.0, 0.0, 3.0])
        np.testing.assert_allclose(a.abs().data, [2.0, 0.0, 3.0])


class TestReductions:
    def test_sum_axes(self):
        a = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
        assert a.sum().item() == pytest.approx(15.0)
        np.testing.assert_allclose(a.sum(axis=0).data, [3.0, 5.0, 7.0])
        assert a.sum(axis=1, keepdims=True).shape == (2, 1)

    def test_mean(self):
        a = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
        assert a.mean().item() == pytest.approx(2.5)
        np.testing.assert_allclose(a.mean(axis=1).data, [1.0, 4.0])

    def test_max_min(self):
        a = Tensor([[1.0, 5.0], [3.0, 2.0]])
        assert a.max().item() == 5.0
        assert a.min().item() == 1.0
        np.testing.assert_allclose(a.max(axis=0).data, [3.0, 5.0])
        np.testing.assert_allclose(a.min(axis=1).data, [1.0, 2.0])


class TestShapeOps:
    def test_reshape_and_tuple_form(self):
        a = Tensor(np.arange(6, dtype=np.float64))
        assert a.reshape(2, 3).shape == (2, 3)
        assert a.reshape((3, 2)).shape == (3, 2)
        assert a.reshape(2, -1).shape == (2, 3)

    def test_flatten(self):
        a = Tensor.zeros(2, 3, 4)
        assert a.flatten().shape == (24,)
        assert a.flatten(start_dim=1).shape == (2, 12)

    def test_transpose_default_and_axes(self):
        a = Tensor.zeros(2, 3, 4)
        assert a.transpose().shape == (4, 3, 2)
        assert a.transpose((1, 0, 2)).shape == (3, 2, 4)
        b = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
        np.testing.assert_array_equal(b.T.data, b.data.T)

    def test_getitem(self):
        a = Tensor(np.arange(12, dtype=np.float64).reshape(3, 4))
        np.testing.assert_array_equal(a[1].data, a.data[1])
        np.testing.assert_array_equal(a[:, ::2].data, a.data[:, ::2])
        np.testing.assert_array_equal(a[[0, 2]].data, a.data[[0, 2]])


class TestFreeFunctions:
    def test_stack(self):
        a, b = Tensor([1.0, 2.0]), Tensor([3.0, 4.0])
        s = stack([a, b], axis=0)
        assert s.shape == (2, 2)
        s1 = stack([a, b], axis=1)
        assert s1.shape == (2, 2)
        np.testing.assert_array_equal(s1.data, [[1.0, 3.0], [2.0, 4.0]])

    def test_stack_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            stack([Tensor([1.0]), Tensor([1.0, 2.0])])

    def test_stack_empty_raises(self):
        with pytest.raises(ValueError):
            stack([])
