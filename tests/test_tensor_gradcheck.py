"""Numerical gradient verification for every Tensor primitive."""

from __future__ import annotations

import numpy as np
import pytest

from repro.tensor import Tensor, stack
from tests.conftest import make_tensor
from tests.gradcheck import gradcheck


class TestArithmeticGrads:
    def test_add(self, rng):
        a, b = make_tensor(rng, 3, 4), make_tensor(rng, 3, 4)
        assert gradcheck(lambda a, b: a + b, [a, b])

    def test_add_broadcast(self, rng):
        a, b = make_tensor(rng, 3, 4), make_tensor(rng, 4)
        assert gradcheck(lambda a, b: a + b, [a, b])

    def test_sub(self, rng):
        a, b = make_tensor(rng, 2, 5), make_tensor(rng, 2, 5)
        assert gradcheck(lambda a, b: a - b, [a, b])

    def test_rsub_scalar(self, rng):
        a = make_tensor(rng, 3)
        assert gradcheck(lambda a: 2.0 - a, [a])

    def test_mul(self, rng):
        a, b = make_tensor(rng, 3, 4), make_tensor(rng, 3, 4)
        assert gradcheck(lambda a, b: a * b, [a, b])

    def test_mul_broadcast_scalar_tensor(self, rng):
        a = make_tensor(rng, 3, 4)
        s = Tensor(np.array(1.7), requires_grad=True, dtype=np.float64)
        assert gradcheck(lambda a, s: a * s, [a, s])

    def test_div(self, rng):
        a = make_tensor(rng, 3, 4)
        b = make_tensor(rng, 3, 4, offset=3.0)  # away from zero
        assert gradcheck(lambda a, b: a / b, [a, b])

    def test_rdiv_scalar(self, rng):
        a = make_tensor(rng, 4, offset=3.0)
        assert gradcheck(lambda a: 2.0 / a, [a])

    def test_neg(self, rng):
        a = make_tensor(rng, 5)
        assert gradcheck(lambda a: -a, [a])

    def test_pow(self, rng):
        a = make_tensor(rng, 4, offset=2.5)
        assert gradcheck(lambda a: a ** 3, [a])
        assert gradcheck(lambda a: a ** 0.5, [a])

    def test_matmul_2d(self, rng):
        a, b = make_tensor(rng, 3, 4), make_tensor(rng, 4, 2)
        assert gradcheck(lambda a, b: a @ b, [a, b])

    def test_matmul_batched(self, rng):
        a, b = make_tensor(rng, 2, 3, 4), make_tensor(rng, 2, 4, 5)
        assert gradcheck(lambda a, b: a @ b, [a, b])

    def test_matmul_broadcast_batch(self, rng):
        a, b = make_tensor(rng, 2, 3, 4), make_tensor(rng, 4, 5)
        assert gradcheck(lambda a, b: a @ b, [a, b])


class TestElementwiseGrads:
    def test_tanh(self, rng):
        assert gradcheck(lambda a: a.tanh(), [make_tensor(rng, 3, 3)])

    def test_relu_away_from_kink(self, rng):
        a = Tensor(rng.standard_normal((4, 4)) + 5.0, requires_grad=True, dtype=np.float64)
        assert gradcheck(lambda a: a.relu(), [a])
        b = Tensor(rng.standard_normal((4, 4)) - 5.0, requires_grad=True, dtype=np.float64)
        assert gradcheck(lambda b: b.relu(), [b])

    def test_abs_away_from_kink(self, rng):
        a = make_tensor(rng, 4, offset=3.0)
        assert gradcheck(lambda a: a.abs(), [a])


class TestReductionGrads:
    @pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), (1, True), ((0, 1), False)])
    def test_sum(self, rng, axis, keepdims):
        a = make_tensor(rng, 3, 4)
        assert gradcheck(lambda a: a.sum(axis=axis, keepdims=keepdims), [a])

    @pytest.mark.parametrize("axis,keepdims", [(None, False), (0, True), (1, False)])
    def test_mean(self, rng, axis, keepdims):
        a = make_tensor(rng, 3, 4)
        assert gradcheck(lambda a: a.mean(axis=axis, keepdims=keepdims), [a])

    @pytest.mark.parametrize("axis", [None, 0, 1])
    def test_max(self, rng, axis):
        a = make_tensor(rng, 4, 5)
        assert gradcheck(lambda a: a.max(axis=axis), [a])

    @pytest.mark.parametrize("axis", [None, 1])
    def test_min(self, rng, axis):
        a = make_tensor(rng, 4, 5)
        assert gradcheck(lambda a: a.min(axis=axis), [a])

    def test_max_with_ties_splits_gradient(self):
        a = Tensor(np.array([[1.0, 1.0, 0.0]]), requires_grad=True, dtype=np.float64)
        out = a.max(axis=1)
        out.backward(np.ones_like(out.data))
        np.testing.assert_allclose(a.grad, [[0.5, 0.5, 0.0]])

    def test_negative_axis(self, rng):
        a = make_tensor(rng, 3, 4)
        assert gradcheck(lambda a: a.sum(axis=-1), [a])


class TestShapeGrads:
    def test_reshape(self, rng):
        assert gradcheck(lambda a: a.reshape(6, 2), [make_tensor(rng, 3, 4)])

    def test_transpose(self, rng):
        assert gradcheck(lambda a: a.transpose((2, 0, 1)), [make_tensor(rng, 2, 3, 4)])

    def test_getitem_slice(self, rng):
        assert gradcheck(lambda a: a[1:, ::2], [make_tensor(rng, 4, 6)])

    def test_getitem_fancy(self, rng):
        idx = np.array([0, 2, 2])
        assert gradcheck(lambda a: a[idx], [make_tensor(rng, 4, 3)])

    def test_flatten(self, rng):
        assert gradcheck(lambda a: a.flatten(start_dim=1), [make_tensor(rng, 2, 3, 4)])


class TestFreeFunctionGrads:
    def test_stack(self, rng):
        a, b, c = (make_tensor(rng, 2, 3) for _ in range(3))
        assert gradcheck(lambda a, b, c: stack([a, b, c], axis=1), [a, b, c])


class TestCompositeGrads:
    def test_mlp_like_composition(self, rng):
        x = make_tensor(rng, 4, 3)
        w1 = make_tensor(rng, 3, 5)
        w2 = make_tensor(rng, 5, 2)
        assert gradcheck(lambda x, w1, w2: ((x @ w1).tanh() @ w2).sum(axis=0), [x, w1, w2])

    def test_normalization_like_composition(self, rng):
        x = make_tensor(rng, 4, 6, offset=1.0)
        assert gradcheck(
            lambda x: (x - x.mean(axis=1, keepdims=True)) / (x.abs().sum() + 1.0), [x]
        )
