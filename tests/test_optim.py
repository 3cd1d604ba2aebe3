"""Optimizers: updates verified against hand-computed references."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.optim import Adam


def _param(value) -> nn.Parameter:
    return nn.Parameter(np.array(value, dtype=np.float64))


def _set_grad(param: nn.Parameter, grad) -> None:
    param.grad = np.array(grad, dtype=np.float64)


class TestAdam:
    def test_first_step_magnitude(self):
        # With bias correction, |first step| == lr regardless of grad scale.
        p = _param([0.0])
        opt = Adam([p], lr=0.01)
        _set_grad(p, [123.0])
        opt.step()
        np.testing.assert_allclose(np.abs(p.data), [0.01], rtol=1e-4)

    def test_matches_reference_sequence(self):
        p = _param([1.0])
        lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
        opt = Adam([p], lr=lr, betas=(b1, b2), eps=eps)
        m = v = 0.0
        x = 1.0
        for t, grad in enumerate((0.3, -0.8, 0.1), start=1):
            _set_grad(p, [grad])
            opt.step()
            m = b1 * m + (1 - b1) * grad
            v = b2 * v + (1 - b2) * grad * grad
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            x -= lr * m_hat / (np.sqrt(v_hat) + eps)
            np.testing.assert_allclose(p.data, [x], rtol=1e-10)

    def test_l2_weight_decay_matches_reference_sequence(self):
        # Classic L2 decay: the penalty joins the gradient before the moments.
        p = _param([1.0, -2.0])
        lr, b1, b2, eps, wd = 1e-2, 0.9, 0.999, 1e-8, 0.5
        opt = Adam([p], lr=lr, betas=(b1, b2), eps=eps, weight_decay=wd)
        m = v = np.zeros(2)
        x = np.array([1.0, -2.0])
        for t, grad in enumerate(([0.3, 0.0], [-0.8, 0.2]), start=1):
            _set_grad(p, grad)
            opt.step()
            g = np.array(grad) + wd * x
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * (g * g)
            x = x - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            np.testing.assert_array_equal(p.data, x)

    def test_skips_params_without_grad(self):
        p, q = _param([1.0]), _param([2.0])
        opt = Adam([p, q], lr=0.1)
        _set_grad(p, [1.0])
        opt.step()
        np.testing.assert_allclose(q.data, [2.0])

    def test_l2_weight_decay_changes_update(self):
        p1, p2 = _param([1.0]), _param([1.0])
        o1 = Adam([p1], lr=0.01, weight_decay=0.0)
        o2 = Adam([p2], lr=0.01, weight_decay=1.0)
        for o, p in ((o1, p1), (o2, p2)):
            _set_grad(p, [0.1])
            o.step()
        assert p2.data[0] < p1.data[0]

    def test_validation(self):
        p = _param([1.0])
        with pytest.raises(ValueError):
            Adam([p], betas=(1.0, 0.9))
        with pytest.raises(ValueError):
            Adam([p], eps=0.0)
        with pytest.raises(ValueError):
            Adam([p], lr=-1.0)
        with pytest.raises(ValueError):
            Adam([p], weight_decay=-0.1)
        with pytest.raises(ValueError):
            Adam([], lr=0.1)


class TestTrainingConvergence:
    def test_adam_minimises_quadratic(self):
        p = _param([5.0])
        opt = Adam([p], lr=0.3)
        for _ in range(200):
            p.grad = 2.0 * (p.data - 2.0)
            opt.step()
        np.testing.assert_allclose(p.data, [2.0], atol=1e-2)

