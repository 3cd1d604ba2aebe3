"""Module system, layers and containers."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.errors import ShapeError
from repro.tensor import Tensor
from tests.conftest import make_tensor
from tests.gradcheck import gradcheck


class TestModuleTree:
    def test_named_parameters_qualified_names(self):
        model = nn.Sequential(nn.Linear(2, 3, rng=0), nn.ReLU(), nn.Linear(3, 1, rng=0))
        names = dict(model.named_parameters())
        assert "layers.0.weight" in names
        assert "layers.0.bias" in names
        assert "layers.2.weight" in names

    def test_parameters_count(self):
        model = nn.Linear(4, 3, rng=0)
        assert model.num_parameters() == 4 * 3 + 3

    def test_train_eval_propagates(self):
        model = nn.Sequential(nn.Linear(2, 2, rng=0), nn.ReLU())
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_zero_grad(self):
        model = nn.Linear(2, 2, rng=0)
        (model(Tensor(np.ones((1, 2)))).sum()).backward()
        assert model.weight.grad is not None
        model.zero_grad()
        assert model.weight.grad is None

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            nn.Module()(1)

    def test_named_modules(self):
        model = nn.Sequential(nn.Linear(2, 2, rng=0))
        names = [name for name, _ in model.named_modules()]
        assert "" in names
        assert "layers" in names
        assert "layers.0" in names


class TestStateDict:
    def test_roundtrip(self):
        a = nn.Sequential(nn.Linear(3, 4, rng=0), nn.Tanh(), nn.Linear(4, 2, rng=1))
        b = nn.Sequential(nn.Linear(3, 4, rng=2), nn.Tanh(), nn.Linear(4, 2, rng=3))
        x = Tensor(np.random.default_rng(0).standard_normal((2, 3)))
        assert not np.allclose(a(x).data, b(x).data)
        b.load_state_dict(a.state_dict())
        np.testing.assert_allclose(a(x).data, b(x).data)

    def test_state_dict_is_a_copy(self):
        model = nn.Linear(2, 2, rng=0)
        state = model.state_dict()
        state["weight"][:] = 0.0
        assert not np.allclose(model.weight.data, 0.0)

    def test_strict_mismatch_raises(self):
        model = nn.Linear(2, 2, rng=0)
        with pytest.raises(KeyError):
            model.load_state_dict({"weight": np.zeros((2, 2))})  # missing bias

    def test_non_strict_allows_partial(self):
        model = nn.Linear(2, 2, rng=0)
        model.load_state_dict({"weight": np.zeros((2, 2))}, strict=False)
        np.testing.assert_array_equal(model.weight.data, 0.0)

    def test_shape_mismatch_raises(self):
        model = nn.Linear(2, 2, rng=0)
        state = model.state_dict()
        state["weight"] = np.zeros((3, 3))
        with pytest.raises(ShapeError):
            model.load_state_dict(state)


class TestLinear:
    def test_forward_shape(self):
        layer = nn.Linear(5, 3, rng=0)
        out = layer(Tensor(np.zeros((4, 5))))
        assert out.shape == (4, 3)

    def test_matches_manual_affine(self, rng):
        layer = nn.Linear(4, 2, rng=0)
        x = rng.standard_normal((3, 4)).astype(np.float32)
        expected = x @ layer.weight.data.T + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).data, expected, rtol=1e-5)

    def test_no_bias(self):
        layer = nn.Linear(3, 2, bias=False, rng=0)
        assert layer.bias is None
        assert layer.num_parameters() == 6

    def test_wrong_input_raises(self):
        layer = nn.Linear(3, 2, rng=0)
        with pytest.raises(ShapeError):
            layer(Tensor(np.zeros((2, 4))))

    def test_invalid_sizes_raise(self):
        with pytest.raises(ValueError):
            nn.Linear(0, 2)

    def test_deterministic_init(self):
        a, b = nn.Linear(3, 3, rng=42), nn.Linear(3, 3, rng=42)
        np.testing.assert_array_equal(a.weight.data, b.weight.data)

    def test_grad_flows(self, rng):
        layer = nn.Linear(3, 2, rng=0)
        layer.weight = nn.Parameter(layer.weight.data.astype(np.float64))
        layer.bias = nn.Parameter(layer.bias.data.astype(np.float64))
        x = make_tensor(rng, 4, 3)
        assert gradcheck(lambda x: layer(x), [x])


class TestConv2dLayer:
    def test_forward_shape(self):
        layer = nn.Conv2d(3, 8, 3, padding=1, rng=0)
        out = layer(Tensor(np.zeros((2, 3, 10, 10))))
        assert out.shape == (2, 8, 10, 10)

    def test_stride(self):
        layer = nn.Conv2d(1, 2, 3, stride=2, rng=0)
        out = layer(Tensor(np.zeros((1, 1, 9, 9))))
        assert out.shape == (1, 2, 4, 4)

    def test_no_bias_param_count(self):
        layer = nn.Conv2d(2, 4, 3, bias=False, rng=0)
        assert layer.num_parameters() == 4 * 2 * 9

    def test_invalid_channels_raise(self):
        with pytest.raises(ValueError):
            nn.Conv2d(0, 4, 3)

    def test_repr(self):
        assert "Conv2d(2->4" in repr(nn.Conv2d(2, 4, 3, rng=0))


class TestActivationsAndShape:
    def test_relu_layer(self):
        out = nn.ReLU()(Tensor([-1.0, 2.0]))
        np.testing.assert_allclose(out.data, [0.0, 2.0])

    def test_tanh_layer(self):
        x = Tensor([0.5])
        np.testing.assert_allclose(nn.Tanh()(x).data, np.tanh(0.5), rtol=1e-6)

    def test_flatten_layer(self):
        out = nn.Flatten()(Tensor(np.zeros((2, 3, 4))))
        assert out.shape == (2, 12)

    def test_pool_layers(self):
        x = Tensor(np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4))
        assert nn.MaxPool2d(2)(x).shape == (1, 1, 2, 2)
        assert nn.AvgPool2d(2)(x).shape == (1, 1, 2, 2)


class TestContainers:
    def test_sequential_applies_in_order(self):
        model = nn.Sequential(nn.ReLU(), nn.Flatten())
        out = model(Tensor(np.array([[[-1.0, 2.0]]])))
        np.testing.assert_allclose(out.data, [[0.0, 2.0]])

    def test_sequential_len_getitem_iter(self):
        model = nn.Sequential(nn.ReLU(), nn.Tanh())
        assert len(model) == 2
        assert isinstance(model[0], nn.ReLU)
        assert [type(m).__name__ for m in model] == ["ReLU", "Tanh"]

    def test_sequential_append(self):
        model = nn.Sequential(nn.ReLU())
        model.append(nn.Tanh())
        assert len(model) == 2

    def test_module_list_registration(self):
        ml = nn.ModuleList([nn.Linear(2, 2, rng=0), nn.Linear(2, 2, rng=1)])
        assert len(list(ml.parameters())) == 4
        assert len(ml) == 2
        assert ml[-1] is ml[1]

    def test_module_list_index_error(self):
        ml = nn.ModuleList([nn.ReLU()])
        with pytest.raises(IndexError):
            ml[3]

    def test_module_list_rejects_non_module(self):
        with pytest.raises(TypeError):
            nn.ModuleList([42])

    def test_module_list_not_callable(self):
        with pytest.raises(NotImplementedError):
            nn.ModuleList([])(1)

