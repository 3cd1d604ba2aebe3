"""Model zoo: registry, shapes, CNN/SNN topology parity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import available_models, build_model
from repro.models.lenet import pooled_size
from repro.snn import LIFParameters, SpikingNetwork
from repro.tensor import Tensor


class TestRegistry:
    def test_available_models(self):
        names = available_models()
        assert names == ("cnn5", "lenet_mini", "snn_cnn5", "snn_lenet_mini")

    def test_unknown_model_raises(self):
        with pytest.raises(ValueError, match="unknown model"):
            build_model("resnet152")

    def test_kwargs_forwarded(self):
        model = build_model("lenet_mini", input_size=12, rng=0)
        assert model.input_size == 12


class TestCNNShapes:
    @pytest.mark.parametrize("name,size", [("lenet_mini", 16), ("lenet_mini", 12), ("cnn5", 16), ("cnn5", 12)])
    def test_forward_shape(self, name, size):
        model = build_model(name, input_size=size, rng=0)
        out = model(Tensor(np.zeros((3, 1, size, size), dtype=np.float32)))
        assert out.shape == (3, 10)

    def test_num_classes_override(self):
        model = build_model("lenet_mini", input_size=16, num_classes=4, rng=0)
        out = model(Tensor(np.zeros((1, 1, 16, 16))))
        assert out.shape == (1, 4)

    def test_pooled_size(self):
        assert pooled_size(16, 2) == 4
        with pytest.raises(ValueError):
            pooled_size(2, 4)

    def test_deterministic_init(self):
        a = build_model("lenet_mini", input_size=16, rng=11)
        b = build_model("lenet_mini", input_size=16, rng=11)
        for (_n1, p1), (_n2, p2) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)


class TestSpikingShapes:
    @pytest.mark.parametrize(
        "name,size", [("snn_lenet_mini", 16), ("snn_lenet_mini", 12), ("snn_cnn5", 12)]
    )
    def test_forward_shape(self, name, size):
        model = build_model(name, input_size=size, time_steps=3, rng=0)
        out = model(Tensor(np.zeros((2, 1, size, size), dtype=np.float32)))
        assert out.shape == (2, 10)

    def test_is_spiking_network(self):
        model = build_model("snn_lenet_mini", input_size=16, rng=0)
        assert isinstance(model, SpikingNetwork)

    def test_time_steps_respected(self):
        model = build_model("snn_lenet_mini", input_size=16, time_steps=11, rng=0)
        assert model.time_steps == 11

    def test_custom_lif_params_propagate(self):
        params = LIFParameters(v_th=1.75)
        model = build_model("snn_lenet_mini", input_size=16, lif_params=params, rng=0)
        assert model.v_th == 1.75
        assert model.encoder.cell.params.v_th == 1.75


class TestTopologyParity:
    """The paper compares equal-topology CNN/SNN pairs."""

    def test_mini_pair_same_synaptic_weights(self):
        cnn = build_model("lenet_mini", input_size=16, rng=0)
        snn = build_model("snn_lenet_mini", input_size=16, rng=0)
        cnn_shapes = sorted(p.data.shape for _n, p in cnn.named_parameters())
        snn_shapes = sorted(p.data.shape for _n, p in snn.named_parameters())
        assert cnn_shapes == snn_shapes

    def test_cnn5_pair_same_synaptic_weights(self):
        cnn = build_model("cnn5", input_size=16, rng=0)
        snn = build_model("snn_cnn5", input_size=16, rng=0)
        cnn_shapes = sorted(p.data.shape for _n, p in cnn.named_parameters())
        snn_shapes = sorted(p.data.shape for _n, p in snn.named_parameters())
        assert cnn_shapes == snn_shapes


class TestStateDictRoundTrip:
    def test_snn_state_dict(self):
        a = build_model("snn_lenet_mini", input_size=12, time_steps=3, rng=0)
        b = build_model("snn_lenet_mini", input_size=12, time_steps=3, rng=9)
        x = Tensor(np.random.default_rng(0).random((2, 1, 12, 12)).astype(np.float32))
        assert not np.allclose(a(x).data, b(x).data)
        b.load_state_dict(a.state_dict())
        np.testing.assert_allclose(a(x).data, b(x).data, rtol=1e-6)

    def test_cnn_state_dict_npz_roundtrip(self, tmp_path):
        from repro.utils import load_npz, save_npz

        model = build_model("lenet_mini", input_size=12, rng=0)
        path = save_npz(tmp_path / "model.npz", model.state_dict(), {"arch": "lenet_mini"})
        arrays, meta = load_npz(path)
        clone = build_model("lenet_mini", input_size=12, rng=5)
        clone.load_state_dict(arrays)
        assert meta["arch"] == "lenet_mini"
        x = Tensor(np.zeros((1, 1, 12, 12), dtype=np.float32))
        np.testing.assert_allclose(model(x).data, clone(x).data, rtol=1e-6)
