"""SpikingNetwork: structure, structural parameters, decoders, gradients."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.models import build_model
from repro.snn import (
    ConstantCurrentLIFEncoder,
    LastMembraneDecoder,
    LIFCell,
    LIFParameters,
    LICell,
    MaxMembraneDecoder,
    MeanMembraneDecoder,
    SpikeCountDecoder,
    SpikingLayer,
    SpikingNetwork,
    SpikingReadout,
)
from repro.tensor import Tensor
from tests.reference_ops import unrolled_graph


def _tiny_network(time_steps=4, v_th=1.0, vary_encoder=True) -> SpikingNetwork:
    params = LIFParameters(v_th=v_th, surrogate_alpha=5.0)
    layers = [
        SpikingLayer(nn.Linear(8, 6, rng=0), LIFCell(params)),
        SpikingLayer(nn.Linear(6, 5, rng=1), LIFCell(params)),
    ]
    readout = SpikingReadout(nn.Linear(5, 3, rng=2), LICell(params))
    return SpikingNetwork(
        ConstantCurrentLIFEncoder(params),
        layers,
        readout,
        time_steps=time_steps,
        vary_encoder_threshold=vary_encoder,
    )


class TestStructure:
    def test_forward_shape(self):
        net = _tiny_network()
        out = net(Tensor(np.random.default_rng(0).random((7, 8))))
        assert out.shape == (7, 3)

    def test_invalid_time_steps(self):
        with pytest.raises(ValueError):
            _tiny_network(time_steps=0)
        with pytest.raises(ValueError):
            _tiny_network().set_time_steps(-1)

    def test_set_time_steps(self):
        net = _tiny_network(time_steps=4)
        net.set_time_steps(9)
        assert net.time_steps == 9
        out = net(Tensor(np.zeros((1, 8))))
        assert out.shape == (1, 3)

    def test_set_v_th_applies_to_all_layers(self):
        net = _tiny_network()
        net.set_v_th(1.75)
        assert net.v_th == 1.75
        for layer in net.layers:
            assert layer.cell.params.v_th == 1.75
        assert net.encoder.cell.params.v_th == 1.75

    def test_set_v_th_can_spare_encoder(self):
        net = _tiny_network(vary_encoder=False)
        original = net.encoder.cell.params.v_th
        net.set_v_th(2.0)
        assert net.encoder.cell.params.v_th == original
        assert net.v_th == 2.0

    def test_parameters_cover_all_stages(self):
        net = _tiny_network()
        names = dict(net.named_parameters())
        assert any(name.startswith("layers.0") for name in names)
        assert any(name.startswith("readout") for name in names)

    def test_repr(self):
        assert "SpikingNetwork(T=4" in repr(_tiny_network())

    def test_spike_counts_diagnostic(self):
        net = _tiny_network()
        counts = net.spike_counts(Tensor(np.full((2, 8), 0.9)))
        assert len(counts) == 3  # encoder + 2 layers
        assert all(float(c.data) >= 0 for c in counts)


class TestStructuralParameterEffects:
    def test_lower_threshold_more_spikes(self):
        dense = _tiny_network(time_steps=20, v_th=0.25)
        sparse = _tiny_network(time_steps=20, v_th=2.0)
        x = Tensor(np.full((2, 8), 0.9))
        dense_count = float(dense.spike_counts(x)[0].data)
        sparse_count = float(sparse.spike_counts(x)[0].data)
        assert dense_count > sparse_count

    def test_longer_window_more_spikes(self):
        net = _tiny_network(time_steps=5)
        x = Tensor(np.full((1, 8), 0.9))
        short = float(net.spike_counts(x)[0].data)
        net.set_time_steps(40)
        long = float(net.spike_counts(x)[0].data)
        assert long > short

    def test_input_gradient_exists_when_window_covers_depth(self):
        net = _tiny_network(time_steps=12)
        x = Tensor(np.random.default_rng(0).random((2, 8)), requires_grad=True)
        net(x).sum().backward()
        assert x.grad is not None


class TestDecoders:
    def _trace(self):
        return [
            Tensor(np.array([[1.0, 0.0]])),
            Tensor(np.array([[3.0, 1.0]])),
            Tensor(np.array([[2.0, 4.0]])),
        ]

    def test_max_decoder(self):
        out = MaxMembraneDecoder()(self._trace())
        np.testing.assert_allclose(out.data, [[3.0, 4.0]])

    def test_mean_decoder(self):
        out = MeanMembraneDecoder()(self._trace())
        np.testing.assert_allclose(out.data, [[2.0, 5.0 / 3.0]])

    def test_last_decoder(self):
        out = LastMembraneDecoder()(self._trace())
        np.testing.assert_allclose(out.data, [[2.0, 4.0]])

    def test_spike_count_decoder(self):
        out = SpikeCountDecoder()(self._trace())
        np.testing.assert_allclose(out.data, [[6.0, 5.0]])

    @pytest.mark.parametrize(
        "decoder",
        [MaxMembraneDecoder(), MeanMembraneDecoder(), LastMembraneDecoder(), SpikeCountDecoder()],
    )
    def test_empty_trace_raises(self, decoder):
        with pytest.raises(ValueError):
            decoder([])


class TestBuilderOptions:
    def test_decoder_selection(self):
        mean_net = build_model("snn_lenet_mini", input_size=12, time_steps=4, decoder="mean", rng=0)
        assert isinstance(mean_net.decoder, MeanMembraneDecoder)
        max_net = build_model("snn_lenet_mini", input_size=12, time_steps=4, decoder="max", rng=0)
        assert isinstance(max_net.decoder, MaxMembraneDecoder)

    def test_unknown_decoder_raises(self):
        with pytest.raises(ValueError, match="unknown decoder"):
            build_model("snn_lenet_mini", input_size=12, decoder="median", rng=0)

    def test_weight_gain_scales_weights(self):
        base = build_model("snn_lenet_mini", input_size=12, weight_gain=1.0, rng=0)
        gained = build_model("snn_lenet_mini", input_size=12, weight_gain=2.0, rng=0)
        w_base = dict(base.named_parameters())["layers.0.transform.weight"]
        w_gained = dict(gained.named_parameters())["layers.0.transform.weight"]
        np.testing.assert_allclose(w_gained.data, 2.0 * w_base.data, rtol=1e-6)

    def test_weight_gain_spares_biases(self):
        base = build_model("snn_lenet_mini", input_size=12, weight_gain=1.0, rng=0)
        gained = build_model("snn_lenet_mini", input_size=12, weight_gain=3.0, rng=0)
        b_base = dict(base.named_parameters())["layers.0.transform.bias"]
        b_gained = dict(gained.named_parameters())["layers.0.transform.bias"]
        np.testing.assert_array_equal(b_gained.data, b_base.data)

    def test_invalid_weight_gain(self):
        with pytest.raises(ValueError):
            build_model("snn_lenet_mini", input_size=12, weight_gain=0.0, rng=0)


class TestFusedInferencePath:
    """The no_grad fast path must be bitwise identical to the autograd path.

    Each grad-mode reference runs under ``unrolled_graph``: the default
    grad-mode forward is itself a fused path.
    """

    @pytest.mark.parametrize("reset_mode", ["hard", "soft"])
    @pytest.mark.parametrize("decoder", ["max", "mean", "last"])
    def test_nograd_forward_matches_autograd(self, decoder, reset_mode):
        from repro.tensor.tensor import no_grad

        model = build_model(
            "snn_lenet_mini",
            input_size=12,
            time_steps=6,
            lif_params=LIFParameters(reset_mode=reset_mode),
            decoder=decoder,
            rng=0,
        )
        x = Tensor(np.random.default_rng(3).random((4, 1, 12, 12)).astype(np.float32))
        with unrolled_graph(model):
            reference = model(x)
        with no_grad():
            fused = model(x)
        np.testing.assert_array_equal(fused.data, reference.data)
        assert not fused.requires_grad

    def test_cell_step_numpy_matches_step(self):
        rng = np.random.default_rng(11)
        current0 = rng.standard_normal((3, 7)).astype(np.float32)
        current1 = rng.standard_normal((3, 7)).astype(np.float32)
        for cell in (LIFCell(LIFParameters()), LICell(LIFParameters())):
            out_t, state_t = cell.step(Tensor(current0))
            out_t2, state_t2 = cell.step(Tensor(current1), state_t)
            out_n, state_n = cell.step_numpy(current0)
            out_n2, state_n2 = cell.step_numpy(current1, state_n)
            np.testing.assert_array_equal(out_t2.data, out_n2)
            np.testing.assert_array_equal(state_t2.i.data, state_n2[0])
            np.testing.assert_array_equal(state_t2.v.data, state_n2[1])

    def test_float64_inputs_stay_bitwise_identical(self):
        # The repo's weights are float64; scalar promotion must match the
        # Tensor engine's default-dtype cast in that regime too.
        from repro.tensor.tensor import no_grad

        model = _tiny_network(time_steps=5)
        x = Tensor(np.random.default_rng(5).random((2, 8)).astype(np.float64))
        with unrolled_graph(model):
            reference = model(x)
        with no_grad():
            fused = model(x)
        np.testing.assert_array_equal(fused.data, reference.data)

    def test_fallback_for_encoder_without_numpy_twin(self):
        from repro.snn.encoding import PoissonEncoder
        from repro.tensor.tensor import no_grad

        graph_model = _tiny_network(time_steps=4)
        fused_model = _tiny_network(time_steps=4)
        graph_model.encoder = PoissonEncoder(scale=0.5, rng=123)
        fused_model.encoder = PoissonEncoder(scale=0.5, rng=123)
        x = Tensor(np.random.default_rng(6).random((2, 8)).astype(np.float32))
        with unrolled_graph(graph_model):
            reference = graph_model(x)
        with no_grad():
            fused = fused_model(x)
        np.testing.assert_array_equal(fused.data, reference.data)

    def test_predict_batched_uses_identical_logits(self):
        from repro.attacks.base import predict_batched
        from repro.tensor.tensor import no_grad

        model = _tiny_network(time_steps=5)
        x = np.random.default_rng(8).random((6, 8)).astype(np.float32)
        predictions = predict_batched(model, x, batch_size=4)
        with no_grad():
            reference = model(Tensor(x)).data.argmax(axis=1)
        np.testing.assert_array_equal(predictions, reference)

    def test_custom_cell_without_numpy_twin_falls_back(self):
        # A cell overriding step() without step_numpy() must not silently
        # run the inherited base dynamics on the fused path.
        from repro.tensor.tensor import no_grad

        class DoubledLIFCell(LIFCell):
            def step(self, input_current, state=None):
                return super().step(input_current * 2.0, state)

        params = LIFParameters(surrogate_alpha=5.0)
        def build():
            layers = [SpikingLayer(nn.Linear(8, 6, rng=0), DoubledLIFCell(params))]
            readout = SpikingReadout(nn.Linear(6, 3, rng=1), LICell(params))
            return SpikingNetwork(
                ConstantCurrentLIFEncoder(params), layers, readout, time_steps=4
            )

        model = build()
        assert not model._fused_ready()
        x = Tensor(np.random.default_rng(9).random((2, 8)).astype(np.float32))
        with unrolled_graph(model):
            reference = model(x)
        with no_grad():
            fallback = model(x)
        np.testing.assert_array_equal(fallback.data, reference.data)

    def test_consistent_cell_override_keeps_fused_path(self):
        class PairedCell(LIFCell):
            def step(self, input_current, state=None):
                return super().step(input_current, state)

            def step_numpy(self, input_current, state=None):
                return super().step_numpy(input_current, state)

        params = LIFParameters(surrogate_alpha=5.0)
        layers = [SpikingLayer(nn.Linear(8, 6, rng=0), PairedCell(params))]
        readout = SpikingReadout(nn.Linear(6, 3, rng=1), LICell(params))
        model = SpikingNetwork(
            ConstantCurrentLIFEncoder(params), layers, readout, time_steps=4
        )
        assert model._fused_ready()

    def test_custom_encoder_cell_disqualifies_fused_path(self):
        from repro.tensor.tensor import no_grad

        class DoubledLIFCell(LIFCell):
            def step(self, input_current, state=None):
                return super().step(input_current * 2.0, state)

        model = _tiny_network(time_steps=4)
        model.encoder.cell = DoubledLIFCell(LIFParameters(surrogate_alpha=5.0))
        assert not model._fused_ready()
        x = Tensor(np.random.default_rng(12).random((2, 8)).astype(np.float32))
        with unrolled_graph(model):
            reference = model(x)
        with no_grad():
            fallback = model(x)
        np.testing.assert_array_equal(fallback.data, reference.data)

    def test_promote_scalar_matches_tensor_promotion(self):
        # promote_scalar must coerce scalars exactly as Tensor ops do:
        # python scalars adopt the default dtype, numpy scalars keep theirs.
        from repro.tensor.tensor import promote_scalar

        x = np.linspace(0.0, 1.0, 6, dtype=np.float32).reshape(2, 3)
        for scalar in (0.8, np.float64(0.8), np.float32(0.8), 2):
            via_tensor = (Tensor(x) * scalar).data
            via_numpy = x * promote_scalar(scalar)
            assert via_tensor.dtype == via_numpy.dtype
            np.testing.assert_array_equal(via_tensor, via_numpy)

    def test_all_decoders_decode_numpy_matches_forward(self):
        rng = np.random.default_rng(21)
        trace_np = [rng.standard_normal((3, 4)).astype(np.float32) for _ in range(5)]
        trace_t = [Tensor(step) for step in trace_np]
        for decoder in (
            MaxMembraneDecoder(),
            MeanMembraneDecoder(),
            LastMembraneDecoder(),
            SpikeCountDecoder(),
        ):
            np.testing.assert_array_equal(
                decoder.decode_numpy(trace_np), decoder(trace_t).data
            )

    def test_set_v_th_invalidates_promoted_constants(self):
        # The fused path caches promoted parameter scalars keyed by params
        # identity; retuning the threshold must not serve stale constants.
        from repro.tensor.tensor import no_grad

        model = _tiny_network(time_steps=4, v_th=1.0)
        x = Tensor(np.random.default_rng(17).random((2, 8)).astype(np.float32))
        with no_grad():
            model(x)  # warm the caches at v_th=1.0
        model.set_v_th(0.25)
        with unrolled_graph(model):
            reference = model(x)
        with no_grad():
            fused = model(x)
        np.testing.assert_array_equal(fused.data, reference.data)
