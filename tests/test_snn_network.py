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
from repro.errors import ConfigurationError
from repro.snn.analysis import spike_activity
from repro.snn.encoding import PoissonEncoder
from repro.tensor import Tensor
from repro.tensor.tensor import no_grad
from tests import reference_ops
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
        counts = spike_activity(net, np.full((2, 8), 0.9)).spikes_per_layer
        assert len(counts) == 3  # encoder + 2 layers
        assert all(count >= 0 for count in counts)


def _encoder_spikes(net, x) -> float:
    return spike_activity(net, x).spikes_per_layer[0]


class TestStructuralParameterEffects:
    def test_lower_threshold_more_spikes(self):
        dense = _tiny_network(time_steps=20, v_th=0.25)
        sparse = _tiny_network(time_steps=20, v_th=2.0)
        x = np.full((2, 8), 0.9)
        assert _encoder_spikes(dense, x) > _encoder_spikes(sparse, x)

    def test_longer_window_more_spikes(self):
        net = _tiny_network(time_steps=5)
        x = np.full((1, 8), 0.9)
        short = _encoder_spikes(net, x)
        net.set_time_steps(40)
        assert _encoder_spikes(net, x) > short

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
        for cell, step in (
            (LIFCell(LIFParameters()), reference_ops.lif_step),
            (LICell(LIFParameters()), reference_ops.li_step),
        ):
            out_t, state_t = step(cell, Tensor(current0))
            out_t2, state_t2 = step(cell, Tensor(current1), state_t)
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_poisson_encoder_step_numpy_matches_oracle(self, dtype):
        # The twin itself: frame for frame, and the generator it leaves.
        x = np.random.default_rng(6).random((2, 8)).astype(dtype)
        fused_encoder = PoissonEncoder(scale=0.5, rng=123)
        oracle_encoder = PoissonEncoder(scale=0.5, rng=123)
        state = None
        for frame in reference_ops.encode(oracle_encoder, Tensor(x), 4):
            spikes, state = fused_encoder.step_numpy(x, state)
            assert state is None
            assert spikes.dtype == frame.data.dtype
            assert spikes.tobytes() == frame.data.tobytes()
        # A Poisson-encoded network's no-grad logits, as the ablation runs it.
        graph_model = _tiny_network(time_steps=4)
        fused_model = _tiny_network(time_steps=4)
        graph_model.encoder = PoissonEncoder(scale=0.5, rng=123)
        fused_model.encoder = PoissonEncoder(scale=0.5, rng=123)
        with unrolled_graph(graph_model):
            reference = graph_model(Tensor(x))
        with no_grad():
            fused = fused_model(Tensor(x))
        assert fused_model.fused_forward_count == 1
        assert fused.data.dtype == reference.data.dtype
        assert fused.data.tobytes() == reference.data.tobytes()
        for a, b in ((fused_encoder, oracle_encoder), (fused_model.encoder, graph_model.encoder)):
            assert a._rng.bit_generator.state == b._rng.bit_generator.state

    def test_predict_batched_uses_identical_logits(self):
        from repro.attacks.base import predict_batched
        from repro.tensor.tensor import no_grad

        model = _tiny_network(time_steps=5)
        x = np.random.default_rng(8).random((6, 8)).astype(np.float32)
        predictions = predict_batched(model, x, batch_size=4)
        with no_grad():
            reference = model(Tensor(x)).data.argmax(axis=1)
        np.testing.assert_array_equal(predictions, reference)

    def test_consistent_cell_override_keeps_fused_path(self):
        class PairedCell(LIFCell):
            def step_numpy(self, input_current, state=None):
                return super().step_numpy(input_current, state)

            def step_record_numpy(self, input_current, state=None):
                return super().step_record_numpy(input_current, state)

            def step_backward_numpy(self, g_spikes, g_state, ctx):
                return super().step_backward_numpy(g_spikes, g_state, ctx)

        params = LIFParameters(surrogate_alpha=5.0)

        def build(cell_cls):
            layers = [SpikingLayer(nn.Linear(8, 6, rng=0), cell_cls(params))]
            readout = SpikingReadout(nn.Linear(6, 3, rng=1), LICell(params))
            return SpikingNetwork(
                ConstantCurrentLIFEncoder(params), layers, readout, time_steps=4
            )

        x = Tensor(np.random.default_rng(9).random((2, 8)).astype(np.float32))
        with no_grad():
            paired = build(PairedCell)(x)
            plain = build(LIFCell)(x)
        np.testing.assert_array_equal(paired.data, plain.data)

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


class TestTwinContract:
    """A network runs only on numpy twins; a module without them is rejected.

    Each rejection names the module by its path in the network.
    """

    class DoubledLIFCell(LIFCell):
        """Overrides one twin but not its partners."""

        def step_numpy(self, input_current, state=None):
            return super().step_numpy(input_current * 2.0, state)

    class TensorOnlyEncoder(nn.Module):
        """An encoder with a Tensor step and no numpy twins."""

        def step(self, image, state=None):
            return image, state

    class DoubledMaxDecoder(MaxMembraneDecoder):
        """Overrides ``forward`` but not its ``decode_numpy`` twin."""

        def forward(self, trace):
            return super().forward(trace) * 2.0

    class NoBackwardScaler(nn.Module):
        """A transform with forward twins but no ``backward_numpy``."""

        def forward(self, x):
            return x * 0.5

        def forward_numpy(self, x):
            return x * 0.5

        def forward_record_numpy(self, x):
            return x * 0.5, None

    @staticmethod
    def _build(cell=None, transform=None):
        params = LIFParameters(surrogate_alpha=5.0)
        hidden = nn.Linear(8, 6, rng=0)
        layers = [
            SpikingLayer(
                hidden if transform is None else nn.Sequential(transform, hidden),
                cell if cell is not None else LIFCell(params),
            )
        ]
        readout = SpikingReadout(nn.Linear(6, 3, rng=1), LICell(params))
        return SpikingNetwork(
            ConstantCurrentLIFEncoder(params), layers, readout, time_steps=4
        )

    def test_cell_missing_step_record_numpy_is_rejected(self):
        # The readout integrator records no BPTT context, so it cannot be
        # a hidden population.
        with pytest.raises(ConfigurationError, match=r"layers\.0\.cell \(LICell\)"):
            self._build(cell=LICell(LIFParameters()))

    def test_cell_overriding_step_numpy_alone_is_rejected(self):
        with pytest.raises(ConfigurationError, match=r"layers\.0\.cell \(DoubledLIFCell\)"):
            self._build(cell=self.DoubledLIFCell(LIFParameters()))

    def test_transform_with_only_a_tensor_forward_is_rejected(self):
        class Halve(nn.Module):
            def forward(self, x):
                return x * 0.5

        with pytest.raises(ConfigurationError, match=r"layers\.0\.transform\.0 \(Halve\)"):
            self._build(transform=Halve())

    def test_transform_without_backward_numpy_is_rejected(self):
        with pytest.raises(
            ConfigurationError, match=r"layers\.0\.transform\.0 \(NoBackwardScaler\)"
        ):
            self._build(transform=self.NoBackwardScaler())

    def test_swapped_in_encoder_without_twins_is_rejected(self):
        from repro.attacks.base import input_gradient

        model = _tiny_network(time_steps=4)
        model.encoder = self.TensorOnlyEncoder()
        x = np.random.default_rng(12).random((2, 8)).astype(np.float32)
        with pytest.raises(ConfigurationError, match=r"encoder \(TensorOnlyEncoder\)"):
            with no_grad():
                model(Tensor(x))
        with pytest.raises(ConfigurationError, match=r"encoder \(TensorOnlyEncoder\)"):
            input_gradient(model, x, np.array([0, 1]))

    def test_decoder_overriding_forward_alone_is_rejected(self):
        model = _tiny_network(time_steps=4)
        with pytest.raises(ConfigurationError, match=r"decoder \(DoubledMaxDecoder\)"):
            SpikingNetwork(
                model.encoder,
                model.layers,
                model.readout,
                time_steps=4,
                decoder=self.DoubledMaxDecoder(),
            )

    def test_swapped_in_encoder_cell_overriding_one_twin_is_rejected(self):
        model = _tiny_network(time_steps=4)
        model.encoder.cell = self.DoubledLIFCell(LIFParameters(surrogate_alpha=5.0))
        x = Tensor(np.random.default_rng(12).random((2, 8)).astype(np.float32))
        with pytest.raises(ConfigurationError, match=r"encoder\.cell \(DoubledLIFCell\)"):
            model(x)
