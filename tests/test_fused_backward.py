"""Parity contracts of the fused BPTT gradient path (PR 5).

The graph-free backward (``repro.snn.backward``) must be indistinguishable
from differentiating the unrolled autograd graph, at every level:

* **Plan backward twins** — each synaptic transform's ``backward_numpy``
  must reproduce the Tensor op's backward closure bit for bit, and agree
  with float64 central differences.
* **Cell backward steps** — ``step_backward_numpy`` must match one
  autograd step of the LIF/LI dynamics exactly.
* **End to end** — ``fused_input_gradient`` / ``fused_loss_backward``
  and the default grad-mode forward must equal ``loss.backward()``
  through the full unrolled graph (including the None-vs-zero gradient
  distinction for structurally dead stages), Trainer runs must train
  identical weights, and gradient-based attacks must produce identical
  outcomes on either path.
* **The tape** — the recorded forward keeps only what the backward reads
  (one membrane per LIF step of its window, a one-byte max-pool routing
  code), and training never forms the first layer's unread input gradient.
* **The forward windows** — both forward loops run each stage only on
  the steps whose output can still reach the decoded membrane, for a
  single network and per lane of a ragged stack, with logits, gradients
  and a Poisson encoder's stream unchanged.

Every reference leg runs under :func:`tests.reference_ops.unrolled_graph`,
so the oracle is the unrolled autograd loop of ``tests/reference_ops.py``
and never the fused path it checks.
"""

from __future__ import annotations

import contextlib
from dataclasses import replace

import numpy as np
import pytest

from repro import nn
from repro.attacks import BIM, FGSM, PGD, evaluate_attack_sweep
from repro.attacks.base import input_gradient
from repro.data.dataset import ArrayDataset
from repro.models import build_model
from repro.models.spiking_lenet import build_spiking_lenet_mini
from repro.snn import backward as bptt
from repro.snn.encoding import ConstantCurrentLIFEncoder, PoissonEncoder
from repro.snn.network import NetworkLanes, SpikingLayer, SpikingNetwork, SpikingReadout
from repro.snn.neuron import LICell, LIFCell, LIFParameters
from repro.snn.stack import VariantStack
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor, no_grad
from repro.training import Trainer, TrainingConfig
from tests import reference_ops
from tests.reference_ops import unrolled_graph

SPIKING_MODELS = ["snn_lenet_mini", "snn_cnn5"]


def _autograd_input_gradient(model, images, labels):
    """The reference path: differentiate the unrolled graph."""
    x = Tensor(images.copy(), requires_grad=True)
    with unrolled_graph(model):
        loss = F.cross_entropy(model(x), labels)
    loss.backward()
    return x.grad if x.grad is not None else np.zeros_like(images)


def _path(model, fused):
    """The default fused path, or the oracle's unrolled graph."""
    return contextlib.nullcontext() if fused else unrolled_graph(model)


def _forward_backward(model, images, labels):
    """One grad-mode forward + loss backward; returns ``(logits, x.grad)``."""
    x = Tensor(images.copy(), requires_grad=True)
    logits = model(x)
    F.cross_entropy(logits, labels).backward()
    return logits.data, x.grad


def _graph_ops(tensor):
    """Op names of every node of the autograd graph behind ``tensor``."""
    return [node._op for node in tensor._topological_order()]


def _param_grads(model):
    return {
        name: None if param.grad is None else param.grad.copy()
        for name, param in model.named_parameters()
    }


def _numerical_input_gradient(forward, x, g, eps=1e-6):
    """Float64 central differences of ``sum(forward(x) * g)``."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for position in range(flat.size):
        original = flat[position]
        flat[position] = original + eps
        plus = float((forward(x) * g).sum())
        flat[position] = original - eps
        minus = float((forward(x) * g).sum())
        flat[position] = original
        grad_flat[position] = (plus - minus) / (2.0 * eps)
    return grad


class TestTransformBackwardTwins:
    """backward_numpy == the Tensor closure, and == central differences.

    The conv and pooling Tensor ops run on the same plans as
    ``backward_numpy``, so those twins are held to the closures of
    ``tests/reference_ops.py`` instead.
    """

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("bias", [True, False])
    def test_conv2d(self, rng, stride, padding, bias):
        conv = nn.Conv2d(3, 5, 3, stride=stride, padding=padding, bias=bias, rng=0)
        x = rng.standard_normal((4, 3, 9, 9)).astype(np.float32)
        g = rng.standard_normal(conv.forward_numpy(x).shape).astype(np.float32)

        xt = Tensor(x.copy(), requires_grad=True)
        out = reference_ops.conv2d(
            xt, conv.weight, conv.bias, stride=conv.stride, padding=conv.padding
        )
        out.backward(g)

        y, ctx = conv.forward_record_numpy(x)
        np.testing.assert_array_equal(y, out.data)
        sink: list = []
        grad_x = conv.backward_numpy(g, ctx, sink)
        np.testing.assert_array_equal(grad_x, xt.grad)
        grads = {id(param): grad for param, grad in sink}
        np.testing.assert_array_equal(grads[id(conv.weight)], conv.weight.grad)
        if bias:
            np.testing.assert_array_equal(grads[id(conv.bias)], conv.bias.grad)
        assert len(sink) == (2 if bias else 1)

    def test_conv2d_gradcheck(self, rng):
        conv = nn.Conv2d(2, 3, 3, padding=1, rng=0)
        x64 = rng.standard_normal((2, 2, 5, 5))
        g64 = rng.standard_normal((2, 3, 5, 5))
        _y, ctx = conv.forward_record_numpy(x64)
        analytic = conv.backward_numpy(g64, ctx)
        numeric = _numerical_input_gradient(conv.forward_numpy, x64, g64)
        np.testing.assert_allclose(analytic, numeric, atol=1e-6, rtol=1e-4)

    @pytest.mark.parametrize("kernel,stride", [(2, None), (2, 2), (3, 2), (2, 3)])
    def test_max_pool(self, rng, kernel, stride):
        pool = nn.MaxPool2d(kernel, stride)
        x = rng.standard_normal((3, 2, 9, 8)).astype(np.float32)
        y, ctx = pool.forward_record_numpy(x)
        g = rng.standard_normal(y.shape).astype(np.float32)

        xt = Tensor(x.copy(), requires_grad=True)
        out = reference_ops.max_pool2d(xt, kernel, stride)
        out.backward(g)
        np.testing.assert_array_equal(y, out.data)
        np.testing.assert_array_equal(pool.backward_numpy(g, ctx), xt.grad)

    def test_max_pool_tie_routing_matches_argmax(self, rng):
        # Binary spike tensors tie constantly; first index must win.
        pool = nn.MaxPool2d(2)
        x = (rng.random((4, 3, 8, 8)) > 0.5).astype(np.float32)
        y, ctx = pool.forward_record_numpy(x)
        g = rng.standard_normal(y.shape).astype(np.float32)
        xt = Tensor(x.copy(), requires_grad=True)
        out = reference_ops.max_pool2d(xt, 2)
        out.backward(g)
        np.testing.assert_array_equal(pool.backward_numpy(g, ctx), xt.grad)

    @pytest.mark.parametrize("kernel,stride", [(2, None), (3, 2)])
    def test_avg_pool(self, rng, kernel, stride):
        pool = nn.AvgPool2d(kernel, stride)
        x = rng.standard_normal((3, 2, 9, 8)).astype(np.float32)
        y, ctx = pool.forward_record_numpy(x)
        g = rng.standard_normal(y.shape).astype(np.float32)
        xt = Tensor(x.copy(), requires_grad=True)
        out = reference_ops.avg_pool2d(xt, kernel, stride)
        out.backward(g)
        np.testing.assert_array_equal(pool.backward_numpy(g, ctx), xt.grad)

    @pytest.mark.parametrize("bias", [True, False])
    def test_linear(self, rng, bias):
        linear = nn.Linear(12, 7, bias=bias, rng=0)
        x = rng.standard_normal((5, 12)).astype(np.float32)
        y, ctx = linear.forward_record_numpy(x)
        g = rng.standard_normal(y.shape).astype(np.float32)
        xt = Tensor(x.copy(), requires_grad=True)
        out = linear(xt)
        out.backward(g)
        np.testing.assert_array_equal(y, out.data)
        sink: list = []
        np.testing.assert_array_equal(linear.backward_numpy(g, ctx, sink), xt.grad)
        grads = {id(param): grad for param, grad in sink}
        np.testing.assert_array_equal(grads[id(linear.weight)], linear.weight.grad)
        if bias:
            np.testing.assert_array_equal(grads[id(linear.bias)], linear.bias.grad)

    def test_flatten(self, rng):
        flatten = nn.Flatten()
        x = rng.standard_normal((3, 2, 4, 4)).astype(np.float32)
        y, ctx = flatten.forward_record_numpy(x)
        g = rng.standard_normal(y.shape).astype(np.float32)
        xt = Tensor(x.copy(), requires_grad=True)
        out = flatten(xt)
        out.backward(g)
        np.testing.assert_array_equal(flatten.backward_numpy(g, ctx), xt.grad)

    def test_sequential_chains_members_and_sink_order(self, rng):
        pipeline = nn.Sequential(
            nn.MaxPool2d(2), nn.Flatten(), nn.Linear(2 * 4 * 4, 6, rng=0)
        )
        x = rng.standard_normal((3, 2, 8, 8)).astype(np.float32)
        y, ctx = pipeline.forward_record_numpy(x)
        g = rng.standard_normal(y.shape).astype(np.float32)
        xt = Tensor(x.copy(), requires_grad=True)
        out = pipeline(xt)
        out.backward(g)
        np.testing.assert_array_equal(y, out.data)
        sink: list = []
        np.testing.assert_array_equal(pipeline.backward_numpy(g, ctx, sink), xt.grad)
        linear = pipeline[2]
        # Deepest member first, weight before bias — the autograd order.
        assert [id(param) for param, _ in sink] == [
            id(linear.weight), id(linear.bias)
        ]


class TestCellBackwardSteps:
    """step_record/step_backward == one autograd step, bit for bit."""

    def _autograd_step(self, cell, current, i_prev, v_prev, g_out, g_i, g_v):
        """One Tensor-path step with upstream grads on all three outputs."""
        current_t = Tensor(current.copy(), requires_grad=True)
        i_t = Tensor(i_prev.copy(), requires_grad=True)
        v_t = Tensor(v_prev.copy(), requires_grad=True)
        if isinstance(cell, LIFCell):
            step, state_cls = reference_ops.lif_step, reference_ops.LIFState
        else:
            step, state_cls = reference_ops.li_step, reference_ops.LIState
        out, state = step(cell, current_t, state_cls(i=i_t, v=v_t))
        total = (
            (out * Tensor(g_out)).sum()
            + (state.i * Tensor(g_i)).sum()
            + (state.v * Tensor(g_v)).sum()
        )
        total.backward()
        return out, state, current_t.grad, i_t.grad, v_t.grad

    @pytest.mark.parametrize("reset_mode", ["hard", "soft"])
    @pytest.mark.parametrize(
        "surrogate", ["superspike", "triangle", "arctan", "sigmoid", "straight"]
    )
    def test_lif_cell(self, rng, reset_mode, surrogate):
        params = LIFParameters(
            reset_mode=reset_mode, surrogate=surrogate, surrogate_alpha=10.0
        )
        cell = LIFCell(params)
        current = rng.standard_normal((4, 6)).astype(np.float32)
        i_prev = rng.standard_normal((4, 6)).astype(np.float32)
        v_prev = rng.standard_normal((4, 6)).astype(np.float32)
        g_out = rng.standard_normal((4, 6)).astype(np.float32)
        g_i = rng.standard_normal((4, 6)).astype(np.float32)
        g_v = rng.standard_normal((4, 6)).astype(np.float32)

        spikes, (i_new, v_new), ctx = cell.step_record_numpy(
            current, (i_prev, v_prev)
        )
        ref_out, ref_state, ref_g_current, ref_g_i, ref_g_v = self._autograd_step(
            cell, current, i_prev, v_prev, g_out, g_i, g_v
        )
        np.testing.assert_array_equal(spikes, ref_out.data)
        np.testing.assert_array_equal(i_new, ref_state.i.data)
        np.testing.assert_array_equal(v_new, ref_state.v.data)

        g_current, (g_i_prev, g_v_prev) = cell.step_backward_numpy(
            g_out, (g_i, g_v), ctx
        )
        np.testing.assert_array_equal(g_current, ref_g_current)
        np.testing.assert_array_equal(g_i_prev, ref_g_i)
        np.testing.assert_array_equal(g_v_prev, ref_g_v)

    def test_li_cell(self, rng):
        cell = LICell()
        current = rng.standard_normal((4, 6)).astype(np.float32)
        i_prev = rng.standard_normal((4, 6)).astype(np.float32)
        v_prev = rng.standard_normal((4, 6)).astype(np.float32)
        g_out = rng.standard_normal((4, 6)).astype(np.float32)
        g_i = rng.standard_normal((4, 6)).astype(np.float32)

        # The LI membrane *is* the state v, so its upstream gradient is
        # the decoder piece plus the recurrent pieces; the engine folds
        # them before calling the cell.  Check against autograd with the
        # combined membrane gradient and zero extra v-grad.
        _out, _state, ref_g_current, ref_g_i, ref_g_v = self._autograd_step(
            cell, current, i_prev, v_prev, g_out, g_i, np.zeros_like(g_out)
        )
        g_current, (g_i_prev, g_v_direct, g_v_leak) = cell.step_backward_numpy(
            g_out, g_i
        )
        np.testing.assert_array_equal(g_current, ref_g_current)
        np.testing.assert_array_equal(g_i_prev, ref_g_i)
        # The two v-pieces sum to the autograd v-gradient (the engine
        # interleaves the decoder contribution between them).
        np.testing.assert_allclose(g_v_direct + g_v_leak, ref_g_v, rtol=1e-6)


class TestEndToEndParity:
    """fused_input_gradient / fused_loss_backward == the unrolled graph."""

    def _data(self, rng, size, n=3):
        images = rng.random((n, 1, size, size)).astype(np.float32)
        labels = (np.arange(n) % 10).astype(np.int64)
        return images, labels

    @pytest.mark.parametrize("name", SPIKING_MODELS)
    def test_input_gradient_bitwise_identical(self, rng, name):
        size = 16
        model = build_model(name, input_size=size, time_steps=10, rng=0)
        images, labels = self._data(rng, size)
        reference = _autograd_input_gradient(model, images, labels)
        fused = model.fused_input_gradient(images, labels)
        assert fused.dtype == reference.dtype
        np.testing.assert_array_equal(fused, reference)

    @pytest.mark.parametrize("time_steps", [2, 5, 8, 16])
    def test_structural_latency_windows(self, rng, time_steps):
        # Small T exercises the dead-stage wavefront (including the
        # all-dead case where the input gradient is exactly zero).
        model = build_model(
            "snn_lenet_mini", input_size=16, time_steps=time_steps, rng=0
        )
        images, labels = self._data(rng, 16)
        reference = _autograd_input_gradient(model, images, labels)
        np.testing.assert_array_equal(
            model.fused_input_gradient(images, labels), reference
        )

    @pytest.mark.parametrize("decoder", ["max", "mean", "last"])
    def test_decoders(self, rng, decoder):
        model = build_spiking_lenet_mini(time_steps=10, decoder=decoder, rng=0)
        images, labels = self._data(rng, 16)
        reference = _autograd_input_gradient(model, images, labels)
        np.testing.assert_array_equal(
            model.fused_input_gradient(images, labels), reference
        )

    # A non-zero v_reset makes three gradients meet on the spikes of a hard
    # reset, so their summation order must be the autograd engine's.  At the
    # default threshold these inputs round the same in either order; at
    # v_th=0.1 they do not.
    @pytest.mark.parametrize(
        "reset_mode,v_reset,v_th",
        [
            pytest.param("hard", 0.0, 1.0, id="hard"),
            pytest.param("soft", 0.0, 1.0, id="soft"),
            pytest.param("hard", -0.3, 0.1, id="hard-v_reset"),
            pytest.param("soft", -0.3, 0.1, id="soft-v_reset"),
        ],
    )
    def test_reset_modes(self, rng, reset_mode, v_reset, v_th):
        params = LIFParameters(reset_mode=reset_mode, v_reset=v_reset, v_th=v_th)
        model = build_spiking_lenet_mini(time_steps=10, lif_params=params, rng=0)
        images, labels = self._data(rng, 16)
        reference = _autograd_input_gradient(model, images, labels)
        ref_params = _param_grads(model)
        model.zero_grad()
        np.testing.assert_array_equal(
            model.fused_input_gradient(images, labels), reference
        )
        model.fused_loss_backward(images, labels)
        for name, grad in _param_grads(model).items():
            assert (grad is None) == (ref_params[name] is None), name
            if grad is not None:
                np.testing.assert_array_equal(grad, ref_params[name])
        # A 2-lane stack drives the same reset arithmetic with per-lane
        # constants (the lanes differ in v_th and T).
        other = build_spiking_lenet_mini(
            time_steps=7, lif_params=replace(params, v_th=v_th + 0.3), rng=1
        )
        stack = VariantStack([model, other])
        folded = stack.fused_input_gradient(
            stack.fold([images, images]), [labels, labels]
        )
        n = len(images)
        np.testing.assert_array_equal(folded[:n], reference)
        np.testing.assert_array_equal(
            folded[n:], _autograd_input_gradient(other, images, labels)
        )

    def test_poisson_encoder(self, rng):
        images, labels = self._data(rng, 16)
        model = build_model("snn_lenet_mini", input_size=16, time_steps=10, rng=0)
        model.encoder = PoissonEncoder(scale=0.5, rng=7)
        reference = _autograd_input_gradient(model, images, labels)
        model.encoder = PoissonEncoder(scale=0.5, rng=7)
        np.testing.assert_array_equal(
            model.fused_input_gradient(images, labels), reference
        )

    def test_parameter_gradients_including_noneness(self, rng):
        # time_steps=3 leaves the earliest stages graph-disconnected, so
        # their parameters must keep grad=None (optimizers skip them).
        model = build_model("snn_lenet_mini", input_size=16, time_steps=3, rng=0)
        images, labels = self._data(rng, 16)
        _autograd_input_gradient(model, images, labels)
        reference = {
            name: None if param.grad is None else param.grad.copy()
            for name, param in model.named_parameters()
        }
        assert any(grad is None for grad in reference.values())
        assert any(grad is not None for grad in reference.values())
        model.zero_grad()
        loss_value, logits = model.fused_loss_backward(images, labels)
        assert np.isfinite(loss_value)
        assert logits.shape == (len(images), 10)
        for name, param in model.named_parameters():
            if reference[name] is None:
                assert param.grad is None, name
            else:
                np.testing.assert_array_equal(param.grad, reference[name])

    def test_input_gradient_advances_the_backward_counter(self, rng):
        model = build_model("snn_lenet_mini", input_size=16, time_steps=6, rng=0)
        images, labels = self._data(rng, 16)
        input_gradient(model, images, labels)
        input_gradient(model, images, labels)
        assert model.fused_backward_count == 2
        with unrolled_graph(model):
            input_gradient(model, images, labels)
        assert model.fused_backward_count == 2

    def test_non_spiking_model_uses_autograd(self, rng):
        model = build_model("lenet_mini", input_size=16, rng=0)
        images, labels = self._data(rng, 16)
        gradient = input_gradient(model, images, labels)
        assert gradient.shape == images.shape

    def test_reference_builds_the_unrolled_graph_and_default_does_not(self, rng):
        model = build_model("snn_lenet_mini", input_size=16, time_steps=6, rng=0)
        images, _labels = self._data(rng, 16)
        with unrolled_graph(model):
            reference = model(Tensor(images))
        fused = model(Tensor(images))
        np.testing.assert_array_equal(fused.data, reference.data)
        unrolled_ops = _graph_ops(reference)
        fused_ops = _graph_ops(fused)
        assert any(op.startswith("spike[") for op in unrolled_ops)
        assert "snn.bptt" not in unrolled_ops
        # One BPTT node, one Tensor per readout step, the decoder head.
        assert fused_ops.count("snn.bptt") == 1
        assert fused_ops.count("snn.bptt.step") == 6
        assert not any(op.startswith("spike[") for op in fused_ops)
        assert len(fused_ops) < len(unrolled_ops) // 10

    @pytest.mark.parametrize("time_steps", [2, 3, 6, 12])
    @pytest.mark.parametrize("decoder", ["max", "mean", "last"])
    def test_grad_mode_forward_matches_unrolled_graph(self, rng, time_steps, decoder):
        # Below T = 6 no gradient reaches the input, and below T = 5 the
        # earliest parameters keep grad=None.
        model = build_spiking_lenet_mini(
            time_steps=time_steps, decoder=decoder, rng=0
        )
        images, labels = self._data(rng, 16)
        with unrolled_graph(model):
            ref_logits, ref_input = _forward_backward(model, images, labels)
        ref_params = _param_grads(model)
        model.zero_grad()
        logits, grad_input = _forward_backward(model, images, labels)
        assert model.fused_backward_count == 1
        np.testing.assert_array_equal(logits, ref_logits)
        assert (grad_input is None) == (ref_input is None)
        if ref_input is not None:
            np.testing.assert_array_equal(grad_input, ref_input)
        for name, grad in _param_grads(model).items():
            assert (grad is None) == (ref_params[name] is None), name
            if grad is not None:
                np.testing.assert_array_equal(grad, ref_params[name])

    def test_input_without_requires_grad_gets_no_gradient(self, rng):
        model = build_model("snn_lenet_mini", input_size=16, time_steps=8, rng=0)
        images, labels = self._data(rng, 16)
        x = Tensor(images)
        F.cross_entropy(model(x), labels).backward()
        assert x.grad is None
        assert model.fused_backward_count == 1

    def test_frozen_parameters_keep_no_gradient(self, rng):
        model = build_model("snn_lenet_mini", input_size=16, time_steps=8, rng=0)
        frozen = [model.layers[0].transform.weight, model.readout.transform.bias]
        for param in frozen:
            param.requires_grad = False
        images, labels = self._data(rng, 16)
        with unrolled_graph(model):
            _forward_backward(model, images, labels)
        reference = _param_grads(model)
        assert all(param.grad is None for param in frozen)
        for entry in ("fused_loss_backward", "forward"):
            model.zero_grad()
            if entry == "forward":
                _forward_backward(model, images, labels)
            else:
                model.fused_loss_backward(images, labels)
            assert all(param.grad is None for param in frozen), entry
            for name, grad in _param_grads(model).items():
                assert (grad is None) == (reference[name] is None), (entry, name)
                if grad is not None:
                    np.testing.assert_array_equal(grad, reference[name])


class TestAttackOutcomeParity:
    """Fused vs autograd gradients must craft identical attacks."""

    @pytest.fixture(scope="class")
    def setup(self):
        rng = np.random.default_rng(5)
        model = build_model("snn_lenet_mini", input_size=16, time_steps=10, rng=0)
        images = rng.random((12, 1, 16, 16)).astype(np.float32)
        labels = (np.arange(12) % 10).astype(np.int64)
        return model, ArrayDataset(images, labels)

    @pytest.mark.parametrize(
        "family",
        [
            lambda eps: PGD(eps, steps=4, rng=3),
            lambda eps: PGD(eps, steps=4, random_start=False),
            lambda eps: BIM(eps, steps=4),
            FGSM,
        ],
        ids=["pgd-random-start", "pgd-deterministic", "bim", "fgsm"],
    )
    def test_sweep_outcomes_identical(self, setup, family):
        model, dataset = setup
        epsilons = (0.0, 0.2, 0.6)
        fused = evaluate_attack_sweep(model, family, epsilons, dataset, batch_size=6)
        with unrolled_graph(model):
            autograd = evaluate_attack_sweep(
                model, family, epsilons, dataset, batch_size=6
            )
        assert fused == autograd

    def test_pgd_adversarial_examples_identical(self, setup):
        model, dataset = setup
        adv_fused = PGD(0.3, steps=5, rng=11).generate(
            model, dataset.images, dataset.labels
        )
        with unrolled_graph(model):
            adv_autograd = PGD(0.3, steps=5, rng=11).generate(
                model, dataset.images, dataset.labels
            )
        np.testing.assert_array_equal(adv_fused, adv_autograd)


class _Dropout(nn.Module):
    """Inverted dropout: a layer whose training mode draws fresh noise."""

    def __init__(self, p: float, rng: int) -> None:
        super().__init__()
        self.p = p
        self._rng = np.random.default_rng(rng)

    def forward(self, x: Tensor) -> Tensor:
        if not self.training:
            return x
        keep = (self._rng.random(x.shape) >= self.p).astype(x.dtype) / (1.0 - self.p)
        return x * Tensor(keep)


class TestEvalModeRestoration:
    """input_gradient must craft against deterministic eval behaviour."""

    def _dropout_model(self):
        model = nn.Sequential(
            nn.Flatten(),
            nn.Linear(16, 16, rng=0),
            _Dropout(0.5, rng=0),
            nn.Linear(16, 4, rng=1),
        )
        return model

    def test_dropout_no_longer_randomizes_gradients(self, rng):
        model = self._dropout_model()
        model.train()
        images = rng.random((3, 1, 4, 4)).astype(np.float32)
        labels = np.array([0, 1, 2])
        first = input_gradient(model, images, labels)
        second = input_gradient(model, images, labels)
        np.testing.assert_array_equal(first, second)

    def test_prior_mode_restored(self, rng):
        images = rng.random((2, 1, 4, 4)).astype(np.float32)
        labels = np.array([0, 1])
        model = self._dropout_model()
        model.train()
        input_gradient(model, images, labels)
        assert all(module.training for module in model.modules())
        model.eval()
        input_gradient(model, images, labels)
        assert not any(module.training for module in model.modules())

    def test_frozen_submodule_mode_survives(self, rng):
        # A submodule deliberately pinned to eval inside a training model
        # must come back exactly as it was — not flattened by a blanket
        # train() round-trip.
        model = self._dropout_model()
        model.train()
        frozen = model[2]
        frozen.eval()
        images = rng.random((2, 1, 4, 4)).astype(np.float32)
        labels = np.array([0, 1])
        input_gradient(model, images, labels)
        assert model.training
        assert not frozen.training

    def test_spiking_model_mode_restored(self, rng):
        model = build_model("snn_lenet_mini", input_size=16, time_steps=4, rng=0)
        model.train()
        images = rng.random((2, 1, 16, 16)).astype(np.float32)
        labels = np.array([0, 1])
        input_gradient(model, images, labels)
        assert model.training


class TestFusedTraining:
    """Trainer runs on the fused backward must train identically."""

    def _dataset(self):
        data_rng = np.random.default_rng(2)
        images = data_rng.random((24, 1, 16, 16)).astype(np.float32)
        labels = (np.arange(24) % 10).astype(np.int64)
        return ArrayDataset(images, labels)

    def _train(self, model, config, fused):
        with _path(model, fused):
            history = Trainer(model, config).fit(self._dataset())
        return history, model.state_dict()

    def _assert_same_run(self, time_steps, config):
        # snn_lenet_mini has five stateful stages (encoder, three layers,
        # readout): at T = 3 the earliest parameters get no gradient, at
        # T = 5 every parameter does but the input still gets none.
        runs = []
        for fused in (True, False):
            model = build_model(
                "snn_lenet_mini", input_size=16, time_steps=time_steps, rng=0
            )
            runs.append(self._train(model, config, fused))
            assert (model.fused_backward_count > 0) == fused
        (fused_history, fused_state), (graph_history, graph_state) = runs
        assert fused_history.train_loss == graph_history.train_loss
        assert fused_history.train_accuracy == graph_history.train_accuracy
        for name in graph_state:
            np.testing.assert_array_equal(fused_state[name], graph_state[name])

    def test_fused_epochs_match_autograd_epochs(self):
        config = TrainingConfig(epochs=2, batch_size=8, seed=3)
        for time_steps in (3, 5, 12):
            self._assert_same_run(time_steps, config)

    def test_fused_epochs_match_with_gradient_clipping(self):
        self._assert_same_run(
            12, TrainingConfig(epochs=2, batch_size=8, seed=3, max_grad_norm=0.05)
        )


def _dyadic_network(v_th, v_reset=0.0, reset_mode="hard", dtype=np.float32):
    """Encoder -> Linear -> LIF -> Linear -> LI on exactly representable values.

    ``dt * tau_inv = 0.5`` and parameters on a 1/8 grid keep the membrane
    arithmetic exact, so membranes land where a test puts them: a pixel
    ``p`` drives the encoder's decayed membrane at step 1 to exactly ``p``
    (when the encoder did not fire at step 0).
    """
    params = LIFParameters(
        v_th=v_th, v_reset=v_reset, reset_mode=reset_mode, dt=1.0 / 1024,
        tau_mem_inv=512.0, tau_syn_inv=512.0, surrogate_alpha=5.0,
    )
    hidden, readout = nn.Linear(8, 6, rng=0), nn.Linear(6, 3, rng=1)
    for param in (*hidden.parameters(), *readout.parameters()):
        param.data = (np.round(param.data * 8) / 8).astype(dtype)
    return SpikingNetwork(
        ConstantCurrentLIFEncoder(params),
        [SpikingLayer(hidden, LIFCell(params))],
        SpikingReadout(readout, LICell(params)),
        time_steps=6,
    )


def _dyadic_images(pixel, dtype=np.float32):
    """Four images on a 1/8 grid whose first pixel is ``pixel``."""
    images = np.random.default_rng(4).integers(0, 9, size=(4, 8)) / 8
    images = images.astype(dtype)
    images[:, 0] = pixel
    return images


TINY = float(np.finfo(np.float32).tiny)


class TestLIFContextEdgeCases:
    """The one-array LIF context (``v_decayed``) where ``x = v_decayed - v_th``
    is exactly zero, subnormal or signed zero: fused == the unrolled graph."""

    LABELS = np.array([0, 1, 2, 0])

    @pytest.mark.parametrize(
        "v_th,v_reset,reset_mode,pixel",
        [
            pytest.param(0.25, 0.0, "hard", 0.25, id="v_decayed==v_th"),
            pytest.param(
                TINY, 0.0, "hard", np.nextafter(np.float32(TINY), np.float32(1)),
                id="subnormal-gap",
            ),
            pytest.param(0.25, -0.5, "hard", 0.25, id="v_reset<0<v_th"),
            pytest.param(0.0, -0.5, "hard", 0.0, id="v_reset<v_th==0"),
            pytest.param(-0.25, -0.5, "hard", 0.5, id="v_reset<v_th<0"),
            pytest.param(-0.0, -0.5, "hard", 0.0, id="v_reset<v_th==-0"),
            pytest.param(0.25, 0.0, "soft", 0.25, id="soft"),
            pytest.param(0.25, -0.5, "soft", 0.25, id="soft-v_reset"),
        ],
    )
    def test_matches_unrolled_graph(self, v_th, v_reset, reset_mode, pixel):
        model = _dyadic_network(v_th, v_reset, reset_mode)
        self._assert_parity(model, _dyadic_images(pixel))
        if v_th > 0:
            # The edge case really occurs: the encoder's recorded membrane
            # at step 1 is the pixel, exactly at (or a subnormal above) v_th.
            tape = bptt.record_forward(NetworkLanes(model), _dyadic_images(pixel))
            gap = tape.encoder_ctxs[1][:, 0] - np.float32(v_th)
            assert np.all(gap == np.float32(pixel) - np.float32(v_th))
            assert np.all((gap == 0) | ((gap > 0) & (gap < TINY)))

    def test_float64_model(self):
        model = _dyadic_network(0.25, dtype=np.float64)
        self._assert_parity(model, _dyadic_images(0.25, dtype=np.float64))

    def test_float64_threshold_on_float32_model(self):
        # A numpy float64 constant promotes the float32 membrane arithmetic
        # to float64, spikes and all, on either path.
        model = _dyadic_network(np.float64(0.25))
        logits = self._assert_parity(model, _dyadic_images(0.25))
        assert logits.dtype == np.float64

    def test_stacked_lanes_match_unrolled_graph(self):
        # Per-lane threshold columns, one lane sitting on the tie.
        members = [_dyadic_network(0.25), _dyadic_network(0.375)]
        images = _dyadic_images(0.25)
        stack = VariantStack(members)
        folded = stack.fused_input_gradient(
            stack.fold([images, images]), [self.LABELS, self.LABELS]
        )
        for lane, member in enumerate(members):
            np.testing.assert_array_equal(
                folded[lane * 4 : (lane + 1) * 4],
                _autograd_input_gradient(member, images, self.LABELS),
            )

    def _assert_parity(self, model, images):
        with unrolled_graph(model):
            ref_logits, ref_input = _forward_backward(model, images, self.LABELS)
        ref_params = _param_grads(model)
        model.zero_grad()
        logits, grad_input = _forward_backward(model, images, self.LABELS)
        assert model.fused_backward_count == 1
        assert logits.dtype == ref_logits.dtype
        np.testing.assert_array_equal(logits, ref_logits)
        assert ref_input is not None and ref_input.any()
        assert grad_input.dtype == ref_input.dtype
        np.testing.assert_array_equal(grad_input, ref_input)
        for name, grad in _param_grads(model).items():
            assert (grad is None) == (ref_params[name] is None), name
            if grad is not None:
                np.testing.assert_array_equal(grad, ref_params[name])
        return logits


class _StageSpy:
    """A lane-set stage that logs its forward calls with their ``alive``."""

    FORWARDS = ("forward", "record", "step_numpy", "step_record_numpy")

    def __init__(self, stage) -> None:
        self.stage = stage
        self.calls: list[tuple[str, list[bool] | None]] = []

    def __getattr__(self, name):
        attr = getattr(self.stage, name)
        if name not in self.FORWARDS:
            return attr

        def spy(*args):
            alive = args[1] if name in ("forward", "record") else None
            self.calls.append((name, alive))
            return attr(*args)

        return spy


def _spy_stages(lanes):
    """Wrap every stage of ``lanes`` in a :class:`_StageSpy`; returns them
    in loop order: encoder, then each op and cell, readout op and cell."""
    lanes.encoder = _StageSpy(lanes.encoder)
    lanes.layer_ops = [_StageSpy(op) for op in lanes.layer_ops]
    lanes.layer_cells = [_StageSpy(cell) for cell in lanes.layer_cells]
    lanes.readout_op = _StageSpy(lanes.readout_op)
    lanes.readout_cell = _StageSpy(lanes.readout_cell)
    pairs = zip(lanes.layer_ops, lanes.layer_cells)
    return [
        lanes.encoder, *[stage for pair in pairs for stage in pair],
        lanes.readout_op, lanes.readout_cell,
    ]


class TestForwardWindows:
    """The forward loops run each stage only inside its structural window.

    With ``depth`` spiking layers and a lane of ``T`` steps, layer ``i``'s
    transform is live for ``T - 1 - (depth - i)`` steps, its cell for
    one more, the readout transform for ``T - 1`` and the readout cell
    (and the encoder) for all ``T``; step 0 always runs.  Skipping the
    rest leaves logits, gradients and gradient ``None``-ness those of the
    unrolled graph, which runs every step.
    """

    DEPTH = 3  # snn_lenet_mini

    def _data(self, n=3):
        data_rng = np.random.default_rng(5)
        images = data_rng.random((n, 1, 16, 16)).astype(np.float32)
        return images, (np.arange(n) % 10).astype(np.int64)

    def _windows(self, time_steps):
        """Expected calls per stage, in :func:`_spy_stages` order."""
        depth = self.DEPTH
        windows = [time_steps]
        for index in range(depth):
            windows += [time_steps - 1 - (depth - index), time_steps - (depth - index)]
        windows += [time_steps - 1, time_steps]
        return [max(steps, 1) for steps in windows]

    @pytest.mark.parametrize("record", [False, True], ids=["no-grad", "recorded"])
    @pytest.mark.parametrize("time_steps", [2, 4, 5, 6, 16])
    def test_each_stage_runs_its_window(self, record, time_steps):
        model = build_model("snn_lenet_mini", input_size=16, time_steps=time_steps, rng=0)
        lanes = NetworkLanes(model)
        stages = _spy_stages(lanes)
        images, _labels = self._data()
        if record:
            tape = bptt.record_forward(lanes, images)
        else:
            tape = bptt.BPTTTape(trace=bptt.run_trace(lanes, images))
        assert len(tape.trace) == time_steps
        assert [len(stage.calls) for stage in stages] == self._windows(time_steps)
        if time_steps == 16:
            # conv1 skips its last 4 steps; pool1+conv2 and LIF1 skip 3;
            # LIF2 and pool2+flatten+linear skip 2; LIF3 and the readout
            # linear skip 1.
            assert self._windows(16) == [16, 12, 13, 13, 14, 14, 15, 15, 16]
        encoder_records = sum(name == "step_record_numpy" for name, _ in stages[0].calls)
        assert encoder_records == (
            max(time_steps - 1 - self.DEPTH, 1) if record else 0
        )

    def test_a_stack_passes_each_window_as_alive(self):
        steps = (8, 5, 6)
        members = [
            build_model("snn_lenet_mini", input_size=16, time_steps=t, rng=lane)
            for lane, t in enumerate(steps)
        ]
        stack = VariantStack(members)
        stages = _spy_stages(stack)
        images, _labels = self._data()
        folded = stack.fold([images] * len(members))
        for run in (stack.forward_logits, stack.record_forward):
            for stage in stages:
                stage.calls.clear()
            run(folded)
            assert [len(stage.calls) for stage in stages] == self._windows(max(steps))
            ops = stages[1:-1:2]
            for index, op in enumerate(ops):
                hops = self.DEPTH - index + 1
                for t, (_name, alive) in enumerate(op.calls):
                    assert alive == [t <= lane_steps - 1 - hops for lane_steps in steps]
            # The encoder keeps each lane's own T.
            assert [call[1] for call in stages[0].calls] == [None] * max(steps)

    @staticmethod
    def _oracle(model, images, labels):
        """Logits, input gradient and parameter gradients of the unrolled
        graph.  At ``T = 1`` no stage reaches the readout membrane, so the
        loss requires no gradient and nothing gets one."""
        model.zero_grad()
        x = Tensor(images.copy(), requires_grad=True)
        with unrolled_graph(model):
            logits = model(x)
        loss = F.cross_entropy(logits, labels)
        if loss.requires_grad:
            loss.backward()
        return logits.data, x.grad, _param_grads(model)

    @staticmethod
    def _assert_same_params(grads, reference, where):
        for name, grad in grads.items():
            assert (grad is None) == (reference[name] is None), (where, name)
            if grad is not None:
                np.testing.assert_array_equal(grad, reference[name])

    @pytest.mark.parametrize("time_steps", range(1, DEPTH + 4))
    def test_single_network_matches_unrolled_graph(self, time_steps):
        model = build_model("snn_lenet_mini", input_size=16, time_steps=time_steps, rng=0)
        images, labels = self._data()
        with no_grad():
            np.testing.assert_array_equal(
                model(Tensor(images)).data,
                reference_ops.unrolled_forward(model, Tensor(images)).data,
            )
        ref_logits, ref_input, ref_params = self._oracle(model, images, labels)
        model.zero_grad()
        logits, grad_input = _forward_backward(model, images, labels)
        np.testing.assert_array_equal(logits, ref_logits)
        assert (grad_input is None) == (ref_input is None)
        if ref_input is not None:
            np.testing.assert_array_equal(grad_input, ref_input)
        self._assert_same_params(_param_grads(model), ref_params, "forward")
        model.zero_grad()
        model.fused_loss_backward(images, labels)
        self._assert_same_params(_param_grads(model), ref_params, "fused_loss_backward")
        expected = ref_input if ref_input is not None else np.zeros_like(images)
        np.testing.assert_array_equal(model.fused_input_gradient(images, labels), expected)

    def test_ragged_stack_matches_unrolled_graph(self):
        steps = (6, 1, 4, 2, 5)
        members = [
            build_model(
                "snn_lenet_mini", input_size=16, time_steps=t, rng=lane,
                lif_params=LIFParameters(v_th=0.5 + 0.25 * lane),
            )
            for lane, t in enumerate(steps)
        ]
        stack = VariantStack(members)
        images, labels = self._data()
        folded = stack.fold([images] * len(members))
        n = len(images)
        logits = stack.forward_logits(folded)
        gradient = stack.fused_input_gradient(folded, [labels] * len(members))
        for member in members:
            member.zero_grad()
        stack.fused_loss_backward(folded, [labels] * len(members))
        for lane, member in enumerate(members):
            stacked = _param_grads(member)
            with no_grad():
                np.testing.assert_array_equal(
                    logits[lane],
                    reference_ops.unrolled_forward(member, Tensor(images)).data,
                )
            _logits, ref_input, ref_params = self._oracle(member, images, labels)
            expected = ref_input if ref_input is not None else np.zeros_like(images)
            np.testing.assert_array_equal(gradient[lane * n : (lane + 1) * n], expected)
            self._assert_same_params(stacked, ref_params, lane)
        assert gradient[:n].any()

    def test_poisson_stream_is_unchanged(self):
        # The encoder still draws one frame per step, so the generator
        # enters the second pass where the unrolled graph's does.
        images, labels = self._data()
        model = build_model("snn_lenet_mini", input_size=16, time_steps=8, rng=0)
        passes = []
        for fused in (True, False):
            model.encoder = PoissonEncoder(scale=0.5, rng=7)
            with no_grad():
                first = (
                    model(Tensor(images)).data
                    if fused
                    else reference_ops.unrolled_forward(model, Tensor(images)).data
                )
            if fused:
                second = model.fused_input_gradient(images, labels)
            else:
                second = _autograd_input_gradient(model, images, labels)
            passes.append((first, second))
        (fused_first, fused_second), (ref_first, ref_second) = passes
        np.testing.assert_array_equal(fused_first, ref_first)
        assert ref_second.any()
        np.testing.assert_array_equal(fused_second, ref_second)


def _unique_arrays(obj, found: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    """Every array reachable through lists and tuples, keyed by owning buffer."""
    if isinstance(obj, np.ndarray):
        base = obj
        while isinstance(base.base, np.ndarray):
            base = base.base
        found[id(base)] = base
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _unique_arrays(item, found)
    return found


class TestTapeFootprint:
    """record_forward keeps what backward_pass reads, and nothing else."""

    def test_snn_lenet_mini_tape(self):
        model = build_model("snn_lenet_mini", input_size=16, time_steps=16, rng=0)
        images = np.random.default_rng(0).random((32, 1, 16, 16)).astype(np.float32)
        tape = bptt.record_forward(NetworkLanes(model), images)

        # One state-sized membrane per LIF step of the population's
        # window: the encoder records while layer 0's transform is live
        # (its last 4 steps are dead), each layer one step longer.
        state_shapes = [(32, 1, 16, 16), (32, 8, 16, 16), (32, 16, 8, 8), (32, 64)]
        windows = [12, 13, 14, 15]
        for ctxs, shape, steps in zip(
            [tape.encoder_ctxs, *tape.layer_cell_ctxs], state_shapes, windows
        ):
            assert len(ctxs) == steps
            for ctx in ctxs:
                assert isinstance(ctx, np.ndarray) and ctx.shape == shape
        assert [len(ctxs) for ctxs in tape.layer_transform_ctxs] == [12, 13, 14]
        assert len(tape.readout_ctxs) == 15
        assert len(tape.trace) == 16

        # Max-pool contexts hold a one-byte routing code, never the input.
        pools = []
        for ctxs in tape.layer_transform_ctxs[1:]:
            for members in ctxs:
                pools += [ctx for ctx in members if isinstance(ctx[0], F.MaxPool2dPlan)]
        assert len(pools) == 13 + 14
        for plan, route, _dtype in pools:
            assert route.dtype == np.uint8
            assert route.shape == (plan.shape[0], plan.shape[1], plan.oh, plan.ow)
        input_shapes = {plan.shape for plan, _route, _dtype in pools}
        for array in _unique_arrays(pools, {}).values():
            assert not (
                np.issubdtype(array.dtype, np.floating) and array.shape in input_shapes
            )

        # 6.5 MiB (8.1 MiB when every stage records all 16 steps).  Also
        # recording the surrogate pre-activation, or the pooling input and
        # output, breaks the bound.
        tape_bytes = sum(
            array.nbytes
            for array in _unique_arrays(
                [tape.trace, tape.encoder_ctxs, tape.layer_transform_ctxs,
                 tape.layer_cell_ctxs, tape.readout_ctxs],
                {},
            ).values()
        )
        assert tape_bytes < 6.6 * 2**20


class TestFirstLayerInputGradient:
    """Training skips layer 0's input gradient; attack crafting forms it."""

    @pytest.fixture
    def input_grad_plans(self, monkeypatch):
        """The plans every Conv2dPlan input-gradient call ran on, in order."""
        plans = []
        for name in ("backward_input", "stacked_backward_input"):
            original = getattr(F.Conv2dPlan, name)

            def spy(plan, *args, _original=original, **kwargs):
                plans.append(plan)
                return _original(plan, *args, **kwargs)

            monkeypatch.setattr(F.Conv2dPlan, name, spy)
        return plans

    @staticmethod
    def _count(plans, conv):
        own = {id(plan) for plan in conv._plans.values()}
        return sum(id(plan) in own for plan in plans)

    def _dataset(self):
        data_rng = np.random.default_rng(2)
        images = data_rng.random((16, 1, 16, 16)).astype(np.float32)
        return ArrayDataset(images, (np.arange(16) % 10).astype(np.int64))

    def test_single_network(self, input_grad_plans):
        config = TrainingConfig(epochs=1, batch_size=8, seed=3)
        models = []
        for fused in (True, False):
            model = build_model("snn_lenet_mini", input_size=16, time_steps=8, rng=0)
            with _path(model, fused):
                Trainer(model, config).fit(self._dataset())
            models.append(model)
        fused_model, graph_model = models
        graph_state, fused_state = graph_model.state_dict(), fused_model.state_dict()
        for name in graph_state:
            np.testing.assert_array_equal(fused_state[name], graph_state[name])
        first = fused_model.layers[0].transform
        assert self._count(input_grad_plans, first) == 0
        assert self._count(input_grad_plans, fused_model.layers[1].transform[1]) > 0

        data = self._dataset()
        fused_model.fused_input_gradient(data.images[:4], data.labels[:4])
        assert self._count(input_grad_plans, first) > 0

    def test_variant_stack(self, input_grad_plans):
        members = [
            build_model("snn_lenet_mini", input_size=16, time_steps=steps, rng=0)
            for steps in (8, 6)
        ]
        stack = VariantStack(members)
        data = self._dataset()
        images, labels = data.images[:4], data.labels[:4]
        folded = stack.fold([images, images])
        stack.fused_loss_backward(folded, [labels, labels])
        first = members[0].layers[0].transform
        assert self._count(input_grad_plans, first) == 0
        assert self._count(input_grad_plans, members[0].layers[1].transform[1]) > 0
        for member in members:
            stacked = _param_grads(member)
            member.zero_grad()
            with unrolled_graph(member):
                F.cross_entropy(member(Tensor(images)), labels).backward()
            for name, grad in _param_grads(member).items():
                assert (grad is None) == (stacked[name] is None), name
                if grad is not None:
                    np.testing.assert_array_equal(stacked[name], grad)
        stack.fused_input_gradient(folded, [labels, labels])
        assert self._count(input_grad_plans, first) > 0
