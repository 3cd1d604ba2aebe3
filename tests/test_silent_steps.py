"""Silent steps: an all-zero spike input skips the work, not the bits.

At a high threshold or a short window whole layers see no spike for many
time steps.  The fused twins of Conv2d, Linear and MaxPool2d (and the
stacked conv/linear stages, per lane) then emit the exact response of the
full computation without running im2col, GEMM or pooling.  These tests
hold that response to the full-compute Tensor ops byte for byte
(``tobytes``, so signed zeros and NaN payloads count), prove the fast
path fires, and check end-to-end BPTT parity on networks whose deeper
layers stay silent for their first steps.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.models.spiking_lenet import build_spiking_lenet_mini
from repro.snn import backward as bptt
from repro.snn.network import NetworkLanes
from repro.snn.neuron import LIFParameters
from repro.snn.stack import VariantStack, _StackedConv, _StackedLinear
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor
from tests.reference_ops import unrolled_graph


def _same_bytes(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def _set_weights(module, rng, bias: str, nan: bool):
    """Weights with an all-negative filter, optional NaN, and a chosen bias."""
    weight = rng.standard_normal(module.weight.shape).astype(np.float32)
    weight[0] = -np.abs(weight[0])  # 0 * w is -0.0 for every product here
    if nan:
        weight.reshape(weight.shape[0], -1)[1, 0] = np.nan
    module.weight.data = weight
    if bias == "zero":
        module.bias.data = np.zeros_like(module.bias.data)
    elif bias == "none":
        module.bias = None


def _tensor_reference(module, x, g):
    """Full-compute output and gradients through the module's Tensor op."""
    x_t = Tensor(x.copy(), requires_grad=True)
    module.zero_grad()
    out = module(x_t)
    out.backward(g)
    params = [p for p in (module.weight, module.bias) if p is not None]
    grads = [None if p.grad is None else p.grad.copy() for p in params]
    return out.data, x_t.grad, grads


def _twin(module, x, g):
    """Output and gradients through the fused record/backward twins."""
    out, ctx = module.forward_record_numpy(x)
    sink: list = []
    grad_x = module.backward_numpy(g, ctx, sink)
    return out, ctx, grad_x, [grad for _param, grad in sink]


WEIGHTS = [
    pytest.param("random", False, id="bias"),
    pytest.param("zero", False, id="zero-bias"),
    pytest.param("none", False, id="no-bias"),
    pytest.param("random", True, id="nan-weight"),
]


class TestModuleTwins:
    @pytest.mark.parametrize("bias,nan", WEIGHTS)
    @pytest.mark.parametrize(
        "kernel,stride,padding",
        [(3, 1, 1), (5, 1, 2), (3, 2, 0), (1, 1, 0)],
    )
    def test_conv2d(self, rng, bias, nan, kernel, stride, padding):
        conv = nn.Conv2d(3, 4, kernel, stride=stride, padding=padding, rng=0)
        _set_weights(conv, rng, bias, nan)
        x = np.zeros((2, 3, 7, 7), dtype=np.float32)
        g = rng.standard_normal(conv.forward_numpy(x).shape).astype(np.float32)
        if nan:
            g[0, 2, 0, 0] = np.nan
        out, (recorded, plan), grad_x, grads = _twin(conv, x, g)
        assert recorded is None
        ref_out, ref_gx, ref_grads = _tensor_reference(conv, x, g)
        _same_bytes(out, ref_out)
        _same_bytes(conv.forward_numpy(x), ref_out)
        _same_bytes(out, plan(x, conv.weight.data, getattr(conv.bias, "data", None)))
        _same_bytes(grad_x, ref_gx)
        for grad, ref in zip(grads, ref_grads):
            _same_bytes(grad, ref)
        if nan:
            assert np.isnan(out[:, 1]).all() and not np.isnan(out[:, 0]).any()
            assert np.isnan(grads[0][2]).all() and not np.isnan(grads[0][0]).any()
        elif bias == "none":
            assert not np.signbit(out).any()

    @pytest.mark.parametrize("bias,nan", WEIGHTS)
    def test_linear(self, rng, bias, nan):
        linear = nn.Linear(6, 5, rng=0)
        _set_weights(linear, rng, bias, nan)
        x = np.zeros((3, 6), dtype=np.float32)
        g = rng.standard_normal((3, 5)).astype(np.float32)
        out, (recorded, _dtype), grad_x, grads = _twin(linear, x, g)
        assert recorded is None
        ref_out, ref_gx, ref_grads = _tensor_reference(linear, x, g)
        _same_bytes(out, ref_out)
        _same_bytes(linear.forward_numpy(x), ref_out)
        _same_bytes(grad_x, ref_gx)
        for grad, ref in zip(grads, ref_grads):
            _same_bytes(grad, ref)
        # The layout of the firing twin's ``(x.T @ g).T``, not just its values.
        assert grads[0].strides == (x.T @ g).T.strides

    @pytest.mark.parametrize("kernel,stride", [(2, None), (3, 2), (2, 1), (3, 3), (2, 3)])
    @pytest.mark.parametrize("zero", [0.0, -0.0, "mixed"])
    def test_max_pool(self, rng, kernel, stride, zero):
        pool = nn.MaxPool2d(kernel, stride)
        if zero == "mixed":
            x = np.where(rng.random((2, 3, 8, 8)) < 0.5, 0.0, -0.0).astype(np.float32)
        else:
            x = np.full((2, 3, 8, 8), zero, dtype=np.float32)
        out, ctx = pool.forward_record_numpy(x)
        g = rng.standard_normal(out.shape).astype(np.float32)
        g.reshape(-1)[:4] = [np.nan, np.inf, -np.inf, -0.0]
        x_t = Tensor(x.copy(), requires_grad=True)
        with np.errstate(invalid="ignore"):  # inf * 0
            ref = F.max_pool2d(x_t, kernel, stride)
            ref.backward(g)
            grad_x = pool.backward_numpy(g, ctx)
        _same_bytes(out, ref.data)
        _same_bytes(pool.forward_numpy(x), ref.data)
        _same_bytes(grad_x, x_t.grad)
        plan, route, _dtype = ctx
        if plan._disjoint:
            assert route.dtype == np.uint8 and not route.any()
            # g's NaN at every offset of its window; each inf at offset 0
            # and inf * 0 = NaN at the others.
            assert np.isnan(grad_x).sum() == kernel**2 + 2 * (kernel**2 - 1)


@pytest.fixture
def im2col_calls(monkeypatch):
    """The number of Conv2dPlan im2col fills since the fixture was set up."""
    calls = []
    original = F.Conv2dPlan._im2col

    def spy(plan, x):
        calls.append(plan)
        return original(plan, x)

    monkeypatch.setattr(F.Conv2dPlan, "_im2col", spy)
    return calls


@pytest.fixture
def silent_pool_backwards(monkeypatch):
    """The number of MaxPool2dPlan silent-code backwards since set-up."""
    calls = []
    original = F.MaxPool2dPlan._silent_backward

    def spy(plan, g, grad_x):
        calls.append(plan)
        return original(plan, g, grad_x)

    monkeypatch.setattr(F.MaxPool2dPlan, "_silent_backward", spy)
    return calls


class TestFastPathFires:
    def test_silent_max_pool_backward_skips_the_compares(self, silent_pool_backwards):
        pool = nn.MaxPool2d(2)
        silent = np.zeros((2, 3, 6, 6), dtype=np.float32)
        out, ctx = pool.forward_record_numpy(silent)
        assert ctx[1].strides == (0, 0, 0, 0)  # no byte per window
        pool.backward_numpy(np.ones_like(out), ctx)
        assert len(silent_pool_backwards) == 1
        firing = silent.copy()
        firing[1, 0, 2, 2] = 1.0
        out, ctx = pool.forward_record_numpy(firing)
        pool.backward_numpy(np.ones_like(out), ctx)
        overlapping = nn.MaxPool2d(3, 2)
        out, ctx = overlapping.forward_record_numpy(silent)
        overlapping.backward_numpy(np.ones_like(out), ctx)
        assert len(silent_pool_backwards) == 1

    def test_silent_conv_skips_im2col(self, im2col_calls):
        conv = nn.Conv2d(2, 3, 3, padding=1, rng=0)
        silent = np.zeros((2, 2, 6, 6), dtype=np.float32)
        out, ctx = conv.forward_record_numpy(silent)
        conv.forward_numpy(silent)
        conv.backward_numpy(np.ones_like(out), ctx, [])
        assert im2col_calls == []
        firing = silent.copy()
        firing[1, 0, 2, 2] = 1.0
        out, ctx = conv.forward_record_numpy(firing)
        conv.backward_numpy(np.ones_like(out), ctx, [])
        assert len(im2col_calls) == 2  # the forward and the weight-grad refill

    def test_stack_skips_im2col_only_when_no_live_lane_fires(self, im2col_calls):
        stage = _StackedConv([nn.Conv2d(2, 3, 3, padding=1, rng=s) for s in (0, 1)])
        x = np.zeros((4, 2, 6, 6), dtype=np.float32)
        out, ctx = stage.record(x, [True, True])
        stage.backward(np.ones_like(out), ctx, [[], []], [True, True])
        assert im2col_calls == []
        x[3, 1, 0, 0] = 1.0  # lane 1 fires
        stage.record(x, [True, False])  # ... but is past its window
        assert im2col_calls == []
        stage.record(x, [True, True])
        assert len(im2col_calls) == 1


def _lane_twin_reference(modules, xs, gs):
    """Per-member twin outputs, input gradients and parameter gradients."""
    results = []
    for module, x, g in zip(modules, xs, gs):
        out, _ctx, grad_x, grads = _twin(module, x, g)
        results.append((out, grad_x, grads))
    return results


class TestStackedLanes:
    @pytest.mark.parametrize("pattern", [(True, False, True), (False, True, False)])
    def test_conv(self, rng, pattern):
        convs = [nn.Conv2d(2, 3, 3, padding=1, rng=seed) for seed in range(3)]
        _set_weights(convs[0], rng, "zero", False)
        xs = [
            np.zeros((2, 2, 6, 6), np.float32) if silent
            else (rng.random((2, 2, 6, 6)) < 0.3).astype(np.float32)
            for silent in pattern
        ]
        gs = [rng.standard_normal((2, 3, 6, 6)).astype(np.float32) for _ in xs]
        stage = _StackedConv(convs)
        out, ctx = stage.record(np.concatenate(xs), [True] * 3)
        sinks = [[], [], []]
        grad_x = stage.backward(np.concatenate(gs), ctx, sinks, [True] * 3)
        for lane, (ref_out, ref_gx, ref_grads) in enumerate(
            _lane_twin_reference(convs, xs, gs)
        ):
            rows = slice(lane * 2, (lane + 1) * 2)
            _same_bytes(out[rows], ref_out)
            _same_bytes(grad_x[rows], ref_gx)
            for (_param, grad), ref in zip(sinks[lane], ref_grads):
                _same_bytes(grad, ref)

    @pytest.mark.parametrize("pattern", [(True, False, True), (False, True, False)])
    def test_linear(self, rng, pattern):
        linears = [nn.Linear(6, 4, rng=seed) for seed in range(3)]
        _set_weights(linears[1], rng, "zero", False)
        xs = [
            np.zeros((3, 6), np.float32) if silent
            else (rng.random((3, 6)) < 0.4).astype(np.float32)
            for silent in pattern
        ]
        gs = [rng.standard_normal((3, 4)).astype(np.float32) for _ in xs]
        stage = _StackedLinear(linears)
        out, ctx = stage.record(np.concatenate(xs), [True] * 3)
        _same_bytes(stage.forward(np.concatenate(xs), [True] * 3), out)
        sinks = [[], [], []]
        grad_x = stage.backward(np.concatenate(gs), ctx, sinks, [True] * 3)
        for lane, (ref_out, ref_gx, ref_grads) in enumerate(
            _lane_twin_reference(linears, xs, gs)
        ):
            rows = slice(lane * 3, (lane + 1) * 3)
            _same_bytes(out[rows], ref_out)
            _same_bytes(grad_x[rows], ref_gx)
            for (_param, grad), ref in zip(sinks[lane], ref_grads):
                _same_bytes(grad, ref)
                assert grad.strides == ref.strides


# At v_th=1 on images scaled by 6, the first layer is silent at step 0, the
# second conv for steps 0-2 and the hidden linear for steps 0-5 of 8.
IMAGE_SCALE = 6.0


def _data():
    rng = np.random.default_rng(0)
    images = (rng.random((4, 1, 16, 16)) * IMAGE_SCALE).astype(np.float32)
    return images, (np.arange(4) % 10).astype(np.int64)


def _grads(model):
    return {
        name: None if p.grad is None else p.grad.copy()
        for name, p in model.named_parameters()
    }


def _assert_same_grads(actual, expected):
    assert actual.keys() == expected.keys()
    for name, grad in actual.items():
        assert (grad is None) == (expected[name] is None), name
        if grad is not None:
            _same_bytes(grad, expected[name])


class TestSilentBPTT:
    @pytest.mark.parametrize("v_th,time_steps", [(1.0, 8), (2.0, 6), (1.0, 3)])
    def test_single_network(self, v_th, time_steps):
        images, labels = _data()
        model = build_spiking_lenet_mini(
            time_steps=time_steps, lif_params=LIFParameters(v_th=v_th), rng=0
        )
        tape = bptt.record_forward(NetworkLanes(model), images)
        # The deeper layers really are silent for their first steps.
        second_conv = [ctx[1][0] for ctx in tape.layer_transform_ctxs[1]]
        assert second_conv[0] is None
        x = Tensor(images.copy(), requires_grad=True)
        with unrolled_graph(model):
            loss = F.cross_entropy(model(x), labels)
        loss.backward()
        reference = _grads(model)
        model.zero_grad()
        model.fused_loss_backward(images, labels)
        _assert_same_grads(_grads(model), reference)
        model.zero_grad()
        fused = model.fused_input_gradient(images, labels)
        expected = x.grad if x.grad is not None else np.zeros_like(images)
        _same_bytes(fused, expected)

    def test_variant_stack_with_mixed_lanes(self, monkeypatch):
        patterns = []
        original = F.Conv2dPlan.stacked

        def spy(plan, x, weights, *args):
            lanes = np.split(x, len(weights))
            patterns.append(tuple(not lane.any() for lane in lanes))
            return original(plan, x, weights, *args)

        monkeypatch.setattr(F.Conv2dPlan, "stacked", spy)
        images, labels = _data()
        members = [
            build_spiking_lenet_mini(
                time_steps=steps, lif_params=LIFParameters(v_th=v_th), rng=0
            )
            for v_th, steps in ((1.0, 8), (2.5, 6))
        ]
        references = []
        for member in members:
            with unrolled_graph(member):
                F.cross_entropy(member(Tensor(images.copy())), labels).backward()
            references.append(_grads(member))
            member.zero_grad()
        stack = VariantStack(members)
        stack.fused_loss_backward(stack.fold([images, images]), [labels, labels])
        for member, reference in zip(members, references):
            _assert_same_grads(_grads(member), reference)
        assert (False, True) in patterns  # the higher threshold stays silent longer
