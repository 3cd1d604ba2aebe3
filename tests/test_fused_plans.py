"""Parity contracts of the PR-3 performance layer.

Two families of fast paths must be indistinguishable from the canonical
implementations, by construction and by these tests:

* **Compiled synapse plans** — ``forward_numpy`` twins of the synaptic
  transforms, resolved once per fused forward instead of per time step.
* **Epsilon-shared attack sweeps** — ``evaluate_attack_sweep`` sharing
  clean predictions / white-box gradients across a robustness curve.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import nn
from repro.attacks import (
    BIM,
    FGSM,
    PGD,
    GaussianNoise,
    SignNoise,
    UniformNoise,
    evaluate_attack,
    evaluate_attack_sweep,
)
from repro.data.dataset import ArrayDataset
from repro.models import build_model
from repro.robustness.security import robustness_curve
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor, no_grad
from tests import reference_ops

SPIKING_MODELS = ["snn_lenet_mini", "snn_cnn5"]


class _DoubledFGSM(FGSM):
    """An FGSM subclass that overrides the crafting hook."""

    def _perturb(self, model, images, labels, clean_gradient):
        return super()._perturb(model, images, labels, clean_gradient) + 0.01


class _QuantizedFGSM(FGSM):
    """An FGSM subclass that post-processes ``generate``'s output."""

    def generate(self, model, images, labels, clean_gradient=None):
        out = super().generate(model, images, labels, clean_gradient)
        return np.round(out * 255.0) / 255.0


def _reference_conv(conv, x):
    """``conv``'s forward through the independent reference op."""
    return reference_ops.conv2d(
        Tensor(x), conv.weight, conv.bias, stride=conv.stride, padding=conv.padding
    ).data


class TestModuleTwins:
    """forward_numpy must equal the reference forward, value for value.

    The conv and pooling Tensor ops run on the same plans, so the conv and
    pooling twins are held to ``tests/reference_ops.py`` instead.
    """

    @pytest.mark.parametrize("stride", [1, 2, (1, 2)])
    @pytest.mark.parametrize("padding", [0, 1, (2, 1)])
    def test_conv2d_twin(self, rng, stride, padding):
        conv = nn.Conv2d(3, 5, 3, stride=stride, padding=padding, rng=0)
        x = rng.standard_normal((4, 3, 11, 9)).astype(np.float32)
        reference = _reference_conv(conv, x)
        np.testing.assert_array_equal(conv.forward_numpy(x), reference)
        # Second call exercises the cached plan (and its scratch reuse).
        np.testing.assert_array_equal(conv.forward_numpy(x), reference)

    def test_conv2d_twin_no_bias_and_new_shape(self, rng):
        conv = nn.Conv2d(2, 4, 3, padding=1, bias=False, rng=0)
        for batch in (2, 5):
            x = rng.standard_normal((batch, 2, 8, 8)).astype(np.float32)
            np.testing.assert_array_equal(
                conv.forward_numpy(x), _reference_conv(conv, x)
            )
        assert len(conv._plans) == 2

    def test_conv2d_twin_tracks_weight_updates(self, rng):
        conv = nn.Conv2d(1, 2, 3, rng=0)
        x = rng.standard_normal((1, 1, 6, 6)).astype(np.float32)
        conv.forward_numpy(x)  # compile the plan at the old weights
        conv.weight.data = conv.weight.data * 2.0
        np.testing.assert_array_equal(conv.forward_numpy(x), _reference_conv(conv, x))

    def test_linear_twin(self, rng):
        linear = nn.Linear(7, 4, rng=0)
        x = rng.standard_normal((5, 7)).astype(np.float32)
        np.testing.assert_array_equal(linear.forward_numpy(x), linear(Tensor(x)).data)

    def test_linear_twin_rejects_bad_shape(self, rng):
        from repro.errors import ShapeError

        linear = nn.Linear(7, 4, rng=0)
        with pytest.raises(ShapeError):
            linear.forward_numpy(rng.standard_normal((5, 6)).astype(np.float32))

    @pytest.mark.parametrize("kernel,stride", [(2, None), (3, 1), (3, 2), ((2, 3), (1, 2))])
    def test_max_pool_twin(self, rng, kernel, stride):
        pool = nn.MaxPool2d(kernel, stride)
        x = rng.standard_normal((3, 4, 9, 9)).astype(np.float32)
        reference = reference_ops.max_pool2d(Tensor(x), kernel, stride).data
        np.testing.assert_array_equal(pool.forward_numpy(x), reference)

    @pytest.mark.parametrize("kernel,stride", [(2, None), (3, 2)])
    def test_avg_pool_twin(self, rng, kernel, stride):
        pool = nn.AvgPool2d(kernel, stride)
        x = rng.standard_normal((3, 4, 9, 9)).astype(np.float32)
        reference = reference_ops.avg_pool2d(Tensor(x), kernel, stride).data
        np.testing.assert_array_equal(pool.forward_numpy(x), reference)

    def test_flatten_twin(self, rng):
        flatten = nn.Flatten()
        x = rng.standard_normal((3, 4, 5, 6)).astype(np.float32)
        np.testing.assert_array_equal(
            flatten.forward_numpy(x), flatten(Tensor(x)).data
        )

    def test_sequential_twin(self, rng):
        seq = nn.Sequential(
            nn.MaxPool2d(2), nn.Conv2d(2, 3, 3, padding=1, rng=0),
            nn.Flatten(), nn.Linear(3 * 4 * 4, 6, rng=1),
        )
        x = rng.standard_normal((2, 2, 8, 8)).astype(np.float32)
        np.testing.assert_array_equal(seq.forward_numpy(x), seq(Tensor(x)).data)

    def test_float64_inputs(self, rng):
        conv = nn.Conv2d(1, 2, 3, padding=1, rng=0)
        x32 = rng.standard_normal((2, 1, 6, 6)).astype(np.float32)
        x64 = x32.astype(np.float64)
        np.testing.assert_array_equal(conv.forward_numpy(x64), _reference_conv(conv, x64))
        # Both dtypes coexist as separate plans.
        np.testing.assert_array_equal(conv.forward_numpy(x32), _reference_conv(conv, x32))
        assert len(conv._plans) == 2


@st.composite
def conv_plan_cases(draw):
    """A conv geometry, dtype and K-lane fold with its liveness masks."""
    kernel = draw(st.sampled_from([1, 3, 5, (2, 3)]))
    stride = draw(st.sampled_from([1, 2, (1, 2)]))
    padding = draw(st.sampled_from([0, 1, 2, (2, 1)]))
    (kh, kw), (ph, pw) = F._pair(kernel), F._pair(padding)
    lanes = draw(st.integers(1, 4))
    return {
        "lanes": lanes,
        # The folded batch stays within 1-40 images.
        "n": draw(st.integers(1, 40 // lanes)),
        "c_in": draw(st.sampled_from([1, 2, 3, 6, 8, 16])),
        "c_out": draw(st.sampled_from([1, 2, 5, 8, 16])),
        "h": draw(st.integers(max(1, kh - 2 * ph), 20)),
        "w": draw(st.integers(max(1, kw - 2 * pw), 20)),
        "kernel": (kh, kw),
        "stride": stride,
        "padding": padding,
        "dtype": draw(st.sampled_from([np.float32, np.float64])),
        "bias": draw(st.lists(st.booleans(), min_size=lanes, max_size=lanes)),
        "alive": draw(st.lists(st.booleans(), min_size=lanes, max_size=lanes)),
        "wanted": draw(st.lists(st.booleans(), min_size=lanes, max_size=lanes)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def _case(lanes=1, **geometry):
    """An explicit :func:`conv_plan_cases` draw: every lane live, with bias."""
    flags = [True] * lanes
    return {
        "lanes": lanes, "dtype": np.float32, "seed": 0,
        "bias": flags, "alive": flags, "wanted": flags, **geometry,
    }


def _assert_bitwise(actual, expected):
    assert actual.dtype == expected.dtype
    np.testing.assert_array_equal(actual, expected)


class TestConv2dPlanParity:
    """Every Conv2dPlan entry point is bitwise equal to the reference conv2d.

    The plan keeps the reference's arithmetic but not its im2col code, and
    the stacked methods hand BLAS sub-blocks of a folded column matrix;
    both only stay exact while each GEMM sees the reference's operand
    layout, which varies with the geometry (1x1 kernels and single-image
    batches produce transposed or strided views).  Checked over random
    shapes on whatever BLAS the interpreter links.
    """

    @settings(max_examples=100, deadline=None)
    @given(case=conv_plan_cases())
    # One image per lane: each lane's output gradient is a transposed view.
    @example(case=_case(
        lanes=2, n=1, c_in=3, c_out=3, h=20, w=13,
        kernel=(2, 3), stride=(1, 2), padding=0,
    ))
    # 1x1, one channel: the reference's column is a stride-2 view (GEMV incx 2).
    @example(case=_case(
        n=22, c_in=1, c_out=16, h=11, w=14, kernel=(1, 1), stride=(1, 2), padding=1,
    ))
    # 1x1, one image: the reference's columns are a transposed view of the input.
    @example(case=_case(
        n=1, c_in=16, c_out=1, h=6, w=10, kernel=(1, 1), stride=1, padding=1,
        dtype=np.float64,
    ))
    def test_plan_matches_tensor_op(self, case):
        rng = np.random.default_rng(case["seed"])
        n, lanes, dtype = case["n"], case["lanes"], case["dtype"]
        stride, padding = case["stride"], case["padding"]
        x_shape = (n, case["c_in"], case["h"], case["w"])
        w_shape = (case["c_out"], case["c_in"], *case["kernel"])
        xs = [rng.standard_normal(x_shape).astype(dtype) for _ in range(lanes)]
        weights = [rng.standard_normal(w_shape).astype(dtype) for _ in range(lanes)]
        biases = [
            rng.standard_normal(case["c_out"]).astype(dtype) if has_bias else None
            for has_bias in case["bias"]
        ]

        plan = F.Conv2dPlan(x_shape, dtype, w_shape, stride, padding)
        grads, expected = [], []
        for x, weight, bias in zip(xs, weights, biases):
            x_t = Tensor(x, requires_grad=True)
            w_t = Tensor(weight, requires_grad=True)
            b_t = None if bias is None else Tensor(bias, requires_grad=True)
            out_t = reference_ops.conv2d(x_t, w_t, b_t, stride=stride, padding=padding)
            g = rng.standard_normal(out_t.shape).astype(dtype)
            out_t.backward(g)
            grads.append(g)
            expected.append((out_t.data, x_t.grad, w_t.grad))

            _assert_bitwise(plan(x, weight, bias), out_t.data)
            g_mat = plan.grad_matrix(g)
            _assert_bitwise(plan.backward_input(g_mat, weight), x_t.grad)
            _assert_bitwise(plan.backward_weight(g_mat, x, w_shape), w_t.grad)

        folded = F.Conv2dPlan((lanes * n, *x_shape[1:]), dtype, w_shape, stride, padding)
        x_fold, g_fold = np.concatenate(xs), np.concatenate(grads)
        alive, wanted = case["alive"], case["wanted"]
        out = folded.stacked(x_fold, weights, biases, alive)
        g_mats = folded.lane_grad_matrices(
            g_fold, [a or w for a, w in zip(alive, wanted)]
        )
        grad_x = folded.stacked_backward_input(g_mats, weights, alive)
        grad_w = folded.stacked_backward_weights(g_mats, x_fold, w_shape, wanted)
        for lane, (ref_out, ref_gx, ref_gw) in enumerate(expected):
            block = slice(lane * n, (lane + 1) * n)
            if alive[lane]:
                _assert_bitwise(out[block], ref_out)
                _assert_bitwise(grad_x[block], ref_gx)
            else:
                assert not out[block].any() and not grad_x[block].any()
            if wanted[lane]:
                _assert_bitwise(grad_w[lane], ref_gw)
            else:
                assert grad_w[lane] is None


# (kernel, stride, padding) of the stacked-lane cases; the 1x1 kernel's
# columns are a view of the staged input (the windowed route).
LANE_GEOMETRIES = {
    "3x3 pad 1": (3, 1, 1),
    "5x5 pad 2": (5, 1, 2),
    "stride 2": (3, 2, 1),
    "windowed 1x1": (1, 1, 0),
}


@st.composite
def stacked_lane_cases(draw):
    """A K-lane fold with silent, dead and unwanted lanes and odd biases."""
    lanes = draw(st.integers(1, 5))

    def per_lane(values):
        return draw(st.lists(values, min_size=lanes, max_size=lanes))

    return {
        "geometry": draw(st.sampled_from(sorted(LANE_GEOMETRIES))),
        "lanes": lanes,
        "n": draw(st.integers(1, 3)),
        "c_in": draw(st.sampled_from([1, 2, 3])),
        "c_out": draw(st.sampled_from([1, 2, 4])),
        "size": draw(st.integers(5, 9)),
        "dtype": draw(st.sampled_from([np.float32, np.float64])),
        "silent": per_lane(st.booleans()),
        "alive": per_lane(st.booleans()),
        "wanted": per_lane(st.booleans()),
        "bias": per_lane(st.sampled_from(["finite", "nan", None])),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def _same_bytes(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


class TestStackedConvLanes:
    """Each lane of a folded conv plan is the unstacked plan, byte for byte.

    The reference runs every lane through one plan of the unstacked batch
    shape the way the module twins do (``silent`` for an all-zero input,
    the silent weight gradient likewise), over two steps so that both
    sides reuse their scratch.
    """

    @settings(max_examples=150, deadline=None)
    @given(case=stacked_lane_cases())
    def test_lanes_match_unstacked_plan_calls(self, case):
        rng = np.random.default_rng(case["seed"])
        kernel, stride, padding = LANE_GEOMETRIES[case["geometry"]]
        lanes, n, dtype = case["lanes"], case["n"], case["dtype"]
        lane_shape = (n, case["c_in"], case["size"], case["size"])
        w_shape = (case["c_out"], case["c_in"], kernel, kernel)
        weights = [rng.standard_normal(w_shape).astype(dtype) for _ in range(lanes)]
        biases = []
        for kind in case["bias"]:
            bias = None if kind is None else rng.standard_normal(case["c_out"]).astype(dtype)
            if kind == "nan":
                bias[0] = np.nan
            biases.append(bias)
        alive, wanted = case["alive"], case["wanted"]
        reference = F.Conv2dPlan(lane_shape, dtype, w_shape, stride, padding)
        folded = F.Conv2dPlan((lanes * n, *lane_shape[1:]), dtype, w_shape, stride, padding)
        if case["geometry"] == "windowed 1x1":
            assert folded._windowed

        for _step in range(2):
            xs = [
                np.zeros(lane_shape, dtype) if silent
                else (rng.random(lane_shape) < 0.3).astype(dtype)
                for silent in case["silent"]
            ]
            x_fold = np.concatenate(xs)
            out = folded.stacked(x_fold, weights, biases, alive)
            g_fold = rng.standard_normal(out.shape).astype(dtype)
            g_mats = folded.lane_grad_matrices(g_fold, [a or w for a, w in zip(alive, wanted)])
            grad_x = folded.stacked_backward_input(g_mats, weights, alive)
            grad_w = folded.stacked_backward_weights(g_mats, x_fold, w_shape, wanted)

            for lane, (x, weight, bias) in enumerate(zip(xs, weights, biases)):
                block = slice(lane * n, (lane + 1) * n)
                g_mat = reference.grad_matrix(g_fold[block])
                if alive[lane]:
                    ref_out = reference(x, weight, bias) if x.any() else reference.silent(weight, bias)
                    _same_bytes(out[block], ref_out)
                    _same_bytes(grad_x[block], reference.backward_input(g_mat, weight))
                else:
                    assert not out[block].any() and not grad_x[block].any()
                if not wanted[lane]:
                    assert grad_w[lane] is None
                elif x.any():
                    _same_bytes(grad_w[lane], reference.backward_weight(g_mat, x, w_shape))
                else:
                    _same_bytes(grad_w[lane], reference.silent_backward_weight(g_mat, w_shape))

    @pytest.mark.parametrize("geometry", sorted(LANE_GEOMETRIES))
    def test_folded_plan_keeps_only_geometry(self, monkeypatch, rng, geometry):
        ran = []
        for name in ("_im2col", "_col2im"):
            original = getattr(F.Conv2dPlan, name)

            def spy(plan, *args, _name=name, _original=original):
                ran.append((_name, plan))
                return _original(plan, *args)

            monkeypatch.setattr(F.Conv2dPlan, name, spy)
        kernel, stride, padding = LANE_GEOMETRIES[geometry]
        w_shape = (4, 2, kernel, kernel)
        folded = F.Conv2dPlan((6, 2, 7, 7), np.float32, w_shape, stride, padding)
        x = (rng.random(folded.shape) < 0.5).astype(np.float32)
        weights = [rng.standard_normal(w_shape).astype(np.float32) for _ in range(3)]
        out = folded.stacked(x, weights, [None] * 3, [True] * 3)
        g_mats = folded.lane_grad_matrices(np.ones_like(out), [True] * 3)
        folded.stacked_backward_input(g_mats, weights, [True] * 3)
        folded.stacked_backward_weights(g_mats, x, w_shape, [True] * 3)

        lane_plan = folded._lane_plans[3]
        assert lane_plan.shape == (2, 2, 7, 7)
        assert {plan for _name, plan in ran} == {lane_plan}
        assert sorted({name for name, _plan in ran}) == ["_col2im", "_im2col"]
        assert folded._padded is None and folded._cols6d is None
        assert folded._grad_padded is None
        assert lane_plan._padded.shape[0] == 2


@st.composite
def max_pool_cases(draw):
    """A max-pool geometry over a (mostly) tie-heavy input.

    Strides below, at and above the kernel give overlapping windows,
    exact tilings and skipped pixels; heights and widths run past whole
    windows to leave remainder rows and columns.
    """
    kh, kw = draw(st.sampled_from([(1, 1), (2, 2), (3, 3), (2, 3), (3, 2)]))
    return {
        "kernel": (kh, kw),
        "stride": (draw(st.integers(1, kh + 2)), draw(st.integers(1, kw + 2))),
        "n": draw(st.integers(1, 4)),
        "c": draw(st.integers(1, 3)),
        "h": draw(st.integers(kh, 13)),
        "w": draw(st.integers(kw, 13)),
        # Share of ones in a binary input (0 and 1: every window ties
        # throughout); None draws standard normals instead.
        "density": draw(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0, None])),
        "dtype": draw(st.sampled_from([np.float32, np.float64])),
        "g_dtype": draw(st.sampled_from([np.float32, np.float64])),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def _pool_case(**fields):
    """An explicit :func:`max_pool_cases` draw (float32, half-ones spikes)."""
    return {
        "n": 2, "c": 3, "density": 0.5, "dtype": np.float32,
        "g_dtype": np.float32, "seed": 0, **fields,
    }


class TestMaxPool2dPlanParity:
    """The recorded max-pool routing == the reference argmax, bit for bit.

    Runs the module twins (``forward_record_numpy``/``backward_numpy``)
    the fused BPTT path records and replays.
    """

    @settings(max_examples=150, deadline=None)
    @given(case=max_pool_cases())
    @example(case=_pool_case(kernel=(2, 2), stride=(2, 2), h=8, w=8))  # exact tiling
    @example(case=_pool_case(kernel=(2, 2), stride=(2, 2), h=7, w=9))  # remainders
    @example(case=_pool_case(kernel=(2, 2), stride=(3, 4), h=11, w=12))  # stride > kernel
    @example(case=_pool_case(kernel=(3, 3), stride=(3, 3), h=9, w=10, density=1.0))
    @example(case=_pool_case(kernel=(3, 3), stride=(2, 2), h=9, w=9))  # overlapping
    def test_module_twin_matches_reference(self, case):
        rng = np.random.default_rng(case["seed"])
        shape = (case["n"], case["c"], case["h"], case["w"])
        if case["density"] is None:
            x = rng.standard_normal(shape)
        else:
            x = rng.random(shape) < case["density"]
        x = x.astype(case["dtype"])
        kernel, stride = case["kernel"], case["stride"]
        pool = nn.MaxPool2d(kernel, stride)
        out, ctx = pool.forward_record_numpy(x)
        g = rng.standard_normal(out.shape).astype(case["g_dtype"])

        x_t = Tensor(x.copy(), requires_grad=True)
        reference = reference_ops.max_pool2d(x_t, kernel, stride)
        # As in _run_op: the product hands the op ``g`` in its own dtype.
        (reference * Tensor(g)).sum().backward()
        _assert_bitwise(out, reference.data)
        _assert_bitwise(pool.backward_numpy(g, ctx), x_t.grad)

        plan, route, _dtype = ctx
        if stride[0] >= kernel[0] and stride[1] >= kernel[1]:
            assert route.dtype == np.uint8 and route.shape == out.shape
        else:
            assert route is x


FLOATS = [np.float32, np.float64]


@st.composite
def tensor_op_cases(draw):
    """One conv/pooling call: geometry, input kind and per-operand dtypes."""
    op = draw(st.sampled_from(["conv2d", "max_pool2d", "avg_pool2d"]))
    if op == "conv2d":
        kernel = draw(st.sampled_from([1, 3, (2, 3)]))
        stride = draw(st.sampled_from([1, 2, (1, 2)]))
        padding = draw(st.sampled_from([0, 1, (2, 1)]))
    else:
        kernel = draw(st.sampled_from([2, 3, (2, 3)]))
        stride = draw(st.sampled_from([None, 1, 2, (1, 2)]))
        padding = 0
    (kh, kw), (ph, pw) = F._pair(kernel), F._pair(padding)
    return {
        "op": op,
        "kernel": kernel,
        "stride": stride,
        "padding": padding,
        "n": draw(st.integers(1, 6)),
        "c_in": draw(st.sampled_from([1, 2, 3])),
        "c_out": draw(st.sampled_from([1, 2, 5])),
        "h": draw(st.integers(max(1, kh - 2 * ph), 12)),
        "w": draw(st.integers(max(1, kw - 2 * pw), 12)),
        "spikes": draw(st.booleans()),
        "bias": draw(st.booleans()),
        # A conv's input may be a leaf that needs no gradient (the encoder
        # spikes of a network); pooling always needs one to backpropagate.
        "input_grad": op != "conv2d" or draw(st.booleans()),
        # Input, weight, bias and upstream-gradient dtypes.
        "dtypes": draw(st.lists(st.sampled_from(FLOATS), min_size=4, max_size=4)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def _op_case(**fields):
    """An explicit :func:`tensor_op_cases` draw (float32, spikes, bias)."""
    return {
        "kernel": 3, "stride": None, "padding": 0, "n": 2, "c_in": 2, "c_out": 2,
        "h": 7, "w": 7, "spikes": True, "bias": True, "input_grad": True,
        "dtypes": [np.float32] * 4, "seed": 0, **fields,
    }


def _run_op(ops, case):
    """Forward and backward of one drawn case through ``ops``' Tensor ops.

    Returns the output and the gradients of the input and parameters.
    """
    rng = np.random.default_rng(case["seed"])
    x_dtype, w_dtype, b_dtype, g_dtype = case["dtypes"]
    shape = (case["n"], case["c_in"], case["h"], case["w"])
    x = (rng.random(shape) > 0.5) if case["spikes"] else rng.standard_normal(shape)
    x_t = Tensor(x.astype(x_dtype), requires_grad=case["input_grad"])
    leaves = [x_t]
    if case["op"] == "conv2d":
        kh, kw = F._pair(case["kernel"])
        w_shape = (case["c_out"], case["c_in"], kh, kw)
        w_t = Tensor(rng.standard_normal(w_shape).astype(w_dtype), requires_grad=True)
        b_t = None
        if case["bias"]:
            b_t = Tensor(
                rng.standard_normal(case["c_out"]).astype(b_dtype), requires_grad=True
            )
        leaves += [w_t] if b_t is None else [w_t, b_t]
        out = ops.conv2d(x_t, w_t, b_t, stride=case["stride"], padding=case["padding"])
    else:
        out = getattr(ops, case["op"])(x_t, case["kernel"], case["stride"])
    # Multiplying by a wider upstream gradient hands the op a float64 g.
    g = rng.standard_normal(out.shape).astype(g_dtype)
    (out * Tensor(g)).sum().backward()
    return out.data, [leaf.grad for leaf in leaves]


class TestTensorOpsMatchReference:
    """F.conv2d / max_pool2d / avg_pool2d (plan-backed) == the reference ops.

    Forward values and every gradient, dtype included, in grad mode: the
    path every autograd training step takes.
    """

    @settings(max_examples=100, deadline=None)
    @given(case=tensor_op_cases())
    # Spikes tie in every window; 3x3 windows at stride 2 overlap.
    @example(case=_op_case(op="max_pool2d", stride=2))
    @example(case=_op_case(op="avg_pool2d", kernel=(2, 3), stride=(1, 2), spikes=False))
    # 1x1 kernel over a padded spike input; float32 input, float64 weight.
    @example(case=_op_case(
        op="conv2d", kernel=1, stride=(1, 2), padding=1,
        dtypes=[np.float32, np.float64, np.float32, np.float32],
    ))
    # Padded 3x3 conv, float64 input under float32 parameters and gradient.
    @example(case=_op_case(
        op="conv2d", stride=1, padding=(2, 1), spikes=False, input_grad=False,
        dtypes=[np.float64, np.float32, np.float32, np.float32],
    ))
    # 3x3 windows spanning a 3-wide single-channel input: the window
    # columns are an overlapping-row view that numpy multiplies without BLAS.
    @example(case=_op_case(
        op="conv2d", stride=1, n=1, c_in=1, c_out=1, h=4, w=3, spikes=False,
        bias=False, input_grad=False,
    ))
    def test_grad_mode_matches_reference(self, case):
        out, grads = _run_op(F, case)
        ref_out, ref_grads = _run_op(reference_ops, case)
        _assert_bitwise(out, ref_out)
        for grad, ref_grad in zip(grads, ref_grads):
            if ref_grad is None:
                assert grad is None
            else:
                _assert_bitwise(grad, ref_grad)

    @staticmethod
    def _unrolled(ops):
        """conv2d -> max_pool2d over 3 steps sharing one weight; one backward."""
        rng = np.random.default_rng(3)
        weight = Tensor(rng.standard_normal((4, 2, 3, 3)).astype(np.float32), requires_grad=True)
        bias = Tensor(rng.standard_normal(4).astype(np.float32), requires_grad=True)
        x = Tensor(rng.standard_normal((2, 2, 8, 8)).astype(np.float32), requires_grad=True)
        loss = None
        for _step in range(3):
            spikes = Tensor((rng.random(x.shape) > 0.5).astype(np.float32))
            pooled = ops.max_pool2d(ops.conv2d(x + spikes, weight, bias, padding=1), 2)
            g = Tensor(rng.standard_normal(pooled.shape).astype(np.float32))
            term = (pooled * g).sum()
            loss = term if loss is None else loss + term
        loss.backward()
        return [loss.data, x.grad, weight.grad, bias.grad]

    def test_unrolled_steps_keep_their_own_columns(self):
        # Each step's conv node holds its own im2col columns until the one
        # backward sweep reaches it; ops sharing a plan across calls would
        # feed the last step's columns to every step's weight GEMM.
        for actual, expected in zip(self._unrolled(F), self._unrolled(reference_ops)):
            _assert_bitwise(actual, expected)


class TestFusedPlanPath:
    """The network-level contract: plans vs the oracle loops, coverage."""

    @pytest.mark.parametrize("name", SPIKING_MODELS)
    def test_registry_models_bitwise_identical(self, name):
        size = 16
        model = build_model(name, input_size=size, time_steps=5, rng=0)
        x = Tensor(np.random.default_rng(3).random((3, 1, size, size)).astype(np.float32))
        reference = reference_ops.unrolled_forward(model, x)
        with no_grad():
            planned = model(x)
        unplanned = reference_ops.unplanned_logits(model, x.data)
        np.testing.assert_array_equal(planned.data, reference.data)
        np.testing.assert_array_equal(unplanned, reference.data)

    @pytest.mark.parametrize("name", SPIKING_MODELS)
    def test_registry_models_full_plan_coverage(self, name, monkeypatch):
        # Every synaptic transform runs its compiled plan twins: neither a
        # no-grad nor a training pass ever calls a Tensor forward.
        size = 16
        model = build_model(name, input_size=size, time_steps=6, rng=0)
        x = Tensor(np.random.default_rng(3).random((2, 1, size, size)).astype(np.float32))

        def tensor_forward(module, *args):
            raise AssertionError(f"{type(module).__name__} ran its Tensor forward")

        for cls in (nn.Conv2d, nn.Linear, nn.MaxPool2d, nn.AvgPool2d, nn.Flatten,
                    nn.Sequential):
            monkeypatch.setattr(cls, "forward", tensor_forward)
        with no_grad():
            model(x)
        F.cross_entropy(model(x), np.array([0, 1])).backward()
        assert model.fused_forward_count == model.fused_backward_count == 1

    def test_fused_forward_counter_advances(self):
        # The smoke guard scripts/bench_report.py --check-fused relies on
        # this counter to prove the hot path is actually taken.
        model = build_model("snn_lenet_mini", input_size=12, time_steps=3, rng=0)
        x = Tensor(np.random.default_rng(0).random((2, 1, 12, 12)).astype(np.float32))
        assert model.fused_forward_count == 0
        with no_grad():
            model(x)
            model(x)
        assert model.fused_forward_count == 2
        model(x)  # a grad-mode forward records the BPTT tape instead
        assert model.fused_forward_count == 2


class TestEpsilonSharedSweep:
    """evaluate_attack_sweep == the per-ε evaluate_attack loop, exactly."""

    EPSILONS = (0.0, 0.05, 0.1, 0.2)

    @pytest.fixture(scope="class")
    def setup(self):
        rng = np.random.default_rng(0)
        model = build_model("snn_lenet_mini", input_size=12, time_steps=4, rng=0)
        dataset = ArrayDataset(
            rng.random((20, 1, 12, 12)).astype(np.float32),
            rng.integers(0, 10, 20),
        )
        return model, dataset

    @pytest.mark.parametrize(
        "family",
        [
            lambda e: FGSM(e),
            lambda e: BIM(e, steps=3),
            lambda e: PGD(e, steps=3, rng=0),  # seeded random start
            lambda e: PGD(e, steps=3, random_start=False),
            lambda e: UniformNoise(e, rng=0),
            lambda e: GaussianNoise(e, rng=0),
            lambda e: SignNoise(e, rng=0),
            lambda e: _DoubledFGSM(e),
            lambda e: _QuantizedFGSM(e),
        ],
        ids=[
            "fgsm", "bim", "pgd_random", "pgd_plain", "uniform", "gaussian", "sign",
            "fgsm_perturb_override", "fgsm_generate_override",
        ],
    )
    def test_sweep_equals_per_epsilon_loop(self, setup, family):
        model, dataset = setup
        loop = tuple(
            evaluate_attack(model, family(float(eps)), dataset, batch_size=8)
            for eps in self.EPSILONS
        )
        sweep = evaluate_attack_sweep(
            model, family, self.EPSILONS, dataset, batch_size=8
        )
        assert sweep == loop  # frozen dataclasses: exact field equality

    def test_fused_batch_size_chunking_is_equivalent(self, setup):
        # Default (per-ε-aligned chunks), explicit chunks, and the fully
        # fused K·B stack must all agree.
        model, dataset = setup
        default = evaluate_attack_sweep(
            model, lambda e: FGSM(e), self.EPSILONS, dataset, batch_size=8
        )
        chunked = evaluate_attack_sweep(
            model, lambda e: FGSM(e), self.EPSILONS, dataset,
            batch_size=8, fused_batch_size=8,
        )
        fused = evaluate_attack_sweep(
            model, lambda e: FGSM(e), self.EPSILONS, dataset,
            batch_size=8, fused_batch_size=8 * len(self.EPSILONS),
        )
        assert default == chunked == fused

    def test_empty_epsilons(self, setup):
        model, dataset = setup
        assert evaluate_attack_sweep(model, FGSM, (), dataset) == ()

    def test_robustness_curve_matches_manual_loop(self, setup):
        model, dataset = setup
        curve = robustness_curve(
            model, dataset, self.EPSILONS,
            lambda e: PGD(e, steps=2, rng=7), batch_size=8,
        )
        manual = tuple(
            evaluate_attack(model, PGD(float(e), steps=2, rng=7), dataset, batch_size=8)
            for e in self.EPSILONS
        )
        assert curve.evaluations == manual
        assert curve.robustness == tuple(m.robustness for m in manual)

    def test_evaluate_attack_accepts_precomputed_clean_predictions(self, setup):
        from repro.attacks import predict_batched

        model, dataset = setup
        clean = predict_batched(model, dataset.images, 8)
        with_hoist = evaluate_attack(
            model, FGSM(0.1), dataset, batch_size=8, clean_predictions=clean
        )
        without = evaluate_attack(model, FGSM(0.1), dataset, batch_size=8)
        assert with_hoist == without


class TestSharedGradientContract:
    """``generate`` hands the clean gradient only to attacks that reuse it."""

    def test_standard_attacks(self):
        assert FGSM(0.1).reuses_clean_gradient
        assert not FGSM(0.0).reuses_clean_gradient  # ε=0 never perturbs
        assert BIM(0.1, steps=2).reuses_clean_gradient
        assert PGD(0.1, steps=2, random_start=False).reuses_clean_gradient
        assert not PGD(0.1, steps=2, random_start=True).reuses_clean_gradient
        for noise in (UniformNoise, GaussianNoise, SignNoise):
            assert not noise(0.1, rng=0).reuses_clean_gradient

    @pytest.mark.parametrize("noise", [UniformNoise, GaussianNoise, SignNoise])
    def test_noise_attack_ignores_a_given_gradient(self, noise):
        rng = np.random.default_rng(2)
        images = rng.random((4, 1, 6, 6)).astype(np.float32)
        labels = np.zeros(4, dtype=np.int64)
        model = nn.Sequential(nn.Flatten(), nn.Linear(36, 3, rng=0))
        out = noise(0.1, rng=0).generate(model, images, labels, np.ones_like(images))
        np.testing.assert_array_equal(
            out, noise(0.1, rng=0).generate(model, images, labels)
        )

    def test_random_start_pgd_ignores_a_given_gradient(self):
        # Its first gradient is taken at the random point, not the clean input.
        rng = np.random.default_rng(4)
        images = rng.random((4, 1, 6, 6)).astype(np.float32)
        labels = np.zeros(4, dtype=np.int64)
        model = nn.Sequential(nn.Flatten(), nn.Linear(36, 3, rng=0))
        out = PGD(0.1, steps=1, rng=0).generate(
            model, images, labels, np.ones_like(images)
        )
        np.testing.assert_array_equal(
            out, PGD(0.1, steps=1, rng=0).generate(model, images, labels)
        )

    def test_bim_is_deterministic_pgd_with_step_epsilon_over_steps(self):
        rng = np.random.default_rng(3)
        model = build_model("snn_lenet_mini", input_size=12, time_steps=4, rng=0)
        images = rng.random((4, 1, 12, 12)).astype(np.float32)
        labels = rng.integers(0, 10, 4)
        epsilon, steps = 0.1, 3
        bim = BIM(epsilon, steps=steps)
        pgd = PGD(epsilon, steps=steps, alpha=epsilon / steps, random_start=False)
        np.testing.assert_array_equal(
            bim.generate(model, images, labels), pgd.generate(model, images, labels)
        )
        assert bim.name == "bim"
        assert repr(bim) == f"BIM(epsilon=0.1, steps=3, alpha={epsilon / steps})"
