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
    shares_clean_gradient,
)
from repro.data.dataset import ArrayDataset
from repro.models import build_model
from repro.robustness.security import robustness_curve
from repro.snn.network import _transform_fused_ready
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor, no_grad

SPIKING_MODELS = ["snn_lenet_mini", "snn_lenet5", "snn_cnn5"]


def _input_size(name: str) -> int:
    # snn_lenet5 needs the /2 - 4 geometry to stay positive.
    return 28 if name == "snn_lenet5" else 16


class TestModuleTwins:
    """forward_numpy must equal the Tensor forward, value for value."""

    @pytest.mark.parametrize("stride", [1, 2, (1, 2)])
    @pytest.mark.parametrize("padding", [0, 1, (2, 1)])
    def test_conv2d_twin(self, rng, stride, padding):
        conv = nn.Conv2d(3, 5, 3, stride=stride, padding=padding, rng=0)
        x = rng.standard_normal((4, 3, 11, 9)).astype(np.float32)
        reference = conv(Tensor(x)).data
        np.testing.assert_array_equal(conv.forward_numpy(x), reference)
        # Second call exercises the cached plan (and its scratch reuse).
        np.testing.assert_array_equal(conv.forward_numpy(x), reference)

    def test_conv2d_twin_no_bias_and_new_shape(self, rng):
        conv = nn.Conv2d(2, 4, 3, padding=1, bias=False, rng=0)
        for batch in (2, 5):
            x = rng.standard_normal((batch, 2, 8, 8)).astype(np.float32)
            np.testing.assert_array_equal(
                conv.forward_numpy(x), conv(Tensor(x)).data
            )
        assert len(conv._plans) == 2

    def test_conv2d_twin_tracks_weight_updates(self, rng):
        conv = nn.Conv2d(1, 2, 3, rng=0)
        x = rng.standard_normal((1, 1, 6, 6)).astype(np.float32)
        conv.forward_numpy(x)  # compile the plan at the old weights
        conv.weight.data = conv.weight.data * 2.0
        np.testing.assert_array_equal(conv.forward_numpy(x), conv(Tensor(x)).data)

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
        np.testing.assert_array_equal(pool.forward_numpy(x), pool(Tensor(x)).data)

    @pytest.mark.parametrize("kernel,stride", [(2, None), (3, 2)])
    def test_avg_pool_twin(self, rng, kernel, stride):
        pool = nn.AvgPool2d(kernel, stride)
        x = rng.standard_normal((3, 4, 9, 9)).astype(np.float32)
        np.testing.assert_array_equal(pool.forward_numpy(x), pool(Tensor(x)).data)

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
        np.testing.assert_array_equal(conv.forward_numpy(x64), conv(Tensor(x64)).data)
        # Both dtypes coexist as separate plans.
        np.testing.assert_array_equal(conv.forward_numpy(x32), conv(Tensor(x32)).data)
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
    """Every Conv2dPlan entry point is bitwise equal to F.conv2d.

    The plan reuses conv2d's arithmetic but not its im2col code, and the
    stacked methods hand BLAS sub-blocks of a folded column matrix; both
    only stay exact while each GEMM sees the Tensor op's operand layout,
    which varies with the geometry (1x1 kernels and single-image batches
    produce transposed or strided views).  Checked over random shapes on
    whatever BLAS the interpreter links.
    """

    @settings(max_examples=100, deadline=None)
    @given(case=conv_plan_cases())
    # One image per lane: each lane's output gradient is a transposed view.
    @example(case=_case(
        lanes=2, n=1, c_in=3, c_out=3, h=20, w=13,
        kernel=(2, 3), stride=(1, 2), padding=0,
    ))
    # 1x1, one channel: conv2d's column is a stride-2 view (GEMV incx 2).
    @example(case=_case(
        n=22, c_in=1, c_out=16, h=11, w=14, kernel=(1, 1), stride=(1, 2), padding=1,
    ))
    # 1x1, one image: conv2d's columns are a transposed view of the input.
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
            out_t = F.conv2d(x_t, w_t, b_t, stride=stride, padding=padding)
            g = rng.standard_normal(out_t.shape).astype(dtype)
            out_t.backward(g)
            grads.append(g)
            expected.append((out_t.data, x_t.grad, w_t.grad))

            _assert_bitwise(plan(x, weight, bias), out_t.data)
            _assert_bitwise(plan.backward_input(g, weight), x_t.grad)
            _assert_bitwise(plan.backward_weight(g, x, w_shape), w_t.grad)

        folded = F.Conv2dPlan((lanes * n, *x_shape[1:]), dtype, w_shape, stride, padding)
        x_fold, g_fold = np.concatenate(xs), np.concatenate(grads)
        alive, wanted = case["alive"], case["wanted"]
        out = folded.stacked(x_fold, weights, biases, alive)
        grad_x = folded.stacked_backward_input(g_fold, weights, alive)
        grad_w = folded.stacked_backward_weights(g_fold, x_fold, w_shape, wanted)
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


class TestFusedPlanPath:
    """The network-level contract: plans on, plans off, fallback, coverage."""

    @pytest.mark.parametrize("name", SPIKING_MODELS)
    def test_registry_models_bitwise_identical(self, name):
        size = _input_size(name)
        model = build_model(name, input_size=size, time_steps=5, rng=0)
        x = Tensor(np.random.default_rng(3).random((3, 1, size, size)).astype(np.float32))
        reference = model(x)
        with no_grad():
            planned = model(x)
        model.use_synapse_plans = False
        with no_grad():
            unplanned = model(x)
        np.testing.assert_array_equal(planned.data, reference.data)
        np.testing.assert_array_equal(unplanned.data, reference.data)

    @pytest.mark.parametrize("name", SPIKING_MODELS)
    def test_registry_models_full_plan_coverage(self, name):
        size = _input_size(name)
        model = build_model(name, input_size=size, time_steps=3, rng=0)
        planned, total = model.synapse_plan_coverage()
        assert planned == total > 0
        assert model._fused_ready()

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
        model(x)  # autograd path must not count
        assert model.fused_forward_count == 2

    def test_untwinned_transform_falls_back_per_layer(self):
        # A custom transform without forward_numpy must not disqualify the
        # fused loop — only its own layer drops to the Tensor API.
        class Scaler(nn.Module):
            def forward(self, x):
                return x * 0.5

        from repro.snn.encoding import ConstantCurrentLIFEncoder
        from repro.snn.network import (
            SpikingLayer,
            SpikingNetwork,
            SpikingReadout,
        )
        from repro.snn.neuron import LICell, LIFCell, LIFParameters

        params = LIFParameters(surrogate_alpha=5.0)
        layers = [
            SpikingLayer(nn.Sequential(Scaler(), nn.Linear(8, 6, rng=0)), LIFCell(params)),
            SpikingLayer(nn.Linear(6, 5, rng=1), LIFCell(params)),
        ]
        readout = SpikingReadout(nn.Linear(5, 3, rng=2), LICell(params))
        model = SpikingNetwork(
            ConstantCurrentLIFEncoder(params), layers, readout, time_steps=4
        )
        assert not _transform_fused_ready(layers[0].transform)
        assert _transform_fused_ready(layers[1].transform)
        assert model.synapse_plan_coverage() == (2, 3)
        x = Tensor(np.random.default_rng(5).random((2, 8)).astype(np.float32))
        reference = model(x)
        with no_grad():
            fused = model(x)
        np.testing.assert_array_equal(fused.data, reference.data)
        assert model.fused_forward_count == 1

    def test_use_synapse_plans_false_reports_zero_coverage(self):
        model = build_model("snn_lenet_mini", input_size=12, time_steps=3, rng=0)
        model.use_synapse_plans = False
        assert model.synapse_plan_coverage() == (0, 4)


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
        ],
        ids=["fgsm", "bim", "pgd_random", "pgd_plain", "uniform", "gaussian", "sign"],
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
    """The MRO trust rule guarding gradient reuse, mirroring _has_numpy_twin."""

    def test_standard_attacks(self):
        assert shares_clean_gradient(FGSM(0.1))
        assert not shares_clean_gradient(FGSM(0.0))  # ε=0 never perturbs
        assert shares_clean_gradient(BIM(0.1, steps=2))
        assert shares_clean_gradient(PGD(0.1, steps=2, random_start=False))
        assert not shares_clean_gradient(PGD(0.1, steps=2, random_start=True))
        assert not shares_clean_gradient(UniformNoise(0.1))

    def test_subclass_overriding_perturb_is_untrusted(self):
        class FlippedFGSM(FGSM):
            def _perturb(self, model, images, labels):
                return images - super()._perturb(model, images, labels)

        attack = FlippedFGSM(0.1)
        assert not shares_clean_gradient(attack)

    def test_subclass_overriding_generate_is_untrusted(self):
        # generate_shared bypasses generate(), so a generate() override
        # (e.g. output post-processing) must also revoke trust.
        class QuantizedFGSM(FGSM):
            def generate(self, model, images, labels):
                out = super().generate(model, images, labels)
                return np.round(out * 255.0) / 255.0

        assert not shares_clean_gradient(QuantizedFGSM(0.1))

    def test_untrusted_subclass_still_correct_in_sweep(self):
        # The sweep must route an untrusted subclass through plain
        # generate(), reproducing the per-ε loop exactly.
        class DoubledFGSM(FGSM):
            def _perturb(self, model, images, labels):
                return super()._perturb(model, images, labels) + 0.01

        rng = np.random.default_rng(1)
        model = build_model("snn_lenet_mini", input_size=12, time_steps=3, rng=0)
        dataset = ArrayDataset(
            rng.random((8, 1, 12, 12)).astype(np.float32), rng.integers(0, 10, 8)
        )
        epsilons = (0.05, 0.1)
        loop = tuple(
            evaluate_attack(model, DoubledFGSM(float(e)), dataset, batch_size=4)
            for e in epsilons
        )
        sweep = evaluate_attack_sweep(
            model, lambda e: DoubledFGSM(e), epsilons, dataset, batch_size=4
        )
        assert sweep == loop

    def test_generate_shared_default_ignores_gradient(self):
        rng = np.random.default_rng(2)
        attack = UniformNoise(0.1, rng=0)
        reference = UniformNoise(0.1, rng=0)
        images = rng.random((4, 1, 6, 6)).astype(np.float32)
        labels = np.zeros(4, dtype=np.int64)
        model = nn.Sequential(nn.Flatten(), nn.Linear(36, 3, rng=0))
        out = attack.generate_shared(model, images, labels, np.ones_like(images))
        np.testing.assert_array_equal(
            out, reference.generate(model, images, labels)
        )
