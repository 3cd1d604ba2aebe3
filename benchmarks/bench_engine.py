"""Benchmark P1 — substrate micro-benchmarks.

Throughput of the pieces everything else is built on: convolution
forward/backward, one LIF step, a full SNN forward (autograd vs the
fused no-grad path), one PGD gradient step, one optimizer update, and
the cell-job engine running a tiny grid serially vs in parallel.  These
run with real repetition (unlike the experiment benches, which execute
once) and are the numbers to watch when optimising the engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.attacks.base import input_gradient
from repro.data import ArrayDataset
from repro.models import build_model
from repro.optim import Adam
from repro.robustness import ExplorationConfig, RobustnessExplorer
from repro.snn import LIFCell, LIFParameters
from repro.tensor import Tensor, functional as F
from repro.tensor.tensor import no_grad
from repro.training.trainer import TrainingConfig
from tests import reference_ops

RNG = np.random.default_rng(0)


@pytest.fixture(scope="module")
def conv_inputs():
    x = Tensor(RNG.standard_normal((16, 8, 16, 16)).astype(np.float32), requires_grad=True)
    w = Tensor(RNG.standard_normal((16, 8, 3, 3)).astype(np.float32), requires_grad=True)
    b = Tensor(RNG.standard_normal(16).astype(np.float32), requires_grad=True)
    return x, w, b


def test_conv2d_forward(benchmark, conv_inputs):
    x, w, b = conv_inputs
    benchmark(lambda: F.conv2d(x, w, b, padding=1))


def test_conv2d_forward_backward(benchmark, conv_inputs):
    x, w, b = conv_inputs

    def run():
        out = F.conv2d(x, w, b, padding=1).sum()
        x.zero_grad()
        out.backward()

    benchmark(run)


def test_lif_step(benchmark):
    """One autograd LIF step (the reference Tensor step)."""
    cell = LIFCell(LIFParameters())
    current = Tensor(RNG.standard_normal((32, 16, 8, 8)).astype(np.float32))
    state = reference_ops.lif_step(cell, current)[1]
    benchmark(lambda: reference_ops.lif_step(cell, current, state))


def test_snn_forward(benchmark):
    model = build_model("snn_lenet_mini", input_size=16, time_steps=16, rng=0)
    x = Tensor(RNG.random((8, 1, 16, 16)).astype(np.float32))
    benchmark(lambda: model(x))


def test_snn_forward_nograd(benchmark):
    """Fused no-grad inference path — compare against ``test_snn_forward``.

    Same model, same input, same (bitwise) logits; the only difference is
    the fused numpy time loop (with compiled synapse plans) that skips
    graph construction and surrogate-derivative evaluation.
    """
    model = build_model("snn_lenet_mini", input_size=16, time_steps=16, rng=0)
    x = Tensor(RNG.random((8, 1, 16, 16)).astype(np.float32))

    def run():
        with no_grad():
            model(x)

    benchmark(run)


def test_snn_forward_nograd_unplanned(benchmark):
    """Fused loop with per-step Tensor transforms (the PR-1 baseline).

    Identical logits to ``test_snn_forward_nograd``; the delta between
    the two is exactly what the compiled numpy synapse plans buy — the
    per-time-step Tensor construction, ``np.pad`` and im2col shape
    analysis of every synaptic transform.
    """
    model = build_model("snn_lenet_mini", input_size=16, time_steps=16, rng=0)
    x = RNG.random((8, 1, 16, 16)).astype(np.float32)
    benchmark(lambda: reference_ops.unplanned_logits(model, x))


def test_pgd_gradient_step(benchmark):
    model = build_model("snn_lenet_mini", input_size=16, time_steps=16, rng=0)
    images = RNG.random((8, 1, 16, 16)).astype(np.float32)
    labels = np.arange(8) % 10
    benchmark(lambda: input_gradient(model, images, labels))


def test_adam_step(benchmark):
    model = build_model("lenet_mini", input_size=16, rng=0)
    optimizer = Adam(model.parameters(), lr=1e-3)
    x = Tensor(RNG.random((32, 1, 16, 16)).astype(np.float32))
    labels = np.arange(32) % 10

    def run():
        loss = F.cross_entropy(model(x), labels)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()

    benchmark(run)


# -- cell-job engine ---------------------------------------------------------
#
# A deliberately tiny grid (linear probe, FGSM, one epoch) so the numbers
# measure scheduling overhead and scaling, not SNN training time.  On a
# single-core box the parallel variant mostly pays pool start-up; with
# real cores it approaches jobs-fold speed-up because cells are
# independent.


def _tiny_grid_explorer() -> RobustnessExplorer:
    rng = np.random.default_rng(7)
    train = ArrayDataset(rng.random((32, 1, 6, 6)).astype(np.float32), rng.integers(0, 4, 32))
    test = ArrayDataset(rng.random((16, 1, 6, 6)).astype(np.float32), rng.integers(0, 4, 16))

    def factory(v_th: float, time_window: int, seed: int) -> nn.Module:
        return nn.Sequential(nn.Flatten(), nn.Linear(36, 4, rng=seed))

    config = ExplorationConfig(
        v_thresholds=(0.5, 1.0, 1.5, 2.0),
        time_windows=(2,),
        epsilons=(0.1,),
        accuracy_threshold=0.0,
        attack="fgsm",
        attack_steps=1,
        training=TrainingConfig(epochs=1, batch_size=8, learning_rate=0.01),
        seed=7,
    )
    return RobustnessExplorer(factory, train, test, config)


def test_engine_grid_serial(benchmark):
    explorer = _tiny_grid_explorer()
    benchmark(lambda: explorer.run(jobs=1))


def test_engine_grid_parallel(benchmark):
    explorer = _tiny_grid_explorer()
    benchmark(lambda: explorer.run(jobs=2))


# -- epsilon-shared attack sweeps ---------------------------------------------
#
# One trained-variant robustness curve is K attacks at K budgets; the
# sweep evaluator shares the ε-independent work (clean predictions, the
# single-step white-box gradient, fused adversarial prediction).  The
# per-ε loop below is the pre-sweep baseline — same numbers, more passes.

_SWEEP_EPSILONS = (0.0, 0.05, 0.1, 0.2, 0.4)


def _sweep_fixture():
    from repro.attacks.fgsm import FGSM

    model = build_model("snn_lenet_mini", input_size=16, time_steps=16, rng=0)
    images = RNG.random((16, 1, 16, 16)).astype(np.float32)
    labels = (np.arange(16) % 10).astype(np.int64)
    return model, ArrayDataset(images, labels), lambda eps: FGSM(eps)


def test_attack_curve_per_epsilon(benchmark):
    from repro.attacks.metrics import evaluate_attack

    model, dataset, build = _sweep_fixture()

    def run():
        return [
            evaluate_attack(model, build(eps), dataset, batch_size=16)
            for eps in _SWEEP_EPSILONS
        ]

    benchmark(run)


def test_attack_curve_sweep(benchmark):
    from repro.attacks.metrics import evaluate_attack_sweep

    model, dataset, build = _sweep_fixture()

    def run():
        return evaluate_attack_sweep(
            model, build, _SWEEP_EPSILONS, dataset, batch_size=16
        )

    benchmark(run)
