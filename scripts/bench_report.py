#!/usr/bin/env python3
"""Benchmark report for the fused inference, sweep and gradient paths.

Measures, on the default spiking LeNet of an experiment profile:

1. **Forward paths** — one batch forward on the unrolled autograd loop,
   the PR-1 fused loop (per-step Tensor transforms) and the compiled
   synapse-plan loop, asserting all three produce bitwise-identical
   logits.  The first two are the reference loops of
   ``tests/reference_ops.py``; the network itself runs only the third.
2. **Robustness curve** — a K-epsilon FGSM curve via the historical
   per-ε ``evaluate_attack`` loop vs ``evaluate_attack_sweep``, asserting
   identical results.
3. **Gradient paths** — ``input_gradient`` through the graph-free BPTT
   path vs the unrolled autograd graph of ``tests/reference_ops.py``
   (bitwise-identical gradients asserted), and a K-epsilon PGD-10
   robustness curve on both paths (identical attack outcomes asserted).

4. **Stacked grid execution** — the same cell task list through the
   per-cell scheduler vs ``run_cell_tasks(stack=K)`` (K-variant
   ``VariantStack`` fused passes), asserting every per-cell result
   compares equal, at two scales: a K=5 headline grid and a cheap K=2
   micro leg for CI.

5. **Guided grid search** — a 24-cell synthetic grid run exhaustively vs
   through ``run_halving_search`` (successive halving with warm-start),
   asserting the search finds the exhaustive top-1 sweet spot and its
   warm-start bias audit passes, and reporting the training-seconds
   saved.

Forward/sweep timings go to ``BENCH_pr3.json``, gradient timings to
``BENCH_pr5.json``, stacked-grid timings to ``BENCH_pr6.json`` and
guided-search timings to ``BENCH_pr8.json`` (repo root by default).  ``--check-fused`` skips the
timing and only runs the smoke guards on the profile's default spiking
model: its forward and backward counters must advance (no-grad
inference, attack crafting, a training step), the no-grad pass must run
layer 0's transform, and step its deterministic encoder, on exactly the
steps of that transform's structural window, and one batch's input
gradient must be bitwise equal to the unrolled autograd graph's — the CI
job runs this to catch regressions of the fused path.

``--check-regression`` measures fresh and compares the *speedup ratios*
against the committed baseline reports: the planned-fused forward, the
K-epsilon FGSM sweep, the fused input gradient, the PGD-10 curve, the
K=5/K=2 stacked-grid ratios and the guided-search training-seconds ratio
must each retain their advantage to within ``--tolerance`` (default 25 %).
Ratios — not absolute seconds — are compared, so the guard is meaningful
on CI hardware that is nothing like the machine that wrote the
baselines.  Shared runners with noisy neighbours can opt out by setting
``REPRO_BENCH_SKIP=1``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))  # tests.reference_ops: the loop side of the ratios

import numpy as np  # noqa: E402

from repro.attacks.base import input_gradient  # noqa: E402
from repro.attacks.fgsm import FGSM  # noqa: E402
from repro.attacks.metrics import (  # noqa: E402
    evaluate_attack,
    evaluate_attack_sweep,
)
from repro.attacks.pgd import PGD  # noqa: E402
from repro.data.dataset import ArrayDataset  # noqa: E402
from repro.engine.job import JobContext, build_cell_tasks  # noqa: E402
from repro.engine.scheduler import run_cell_tasks  # noqa: E402
from repro.experiments.profiles import get_profile  # noqa: E402
from repro.models import build_model  # noqa: E402
from repro.robustness.config import ExplorationConfig  # noqa: E402
from repro.snn.neuron import LIFParameters  # noqa: E402
from repro.tensor import functional as F  # noqa: E402
from repro.tensor.tensor import Tensor, no_grad  # noqa: E402
from repro.training.trainer import TrainingConfig  # noqa: E402
from tests.reference_ops import (  # noqa: E402
    unplanned_logits,
    unrolled_forward,
    unrolled_graph,
)

EPSILONS = (0.0, 0.1, 0.25, 0.5, 1.0)
PGD_STEPS = 10


def _best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _build(profile, time_steps: int | None = None):
    return build_model(
        profile.snn_model,
        input_size=profile.image_size,
        time_steps=time_steps or profile.time_steps_default,
        rng=0,
    )


def check_fused(profile) -> list[str]:
    """Smoke guard: the fused paths run windowed, and their gradient is exact."""
    errors: list[str] = []
    model = _build(profile)
    x = Tensor(np.random.default_rng(0).random(
        (4, 1, profile.image_size, profile.image_size)
    ).astype(np.float32))
    # Layer 0's transform is live while its output can still reach the
    # readout membrane by the last step: T - 1 - depth steps (step 0
    # always runs).  A deterministic encoder steps while it reads them.
    first = model.layers[0].transform
    encoder = model.encoder
    window = max(model.time_steps - 1 - len(model.layers), 1)
    first_calls = []
    encoder_steps = []

    def counted(spikes, _forward=first.forward_numpy):
        first_calls.append(spikes.shape)
        return _forward(spikes)

    def stepped(image, state, _step=encoder.step_numpy):
        encoder_steps.append(image.shape)
        return _step(image, state)

    first.forward_numpy = counted
    encoder.step_numpy = stepped
    try:
        with no_grad():
            model(x)
    finally:
        del first.forward_numpy
        del encoder.step_numpy
    if model.fused_forward_count != 1:
        errors.append(
            f"{profile.snn_model}: no-grad forward did not take the fused path "
            f"(fused_forward_count={model.fused_forward_count})"
        )
    if len(first_calls) != window:
        errors.append(
            f"{profile.snn_model}: no-grad forward ran layer 0's transform on "
            f"{len(first_calls)} of {model.time_steps} steps, not on its "
            f"{window}-step window"
        )
    if len(encoder_steps) != window:
        errors.append(
            f"{profile.snn_model}: no-grad forward stepped its "
            f"{type(encoder).__name__} on {len(encoder_steps)} of "
            f"{model.time_steps} steps, not on layer 0's {window}-step window"
        )
    labels = np.zeros(4, dtype=np.int64)
    gradient = input_gradient(model, x.data, labels)
    if model.fused_backward_count != 1:
        errors.append(
            f"{profile.snn_model}: input_gradient did not take the fused "
            f"BPTT path (fused_backward_count={model.fused_backward_count})"
        )
    with unrolled_graph(model):
        reference = input_gradient(model, x.data, labels)
    if gradient.dtype != reference.dtype or gradient.tobytes() != reference.tobytes():
        errors.append(
            f"{profile.snn_model}: fused input gradient differs from the "
            "unrolled autograd graph's"
        )
    # Training: a grad-mode forward plus loss backward.
    F.cross_entropy(model(x), labels).backward()
    if model.fused_backward_count != 2:
        errors.append(
            f"{profile.snn_model}: grad-mode forward + backward did not take "
            f"the fused BPTT path (fused_backward_count="
            f"{model.fused_backward_count}, expected 2)"
        )
    return errors


def run_benchmarks(profile, time_steps: int, samples: int, repeats: int) -> dict:
    rng = np.random.default_rng(0)
    shape = (samples, 1, profile.image_size, profile.image_size)
    images = rng.random(shape).astype(np.float32)
    labels = (np.arange(samples) % 10).astype(np.int64)
    x = Tensor(images)
    model = _build(profile, time_steps)

    with no_grad():
        reference = model(x).data
    unplanned = unplanned_logits(model, images)
    # The autograd baseline is the unrolled loop, in grad mode.
    autograd_logits = unrolled_forward(model, x).data
    forward_parity = bool(
        np.array_equal(reference, unplanned)
        and np.array_equal(reference, autograd_logits)
    )

    autograd_s = _best_of(repeats, lambda: unrolled_forward(model, x))

    def fused():
        with no_grad():
            model(x)

    planned_s = _best_of(repeats, fused)
    unplanned_s = _best_of(repeats, lambda: unplanned_logits(model, images))

    dataset = ArrayDataset(images, labels)

    def per_epsilon():
        return [
            evaluate_attack(model, FGSM(eps), dataset, batch_size=samples)
            for eps in EPSILONS
        ]

    def sweep():
        return evaluate_attack_sweep(
            model, FGSM, EPSILONS, dataset, batch_size=samples
        )

    def sweep_fused():
        return evaluate_attack_sweep(
            model, FGSM, EPSILONS, dataset, batch_size=samples,
            fused_batch_size=samples * len(EPSILONS),
        )

    loop_results = per_epsilon()
    sweep_results = sweep()
    fused_results = sweep_fused()
    curve_parity = all(
        a == b == c for a, b, c in zip(loop_results, sweep_results, fused_results)
    )
    per_epsilon_s = _best_of(max(1, repeats - 1), per_epsilon)
    sweep_s = _best_of(max(1, repeats - 1), sweep)
    sweep_fused_s = _best_of(max(1, repeats - 1), sweep_fused)

    return {
        "profile": profile.name,
        "model": profile.snn_model,
        "time_steps": time_steps,
        "samples": samples,
        "forward": {
            "autograd_s": autograd_s,
            "fused_unplanned_s": unplanned_s,
            "fused_planned_s": planned_s,
            "plan_speedup_vs_unplanned": unplanned_s / planned_s,
            "fused_speedup_vs_autograd": autograd_s / planned_s,
        },
        "fgsm_curve": {
            "epsilons": list(EPSILONS),
            "per_epsilon_s": per_epsilon_s,
            "sweep_s": sweep_s,
            "sweep_fused_stack_s": sweep_fused_s,
            "speedup": per_epsilon_s / sweep_s,
        },
        "parity": {
            "forward_bitwise_identical": forward_parity,
            "curve_results_identical": curve_parity,
        },
    }


def run_gradient_benchmarks(
    profile, time_steps: int, samples: int, repeats: int
) -> dict:
    """Fused-BPTT vs autograd gradient benches (the BENCH_pr5 payload).

    Asserts bitwise-identical input gradients and identical PGD/attack
    outcomes between the two paths before timing either.
    """
    rng = np.random.default_rng(0)
    shape = (samples, 1, profile.image_size, profile.image_size)
    images = rng.random(shape).astype(np.float32)
    labels = (np.arange(samples) % 10).astype(np.int64)
    dataset = ArrayDataset(images, labels)
    model = _build(profile, time_steps)

    def pgd_curve():
        # Fresh identically-seeded attacks per run: the random start draws
        # the same noise on both paths, so outcomes must match exactly.
        return evaluate_attack_sweep(
            model,
            lambda eps: PGD(eps, steps=PGD_STEPS, rng=0),
            EPSILONS,
            dataset,
            batch_size=samples,
        )

    fused_gradient = input_gradient(model, images, labels)
    fused_curve = pgd_curve()
    with unrolled_graph(model):
        autograd_gradient = input_gradient(model, images, labels)
        autograd_curve = pgd_curve()
    gradient_parity = bool(np.array_equal(fused_gradient, autograd_gradient))
    curve_parity = fused_curve == autograd_curve

    fused_gradient_s = _best_of(
        repeats, lambda: input_gradient(model, images, labels)
    )
    fused_curve_s = _best_of(max(1, repeats - 1), pgd_curve)
    with unrolled_graph(model):
        autograd_gradient_s = _best_of(
            repeats, lambda: input_gradient(model, images, labels)
        )
        autograd_curve_s = _best_of(max(1, repeats - 1), pgd_curve)

    return {
        "profile": profile.name,
        "model": profile.snn_model,
        "time_steps": time_steps,
        "samples": samples,
        "input_gradient": {
            "autograd_s": autograd_gradient_s,
            "fused_s": fused_gradient_s,
            "speedup": autograd_gradient_s / fused_gradient_s,
        },
        "pgd10_curve": {
            "epsilons": list(EPSILONS),
            "steps": PGD_STEPS,
            "autograd_s": autograd_curve_s,
            "fused_s": fused_curve_s,
            "speedup": autograd_curve_s / fused_curve_s,
        },
        "parity": {
            "input_gradient_bitwise_identical": gradient_parity,
            "pgd_curve_results_identical": curve_parity,
        },
    }


def _stacked_grid_bench(
    profile,
    v_thresholds: tuple[float, ...],
    time_windows: tuple[int, ...],
    stack: int,
    train_n: int,
    test_n: int,
    epochs: int,
) -> dict:
    """One stacked-vs-per-cell grid measurement (parity asserted first).

    Runs the *same* cell task list through ``run_cell_tasks`` and through
    ``run_cell_tasks(stack=K)`` on synthetic data, requires every
    per-cell result to compare equal (the dataclass equality covers all
    science fields), and reports both wall-clocks.  Best-of-two per path
    (the first pass doubles as cache/allocator warm-up), because the
    ratio sits near the regression threshold and a single sample is too
    noisy to guard on.
    """
    rng = np.random.default_rng(0)
    size = profile.image_size
    train = ArrayDataset(
        rng.random((train_n, 1, size, size), dtype=np.float32),
        rng.integers(0, 10, train_n),
    )
    test = ArrayDataset(
        rng.random((test_n, 1, size, size), dtype=np.float32),
        rng.integers(0, 10, test_n),
    )

    def factory(v_th, time_window, seed):
        return build_model(
            profile.snn_model,
            input_size=size,
            time_steps=int(time_window),
            lif_params=LIFParameters(v_th=float(v_th)),
            rng=seed,
        )

    config = ExplorationConfig(
        v_thresholds=v_thresholds,
        time_windows=time_windows,
        epsilons=(0.5, 1.0),
        accuracy_threshold=0.0,  # every cell reaches the attack phase
        attack_steps=3,
        # Small batches keep the measurement in the regime stacking helps:
        # many short time loops whose per-step dispatch overhead the fused
        # K-lane pass amortizes.  Large batches are GEMM-bound and stacking
        # is parity-neutral there anyway.
        attack_batch_size=8,
        training=TrainingConfig(
            epochs=epochs, batch_size=8, eval_batch_size=8, seed=11
        ),
        seed=7,
    )
    tasks = build_cell_tasks(config)

    per_cell_s = math.inf
    for _ in range(2):
        context = JobContext.for_grid(config, factory, train, test)
        start = time.perf_counter()
        per_cell, _stats = run_cell_tasks(context, tasks)
        per_cell_s = min(per_cell_s, time.perf_counter() - start)

    stacked_s = math.inf
    for _ in range(2):
        context = JobContext.for_grid(config, factory, train, test)
        start = time.perf_counter()
        stacked, _stats = run_cell_tasks(context, tasks, stack=stack)
        stacked_s = min(stacked_s, time.perf_counter() - start)

    parity = all(a == b for a, b in zip(per_cell, stacked))
    return {
        "stack": stack,
        "cells": len(tasks),
        "v_thresholds": list(v_thresholds),
        "time_windows": list(time_windows),
        "train_samples": train_n,
        "test_samples": test_n,
        "epochs": epochs,
        "per_cell_s": per_cell_s,
        "stacked_s": stacked_s,
        "speedup": per_cell_s / stacked_s,
        "results_identical": parity,
    }


def run_stacked_benchmarks(profile) -> dict:
    """Stacked grid execution benches (the BENCH_pr6 payload).

    Two scales: ``stacked_grid_smoke`` is the headline K=5 measurement
    (a 10-cell ragged-T grid through 5-cell stacks), and
    ``stacked_grid_micro`` is the cheap K=2 leg CI re-measures under
    ``--check-regression``.
    """
    smoke = _stacked_grid_bench(
        profile,
        v_thresholds=(0.25, 0.5, 0.75, 1.0, 1.25),
        time_windows=(8, 10),
        stack=5,
        train_n=48,
        test_n=24,
        epochs=1,
    )
    micro = _stacked_grid_bench(
        profile,
        v_thresholds=(0.5, 1.0),
        time_windows=(6,),
        stack=2,
        train_n=24,
        test_n=12,
        epochs=1,
    )
    return {
        "profile": profile.name,
        "model": profile.snn_model,
        "stacked_grid_smoke": smoke,
        "stacked_grid_micro": micro,
        "parity": {
            "smoke_results_identical": smoke.pop("results_identical"),
            "micro_results_identical": micro.pop("results_identical"),
        },
    }


def run_search_benchmarks(profile) -> dict:
    """Guided-search vs exhaustive grid bench (the BENCH_pr8 payload).

    Runs the *same* synthetic grid twice — exhaustively through
    ``run_cell_tasks`` and through the successive-halving scheduler with
    warm-start — and reports the training-seconds and wall-clock ratios.
    The headline number is ``train_seconds_speedup``: training time is
    what the scheduler exists to save, and the ratio is machine-portable
    where wall seconds are not.  Agreement (the search finds the
    exhaustive top-1 sweet spot) and the warm-start bias audit are
    asserted as parity, like every other bench's correctness gates.
    """
    import tempfile

    from repro.engine.search import SearchConfig, run_halving_search

    rng = np.random.default_rng(0)
    size = 12  # smaller canvas than the profile's: epochs dominate here
    train = ArrayDataset(
        rng.random((64, 1, size, size), dtype=np.float32),
        rng.integers(0, 10, 64),
    )
    test = ArrayDataset(
        rng.random((24, 1, size, size), dtype=np.float32),
        rng.integers(0, 10, 24),
    )

    def factory(v_th, time_window, seed):
        return build_model(
            profile.snn_model,
            input_size=size,
            time_steps=int(time_window),
            lif_params=LIFParameters(v_th=float(v_th)),
            rng=seed,
        )

    config = ExplorationConfig(
        v_thresholds=(0.25, 0.5, 0.75, 1.0, 1.25, 1.5),
        time_windows=(6, 8, 10, 12),
        epsilons=(1.0,),
        accuracy_threshold=0.0,  # every cell reaches the attack phase
        attack="fgsm",  # one cheap crafting pass; training is the subject
        attack_batch_size=24,
        training=TrainingConfig(
            epochs=6, batch_size=8, eval_batch_size=24, seed=11
        ),
        seed=7,
    )
    tasks = build_cell_tasks(config)
    epsilon = max(config.epsilons)

    context = JobContext.for_grid(config, factory, train, test)
    start = time.perf_counter()
    exhaustive, _stats = run_cell_tasks(context, tasks)
    exhaustive_wall_s = time.perf_counter() - start
    exhaustive_train_s = sum(
        cell.phase_seconds.get("train_s", 0.0) for cell in exhaustive
    )

    # Aggressive halving (eta=8 keeps 3 of 24) is where the scheduler's
    # savings peak; the warm-start makes the surviving cells' second-rung
    # training a resume instead of a restart.
    search_config = SearchConfig(schedule=(1, 6), eta=8.0, warm_start=True)
    with tempfile.TemporaryDirectory() as cache_dir:
        result = run_halving_search(
            JobContext.for_grid(config, factory, train, test),
            tasks,
            search_config,
            cache_dir,
        )

    ranked = sorted(
        (cell for cell in exhaustive if cell.learnable),
        key=lambda cell: (
            cell.robustness.get(epsilon, -1.0),
            cell.clean_accuracy,
        ),
        reverse=True,
    )
    top1 = ranked[0] if ranked else None
    sweet = result.sweet_spot()
    agrees = (
        top1 is not None
        and sweet is not None
        and (top1.v_th, top1.time_window) == (sweet.v_th, sweet.time_window)
    )
    gate = result.bias_gate or {}

    return {
        "profile": profile.name,
        "model": profile.snn_model,
        "search_grid": {
            "cells": len(tasks),
            "v_thresholds": list(config.v_thresholds),
            "time_windows": list(config.time_windows),
            "epochs": config.training.epochs,
            "schedule": list(result.schedule),
            "eta": result.eta,
            "exhaustive_train_s": exhaustive_train_s,
            "search_train_s": result.train_seconds_total,
            "train_seconds_speedup": exhaustive_train_s
            / result.train_seconds_total,
            "exhaustive_wall_s": exhaustive_wall_s,
            "search_wall_s": result.elapsed_seconds,
            "wall_speedup": exhaustive_wall_s / result.elapsed_seconds,
            "sweet_spot": None
            if sweet is None
            else {"v_th": sweet.v_th, "time_window": sweet.time_window},
            "bias_gate_divergence": gate.get("divergence"),
        },
        "parity": {
            "sweet_spot_agrees_with_exhaustive": bool(agrees),
            "bias_gate_passed": bool(gate.get("passed", False)),
        },
    }


def run_metrics_overhead_bench(profile, repeats: int = 3) -> dict:
    """The cost of running a grid with ``--metrics-dir`` on.

    The metrics store's contract is "purely observational": recording
    must not perturb results (asserted as parity, like every other
    bench) and must cost next to nothing — the gate holds the
    instrumentation overhead of a grid run under 2%.

    The gated number is the *measured instrumentation work* — per-call
    record and flush costs microbenched in-process, scaled by how often
    a grid run fires them — as a fraction of the uninstrumented grid's
    wall clock.  Gating on the raw on-vs-off wall-clock delta instead
    would gate on machine noise: two *identical* runs on a busy host
    differ by several percent, an order of magnitude more than the real
    cost under test.  The raw ratio is still measured and reported
    (``wall_ratio``) as an informational sanity check.
    """
    import tempfile

    from repro.engine.metrics import (
        configure_metrics,
        flush_metrics,
        record_task,
        reset_metrics,
    )

    rng = np.random.default_rng(0)
    size = profile.image_size
    train = ArrayDataset(
        rng.random((48, 1, size, size), dtype=np.float32),
        rng.integers(0, 10, 48),
    )
    test = ArrayDataset(
        rng.random((24, 1, size, size), dtype=np.float32),
        rng.integers(0, 10, 24),
    )

    def factory(v_th, time_window, seed):
        return build_model(
            profile.snn_model,
            input_size=size,
            time_steps=int(time_window),
            lif_params=LIFParameters(v_th=float(v_th)),
            rng=seed,
        )

    config = ExplorationConfig(
        v_thresholds=(0.5, 1.0),
        time_windows=(8,),
        epsilons=(0.5, 1.0),
        accuracy_threshold=0.0,  # every cell reaches the attack phase
        attack_steps=3,
        attack_batch_size=8,
        training=TrainingConfig(
            epochs=2, batch_size=8, eval_batch_size=8, seed=11
        ),
        seed=7,
    )
    tasks = build_cell_tasks(config)
    context = JobContext.for_grid(config, factory, train, test)

    reset_metrics()
    baseline, _stats = run_cell_tasks(context, tasks)
    plain_s = _best_of(repeats, lambda: run_cell_tasks(context, tasks))
    with tempfile.TemporaryDirectory() as metrics_dir:
        configure_metrics(metrics_dir)
        try:
            instrumented, _stats = run_cell_tasks(context, tasks)
            instrumented_s = _best_of(
                repeats, lambda: run_cell_tasks(context, tasks)
            )
            # Per-call costs of the two things instrumentation adds to a
            # serial grid run: one record_task per task, one snapshot
            # flush per schedule.  Microbenched against the store the
            # runs above populated, so the flush writes realistic files.
            sample = instrumented[0]
            record_cost_s = _best_of(
                repeats,
                lambda: [record_task(sample, cached=False) for _ in range(200)],
            ) / 200
            flush_cost_s = _best_of(
                repeats, lambda: [flush_metrics() for _ in range(20)]
            ) / 20
        finally:
            reset_metrics()
    overhead = (len(tasks) * record_cost_s + flush_cost_s) / plain_s
    return {
        "profile": profile.name,
        "model": profile.snn_model,
        "cells": len(tasks),
        "plain_s": plain_s,
        "instrumented_s": instrumented_s,
        "wall_ratio": instrumented_s / plain_s,
        "record_task_us": record_cost_s * 1e6,
        "flush_us": flush_cost_s * 1e6,
        "overhead": overhead,
        "parity": {
            "results_identical": all(
                a == b for a, b in zip(baseline, instrumented)
            ),
        },
    }


def check_metrics_overhead(report: dict, limit: float) -> list[str]:
    errors: list[str] = []
    if not all(report["parity"].values()):
        errors.append(f"metrics parity violated: {report['parity']}")
    if report["overhead"] >= limit:
        errors.append(
            f"metrics overhead {report['overhead']:.2%} of the plain grid's "
            f"{report['plain_s']:.3f}s wall clock >= {limit:.0%} limit "
            f"({report['cells']} record_task at {report['record_task_us']:.0f}us "
            f"+ one flush at {report['flush_us']:.0f}us)"
        )
    return errors


# Each check: (label, (section, ratio key, numerator key, denominator key)),
# where ratio = numerator seconds / denominator seconds (baseline path
# over the fast path).
FORWARD_CHECKS = (
    (
        "planned-fused forward speedup vs PR1 fused loop",
        ("forward", "plan_speedup_vs_unplanned", "fused_unplanned_s", "fused_planned_s"),
    ),
    (
        "fused forward speedup vs autograd",
        ("forward", "fused_speedup_vs_autograd", "autograd_s", "fused_planned_s"),
    ),
    (
        f"K={len(EPSILONS)} FGSM sweep speedup vs per-epsilon loop",
        ("fgsm_curve", "speedup", "per_epsilon_s", "sweep_s"),
    ),
)

GRADIENT_CHECKS = (
    (
        "fused input_gradient speedup vs autograd",
        ("input_gradient", "speedup", "autograd_s", "fused_s"),
    ),
    (
        f"K={len(EPSILONS)} PGD-{PGD_STEPS} curve speedup vs autograd path",
        ("pgd10_curve", "speedup", "autograd_s", "fused_s"),
    ),
)

STACKED_CHECKS = (
    (
        "K=5 stacked grid speedup vs per-cell",
        ("stacked_grid_smoke", "speedup", "per_cell_s", "stacked_s"),
    ),
    (
        "K=2 stacked grid speedup vs per-cell",
        ("stacked_grid_micro", "speedup", "per_cell_s", "stacked_s"),
    ),
)

SEARCH_CHECKS = (
    (
        "guided search train-seconds speedup vs exhaustive grid",
        ("search_grid", "train_seconds_speedup", "exhaustive_train_s", "search_train_s"),
    ),
)


def _ratio_base(values: dict, numerator: str, denominator: str) -> str:
    """``numerator / denominator`` seconds behind a ratio, for the log."""
    return " / ".join(
        f"{key} {values.get(key, math.nan):.3f}s" for key in (numerator, denominator)
    )


def check_regression(
    report: dict, baseline_path: Path, tolerance: float, checks=FORWARD_CHECKS
) -> list[str]:
    """Compare this run's speedup ratios against the committed baseline.

    A ratio may drift with load, so only a drop beyond ``tolerance``
    (relative) fails; improvements always pass.  Absolute timings are
    deliberately ignored — they compare this machine to the baseline
    machine, which is noise, not signal — but each ok/FAIL line prints
    the seconds behind both ratios, so a re-based baseline can be audited
    from the log.
    """
    try:
        baseline = json.loads(baseline_path.read_text())
    except (OSError, ValueError) as error:
        return [f"cannot read baseline {baseline_path}: {error}"]
    errors: list[str] = []
    for label, (section, key, numerator, denominator) in checks:
        base_section = baseline.get(section, {})
        expected = base_section.get(key)
        if expected is None:
            errors.append(f"baseline {baseline_path} lacks {section}.{key}")
            continue
        measured = report[section][key]
        floor = expected * (1.0 - tolerance)
        detail = (
            f"{measured:.2f}x ({_ratio_base(report[section], numerator, denominator)})"
            f" vs baseline {expected:.2f}x "
            f"({_ratio_base(base_section, numerator, denominator)}), "
            f"floor {floor:.2f}x at {tolerance:.0%} tolerance"
        )
        if measured < floor:
            errors.append(f"{label} regressed: {detail}")
        else:
            print(f"ok: {label}: {detail}")
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", default="smoke", help="experiment profile")
    parser.add_argument(
        "--out", default=str(ROOT / "BENCH_pr3.json"),
        help="forward/sweep report destination",
    )
    parser.add_argument(
        "--gradient-out", default=str(ROOT / "BENCH_pr5.json"),
        help="gradient-bench report destination",
    )
    parser.add_argument(
        "--stacked-out", default=str(ROOT / "BENCH_pr6.json"),
        help="stacked-grid bench report destination",
    )
    parser.add_argument(
        "--search-out", default=str(ROOT / "BENCH_pr8.json"),
        help="guided-search bench report destination",
    )
    parser.add_argument(
        "--time-steps", type=int, default=16, help="time window of the bench model"
    )
    parser.add_argument(
        "--samples", type=int, default=32, help="images per bench batch/curve"
    )
    parser.add_argument("--repeats", type=int, default=3, help="best-of repeats")
    parser.add_argument(
        "--check-fused",
        action="store_true",
        help="only assert the fused plan path is taken (CI smoke guard)",
    )
    parser.add_argument(
        "--check-metrics-overhead",
        action="store_true",
        help="only measure the --metrics-dir instrumentation cost on a "
        "small grid and fail if it exceeds --metrics-tolerance "
        "(REPRO_BENCH_SKIP=1 skips, like the regression guard)",
    )
    parser.add_argument(
        "--metrics-tolerance",
        type=float,
        default=0.02,
        help="allowed relative wall-clock overhead of metrics recording "
        "(default: 0.02)",
    )
    parser.add_argument(
        "--check-regression",
        action="store_true",
        help="measure fresh and fail if a speedup ratio dropped more than "
        "--tolerance below the committed baseline (CI perf guard; set "
        "REPRO_BENCH_SKIP=1 to skip on noisy shared runners)",
    )
    parser.add_argument(
        "--baseline",
        default=str(ROOT / "BENCH_pr3.json"),
        help="forward/sweep baseline for --check-regression",
    )
    parser.add_argument(
        "--gradient-baseline",
        default=str(ROOT / "BENCH_pr5.json"),
        help="gradient baseline for --check-regression",
    )
    parser.add_argument(
        "--stacked-baseline",
        default=str(ROOT / "BENCH_pr6.json"),
        help="stacked-grid baseline for --check-regression",
    )
    parser.add_argument(
        "--search-baseline",
        default=str(ROOT / "BENCH_pr8.json"),
        help="guided-search baseline for --check-regression",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed relative speedup drop for --check-regression "
        "(default: 0.25)",
    )
    args = parser.parse_args()
    skip_timing = os.environ.get("REPRO_BENCH_SKIP", "") not in ("", "0")
    if (args.check_regression or args.check_metrics_overhead) and skip_timing:
        print("bench timing check skipped (REPRO_BENCH_SKIP set)")
        return 0
    profile = get_profile(args.profile)

    if args.check_metrics_overhead:
        overhead_report = run_metrics_overhead_bench(profile, args.repeats)
        problems = check_metrics_overhead(overhead_report, args.metrics_tolerance)
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        if problems:
            return 1
        print(
            f"metrics overhead ok: {overhead_report['overhead']:.3%} of a "
            f"{overhead_report['cells']}-cell grid's "
            f"{overhead_report['plain_s']:.3f}s wall clock "
            f"(record_task {overhead_report['record_task_us']:.0f}us, "
            f"flush {overhead_report['flush_us']:.0f}us, wall ratio "
            f"{overhead_report['wall_ratio']:.3f}), results identical"
        )
        return 0

    errors = check_fused(profile)
    for error in errors:
        print(f"FAIL: {error}", file=sys.stderr)
    if errors:
        return 1
    print(f"fused plan path ok for profile {profile.name!r} ({profile.snn_model})")
    if args.check_fused:
        return 0

    report = run_benchmarks(profile, args.time_steps, args.samples, args.repeats)
    if not all(report["parity"].values()):
        print(f"FAIL: parity violated: {report['parity']}", file=sys.stderr)
        return 1
    gradient_report = run_gradient_benchmarks(
        profile, args.time_steps, args.samples, args.repeats
    )
    if not all(gradient_report["parity"].values()):
        print(
            f"FAIL: gradient parity violated: {gradient_report['parity']}",
            file=sys.stderr,
        )
        return 1
    stacked_report = run_stacked_benchmarks(profile)
    if not all(stacked_report["parity"].values()):
        print(
            f"FAIL: stacked parity violated: {stacked_report['parity']}",
            file=sys.stderr,
        )
        return 1
    search_report = run_search_benchmarks(profile)
    if not all(search_report["parity"].values()):
        print(
            f"FAIL: search parity violated: {search_report['parity']}",
            file=sys.stderr,
        )
        return 1
    if args.check_regression:
        # Guard mode: compare ratios against the committed baselines and
        # leave the baseline files untouched.
        problems = check_regression(report, Path(args.baseline), args.tolerance)
        problems += check_regression(
            gradient_report,
            Path(args.gradient_baseline),
            args.tolerance,
            checks=GRADIENT_CHECKS,
        )
        problems += check_regression(
            stacked_report,
            Path(args.stacked_baseline),
            args.tolerance,
            checks=STACKED_CHECKS,
        )
        problems += check_regression(
            search_report,
            Path(args.search_baseline),
            args.tolerance,
            checks=SEARCH_CHECKS,
        )
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1 if problems else 0
    overhead_report = run_metrics_overhead_bench(profile, args.repeats)
    problems = check_metrics_overhead(overhead_report, args.metrics_tolerance)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    if problems:
        return 1
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    Path(args.gradient_out).write_text(
        json.dumps(gradient_report, indent=2) + "\n"
    )
    Path(args.stacked_out).write_text(
        json.dumps(stacked_report, indent=2) + "\n"
    )
    Path(args.search_out).write_text(
        json.dumps(search_report, indent=2) + "\n"
    )
    forward = report["forward"]
    curve = report["fgsm_curve"]
    gradient = gradient_report["input_gradient"]
    pgd = gradient_report["pgd10_curve"]
    print(
        f"forward: autograd {forward['autograd_s']:.3f}s, "
        f"fused(PR1) {forward['fused_unplanned_s']:.3f}s, "
        f"fused+plans {forward['fused_planned_s']:.3f}s "
        f"({forward['plan_speedup_vs_unplanned']:.2f}x vs PR1 fused)"
    )
    print(
        f"fgsm curve (K={len(EPSILONS)}): per-epsilon {curve['per_epsilon_s']:.3f}s, "
        f"sweep {curve['sweep_s']:.3f}s ({curve['speedup']:.2f}x)"
    )
    print(
        f"input gradient: autograd {gradient['autograd_s']:.3f}s, "
        f"fused BPTT {gradient['fused_s']:.3f}s ({gradient['speedup']:.2f}x)"
    )
    print(
        f"pgd-{PGD_STEPS} curve (K={len(EPSILONS)}): autograd "
        f"{pgd['autograd_s']:.3f}s, fused {pgd['fused_s']:.3f}s "
        f"({pgd['speedup']:.2f}x)"
    )
    for label, leg in (
        ("stacked grid (K=5)", stacked_report["stacked_grid_smoke"]),
        ("stacked grid (K=2 micro)", stacked_report["stacked_grid_micro"]),
    ):
        print(
            f"{label}: per-cell {leg['per_cell_s']:.3f}s, "
            f"stacked {leg['stacked_s']:.3f}s ({leg['speedup']:.2f}x, "
            f"{leg['cells']} cells)"
        )
    guided = search_report["search_grid"]
    print(
        f"guided search ({guided['cells']} cells): exhaustive train "
        f"{guided['exhaustive_train_s']:.2f}s, search train "
        f"{guided['search_train_s']:.2f}s "
        f"({guided['train_seconds_speedup']:.2f}x; wall "
        f"{guided['wall_speedup']:.2f}x)"
    )
    print(
        f"metrics overhead: {overhead_report['overhead']:.2%} on a "
        f"{overhead_report['cells']}-cell grid "
        f"(limit {args.metrics_tolerance:.0%})"
    )
    print(
        f"reports written to {args.out}, {args.gradient_out}, "
        f"{args.stacked_out} and {args.search_out}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
