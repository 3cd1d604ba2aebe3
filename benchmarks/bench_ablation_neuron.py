"""Benchmark A4 — neuron reset-mode ablation (cf. DIET-SNN [37]).

Hard reset (membrane returns to v_reset, Norse default) vs soft reset
(subtract threshold).  The reset nonlinearity shapes both trainability
and the surrogate gradients the attacker differentiates.
"""

from __future__ import annotations

from conftest import record

from repro.experiments import run_ablation_suite


def test_ablation_reset(benchmark, profile_name):
    result = benchmark.pedantic(
        lambda: run_ablation_suite(profile_name, factors=("reset",))["reset"],
        rounds=1,
        iterations=1,
    )
    record("ablation_reset", result.render(), result.as_dict())

    assert set(result.variants) == {"reset_hard", "reset_soft"}
    for curve in result.variants.values():
        assert all(0.0 <= value <= 1.0 for value in curve)
