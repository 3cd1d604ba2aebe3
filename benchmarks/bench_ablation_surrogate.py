"""Benchmark A1 — surrogate-gradient family ablation.

The paper inherits SuperSpike (alpha = 100) from Norse implicitly; this
ablation quantifies how much of the measured robustness depends on that
choice, since the white-box attacker differentiates the same surrogate.
"""

from __future__ import annotations

from conftest import record

from repro.experiments import run_ablation_suite


def test_ablation_surrogate(benchmark, profile_name):
    result = benchmark.pedantic(
        lambda: run_ablation_suite(profile_name, factors=("surrogate",))["surrogate"],
        rounds=1,
        iterations=1,
    )
    record("ablation_surrogate", result.render(), result.as_dict())

    assert set(result.variants) == {"superspike", "triangle", "arctan"}
    for name, curve in result.variants.items():
        assert all(0.0 <= value <= 1.0 for value in curve), name
