"""Benchmark A2 — input-encoding ablation (cf. Sharmin et al. [36]).

Constant-current LIF encoding (the paper's pipeline) vs Poisson rate
coding with a straight-through gradient.  Discrete stochastic encodings
are a known source of (partially illusory) robustness.
"""

from __future__ import annotations

from conftest import record

from repro.experiments import run_ablation_suite


def test_ablation_encoding(benchmark, profile_name):
    result = benchmark.pedantic(
        lambda: run_ablation_suite(profile_name, factors=("encoding",))["encoding"],
        rounds=1,
        iterations=1,
    )
    record("ablation_encoding", result.render(), result.as_dict())

    assert set(result.variants) == {"constant_current", "poisson_rate"}
    for curve in result.variants.values():
        assert all(0.0 <= value <= 1.0 for value in curve)
