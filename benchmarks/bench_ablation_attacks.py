"""Benchmark A3 — attack-family ablation on one trained reference SNN.

Contextualises the paper's PGD against weaker attacks and magnitude-
matched noise controls.  On SNNs with sharp surrogates the usual ordering
PGD <= BIM <= FGSM does **not** fully hold: BIM's small deterministic
steps get stuck in the masked-gradient landscape and can end up *weaker*
than a single large FGSM step — a classic gradient-masking signature
that this ablation documents.  PGD (random start + projection) remains
the strongest or near-strongest attack, which is what is asserted.
"""

from __future__ import annotations

from conftest import record

from repro.experiments import run_ablation_suite


def test_ablation_attacks(benchmark, profile_name):
    result = benchmark.pedantic(
        lambda: run_ablation_suite(profile_name, factors=("attack",))["attack"],
        rounds=1,
        iterations=1,
    )
    record("ablation_attacks", result.render(), result.as_dict())

    variants = result.variants
    assert set(variants) == {"pgd", "bim", "fgsm", "sign_noise", "uniform_noise"}
    for index in range(len(result.epsilons)):
        strongest_other = min(
            variants[name][index] for name in variants if name != "pgd"
        )
        # PGD is the strongest attack up to a small slack (stochastic start)
        assert variants["pgd"][index] <= strongest_other + 0.15
        # gradient-based PGD must beat the loose uniform-noise control
        assert variants["pgd"][index] <= variants["uniform_noise"][index] + 0.05
