"""Ablation studies on the reproduction's design choices.

These go beyond the paper's figures: they quantify how much the measured
"inherent robustness" depends on substrate choices the paper inherited
implicitly from Norse (surrogate sharpness, input encoding, reset mode)
and contextualise PGD against weaker attacks and noise controls
(Marchisio et al.'s comparative-study angle).

Every ablation fixes one reference combination ``(Vth, T)`` — the Vth
of the profile's first sweet spot and the profile's default time window
``time_steps_default`` (not that sweet spot's own T) — and varies a
single factor.

The four factors:

* ``surrogate`` (A1) — the surrogate-gradient family, used for training
  *and* for the white-box attack gradient (the attacker differentiates
  the true deployed graph), so sharper surrogates both hamper training
  and mask attack gradients;
* ``encoding`` (A2) — constant-current vs Poisson rate encoding;
* ``attack`` (A3) — attack families on one trained reference SNN.
  Expected ordering: PGD >= BIM >= FGSM >> noise controls; a PGD that
  fails to beat the magnitude-matched sign-noise control would indicate
  fully masked gradients;
* ``reset`` (A4) — hard (reset-to-zero) vs soft (subtractive) membrane
  reset.

All four run as ungated :class:`~repro.engine.job.CellTask` jobs on a
*shared* job context, so :func:`run_ablation_suite` parallelizes across
the whole suite at once (``jobs``), checkpoints and resumes every variant
(``cache_dir``/``resume``), and reuses cached trained weights when only
the security sweep changed.  One factor runs as
``run_ablation_suite(profile, factors=("reset",))["reset"]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.engine.job import CellTask
from repro.engine.queue import DEFAULT_LEASE_TTL, QueueRunResult
from repro.engine.resilience import ResilienceConfig
from repro.engine.shard import ShardRunResult, ShardSpec
from repro.experiments.profiles import ExperimentProfile, get_profile
from repro.experiments.sweeps import (
    ABLATION_FACTORS,
    DEFAULT_ATTACK_FAMILIES,
    DEFAULT_SURROGATE_FAMILIES,
    build_ablation_context,
    build_ablation_tasks,
    run_sweep_schedule,
)
from repro.robustness.report import render_curve_table
from repro.robustness.results import CellResult

__all__ = [
    "ABLATION_FACTORS",
    "AblationResult",
    "run_ablation_suite",
]

_FACTOR_LABELS = {
    "surrogate": "surrogate",
    "encoding": "encoding",
    "reset": "reset_mode",
    "attack": "attack_family",
}
"""CLI factor name -> the factor string recorded in results (historical)."""


@dataclass(frozen=True)
class AblationResult:
    """Robustness of several variants over a shared ε sweep."""

    factor: str
    epsilons: tuple[float, ...]
    variants: dict[str, tuple[float, ...]]
    clean_accuracies: dict[str, float]
    metadata: dict = field(default_factory=dict)
    """Engine accounting (schedule stats, weight-cache reuse counts)."""

    def render(self) -> str:
        """Text table of the ablation."""
        table = render_curve_table(
            self.epsilons,
            self.variants,
            title=f"Ablation [{self.factor}] - robustness (%) by epsilon",
        )
        cleans = ", ".join(
            f"{name}={acc * 100:.1f}%" for name, acc in self.clean_accuracies.items()
        )
        return f"{table}\nclean accuracies: {cleans}"

    def as_dict(self) -> dict:
        """JSON-friendly representation."""
        return {
            "factor": self.factor,
            "epsilons": list(self.epsilons),
            "variants": {k: list(v) for k, v in self.variants.items()},
            "clean_accuracies": dict(self.clean_accuracies),
            "metadata": dict(self.metadata),
        }


def _group_by_factor(
    tasks: list[CellTask],
    results: list[CellResult],
    metadata: dict,
) -> dict[str, AblationResult]:
    """Regroup the flat engine output into one result per factor."""
    grouped: dict[str, AblationResult] = {}
    for factor in ABLATION_FACTORS:
        pairs = [
            (task, result)
            for task, result in zip(tasks, results)
            if task.key.startswith(f"{factor}:")
        ]
        if not pairs:
            continue
        epsilons = pairs[0][0].epsilons
        variants: dict[str, tuple[float, ...]] = {}
        cleans: dict[str, float] = {}
        for task, result in pairs:
            label = task.key.split(":", 1)[1]
            cleans[label] = result.clean_accuracy
            if factor == "attack":
                # One trained reference, one curve per attack family.
                for attack in task.attacks:
                    variants[attack] = tuple(
                        result.curves[attack][eps] for eps in epsilons
                    )
            else:
                variants[label] = tuple(
                    result.curves["pgd"][eps] for eps in epsilons
                )
        grouped[factor] = AblationResult(
            factor=_FACTOR_LABELS[factor],
            epsilons=epsilons,
            variants=variants,
            clean_accuracies=cleans,
            metadata=dict(metadata),
        )
    return grouped


def run_ablation_suite(
    profile: ExperimentProfile | str = "smoke",
    factors: tuple[str, ...] = ABLATION_FACTORS,
    verbose: bool = False,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    resume: bool = False,
    start_method: str = "auto",
    epsilons: tuple[float, ...] | None = None,
    surrogate_families: tuple[str, ...] = DEFAULT_SURROGATE_FAMILIES,
    attack_families: tuple[str, ...] = DEFAULT_ATTACK_FAMILIES,
    shard: ShardSpec | None = None,
    queue_dir: str | Path | None = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    resilience: ResilienceConfig | None = None,
) -> dict[str, AblationResult] | ShardRunResult | QueueRunResult:
    """Run the requested ablation factors as one scheduled job batch.

    Returns ``{factor: AblationResult}`` keyed by the CLI factor names
    (``surrogate``, ``encoding``, ``reset``, ``attack``).

    Parameters mirror :func:`~repro.experiments.fig9_sweetspots.run_fig9`:
    ``jobs`` parallelizes across *all* requested factors at once,
    ``cache_dir``/``resume`` checkpoint and resume individual variants,
    and ``epsilons`` overrides the profile's sweep — with cached weights
    this re-attacks trained models without retraining them.  With
    ``shard``, only the shard's slice of the suite runs and a
    :class:`~repro.engine.shard.ShardRunResult` summary is returned
    instead of the per-factor tables.  With ``queue_dir``, the run joins
    the dynamic work queue under ``<queue_dir>/ablation`` as one worker
    of an elastic fleet and returns its
    :class:`~repro.engine.queue.QueueRunResult`.
    """
    if isinstance(profile, str):
        profile = get_profile(profile)
    # Dedupe while preserving order: a repeated --factor must not
    # schedule (and train) the same variants twice.
    factors = tuple(dict.fromkeys(factors))
    tasks = build_ablation_tasks(
        profile,
        factors=factors,
        surrogate_families=surrogate_families,
        attack_families=attack_families,
        epsilons=epsilons,
    )
    # Non-default families change the task list but not the context, so
    # the spawn spec (which only rebuilds the context) stays valid.
    results, metadata = run_sweep_schedule(
        profile,
        build_ablation_context,
        tasks,
        "ablation",
        verbose=verbose,
        jobs=jobs,
        cache_dir=cache_dir,
        resume=resume,
        start_method=start_method,
        shard=shard,
        queue_dir=queue_dir,
        lease_ttl=lease_ttl,
        resilience=resilience,
    )
    if not isinstance(results, list):
        return results  # a shard's or queue worker's summary; no tables yet
    return _group_by_factor(tasks, results, metadata)

