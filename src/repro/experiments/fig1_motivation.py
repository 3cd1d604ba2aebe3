"""Figure 1 — motivational case study.

Trains the 5-layer CNN (3 conv + 2 FC) and the equal-topology SNN with
default structural parameters, applies white-box PGD at increasing noise
budgets, and tracks the accuracy of both.  The paper's claims:

1. at low ε the CNN is (slightly) more accurate;
2. past a turnaround point (ε ≈ 0.5) the SNN degrades much more slowly;
3. for ε > 1 the gap exceeds 50 %.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.engine.queue import DEFAULT_LEASE_TTL, QueueRunResult
from repro.engine.resilience import ResilienceConfig
from repro.engine.shard import ShardRunResult, ShardSpec
from repro.experiments.profiles import ExperimentProfile, get_profile
from repro.experiments.sweeps import (
    build_fig1_context,
    build_fig1_tasks,
    run_sweep_schedule,
    sweep_curve,
)
from repro.robustness.report import render_curve_table
from repro.robustness.security import RobustnessCurve

__all__ = ["Fig1Result", "run_fig1"]


@dataclass(frozen=True)
class Fig1Result:
    """Accuracy-vs-epsilon curves of the motivational study."""

    epsilons: tuple[float, ...]
    cnn_curve: RobustnessCurve
    snn_curve: RobustnessCurve
    cnn_clean_accuracy: float
    snn_clean_accuracy: float
    metadata: dict = field(default_factory=dict)
    """Engine accounting (schedule stats, weight-cache reuse counts)."""

    @property
    def turnaround_epsilon(self) -> float | None:
        """First ε where the SNN overtakes the CNN (paper pointer 2)."""
        for eps, cnn_r, snn_r in zip(
            self.epsilons, self.cnn_curve.robustness, self.snn_curve.robustness
        ):
            if snn_r > cnn_r:
                return eps
        return None

    @property
    def max_gap(self) -> float:
        """Largest (SNN − CNN) robustness gap over the sweep (pointer 3)."""
        return max(
            s - c
            for s, c in zip(self.snn_curve.robustness, self.cnn_curve.robustness)
        )

    def render(self) -> str:
        """Text rendering of the figure."""
        table = render_curve_table(
            self.epsilons,
            {"CNN (3conv+2fc)": self.cnn_curve.robustness,
             "SNN (same topo)": self.snn_curve.robustness},
            title="Figure 1 - PGD attack on CNN vs SNN (accuracy %, by epsilon)",
        )
        extra = (
            f"\nturnaround epsilon: {self.turnaround_epsilon}"
            f"\nmax SNN-CNN gap: {self.max_gap * 100:.1f}%"
        )
        return table + extra

    def as_dict(self) -> dict:
        """JSON-friendly representation."""
        return {
            "epsilons": list(self.epsilons),
            "cnn": self.cnn_curve.as_dict(),
            "snn": self.snn_curve.as_dict(),
            "cnn_clean_accuracy": self.cnn_clean_accuracy,
            "snn_clean_accuracy": self.snn_clean_accuracy,
            "turnaround_epsilon": self.turnaround_epsilon,
            "max_gap": self.max_gap,
            "metadata": dict(self.metadata),
        }


def run_fig1(
    profile: ExperimentProfile | str = "smoke",
    verbose: bool = False,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    resume: bool = False,
    start_method: str = "auto",
    shard: ShardSpec | None = None,
    queue_dir: str | Path | None = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    resilience: ResilienceConfig | None = None,
) -> Fig1Result | ShardRunResult | QueueRunResult:
    """Reproduce the Figure-1 sweep under ``profile``.

    The CNN and the SNN are two sweep tasks of one engine dispatch; the
    engine parameters mean what they mean for
    :func:`~repro.experiments.fig9_sweetspots.run_fig9`, and the
    defaults run serial and uncached.
    """
    if isinstance(profile, str):
        profile = get_profile(profile)
    tasks = build_fig1_tasks(profile)
    results, metadata = run_sweep_schedule(
        profile,
        build_fig1_context,
        tasks,
        "fig1",
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
        return results  # a shard's or queue worker's summary; no figure yet
    cnn, snn = results
    return Fig1Result(
        epsilons=tasks[0].epsilons,
        cnn_curve=sweep_curve(tasks[0], cnn),
        snn_curve=sweep_curve(tasks[1], snn),
        cnn_clean_accuracy=cnn.clean_accuracy,
        snn_clean_accuracy=snn.clean_accuracy,
        metadata=metadata,
    )
