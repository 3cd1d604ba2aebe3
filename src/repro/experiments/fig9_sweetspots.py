"""Figure 9 — tracked sweet-spot combinations vs the LeNet-5 CNN.

Trains the spiking LeNet at the paper's three tracked combinations —
high robustness (1, 48), low robustness (2.25, 56), medium (1, 32) —
plus the equal-topology CNN, and sweeps the PGD budget for all four.

The paper's claims checked here:

* (1, 48) reaches far higher robustness than the CNN at large ε
  (up to 85 % in the paper);
* (2.25, 56) is *less* robust than the CNN — high clean accuracy does
  not guarantee robustness;
* (1, 32) has mediocre clean accuracy yet still beats the CNN for ε > 1.

Each trained variant is one ungated :class:`~repro.engine.job.CellTask`
scheduled through :mod:`repro.engine`, so the four trainings parallelize
(``jobs``), checkpoint and resume (``cache_dir``/``resume``), and —
because trained weights are cached separately from sweep results — a
re-run with a different ε list skips retraining entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.engine.queue import DEFAULT_LEASE_TTL, QueueRunResult
from repro.engine.resilience import ResilienceConfig
from repro.engine.shard import ShardRunResult, ShardSpec
from repro.experiments.profiles import ExperimentProfile, get_profile
from repro.experiments.sweeps import (
    build_fig9_context,
    build_fig9_tasks,
    run_sweep_schedule,
    sweep_curve,
)
from repro.robustness.report import render_curve_table
from repro.robustness.security import RobustnessCurve

__all__ = ["Fig9Result", "run_fig9"]


@dataclass(frozen=True)
class Fig9Result:
    """Robustness curves for the tracked combinations and the CNN."""

    epsilons: tuple[float, ...]
    snn_curves: dict[tuple[float, int], RobustnessCurve]
    cnn_curve: RobustnessCurve
    clean_accuracies: dict[str, float]
    metadata: dict = field(default_factory=dict)
    """Engine accounting (schedule stats, weight-cache reuse counts)."""

    def gap_vs_cnn(self, v_th: float, time_window: int) -> tuple[float, ...]:
        """(SNN − CNN) robustness per ε for one tracked combination."""
        curve = self.snn_curves[(float(v_th), int(time_window))]
        return tuple(
            s - c for s, c in zip(curve.robustness, self.cnn_curve.robustness)
        )

    def render(self) -> str:
        """Text rendering of the figure."""
        series: dict[str, tuple[float, ...]] = {"CNN LeNet": self.cnn_curve.robustness}
        for (v_th, t), curve in self.snn_curves.items():
            series[f"SNN (Vth={v_th:g}, T={t})"] = curve.robustness
        table = render_curve_table(
            self.epsilons,
            series,
            title="Figure 9 - robustness (%) of tracked (Vth, T) combos vs CNN",
        )
        extras = ["clean accuracies: " + ", ".join(
            f"{name}={acc * 100:.1f}%" for name, acc in self.clean_accuracies.items()
        )]
        return table + "\n" + "\n".join(extras)

    def as_dict(self) -> dict:
        """JSON-friendly representation."""
        return {
            "epsilons": list(self.epsilons),
            "cnn": self.cnn_curve.as_dict(),
            "snn": {
                f"{v_th:g},{t}": curve.as_dict()
                for (v_th, t), curve in self.snn_curves.items()
            },
            "clean_accuracies": dict(self.clean_accuracies),
            "metadata": dict(self.metadata),
        }


def run_fig9(
    profile: ExperimentProfile | str = "smoke",
    verbose: bool = False,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    resume: bool = False,
    start_method: str = "auto",
    epsilons: tuple[float, ...] | None = None,
    shard: ShardSpec | None = None,
    queue_dir: str | Path | None = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    resilience: ResilienceConfig | None = None,
) -> Fig9Result | ShardRunResult | QueueRunResult:
    """Reproduce the Figure-9 sweet-spot tracking under ``profile``.

    Parameters
    ----------
    profile:
        Experiment scale (name or :class:`ExperimentProfile`).
    verbose:
        Log one line per completed variant.
    jobs:
        Worker processes; each trained variant is one job.
    cache_dir:
        Directory for sweep checkpoints and trained-weight archives.
    resume:
        Reuse checkpointed sweeps and cached weights from ``cache_dir``.
    start_method:
        Pool backend (``auto``/``fork``/``spawn``); spawn workers rebuild
        the context from the profile name.
    epsilons:
        Override the profile's ε sweep.  With ``resume`` and a warm
        ``cache_dir`` this re-attacks cached trained models without
        retraining them.
    shard:
        Run only this :class:`~repro.engine.shard.ShardSpec`'s slice of
        the variants and return a
        :class:`~repro.engine.shard.ShardRunResult` summary instead of
        the figure — the figure is rendered later, from the merged
        caches, by an unsharded ``resume`` run.
    queue_dir:
        Join the dynamic work queue under ``<queue_dir>/fig9`` as one
        worker of an elastic fleet and return a
        :class:`~repro.engine.queue.QueueRunResult` summary; mutually
        exclusive with ``shard`` and requires ``cache_dir``.
    lease_ttl:
        Queue mode only: lease expiry (seconds) for work stealing.
    """
    if isinstance(profile, str):
        profile = get_profile(profile)
    tasks = build_fig9_tasks(profile, epsilons=epsilons)
    results, metadata = run_sweep_schedule(
        profile,
        build_fig9_context,
        tasks,
        "fig9",
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

    # build_fig9_tasks puts the comparator CNN first.
    return Fig9Result(
        epsilons=tasks[0].epsilons,
        snn_curves={
            (float(task.param("v_th")), int(task.param("time_window"))):
                sweep_curve(task, result)
            for task, result in zip(tasks[1:], results[1:])
        },
        cnn_curve=sweep_curve(tasks[0], results[0]),
        clean_accuracies={
            task.key: result.clean_accuracy for task, result in zip(tasks, results)
        },
        metadata=metadata,
    )
