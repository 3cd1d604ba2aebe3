"""Guided grid search: successive halving with warm-started training.

Algorithm 1 sweeps the ``(Vth, T)`` grid exhaustively — every cell gets
the full training budget, including the dominated regions the heat maps
exist to rule out.  This module replaces the sweep with a *successive
halving* scheduler: every cell first trains on a small epoch budget
(rung 0), the rung's results are ranked with the existing
attacked-accuracy metrics, and only the top ``1/eta`` fraction is
promoted to the next, larger budget — repeated until the final rung
trains the surviving cells at the full budget.  Dominated cells are
pruned after spending a fraction of an exhaustive run's train time.

Two performance layers ride on the engine:

* **warm-start** — before each promotion rung, a neighbour index over the
  earlier rungs' :class:`~repro.engine.cache.WeightCache` archives
  (:func:`~repro.engine.cache.nearest_weight_entry`) assigns every
  candidate an initialisation source: its own lower-budget checkpoint
  when one exists (distance 0), else the structurally nearest trained
  neighbour.  The cell then resumes training for the *remaining* epochs
  instead of restarting (:class:`~repro.engine.job.WarmStartRef`).
  Weight archives bundle the Adam moments
  (:func:`~repro.engine.cache.split_optimizer_arrays`), so resuming a
  cell from its *own* lower-budget checkpoint is a bitwise continuation
  of the interrupted run; only neighbour-initialised training (or a
  legacy archive without bundled moments) is a genuine approximation.
  A **bias gate** audits the shortcut either way: after rung 0, the top
  probe cell is trained to the full budget twice — warm from its rung-0
  checkpoint and cold from scratch — and if the final metrics diverge
  beyond tolerance, warm-start is disabled for the remaining rungs.

* **budget-aware execution** — rung tasks are ordinary
  :class:`~repro.engine.job.CellTask` s, so they inherit checkpoint
  caching, ``--jobs`` pools, ``--stack`` fused passes, the work-stealing
  ``--queue`` and cost-ordered dispatch unchanged.  Every rung caches
  under a *budget-qualified* fingerprint (the rung's epoch budget and
  the content of its warm-start plan are part of the cache identity), so
  a resumed search replays completed rungs from checkpoints and a
  ``--no-warm-start`` run can never collide with a warm one.

Determinism contract (the property the parity tests assert): given the
same seed and the same cache state, rung composition, promotions and the
final sweet spot are identical whether a rung executes serially, on a
worker pool, stacked, or across a work-stealing fleet.  The warm-start
plan is the linchpin — it is computed *only* from caches frozen before
the rung starts (earlier rungs are complete by construction), never from
state that changes while a rung is in flight.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.engine.cache import (
    CellCache,
    WeightCache,
    context_fingerprint,
    nearest_weight_entry,
    training_fingerprint,
)
from repro.engine.metrics import (
    flush_metrics,
    record_search_promotion,
    record_search_rung,
    record_search_warm_start,
)
from repro.engine.job import CellTask, JobContext, WarmStartRef, run_cell_task
from repro.engine.queue import DEFAULT_LEASE_TTL
from repro.engine.resilience import ResilienceConfig
from repro.engine.scheduler import run_cell_tasks
from repro.errors import ExplorationError
from repro.robustness.results import CellResult, ExplorationResult
from repro.utils.atomic import write_atomic
from repro.utils.logging import get_logger

__all__ = [
    "RungQuarantined",
    "RungReport",
    "SearchConfig",
    "SearchResult",
    "derive_schedule",
    "parse_budget_schedule",
    "run_halving_search",
]

_logger = get_logger("engine.search")


class RungQuarantined(ExplorationError):
    """A queued rung quarantined candidates, so its promotions are undecidable."""


@dataclass(frozen=True)
class SearchConfig:
    """Settings of one successive-halving search."""

    schedule: tuple[int, ...]
    """Ascending epoch budgets, one per rung; the last must equal the
    full training budget so surviving cells end up trained exactly like
    an exhaustive run's."""

    eta: float = 2.0
    """Halving factor: each promotion keeps ``ceil(n / eta)`` cells."""

    epsilon: float | None = None
    """Attack budget cells are ranked at (``None`` = the largest ε of the
    exploration config — the hardest budget the grid evaluates)."""

    warm_start: bool = True
    """Initialise promoted/adjacent cells from the nearest cached archive
    instead of cold init (subject to the bias gate)."""

    bias_tolerance: float = 0.1
    """Maximum warm-vs-cold divergence (absolute difference over clean
    accuracy and every robustness point) the bias gate accepts before
    disabling warm-start for the remaining rungs."""

    def validate(self, full_epochs: int) -> None:
        """Raise ``ValueError`` on inconsistent settings."""
        if not self.schedule:
            raise ValueError("budget schedule must name at least one rung")
        if any(int(b) < 1 for b in self.schedule):
            raise ValueError(f"rung budgets must be >= 1, got {self.schedule}")
        if list(self.schedule) != sorted(set(self.schedule)):
            raise ValueError(
                f"budget schedule must be strictly increasing, got {self.schedule}"
            )
        if int(self.schedule[-1]) != int(full_epochs):
            raise ValueError(
                f"final rung budget {self.schedule[-1]} must equal the full "
                f"training budget ({full_epochs} epochs); otherwise the "
                f"surviving cells are not comparable to an exhaustive run"
            )
        # Written as not (x > bound) so NaN fails too.
        if not (self.eta > 1.0):
            raise ValueError(f"eta must be > 1, got {self.eta}")
        if not (self.bias_tolerance >= 0.0):
            raise ValueError(
                f"bias_tolerance must be >= 0, got {self.bias_tolerance}"
            )


def derive_schedule(full_epochs: int, rungs: int = 3) -> tuple[int, ...]:
    """Default geometric budget schedule ending at the full budget.

    Each rung doubles the previous budget (``full/4 -> full/2 -> full``
    for three rungs), collapsing duplicates for tiny budgets::

        derive_schedule(8)  == (2, 4, 8)
        derive_schedule(2)  == (1, 2)
        derive_schedule(1)  == (1,)
    """
    if full_epochs < 1:
        raise ValueError(f"full_epochs must be >= 1, got {full_epochs}")
    if rungs < 1:
        raise ValueError(f"rungs must be >= 1, got {rungs}")
    budgets: list[int] = []
    for level in reversed(range(rungs)):
        budget = max(1, int(full_epochs) // (2**level))
        if not budgets or budget > budgets[-1]:
            budgets.append(budget)
    return tuple(budgets)


def parse_budget_schedule(text: str) -> tuple[int, ...]:
    """Parse a CLI ``--budget-schedule`` value (``"1,2,6"``)."""
    try:
        budgets = tuple(int(part) for part in str(text).split(",") if part.strip())
    except ValueError as error:
        raise ValueError(
            f"budget schedule must be comma-separated integers, got {text!r}"
        ) from error
    if not budgets:
        raise ValueError(f"budget schedule must name at least one rung, got {text!r}")
    return budgets


# -- reports -------------------------------------------------------------------


@dataclass(frozen=True)
class RungReport:
    """What one rung evaluated, promoted and pruned."""

    rung: int
    budget: int
    """Epoch budget every cell of this rung was trained to."""

    cells: tuple[CellResult, ...]
    """Results of this rung's candidates, in grid task order."""

    survivors: tuple[tuple[float, int], ...]
    """``(v_th, time_window)`` promoted to the next rung, best first
    (empty for the final rung — nothing left to promote into)."""

    pruned: tuple[tuple[float, int], ...]
    """``(v_th, time_window)`` eliminated at this rung, best first."""

    warm_started: int = 0
    """How many of this rung's cells resumed from a cached archive."""

    train_seconds: float = 0.0
    """Summed training wall-clock recorded by this rung's cells (the
    train-task-seconds the CI gate and BENCH compare against exhaustive;
    checkpointed cells report the cost of the run that computed them)."""

    engine: dict = field(default_factory=dict)
    """Scheduler accounting (volatile provenance, like everywhere else)."""

    def as_dict(self) -> dict:
        """JSON-friendly representation."""
        return {
            "rung": self.rung,
            "budget": self.budget,
            "cells": [cell.as_dict() for cell in self.cells],
            "survivors": [list(pair) for pair in self.survivors],
            "pruned": [list(pair) for pair in self.pruned],
            "warm_started": self.warm_started,
            "train_seconds": self.train_seconds,
            "engine": dict(self.engine),
        }

    @staticmethod
    def from_dict(payload: dict) -> "RungReport":
        """Inverse of :meth:`as_dict`."""
        return RungReport(
            rung=int(payload["rung"]),
            budget=int(payload["budget"]),
            cells=tuple(CellResult.from_dict(c) for c in payload["cells"]),
            survivors=tuple(
                (float(v), int(t)) for v, t in payload.get("survivors", [])
            ),
            pruned=tuple((float(v), int(t)) for v, t in payload.get("pruned", [])),
            warm_started=int(payload.get("warm_started", 0)),
            train_seconds=float(payload.get("train_seconds", 0.0)),
            engine=dict(payload.get("engine", {})),
        )


@dataclass
class SearchResult:
    """Everything one guided search decided, found and spent."""

    scheduler: str
    schedule: tuple[int, ...]
    eta: float
    epsilon: float
    """Attack budget the ranking (and the sweet spot) used."""

    warm_start: bool
    """Whether warm-start was requested."""

    warm_start_active: bool
    """Whether it was still active after the bias gate."""

    bias_tolerance: float
    v_thresholds: tuple[float, ...]
    time_windows: tuple[int, ...]
    rungs: tuple[RungReport, ...]
    bias_gate: dict | None = None
    """The warm-vs-cold micro study's record (probe cell, both legs'
    metrics, divergence, verdict); ``None`` when it never ran."""

    metadata: dict = field(default_factory=dict)
    train_seconds_total: float = 0.0
    """Training seconds actually spent: all rungs plus the bias study."""

    exhaustive_estimate_seconds: float = 0.0
    """What a full-budget exhaustive sweep would have cost, priced at the
    observed per-(epoch × timestep) training rate.  Provenance."""

    elapsed_seconds: float = 0.0

    @property
    def final_cells(self) -> tuple[CellResult, ...]:
        """The last rung's results — the full-budget survivors."""
        return self.rungs[-1].cells if self.rungs else ()

    def exploration(self) -> ExplorationResult:
        """The surviving cells as a (sparse) :class:`ExplorationResult`.

        Pruned cells are absent (NaN in the heat maps) — the point of the
        search is that they were never trained to the full budget.
        """
        return ExplorationResult(
            v_thresholds=self.v_thresholds,
            time_windows=self.time_windows,
            cells=list(self.final_cells),
            metadata={**self.metadata, "search": self.scheduler},
        )

    def sweet_spot(self) -> CellResult | None:
        """Top-1 surviving cell by the paper's sweet-spot rule.

        Same ranking as :func:`repro.robustness.selection.select_sweet_spots`
        at :attr:`epsilon` — robustness first, clean accuracy as the tie
        break.  ``None`` when no learnable cell survived.
        """
        candidates = [
            cell
            for cell in self.final_cells
            if cell.learnable and self.epsilon in cell.robustness
        ]
        if not candidates:
            return None
        return max(
            candidates,
            key=lambda cell: (cell.robustness[self.epsilon], cell.clean_accuracy),
        )

    def render(self) -> str:
        """Multi-line human-readable search report (rung table included)."""
        warm_label = (
            "on"
            if self.warm_start_active
            else ("disabled by bias gate" if self.warm_start else "off")
        )
        lines = [
            f"Guided search (successive halving): budgets "
            f"{'->'.join(str(b) for b in self.schedule)} epochs, "
            f"eta={self.eta:g}, rank eps={self.epsilon:g}, warm-start {warm_label}"
        ]
        for rung in self.rungs:
            line = (
                f"  rung {rung.rung}: budget {rung.budget}, "
                f"{len(rung.cells)} cells ({rung.warm_started} warm), "
                f"train {rung.train_seconds:.1f}s"
            )
            if rung.survivors:
                line += f" -> promoted {len(rung.survivors)}, pruned {len(rung.pruned)}"
            lines.append(line)
        if self.bias_gate is not None:
            gate = self.bias_gate
            probe = gate.get("probe", {})
            lines.append(
                f"  bias gate: probe (Vth={probe.get('v_th', 0):g}, "
                f"T={probe.get('time_window', 0)}) divergence "
                f"{gate.get('divergence', 0.0):.3f} vs tolerance "
                f"{gate.get('tolerance', 0.0):g} -> "
                + ("warm-start kept" if gate.get("passed") else "warm-start disabled")
            )
        spot = self.sweet_spot()
        if spot is not None:
            lines.append(
                f"  sweet spot: (Vth={spot.v_th:g}, T={spot.time_window}) "
                f"clean={spot.clean_accuracy * 100:.1f}%, "
                f"robustness@eps={self.epsilon:g}="
                f"{spot.robustness[self.epsilon] * 100:.1f}%"
            )
        else:
            lines.append("  sweet spot: none (no learnable cell survived)")
        if self.train_seconds_total > 0 and self.exhaustive_estimate_seconds > 0:
            saved = self.exhaustive_estimate_seconds / self.train_seconds_total
            lines.append(
                f"  train seconds: {self.train_seconds_total:.1f} spent vs "
                f"~{self.exhaustive_estimate_seconds:.1f} exhaustive estimate "
                f"({saved:.1f}x)"
            )
        return "\n".join(lines)

    def to_json(self, path: str | Path | None = None) -> str:
        """Serialise; optionally also write to ``path``."""
        spot = self.sweet_spot()
        payload = {
            "search": {
                "scheduler": self.scheduler,
                "schedule": list(self.schedule),
                "eta": self.eta,
                "epsilon": self.epsilon,
                "warm_start": self.warm_start,
                "warm_start_active": self.warm_start_active,
                "bias_tolerance": self.bias_tolerance,
            },
            "v_thresholds": list(self.v_thresholds),
            "time_windows": list(self.time_windows),
            "metadata": self.metadata,
            "rungs": [rung.as_dict() for rung in self.rungs],
            "bias_gate": self.bias_gate,
            "sweet_spot": None
            if spot is None
            else {
                "v_th": spot.v_th,
                "time_window": spot.time_window,
                "clean_accuracy": spot.clean_accuracy,
                "robustness": spot.robustness[self.epsilon],
                "epsilon": self.epsilon,
            },
            "timing": {
                "train_seconds_total": self.train_seconds_total,
                "exhaustive_estimate_seconds": self.exhaustive_estimate_seconds,
                "elapsed_seconds": self.elapsed_seconds,
            },
        }
        text = json.dumps(payload, indent=2, sort_keys=True)
        if path is not None:
            path = Path(path)
            path.parent.mkdir(parents=True, exist_ok=True)
            write_atomic(path, text)
        return text

    @staticmethod
    def from_json(source: str | Path) -> "SearchResult":
        """Load a result written by :meth:`to_json` (path or JSON text)."""
        if isinstance(source, Path) or (
            isinstance(source, str) and not source.lstrip().startswith("{")
        ):
            text = Path(source).read_text()
        else:
            text = source
        payload = json.loads(text)
        search = payload["search"]
        timing = payload.get("timing", {})
        return SearchResult(
            scheduler=str(search["scheduler"]),
            schedule=tuple(int(b) for b in search["schedule"]),
            eta=float(search["eta"]),
            epsilon=float(search["epsilon"]),
            warm_start=bool(search["warm_start"]),
            warm_start_active=bool(search["warm_start_active"]),
            bias_tolerance=float(search["bias_tolerance"]),
            v_thresholds=tuple(float(v) for v in payload["v_thresholds"]),
            time_windows=tuple(int(t) for t in payload["time_windows"]),
            rungs=tuple(RungReport.from_dict(r) for r in payload["rungs"]),
            bias_gate=payload.get("bias_gate"),
            metadata=dict(payload.get("metadata", {})),
            train_seconds_total=float(timing.get("train_seconds_total", 0.0)),
            exhaustive_estimate_seconds=float(
                timing.get("exhaustive_estimate_seconds", 0.0)
            ),
            elapsed_seconds=float(timing.get("elapsed_seconds", 0.0)),
        )


# -- ranking and planning ------------------------------------------------------


def _rank_key(task: CellTask, cell: CellResult, epsilon: float):
    """Sort key ordering (task, result) pairs best-first, deterministically.

    Learnable cells outrank gated ones; among learnable, the paper's
    sweet-spot rule applies (robustness at the target ε, then clean
    accuracy); grid index is the final tie break so equal-metric runs
    promote the same cells in every execution mode.
    """
    return (
        0 if cell.learnable else 1,
        -cell.robustness.get(epsilon, -1.0),
        -cell.clean_accuracy,
        task.index,
    )


def _build_warm_plan(
    tasks: list[CellTask],
    sources: list[tuple[int, WeightCache]],
    budget: int,
) -> dict[int, WarmStartRef]:
    """Freeze the rung's warm-start assignment from earlier-rung caches.

    ``sources`` holds the weight caches of the rungs already completed —
    frozen state, identical for every worker — so the plan is a pure
    function of (tasks, cache state) and the determinism contract holds
    even when a fleet races through the rung.  Per task: the cell's own
    highest-budget checkpoint wins (distance 0); otherwise the
    structurally nearest neighbour archive.  Only strictly smaller source
    budgets qualify — resuming *past* the rung's budget would leave no
    epochs to train here.
    """
    entries = []
    for source_budget, cache in sources:
        if int(source_budget) >= int(budget):
            continue
        entries.extend(cache.scan())
    if not entries:
        return {}
    plan: dict[int, WarmStartRef] = {}
    for task in tasks:
        own = [
            entry
            for entry in entries
            if entry.key == task.key and entry.train_seed == task.train_seed
        ]
        if own:
            best = max(own, key=lambda entry: (entry.epochs or 0, entry.path.name))
            plan[task.index] = WarmStartRef(
                path=str(best.path),
                source_key=best.key,
                source_epochs=int(best.epochs or 0),
                distance=0.0,
            )
            continue
        found = nearest_weight_entry(entries, dict(task.params))
        if found is None:
            continue
        entry, distance = found
        plan[task.index] = WarmStartRef(
            path=str(entry.path),
            source_key=entry.key,
            source_epochs=int(entry.epochs or 0),
            distance=float(distance),
        )
    return plan


def _plan_tag(plan: dict[int, WarmStartRef] | None) -> str:
    """Cache-identity tag of a warm-start plan.

    Warm-started training produces different weights than cold training,
    so rung checkpoints must never be shared across different plans —
    the plan's content (who resumes from which archive) is hashed into
    the rung's fingerprint tags.  The empty plan is the literal ``cold``,
    which keeps ``--no-warm-start`` runs readable in ``cache stats``.
    """
    if not plan:
        return "cold"
    payload = {
        str(index): [ref.source_key, int(ref.source_epochs), Path(ref.path).name]
        for index, ref in plan.items()
    }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


# -- the bias gate -------------------------------------------------------------


def _bias_study(
    context: JobContext,
    probe_task: CellTask,
    probe_ref: WarmStartRef,
    tolerance: float,
) -> dict:
    """Warm-vs-cold micro study on one probe cell (the ROADMAP concern).

    Trains the probe to the *full* budget twice — resuming from its
    rung-0 checkpoint and cold from scratch — and reports the largest
    absolute metric difference (clean accuracy and every robustness
    point).  Differing learnability verdicts count as total divergence:
    a warm-start that flips the gate is exactly the bias being screened
    for.  Runs uncached and unarchived; both legs are deterministic, so
    redundant re-runs (every queue worker performs its own audit) agree
    bitwise.
    """
    warm_context = replace(
        context,
        weight_cache=None,
        reuse_weights=False,
        warm_start={probe_task.index: probe_ref},
    )
    cold_context = replace(
        context, weight_cache=None, reuse_weights=False, warm_start=None
    )
    warm = run_cell_task(warm_context, probe_task)
    cold = run_cell_task(cold_context, probe_task)
    if warm.learnable != cold.learnable:
        divergence = 1.0
    else:
        differences = [abs(warm.clean_accuracy - cold.clean_accuracy)]
        for eps in sorted(set(warm.robustness) | set(cold.robustness)):
            differences.append(
                abs(warm.robustness.get(eps, 0.0) - cold.robustness.get(eps, 0.0))
            )
        divergence = max(differences)

    def leg(cell: CellResult) -> dict:
        return {
            "clean_accuracy": cell.clean_accuracy,
            "learnable": cell.learnable,
            "robustness": {repr(k): v for k, v in sorted(cell.robustness.items())},
        }

    return {
        "probe": {"v_th": probe_task.v_th, "time_window": probe_task.time_window},
        "source_epochs": int(probe_ref.source_epochs),
        "warm": leg(warm),
        "cold": leg(cold),
        "divergence": divergence,
        "tolerance": float(tolerance),
        "passed": bool(divergence <= tolerance),
        "train_seconds": warm.phase_seconds.get("train_s", 0.0)
        + cold.phase_seconds.get("train_s", 0.0),
    }


def _select_probe(
    pairs: list[tuple[CellTask, CellResult]],
    weight_cache: WeightCache,
    epsilon: float,
) -> tuple[CellTask, Path] | None:
    """The bias gate's probe: the best rung-0 cell with an archived state."""
    for task, cell in sorted(pairs, key=lambda p: _rank_key(p[0], p[1], epsilon)):
        if cell.diverged:
            continue
        path = weight_cache.path_for(task.key, task.train_seed)
        if path.is_file():
            return task, path
    return None


# -- execution -----------------------------------------------------------------


def _run_rung(
    context: JobContext,
    tasks: list[CellTask],
    cell_cache: CellCache,
    *,
    queue_dir: Path | None,
    **dispatch,
):
    """Serve one rung's candidates through the requested execution mode.

    One engine dispatch call — rung tasks are ordinary cell tasks.  In
    queue mode it returns once *every* candidate is resolved (whichever
    worker computed it), after which the results are read back from the
    shared checkpoint cache so all workers leave the rung holding the
    identical result list.
    """
    results, stats = run_cell_tasks(
        context, tasks, cache=cell_cache, queue_dir=queue_dir, **dispatch
    )
    if queue_dir is None:
        return results, stats
    if results.quarantined:
        # A promotion decision needs every candidate's score; a
        # quarantined cell means the rung is unmeasurable, so fail
        # loudly instead of silently pruning the poisoned cell.
        raise RungQuarantined(
            f"queue rung quarantined task(s) {list(results.quarantined)} "
            "after exhausting their attempt budget; the halving promotion "
            "cannot be decided without every candidate"
        )
    results = [cell_cache.get(task) for task in tasks]
    missing = [task.index for task, cell in zip(tasks, results) if cell is None]
    if missing:
        raise ExplorationError(
            f"queue rung committed every task but {len(missing)} "
            f"checkpoint(s) are unreadable (indices {missing[:8]}); "
            f"the shared cache directory may have been pruned mid-run"
        )
    return results, stats


def _exhaustive_estimate(
    rungs: list[RungReport], tasks: list[CellTask], full_epochs: int
) -> float:
    """Price an exhaustive full-budget sweep at the observed train rate.

    The rate is the median seconds per (epoch × timestep) across every
    non-diverged cell the search actually trained (warm-started cells
    contribute their *trained* epochs, not the skipped ones), applied to
    the whole grid at the full budget.  Provenance, not science — the CI
    gate compares measured seconds against a real exhaustive run instead.
    """
    rates: list[float] = []
    for rung in rungs:
        for cell in rung.cells:
            if cell.diverged:
                continue
            train_s = float(cell.phase_seconds.get("train_s", 0.0))
            if train_s <= 0.0:
                continue
            start = int((cell.warm_start or {}).get("start_epoch", 0))
            epochs = max(1, rung.budget - start)
            rates.append(train_s / (epochs * max(1, cell.time_window)))
    if not rates:
        return 0.0
    rates.sort()
    rate = rates[len(rates) // 2]
    grid_steps = sum(max(1, task.time_window) for task in tasks)
    return rate * int(full_epochs) * grid_steps


def run_halving_search(
    context: JobContext,
    tasks: list[CellTask],
    search: SearchConfig,
    cache_dir: str | Path,
    *,
    tags: Mapping[str, object] | None = None,
    jobs: int = 1,
    stack: int = 1,
    start_method: str = "auto",
    resume: bool = False,
    queue_dir: str | Path | None = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    resilience: ResilienceConfig | None = None,
    experiment: str = "grid",
    progress: Callable | None = None,
) -> SearchResult:
    """Run a successive-halving search over a grid's cell ``tasks``.

    ``context`` is the *full-budget* gated grid context (its training
    config's ``epochs`` is the final rung's budget); per rung, the driver
    derives a budget-qualified copy, freezes the warm-start plan from the
    earlier rungs' weight caches, executes the candidates through the
    ordinary engine (``jobs``/``stack``/``queue_dir`` exactly as the
    exhaustive grid accepts them), ranks the results and promotes the
    top ``1/eta`` fraction.  Returns the full :class:`SearchResult` in
    every mode — queue workers block per rung until the fleet completes
    it, then read the shared cache, so each worker independently derives
    the identical promotions and final report.

    ``cache_dir`` is mandatory: rung checkpoints are the promotion
    transport and the weight archives are the warm-start substrate.
    ``tags`` must carry the same experiment identity tags the exhaustive
    grid would use, so search caches live alongside (but, via the
    ``search``/``budget``/``warm_plan`` tags, never collide with)
    exhaustive ones.  Static ``--shard`` partitioning is unsupported by
    design — promotions need *every* cell of a rung, which is what the
    dynamic queue provides across hosts.

    ``resilience`` supervises queued rungs like the exhaustive queue:
    attempt budget, backoff and watchdog deadlines.  A rung that
    quarantines a candidate raises :class:`RungQuarantined`.  Local rungs
    certify their checkpoints in ``cache_dir``'s shard manifest, as
    queued rungs do.
    """
    start = time.perf_counter()
    if cache_dir is None:
        raise ValueError(
            "guided search requires a cache directory: rung checkpoints are "
            "the promotion transport and weight archives the warm-start source"
        )
    full_epochs = int(context.training.epochs)
    search.validate(full_epochs)
    epsilon = float(
        search.epsilon if search.epsilon is not None else max(tasks[0].epsilons)
    )
    base_tags = {str(k): v for k, v in (tags or {}).items()}
    candidates = list(tasks)
    sources: list[tuple[int, WeightCache]] = []
    rungs: list[RungReport] = []
    bias_gate: dict | None = None
    warm_requested = bool(search.warm_start)
    warm_active = warm_requested
    for rung_index, budget in enumerate(search.schedule):
        budget = int(budget)
        rung_training = replace(context.training, epochs=budget)
        plan: dict[int, WarmStartRef] = {}
        if warm_active and rung_index > 0:
            plan = _build_warm_plan(candidates, sources, budget)
        rung_tags = {
            **base_tags,
            "search": "halving",
            "budget": budget,
            "warm_plan": _plan_tag(plan),
        }
        weight_cache = WeightCache(
            cache_dir,
            training_fingerprint(
                context.train_set,
                rung_training,
                eval_sets=(context.clean_eval_set,),
                tags=rung_tags,
            ),
        )
        rung_context = replace(
            context,
            training=rung_training,
            weight_cache=weight_cache,
            reuse_weights=resume,
            warm_start=plan or None,
        )
        cell_cache = CellCache(
            cache_dir, context_fingerprint(rung_context, tags=rung_tags)
        )
        _logger.info(
            "rung %d/%d: budget %d epoch(s), %d candidate(s), %d warm-started",
            rung_index + 1,
            len(search.schedule),
            budget,
            len(candidates),
            len(plan),
        )
        results, stats = _run_rung(
            rung_context,
            candidates,
            cell_cache,
            cache_dir=cache_dir,
            jobs=jobs,
            stack=stack,
            start_method=start_method,
            resume=resume,
            queue_dir=None if queue_dir is None else Path(queue_dir) / f"rung{rung_index}",
            lease_ttl=lease_ttl,
            resilience=resilience,
            experiment=f"{experiment}-search",
            progress=progress,
        )
        pairs = list(zip(candidates, results))
        if rung_index == 0 and warm_active and len(search.schedule) > 1:
            probe = _select_probe(pairs, weight_cache, epsilon)
            if probe is not None:
                probe_task, probe_path = probe
                bias_gate = _bias_study(
                    context,
                    probe_task,
                    WarmStartRef(
                        path=str(probe_path),
                        source_key=probe_task.key,
                        source_epochs=budget,
                        distance=0.0,
                    ),
                    search.bias_tolerance,
                )
                if not bias_gate["passed"]:
                    warm_active = False
                    _logger.warning(
                        "bias gate failed (divergence %.3f > tolerance %g); "
                        "warm-start disabled for the remaining rungs",
                        bias_gate["divergence"],
                        search.bias_tolerance,
                    )
        survivors: tuple[tuple[float, int], ...] = ()
        pruned: tuple[tuple[float, int], ...] = ()
        if rung_index < len(search.schedule) - 1:
            keep = max(1, math.ceil(len(pairs) / search.eta))
            ranked = sorted(pairs, key=lambda p: _rank_key(p[0], p[1], epsilon))
            survivors = tuple(
                (task.v_th, task.time_window) for task, _ in ranked[:keep]
            )
            pruned = tuple(
                (task.v_th, task.time_window) for task, _ in ranked[keep:]
            )
            candidates = sorted(
                (task for task, _ in ranked[:keep]), key=lambda t: t.index
            )
        rungs.append(
            RungReport(
                rung=rung_index,
                budget=budget,
                cells=tuple(cell for _, cell in pairs),
                survivors=survivors,
                pruned=pruned,
                warm_started=sum(1 for _, cell in pairs if cell.warm_start),
                train_seconds=sum(
                    float(cell.phase_seconds.get("train_s", 0.0))
                    for _, cell in pairs
                ),
                engine=stats.as_dict() if stats is not None else {},
            )
        )
        record_search_rung()
        record_search_promotion("promoted", len(survivors))
        record_search_promotion("pruned", len(pruned))
        for _, cell in pairs:
            if cell.warm_start:
                # distance 0.0 means the cell resumed its *own* lower-budget
                # archive (a bitwise continuation); anything else came from
                # the nearest-neighbour index.
                source = (
                    "self"
                    if float(cell.warm_start.get("distance", 1.0)) == 0.0
                    else "neighbor"
                )
                record_search_warm_start(source)
        sources.append((budget, weight_cache))
    train_total = sum(rung.train_seconds for rung in rungs)
    if bias_gate is not None:
        train_total += float(bias_gate.get("train_seconds", 0.0))
    flush_metrics()
    return SearchResult(
        scheduler="halving",
        schedule=tuple(int(b) for b in search.schedule),
        eta=float(search.eta),
        epsilon=epsilon,
        warm_start=warm_requested,
        warm_start_active=warm_active,
        bias_tolerance=float(search.bias_tolerance),
        v_thresholds=tuple(dict.fromkeys(task.v_th for task in tasks)),
        time_windows=tuple(dict.fromkeys(task.time_window for task in tasks)),
        rungs=tuple(rungs),
        bias_gate=bias_gate,
        metadata={},
        train_seconds_total=train_total,
        exhaustive_estimate_seconds=_exhaustive_estimate(rungs, tasks, full_epochs),
        elapsed_seconds=time.perf_counter() - start,
    )
