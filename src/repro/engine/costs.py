"""Cost-ordered scheduling: run the longest tasks first.

Grid cells and other variants have wildly skewed costs (wall time is
roughly linear in the time window ``T``), so dispatching them in declared
order strands wall-clock at the end of a schedule: a worker — or a
variant stack — picks up a ``T=64`` cell last and everyone else idles.
Longest-first ordering is the classic LPT bound for this.

One rule prices every task.  Completed checkpoints in a cache directory
record each task's ``elapsed_seconds``/``phase_seconds``, so a task with
history costs what it cost.  A task without is priced at the history's
median seconds per time step times its own ``time_steps``, and at plain
``time_steps`` when the directory is cold — the documented fallback,
since cost is dominated by the time loop.  Tasks name their history by
``cost_key`` (:attr:`repro.engine.job.CellTask.cost_key`, the task key).

Execution order never changes results: every task carries its own derived
seeds and the scheduler returns results in declared task order, so
reordering here only moves wall-clock, never science.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

from repro.engine.cache import read_checkpoint, scan_cache_dir
from repro.engine.resilience import ResilienceConfig

__all__ = [
    "cached_costs",
    "cost_estimator",
    "deadline_estimator",
    "order_tasks",
]

Costs = dict[Hashable, tuple[float, int]]
"""Measured ``(seconds, time_steps)`` per task ``cost_key``."""


def _measured_seconds(value: dict) -> float:
    seconds = float(value.get("elapsed_seconds", 0.0))
    if seconds <= 0.0:
        phases = value.get("phase_seconds")
        if isinstance(phases, dict):
            seconds = float(sum(float(v) for v in phases.values()))
    return seconds


def cached_costs(cache) -> Costs:
    """Measured costs from the result checkpoints in ``cache``'s directory.

    Entries from any fingerprint count — a cost model does not need the
    exact same config, just the same hardware-and-architecture regime.
    Newer checkpoints win when several record the same ``cost_key``.
    """
    costs: Costs = {}
    entries = [e for e in scan_cache_dir(cache.directory) if e.kind != "weights"]
    for entry in sorted(entries, key=lambda e: e.modified):
        checkpoint = read_checkpoint(entry.path)
        if checkpoint is None:
            continue
        try:
            key = checkpoint.task["key"]
            if not isinstance(key, str):
                raise TypeError(f"task key must be a string, got {key!r}")
            steps = int(dict(checkpoint.task.get("params", ())).get("time_window", 0))
            seconds = _measured_seconds(checkpoint.value)
        except (KeyError, TypeError, ValueError):
            continue
        if seconds > 0.0:
            costs[key] = (seconds, steps)
    return costs


def cost_estimator(costs: Costs):
    """``task -> estimated seconds`` from measured costs.

    A task with history costs what it cost; one without is priced at the
    median seconds per time step of the history times its own
    ``time_steps``; with no history at all the estimate is
    ``time_steps`` itself (pure ``T``-descending ordering).
    """
    rates = sorted(seconds / steps for seconds, steps in costs.values() if steps > 0)
    rate = rates[len(rates) // 2] if rates else None

    def estimate(task) -> float:
        known = costs.get(task.cost_key)
        if known is not None:
            return known[0]
        steps = task.time_steps
        return rate * steps if rate is not None else float(steps)

    return estimate


def deadline_estimator(costs: Costs, resilience: ResilienceConfig):
    """``task -> watchdog deadline seconds``, or ``None`` when disabled.

    The hung-task watchdog prices a phase's abort deadline from the same
    cost model that orders the claims: ``resilience.watchdog_multiplier
    ×`` the estimate, never below ``watchdog_floor``.  A cold cache has
    no *seconds* estimate (the ordering fallback is unitless ``T``), so
    every task is priced at the floor alone — generous beats shooting a
    healthy first epoch.  A multiplier of 0 disables the watchdog.
    """
    multiplier = float(resilience.watchdog_multiplier)
    floor = float(resilience.watchdog_floor)
    if multiplier <= 0:
        return None
    estimate = cost_estimator(costs) if costs else None

    def deadline(task) -> float:
        if estimate is None:
            return floor
        return max(floor, multiplier * float(estimate(task)))

    return deadline


def order_tasks(tasks: Sequence, costs: Costs) -> list:
    """``tasks``, most expensive first (declared index breaks ties).

    A pure key sort over costs fixed for the run, so any slice of the
    result is in order too.
    """
    estimate = cost_estimator(costs)
    return sorted(tasks, key=lambda task: (-estimate(task), task.index))
