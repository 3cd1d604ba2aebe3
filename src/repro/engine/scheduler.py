"""The engine's one dispatch pipeline: plan, execute, record.

:func:`run_tasks` drives any list of picklable tasks (grid
:class:`~repro.engine.job.CellTask` jobs, variant
:class:`~repro.engine.sweep.SweepTask` jobs, future sweep families)
through a pure job function in three stages:

* **plan** — check the mode flags (:func:`check_run_options`), keep
  the ``shard``'s slice, check that task indices are unique, and
  cost-order the tasks once from the ``cache`` directory's timings
  (:mod:`repro.engine.costs`);
* **execute** — run the units of :func:`repro.engine.stacking.plan_units`
  (up to ``stack`` grid cells per fused pass) in-process, on a
  ``multiprocessing`` pool (``jobs>1``, one unit per submission), or
  through a work queue's lease loop (``queue_dir``,
  :func:`repro.engine.queue.run_queued_tasks`);
* **record** — one recorder keeps the results by index and feeds the
  metrics, ``progress`` and :class:`ScheduleStats`; the cache
  directory's shard manifest is certified on the way out.

Because every task carries its own derived seeds, all modes produce
identical results — parallelism only changes wall-clock, never science.

Two pool backends are available, selected via ``start_method``:

* ``fork`` — the job context (datasets, model factory — often a closure)
  is inherited by the workers, nothing is pickled per pool;
* ``spawn`` — for platforms without ``fork``: the caller supplies a
  :class:`ContextSpec` naming a module-level context *builder*, and each
  worker reconstructs profile, data and model factory locally.

``auto`` (the default) prefers ``fork``, falls back to ``spawn`` when a
spec is available, and otherwise degrades to serial with a warning.

Example — the same tasks through both backends::

    results, _ = run_tasks(context, tasks, run_sweep_task, jobs=4)
    spec = ContextSpec("repro.experiments.sweeps:build_fig9_context",
                       {"profile": "smoke"})
    same, _ = run_tasks(context, tasks, run_sweep_task, jobs=4,
                        start_method="spawn", context_spec=spec)

Completed tasks are checkpointed in the parent as they arrive (so an
interrupted parallel run still resumes), and with ``resume=True``
cached results are served without dispatching work.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace
from importlib import import_module

from repro.engine.costs import cached_costs, deadline_estimator, order_tasks
from repro.engine.job import ExplorationJobContext, run_cell_task
from repro.engine.metrics import (
    configure_metrics,
    flush_metrics,
    metrics_dir,
    record_task,
    reset_metrics,
)
from repro.engine.queue import DEFAULT_LEASE_TTL, run_queued_tasks
from repro.engine.resilience import ResilienceConfig
from repro.engine.shard import ShardSpec, record_durable_manifest
from repro.engine.stacking import plan_units
from repro.utils.logging import get_logger

__all__ = [
    "ContextSpec",
    "ScheduleStats",
    "check_run_options",
    "run_cell_tasks",
    "run_tasks",
]

_logger = get_logger("engine")

START_METHODS = ("auto", "fork", "spawn")
"""Pool start methods :func:`run_tasks` accepts (the CLI's ``--start-method``)."""

ProgressCallback = Callable[[object, object, bool], None]
"""``(task, result, from_cache)`` invoked in the parent after each task."""

# Worker-side state, installed once per pool by the initializer so tasks
# (tiny dataclasses) are the only per-job pickling traffic.
_WORKER_CONTEXT: object | None = None
_WORKER_RUN: Callable | None = None


@dataclass(frozen=True)
class ContextSpec:
    """Picklable recipe for rebuilding a job context inside a spawn worker.

    ``target`` names a module-level builder as ``"package.module:function"``;
    ``kwargs`` must be picklable (strings, numbers, paths as strings).  The
    builder is imported and called once per worker, so closures and datasets
    never cross the process boundary.

    Example::

        spec = ContextSpec(
            target="repro.experiments.sweeps:build_ablation_context",
            kwargs={"profile": "smoke", "cache_dir": "/tmp/cells"},
        )
        context = spec.resolve()   # what each spawn worker executes
    """

    target: str
    """Builder location, ``"package.module:function"``."""

    kwargs: dict = field(default_factory=dict)
    """Keyword arguments handed to the builder."""

    def resolve(self):
        """Import the builder and construct the context."""
        module_name, separator, function_name = self.target.partition(":")
        if not separator or not module_name or not function_name:
            raise ValueError(
                f"ContextSpec target must look like 'package.module:function', "
                f"got {self.target!r}"
            )
        builder = getattr(import_module(module_name), function_name)
        return builder(**self.kwargs)


def _init_worker(context_or_spec, run_fn: Callable, metrics_directory=None) -> None:
    global _WORKER_CONTEXT, _WORKER_RUN
    if isinstance(context_or_spec, ContextSpec):
        context_or_spec = context_or_spec.resolve()
    _WORKER_CONTEXT = context_or_spec
    _WORKER_RUN = run_fn
    # Metrics: a forked worker inherits the parent's metric *counts*;
    # flushing those again under the worker's own id would double-count
    # on merge, so drop them while keeping (or, for spawn, installing)
    # the snapshot directory.
    if metrics_directory is None:
        reset_metrics()
    else:
        configure_metrics(metrics_directory)
        reset_metrics(keep_dir=True)


def _run_in_worker(unit_tasks: list) -> list[tuple[int, object]]:
    """Run one unit of the parent's plan; returns ``(index, result)`` pairs.

    Only the unit's tasks cross the process boundary.  Re-planning them
    here rebuilds the parent's group: its cells were packed together in
    this order, so they pack together again.
    """
    assert _WORKER_RUN is not None, "worker pool initialized without a job function"
    results = [
        (task.index, result)
        for tasks, run in plan_units(
            _WORKER_CONTEXT, unit_tasks, _WORKER_RUN, len(unit_tasks)
        )
        for task, result in zip(tasks, run())
    ]
    # Worker-side counters (weight-cache hits inside the job function)
    # are flushed per unit, so a crashed worker still leaves its last
    # consistent snapshot behind.
    flush_metrics()
    return results


@dataclass
class ScheduleStats:
    """Accounting of one scheduler invocation (ends up in result metadata)."""

    jobs: int
    """Worker processes actually used (1 = serial)."""

    total_cells: int
    cached_cells: int
    """Tasks served from checkpoints instead of being computed."""

    computed_cells: int
    elapsed_seconds: float
    """Parent-side wall clock for the whole schedule."""

    workers: list[str] = field(default_factory=list)
    """Distinct process names that computed at least one task (a queue
    run names its worker id instead)."""

    start_method: str = "serial"
    """Backend actually used: ``serial``, ``stacked``, ``fork``, ``spawn``
    or ``queue``."""

    shard: str = ""
    """Shard slice this schedule served (``"1/3"``; empty = unsharded)."""

    def as_dict(self) -> dict:
        """JSON-friendly representation."""
        return {
            "jobs": self.jobs,
            "total_cells": self.total_cells,
            "cached_cells": self.cached_cells,
            "computed_cells": self.computed_cells,
            "elapsed_seconds": self.elapsed_seconds,
            "workers": list(self.workers),
            "start_method": self.start_method,
            "shard": self.shard,
        }


class _Recorder:
    """The record stage of :func:`run_tasks`, shared by every backend:
    results by task index, task metrics, ``progress``, the worker set.
    Each task is recorded once — locally after its checkpoint write, by
    the queue only on commits this worker created."""

    def __init__(self, progress: ProgressCallback | None) -> None:
        self.start = time.perf_counter()
        self.results: dict[int, object] = {}
        self.cached = 0
        self.workers: set[str] = set()
        self._progress = progress

    def record(self, task, result, cached: bool) -> None:
        self.results[task.index] = result
        record_task(result, cached=cached)
        if cached:
            self.cached += 1
        elif getattr(result, "worker", ""):
            self.workers.add(result.worker)
        if self._progress is not None:
            self._progress(task, result, cached)

    def stats(self, total: int, jobs: int, start_method: str, shard: str = "",
              workers: Sequence[str] | None = None) -> ScheduleStats:
        flush_metrics()
        return ScheduleStats(
            jobs=jobs,
            total_cells=total,
            cached_cells=self.cached,
            computed_cells=len(self.results) - self.cached,
            elapsed_seconds=time.perf_counter() - self.start,
            workers=sorted(self.workers if workers is None else workers),
            start_method=start_method,
            shard=shard,
        )


def _select_backend(start_method: str, context, context_spec: ContextSpec | None):
    """Pick ``(mp_context, worker_init_arg)`` for the pool, or ``None`` —
    the scheduler then degrades to in-process execution with a warning
    rather than failing."""
    import multiprocessing

    available = multiprocessing.get_all_start_methods()
    if start_method in ("auto", "fork") and "fork" in available:
        return multiprocessing.get_context("fork"), context
    if start_method != "fork" and context_spec is not None and "spawn" in available:
        return multiprocessing.get_context("spawn"), context_spec
    _logger.warning(
        "no usable pool backend for start_method=%r (fork unavailable; spawn "
        "needs platform support and a context_spec); falling back to serial "
        "execution",
        start_method,
    )
    return None


def check_run_options(
    jobs: int = 1,
    stack: int = 1,
    resume: bool = False,
    cache=None,
    shard: ShardSpec | None = None,
    queue_dir=None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    start_method: str = "auto",
) -> None:
    """Raise ``ValueError`` on run options :func:`run_tasks` cannot serve.

    The plan step's mode checks, in one place: :func:`run_tasks`, the
    queue backend and the CLI (before it dispatches anything) all call
    it.  ``cache`` is only tested for presence, so a caller that has not
    opened its checkpoint store yet may pass the cache directory.
    Bounds are written as ``not (x > bound)`` so NaN fails them too.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if stack < 1:
        raise ValueError(f"stack must be >= 1, got {stack}")
    if resume and cache is None:
        raise ValueError(
            "resume=True requires a checkpoint cache (cache_dir) to resume from"
        )
    if start_method not in START_METHODS:
        raise ValueError(
            f"unknown start_method {start_method!r}; choose from {START_METHODS}"
        )
    if not (lease_ttl > 0):
        raise ValueError(f"lease_ttl must be > 0, got {lease_ttl}")
    if queue_dir is None:
        return
    if cache is None:
        raise ValueError(
            "queue mode requires a cache: the checkpoint directory is how "
            "workers exchange results"
        )
    if shard is not None:
        raise ValueError("queue_dir (dynamic fleet) conflicts with shard (static)")
    if jobs > 1:
        raise ValueError(
            f"queue workers are single-process; jobs={jobs} conflicts with "
            "queue_dir (start more workers instead)"
        )


def run_tasks(
    context,
    tasks: Sequence,
    run_fn: Callable,
    jobs: int = 1,
    cache=None,
    resume: bool = False,
    progress: ProgressCallback | None = None,
    start_method: str = "auto",
    context_spec: ContextSpec | None = None,
    shard: ShardSpec | None = None,
    stack: int = 1,
    *,
    queue_dir=None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    resilience: ResilienceConfig | None = None,
    experiment: str = "",
    cache_dir=None,
) -> tuple[list, ScheduleStats]:
    """Execute ``tasks`` and return ``(results, stats)`` in task order.

    With ``shard`` set, only the tasks the shard owns (``task.index mod
    shard.count == shard.index``) are served — from cache or by
    computing — and ``results`` covers exactly that slice, in task
    order.  The partition depends only on task indices, so it is stable
    across hosts and across ``--resume``.

    Every mode runs the served tasks longest-first by the cost model of
    :mod:`repro.engine.costs`, priced from the timings recorded in
    ``cache``'s directory (plain ``T``-descending without a cache or
    history).  Only execution is reordered: results keep the declared
    task order.

    With ``queue_dir`` set, the run joins that work queue as one worker
    of a dynamic fleet instead: :func:`repro.engine.queue.run_queued_tasks`
    serves it as ``experiment`` with ``lease_ttl`` and ``resilience``
    (default :class:`~repro.engine.resilience.ResilienceConfig`), whose
    watchdog deadlines the same cost model prices, and
    ``results`` is the worker's :class:`~repro.engine.queue.QueueRunResult`
    with this schedule's stats under ``metadata["engine"]``.  A queue
    worker is one process that needs ``cache``: :func:`check_run_options`
    rejects ``jobs > 1``, ``shard`` and a missing cache before any work.

    With ``cache_dir`` set, every mode certifies ``cache``'s durable
    checkpoints in that directory's shard manifest under ``experiment``
    (:func:`~repro.engine.shard.record_durable_manifest`) — in a
    ``finally``, so an interrupted run leaves an accurate completion
    record for ``cache verify``.

    Parameters
    ----------
    context:
        Shared job inputs (factory, datasets, config).  Any object the
        ``run_fn`` understands; must match what ``context_spec`` rebuilds.
    tasks:
        Jobs to evaluate.  Each needs a unique integer ``.index`` and the
        cost model's ``cost_key`` and ``time_steps``.
    run_fn:
        Pure job function ``(context, task) -> result`` — a *module-level*
        function (e.g. :func:`~repro.engine.job.run_cell_task` or
        :func:`~repro.engine.sweep.run_sweep_task`) so worker pools can
        pickle it by reference.
    jobs:
        Worker processes; ``1`` runs in-process.  Capped at the number of
        pending execution units.
    cache:
        Optional checkpoint store (:class:`~repro.engine.cache.CellCache`
        or :class:`~repro.engine.cache.SweepCache`).  Completed tasks are
        always checkpointed through it; cached results are *reused* only
        when ``resume`` is set.
    resume:
        Serve already-checkpointed tasks from ``cache`` instead of
        recomputing them.  Requires ``cache`` — resuming without a
        checkpoint store would silently recompute everything.  In queue
        mode, serve them straight into commit markers.
    progress:
        Parent-side callback per task this run served or computed
        (logging, UIs); a queue worker calls it only for the commits it
        created.
    start_method:
        ``auto`` (prefer fork, else spawn-with-spec, else serial),
        ``fork`` or ``spawn``.
    context_spec:
        Recipe for rebuilding ``context`` inside spawn workers; required
        for ``start_method='spawn'``, optional fallback for ``auto``.
    shard:
        Optional :class:`~repro.engine.shard.ShardSpec` restricting this
        invocation to its deterministic slice of the task list
        (multi-host runs: one shard per host, caches merged afterwards).
    stack:
        Run pending tasks as the units of
        :func:`~repro.engine.stacking.plan_units` — up to ``stack`` grid
        cells per fused pass, bitwise identical per cell — on every
        backend: a pool worker runs one unit per submission, a queue
        worker claims up to ``stack`` cells per round.
    """
    check_run_options(
        jobs=jobs, stack=stack, resume=resume, cache=cache, shard=shard,
        queue_dir=queue_dir, lease_ttl=lease_ttl, start_method=start_method,
    )
    if queue_dir is None and start_method == "spawn" and context_spec is None:
        # Validated up front, not at pool creation: a warm cache can leave
        # too few pending tasks for a pool, and this programming error
        # must not pass or fail depending on cache state.
        raise ValueError(
            "start_method='spawn' requires a context_spec: spawn workers "
            "cannot inherit the in-memory job context and must rebuild it "
            "from a module-level builder"
        )
    declared = list(tasks)
    # Partition before anything else (cache lookups included): a shard
    # must neither compute nor serve tasks it does not own, or two hosts
    # would disagree about who completed what.
    owned = declared if shard is None else shard.partition(declared)
    if len({task.index for task in owned}) != len(owned):
        raise ValueError("task indices must be unique")
    # Ordered once, at plan time: a pure key sort, so the pending slice
    # and the queue's claimable slice each round stay in order too.
    costs = cached_costs(cache) if cache is not None else {}
    ordered = order_tasks(owned, costs)
    recorder = _Recorder(progress)
    certified = None
    try:
        if queue_dir is None:
            used_jobs, method = _run_local(
                context, owned, ordered, run_fn, jobs, cache, resume,
                start_method, context_spec, stack, recorder,
            )
            outcome = [recorder.results[task.index] for task in owned]
            stats = recorder.stats(
                len(owned), used_jobs, method, "" if shard is None else str(shard)
            )
        else:
            supervision = resilience if resilience is not None else ResilienceConfig()
            outcome = run_queued_tasks(
                context, ordered, run_fn, cache, queue_dir,
                experiment=experiment, resume=resume, record=recorder.record,
                lease_ttl=lease_ttl, stack=stack, resilience=supervision,
                task_deadline=deadline_estimator(costs, supervision),
            )
            stats = recorder.stats(len(ordered), 1, "queue", workers=[outcome.worker])
    finally:
        if cache is not None and cache_dir is not None:
            certified = record_durable_manifest(
                cache_dir, cache, experiment, declared, shard
            )
    if queue_dir is not None:
        outcome = replace(
            outcome,
            manifest_path=certified,
            metadata={"engine": stats.as_dict(), **outcome.metadata},
        )
    return outcome, stats


def _run_local(
    context, owned, ordered, run_fn, jobs, cache, resume,
    start_method, context_spec, stack, recorder,
) -> tuple[int, str]:
    """The inline and pool backends of :func:`run_tasks`.

    Records every owned task through ``recorder`` and returns ``(jobs
    used, start method)``.
    """
    if resume:
        for task in owned:
            result = cache.get(task)
            if result is not None:
                recorder.record(task, result, cached=True)
    if resume and recorder.cached == 0 and owned:
        if cache.any_entries():
            # Checkpoints exist but none match: a mispointed cache
            # directory or a changed config/fingerprint — the cases where
            # "resume" would otherwise silently recompute everything.
            _logger.warning(
                "resume requested but none of the existing checkpoints "
                "match this configuration; recomputing all %d task "
                "checkpoints (trained weights that still match are reused "
                "from the weight cache)",
                len(owned),
            )
        else:
            # Interrupted before the first task completed: nothing to
            # resume from yet, which is expected, not suspicious.
            _logger.info(
                "resume requested but no checkpoints exist yet; "
                "computing all %d tasks",
                len(owned),
            )
    pending = [task for task in ordered if task.index not in recorder.results]
    cache_write_failed = False

    def checkpoint(task, result) -> None:
        nonlocal cache_write_failed
        if cache is not None and not cache_write_failed:
            # Checkpointing is a convenience; an unwritable cache directory
            # (read-only cwd, full disk) must not abort the computation.
            # A transient blip (ENOSPC while something else frees space,
            # a remounting filesystem) gets one bounded retry; after a
            # second failure, stop attempting further writes.
            try:
                cache.put(task, result)
            except OSError as first_error:
                _logger.warning(
                    "cache write failed (%s); retrying once", first_error
                )
                time.sleep(0.1)
                try:
                    cache.put(task, result)
                except OSError as error:
                    cache_write_failed = True
                    _logger.warning(
                        "checkpointing disabled for the rest of this run: "
                        "cache write failed again (%s)",
                        error,
                    )
        recorder.record(task, result, cached=False)

    units = plan_units(context, pending, run_fn, stack)
    backend = None
    if min(jobs, len(units)) > 1:
        backend = _select_backend(start_method, context, context_spec)
    if backend is None:
        for unit_tasks, run in units:
            for task, result in zip(unit_tasks, run()):
                checkpoint(task, result)
        return 1, "stacked" if stack > 1 else "serial"
    # ProcessPoolExecutor rather than multiprocessing.Pool: a worker
    # dying hard (OOM kill, segfault) raises BrokenProcessPool here
    # instead of hanging imap forever.  Completed tasks were already
    # checkpointed, so --resume picks up after the crash.
    from concurrent.futures import ProcessPoolExecutor, as_completed

    mp_context, init_arg = backend
    by_index = {task.index: task for task in pending}
    workers = min(jobs, len(units))
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=mp_context,
        initializer=_init_worker,
        initargs=(init_arg, run_fn, metrics_dir()),
    ) as pool:
        futures = [pool.submit(_run_in_worker, unit_tasks) for unit_tasks, _ in units]
        for future in as_completed(futures):
            for index, result in future.result():
                checkpoint(by_index[index], result)
    return workers, mp_context.get_start_method()


def run_cell_tasks(
    context: ExplorationJobContext, tasks: Sequence, **options
) -> tuple[list, ScheduleStats]:
    """Grid-cell convenience wrapper: :func:`run_tasks` with
    :func:`~repro.engine.job.run_cell_task` as the job function; every
    keyword is :func:`run_tasks`'s.

    Example::

        cells, stats = run_cell_tasks(context, build_cell_tasks(config),
                                      jobs=4, cache=cache, resume=True)
    """
    return run_tasks(context, tasks, run_cell_task, **options)
