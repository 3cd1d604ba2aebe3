"""Serial / multi-process scheduler for experiment jobs.

:func:`run_tasks` drives any list of picklable tasks (grid
:class:`~repro.engine.job.CellTask` jobs, variant
:class:`~repro.engine.sweep.SweepTask` jobs, future sweep families)
through a pure job function, either in-process (``jobs=1``) or on a
``multiprocessing`` pool (``jobs>1``).  Because every task carries its
own derived seeds, all modes produce identical results — parallelism only
changes wall-clock, never science.

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

Cache integration happens here, in the parent process: completed tasks
are checkpointed as they arrive (so an interrupted parallel run still
resumes), and with ``resume=True`` cached results are served without
dispatching work.

With ``stack=K`` the in-process loop runs the units of
:func:`repro.engine.stacking.plan_units`: K grid cells per fused pass.

:func:`run_tasks` is also the single dispatch call of every experiment:
it checks the mode flags once, serves a ``shard`` slice locally, hands a
``queue_dir`` run to :func:`repro.engine.queue.run_queued_tasks`, and
certifies the cache directory's shard manifest whenever a ``cache_dir``
is given.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from importlib import import_module

from repro.engine.costs import (
    cached_cell_costs,
    cell_deadline_estimator,
    order_cell_tasks,
)
from repro.engine.job import ExplorationJobContext, run_cell_task
from repro.engine.metrics import (
    configure_metrics,
    flush_metrics,
    metrics_dir,
    record_task,
    reset_metrics,
)
from repro.engine.resilience import ResilienceConfig
from repro.engine.shard import ShardSpec, record_durable_manifest
from repro.engine.stacking import plan_units
from repro.utils.logging import get_logger

__all__ = ["ContextSpec", "ScheduleStats", "run_cell_tasks", "run_tasks"]

_logger = get_logger("engine")

_START_METHODS = ("auto", "fork", "spawn")

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
    # Metrics: a forked worker inherits the parent's registry *counts*;
    # flushing those again under the worker's own id would double-count
    # on merge, so drop them while keeping (or, for spawn, installing)
    # the snapshot directory.
    if metrics_directory is None:
        reset_metrics()
    else:
        configure_metrics(metrics_directory)
        reset_metrics(keep_dir=True)


def _run_in_worker(task) -> tuple[int, object]:
    assert _WORKER_RUN is not None, "worker pool initialized without a job function"
    result = task.index, _WORKER_RUN(_WORKER_CONTEXT, task)
    # Worker-side counters (weight-cache hits inside the job function)
    # are flushed per task, so a crashed worker still leaves its last
    # consistent snapshot behind.
    flush_metrics()
    return result


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
    """Distinct process names that computed at least one task."""

    start_method: str = "serial"
    """Backend actually used: ``serial``, ``stacked``, ``fork`` or ``spawn``."""

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


def _select_backend(start_method: str, context, context_spec: ContextSpec | None):
    """Pick ``(mp_context, worker_init_arg, method_name)`` for the pool.

    Returns ``(None, None, "serial")`` when no usable backend exists — the
    scheduler then degrades to in-process execution rather than failing,
    except for an explicit ``spawn`` request without the spec it needs
    (a programming error worth surfacing).
    """
    import multiprocessing

    available = multiprocessing.get_all_start_methods()
    if start_method in ("auto", "fork") and "fork" in available:
        return multiprocessing.get_context("fork"), context, "fork"
    if start_method == "fork":
        _logger.warning(
            "multiprocessing 'fork' start method unavailable; "
            "falling back to serial execution"
        )
        return None, None, "serial"
    if context_spec is None:
        # Explicit spawn without a spec was already rejected up front in
        # run_tasks; reaching here means start_method == "auto".
        _logger.warning(
            "no 'fork' start method and no context_spec for 'spawn'; "
            "falling back to serial execution"
        )
        return None, None, "serial"
    if "spawn" not in available:
        _logger.warning(
            "multiprocessing 'spawn' start method unavailable; "
            "falling back to serial execution"
        )
        return None, None, "serial"
    return multiprocessing.get_context("spawn"), context_spec, "spawn"


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
    pending_order: Callable[[list], list] | None = None,
    stack: int = 1,
    *,
    queue_dir=None,
    lease_ttl: float | None = None,
    resilience: ResilienceConfig | None = None,
    task_deadline: Callable | None = None,
    experiment: str = "",
    cache_dir=None,
) -> tuple[list, ScheduleStats]:
    """Execute ``tasks`` and return ``(results, stats)`` in task order.

    With ``shard`` set, only the tasks the shard owns (``task.index mod
    shard.count == shard.index``) are served — from cache or by
    computing — and ``results`` covers exactly that slice, in task
    order.  The partition depends only on task indices, so it is stable
    across hosts and across ``--resume``.

    With ``queue_dir`` set, the run joins that work queue as one worker
    of a dynamic fleet instead: :func:`repro.engine.queue.run_queued_tasks`
    serves it as ``experiment`` with ``lease_ttl``, ``resilience`` and
    ``task_deadline`` (``None`` keeps the queue's defaults), and
    ``results`` is the worker's :class:`~repro.engine.queue.QueueRunResult`.
    The queue has its own commit policy and certifies its own manifest.

    With ``cache_dir`` set, the local run certifies ``cache``'s durable
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
        Jobs to evaluate.  Each needs a unique integer ``.index``.
    run_fn:
        Pure job function ``(context, task) -> result`` — a *module-level*
        function (e.g. :func:`~repro.engine.job.run_cell_task` or
        :func:`~repro.engine.sweep.run_sweep_task`) so worker pools can
        pickle it by reference.
    jobs:
        Worker processes; ``1`` runs in-process.  Capped at the number of
        pending tasks.
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
        Parent-side callback per completed task (logging, UIs).
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
    pending_order:
        Optional reordering of the to-be-computed tasks before dispatch
        (e.g. :func:`repro.engine.costs.order_cell_tasks` for
        longest-first scheduling).  Execution order only: results are
        still returned — and checkpointed — in declared task order, and
        every task carries its own seeds, so reordering moves wall-clock,
        never science.
    stack:
        Run pending tasks in-process as the units of
        :func:`~repro.engine.stacking.plan_units` — up to ``stack`` grid
        cells per fused pass, bitwise identical per cell.  The fold
        replaces worker parallelism, so it conflicts with ``jobs > 1``.
        A queue worker claims up to ``stack`` cells per round.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if stack < 1:
        raise ValueError(f"stack must be >= 1, got {stack}")
    if stack > 1 and jobs > 1:
        raise ValueError(f"stack={stack} is in-process and conflicts with jobs={jobs}")
    if resume and cache is None:
        raise ValueError(
            "resume=True requires a checkpoint cache (cache_dir) to resume from"
        )
    if queue_dir is not None:
        if shard is not None:
            raise ValueError("queue_dir (dynamic fleet) conflicts with shard (static)")
        # Imported here: the queue module builds on this one's ScheduleStats.
        from repro.engine.queue import DEFAULT_LEASE_TTL, run_queued_tasks

        return run_queued_tasks(
            context,
            tasks,
            run_fn,
            cache,
            queue_dir,
            experiment=experiment,
            cache_dir=cache_dir,
            resume=resume,
            progress=progress,
            lease_ttl=DEFAULT_LEASE_TTL if lease_ttl is None else lease_ttl,
            pending_order=pending_order,
            stack=stack,
            resilience=resilience,
            task_deadline=task_deadline,
        )
    if start_method not in _START_METHODS:
        raise ValueError(
            f"unknown start_method {start_method!r}; choose from {_START_METHODS}"
        )
    if start_method == "spawn" and context_spec is None:
        # Validated up front, not at pool creation: a warm cache can leave
        # too few pending tasks for a pool, and this programming error
        # must not pass or fail depending on cache state.
        raise ValueError(
            "start_method='spawn' requires a context_spec: spawn workers "
            "cannot inherit the in-memory job context and must rebuild it "
            "from a module-level builder"
        )
    try:
        return _run_local(
            context, tasks, run_fn, jobs, cache, resume, progress,
            start_method, context_spec, shard, pending_order, stack,
        )
    finally:
        if cache is not None and cache_dir is not None:
            record_durable_manifest(cache_dir, cache, experiment, tasks, shard)


def _run_local(
    context, tasks, run_fn, jobs, cache, resume, progress,
    start_method, context_spec, shard, pending_order, stack,
) -> tuple[list, ScheduleStats]:
    """The in-process, pool or stack loop behind :func:`run_tasks`."""
    start = time.perf_counter()
    if shard is not None:
        # Partition before anything else (cache lookups included): a
        # shard must neither compute nor serve tasks it does not own, or
        # two hosts would disagree about who completed what.
        tasks = shard.partition(list(tasks))
    results: dict[int, object] = {}
    by_index = {task.index: task for task in tasks}
    if len(by_index) != len(tasks):
        raise ValueError("task indices must be unique")

    pending: list = []
    cached = 0
    for task in tasks:
        result = cache.get(task) if (cache is not None and resume) else None
        if result is not None:
            results[task.index] = result
            cached += 1
            record_task(result, cached=True)
            if progress is not None:
                progress(task, result, True)
        else:
            pending.append(task)
    if resume and cached == 0 and tasks:
        if getattr(cache, "any_entries", lambda: False)():
            # Checkpoints exist but none match: a mispointed cache
            # directory or a changed config/fingerprint — the cases where
            # "resume" would otherwise silently recompute everything.
            _logger.warning(
                "resume requested but none of the existing checkpoints "
                "match this configuration; computing all %d tasks from "
                "scratch",
                len(tasks),
            )
        else:
            # Interrupted before the first task completed: nothing to
            # resume from yet, which is expected, not suspicious.
            _logger.info(
                "resume requested but no checkpoints exist yet; "
                "computing all %d tasks",
                len(tasks),
            )

    if pending_order is not None:
        reordered = pending_order(list(pending))
        if sorted(task.index for task in reordered) != sorted(
            task.index for task in pending
        ):
            raise ValueError("pending_order must permute the pending tasks")
        pending = reordered

    computed_workers: set[str] = set()
    cache_write_failed = False

    def record(task, result) -> None:
        nonlocal cache_write_failed
        results[task.index] = result
        record_task(result, cached=False)
        worker = getattr(result, "worker", "")
        if worker:
            computed_workers.add(worker)
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
        if progress is not None:
            progress(task, result, False)

    effective_jobs = min(jobs, len(pending)) if pending else 1
    method_used = "serial"
    if effective_jobs > 1:
        mp_context, init_arg, method_used = _select_backend(
            start_method, context, context_spec
        )
        if mp_context is None:
            effective_jobs = 1
    if effective_jobs > 1:
        # ProcessPoolExecutor rather than multiprocessing.Pool: a worker
        # dying hard (OOM kill, segfault) raises BrokenProcessPool here
        # instead of hanging imap forever.  Completed tasks were already
        # checkpointed via record(), so --resume picks up after the crash.
        from concurrent.futures import ProcessPoolExecutor, as_completed

        with ProcessPoolExecutor(
            max_workers=effective_jobs,
            mp_context=mp_context,
            initializer=_init_worker,
            initargs=(init_arg, run_fn, metrics_dir()),
        ) as pool:
            futures = [pool.submit(_run_in_worker, task) for task in pending]
            for future in as_completed(futures):
                index, result = future.result()
                record(by_index[index], result)
    else:
        method_used = "stacked" if stack > 1 else "serial"
        for unit_tasks, run in plan_units(context, pending, run_fn, stack):
            for task, result in zip(unit_tasks, run()):
                record(task, result)

    ordered = [results[task.index] for task in tasks]
    stats = ScheduleStats(
        jobs=effective_jobs,
        total_cells=len(tasks),
        cached_cells=cached,
        computed_cells=len(pending),
        elapsed_seconds=time.perf_counter() - start,
        workers=sorted(computed_workers),
        start_method=method_used,
        shard="" if shard is None else str(shard),
    )
    flush_metrics()
    return ordered, stats


def run_cell_tasks(
    context: ExplorationJobContext,
    tasks: Sequence,
    cache=None,
    resilience: ResilienceConfig | None = None,
    **options,
) -> tuple[list, ScheduleStats]:
    """Grid-cell convenience wrapper: :func:`run_tasks` with
    :func:`~repro.engine.job.run_cell_task` as the job function.

    The cell cost model prices the run from the timings recorded in
    ``cache``'s directory (:mod:`repro.engine.costs`): pending cells run
    longest-first, and queued cells get a watchdog deadline of
    ``resilience``'s multiple of their predicted cost.  Every other
    keyword is :func:`run_tasks`'s.

    Example::

        cells, stats = run_cell_tasks(context, build_cell_tasks(config),
                                      jobs=4, cache=cache, resume=True)
    """
    costs = cached_cell_costs(cache.directory) if cache is not None else None
    supervision = resilience if resilience is not None else ResilienceConfig()
    return run_tasks(
        context,
        tasks,
        run_cell_task,
        cache=cache,
        pending_order=lambda pending: order_cell_tasks(pending, costs),
        resilience=supervision,
        task_deadline=cell_deadline_estimator(
            costs,
            multiplier=supervision.watchdog_multiplier,
            floor=supervision.watchdog_floor,
        ),
        **options,
    )
