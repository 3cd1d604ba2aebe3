"""Figures 6, 7 and 8 — the (Vth, T) grid exploration.

One run of Algorithm 1 produces all three artifacts:

* Fig. 6 — clean-accuracy heat map (learnability study);
* Fig. 7 — robustness heat map under PGD ε = 1;
* Fig. 8 — robustness heat map under PGD ε = 1.5.
"""

from __future__ import annotations

from pathlib import Path

from repro.engine import CellCache, context_fingerprint
from repro.engine.costs import (
    cached_cell_costs,
    cell_deadline_estimator,
    order_cell_tasks,
)
from repro.engine.job import run_cell_task
from repro.engine.queue import (
    DEFAULT_LEASE_TTL,
    QueueRunResult,
    run_queued_tasks,
)
from repro.engine.resilience import ResilienceConfig
from repro.engine.scheduler import run_cell_tasks
from repro.engine.search import (
    SearchConfig,
    SearchResult,
    derive_schedule,
    run_halving_search,
)
from repro.engine.shard import (
    ShardRunResult,
    ShardSpec,
    record_durable_manifest,
)
from repro.experiments.profiles import ExperimentProfile, get_profile
from repro.experiments.sweeps import build_grid_context, spawn_spec_for
from repro.robustness.exploration import RobustnessExplorer
from repro.robustness.report import render_heatmap
from repro.robustness.results import ExplorationResult
from repro.utils.logging import get_logger

__all__ = [
    "fig6_table",
    "fig7_table",
    "fig8_table",
    "grid_search_tags",
    "run_grid_exploration",
    "run_grid_search",
]

_logger = get_logger("experiments.grid")


def _run_grid_shard(
    explorer: RobustnessExplorer,
    context,
    cache: CellCache | None,
    cache_dir: str | Path | None,
    shard: ShardSpec,
    profile: ExperimentProfile,
    verbose: bool,
    jobs: int,
    resume: bool,
    start_method: str,
    spec,
    stack: int = 1,
) -> ShardRunResult:
    """One shard's slice of the grid: compute + checkpoint, no figure.

    The full heat maps need every cell; a shard only owns ``index mod
    count`` of them, so it returns a completion summary and relies on
    ``cache merge`` + an unsharded ``--resume`` run for rendering.
    """
    tasks = explorer.tasks()
    owned = len(shard.partition(tasks))
    completed: list[int] = []

    def progress(task, cell, from_cache: bool) -> None:
        completed.append(task.index)
        if verbose:
            _logger.info(
                "[%d/%d] Vth=%g T=%d acc=%.3f%s",
                len(completed), owned, task.v_th, task.time_window,
                cell.clean_accuracy, " (cached)" if from_cache else "",
            )

    manifest_path = None
    try:
        _cells, stats = run_cell_tasks(
            context,
            tasks,
            jobs=jobs,
            cache=cache,
            resume=resume,
            progress=progress,
            start_method=start_method,
            context_spec=spec,
            shard=shard,
            stack=stack,
        )
    finally:
        # Even an interrupted shard leaves an accurate completion record
        # for the coordinator's `cache verify`.
        if cache is not None:
            manifest_path = record_durable_manifest(
                cache_dir, cache, "grid", tasks, shard
            )
    return ShardRunResult(
        experiment="grid",
        shard=shard,
        task_count=len(tasks),
        completed=tuple(completed),
        manifest_path=manifest_path,
        metadata={"profile": profile.name, "engine": stats.as_dict()},
    )


def _run_grid_queue(
    explorer: RobustnessExplorer,
    context,
    cache: CellCache,
    cache_dir: str | Path,
    queue_dir: Path,
    lease_ttl: float,
    profile: ExperimentProfile,
    verbose: bool,
    resume: bool,
    stack: int,
    resilience: ResilienceConfig | None = None,
) -> QueueRunResult:
    """One worker of a dynamic grid fleet: claim, compute, commit.

    The queue sibling of :func:`_run_grid_shard` — the figure is
    rendered later by a ``--resume`` run against the shared cache, once
    ``cache watch`` (or ``cache verify``) says the queue is complete.
    """
    tasks = explorer.tasks()
    served = 0

    def progress(task, cell, from_cache: bool) -> None:
        nonlocal served
        served += 1
        if verbose:
            _logger.info(
                "[queue %d] Vth=%g T=%d acc=%.3f%s",
                served, task.v_th, task.time_window,
                cell.clean_accuracy, " (cached)" if from_cache else "",
            )

    costs = cached_cell_costs(cache.directory)
    supervision = resilience if resilience is not None else ResilienceConfig()
    result, _stats = run_queued_tasks(
        context,
        tasks,
        run_cell_task,
        cache,
        queue_dir,
        experiment="grid",
        cache_dir=cache_dir,
        resume=resume,
        progress=progress,
        lease_ttl=lease_ttl,
        pending_order=lambda pending: order_cell_tasks(pending, costs),
        stack=stack,
        resilience=supervision,
        task_deadline=cell_deadline_estimator(
            costs,
            multiplier=supervision.watchdog_multiplier,
            floor=supervision.watchdog_floor,
        ),
    )
    result.metadata["profile"] = profile.name
    return result


def run_grid_exploration(
    profile: ExperimentProfile | str = "smoke",
    verbose: bool = False,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    resume: bool = False,
    start_method: str = "auto",
    shard: ShardSpec | None = None,
    stack: int = 1,
    queue_dir: str | Path | None = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    resilience: ResilienceConfig | None = None,
) -> ExplorationResult | ShardRunResult | QueueRunResult:
    """Run Algorithm 1 over the profile's grid (Figs. 6-8 in one pass).

    Parameters
    ----------
    profile:
        Experiment scale (name or :class:`ExperimentProfile`).
    verbose:
        Log one line per completed cell.
    jobs:
        Worker processes for cell evaluation (``1`` = serial; parallel
        runs produce bitwise-identical cell values).
    cache_dir:
        Directory for per-cell JSON checkpoints and trained-weight
        archives.  When set, completed cells and their weights are
        written there as the run progresses.
    resume:
        Reuse checkpointed cells (and cached trained weights, for cells
        whose checkpoint is missing but whose training already ran) from
        ``cache_dir`` instead of recomputing them.
    start_method:
        Pool backend (``auto``/``fork``/``spawn``); spawn workers rebuild
        the job context from the profile name.
    shard:
        Run only this :class:`~repro.engine.shard.ShardSpec`'s slice of
        the grid cells and return a
        :class:`~repro.engine.shard.ShardRunResult` summary instead of
        the heat maps — the multi-host path: each host runs one shard
        into its own ``cache_dir``, the directories are merged with
        ``cache merge``, and an unsharded ``resume`` run renders the
        figures from the union.
    stack:
        Pack up to ``stack`` compatible grid cells into one
        :class:`~repro.snn.stack.VariantStack` fused pass — bitwise
        identical per-cell results, sublinear wall-clock in the cell
        count.  Stacked execution is in-process, so ``stack > 1``
        conflicts with ``jobs > 1``; it composes with ``shard`` (the
        shard's slice is packed) and with ``cache_dir``/``resume``
        (checkpoints and weight archives stay per-cell and
        fingerprint-identical to the unstacked path).
    queue_dir:
        Join the dynamic work queue rooted at this directory (the grid
        queue lives in its ``grid/`` subdirectory) as one worker of an
        elastic fleet, and return a
        :class:`~repro.engine.queue.QueueRunResult` summary instead of
        the heat maps.  Mutually exclusive with ``shard`` (the static
        pre-partitioned mode) and requires ``cache_dir`` — the shared
        checkpoint directory is how workers exchange results.
    lease_ttl:
        Queue mode only: seconds without a heartbeat after which another
        worker may steal a task lease from a presumed-dead owner.
    resilience:
        Queue mode only: supervision knobs (attempt budget before
        quarantine, backoff shape, watchdog deadline pricing); defaults
        to :class:`~repro.engine.resilience.ResilienceConfig`'s.
    """
    if resume and cache_dir is None:
        raise ValueError("resume=True requires cache_dir to resume from")
    if queue_dir is not None and shard is not None:
        raise ValueError("queue_dir (dynamic fleet) conflicts with shard (static)")
    if queue_dir is not None and cache_dir is None:
        raise ValueError("queue_dir requires cache_dir: the shared checkpoint "
                         "directory is how queue workers exchange results")
    if isinstance(profile, str):
        profile = get_profile(profile)
    context = build_grid_context(profile, cache_dir=cache_dir, reuse_weights=resume)
    explorer = RobustnessExplorer(
        model_factory=context.model_factory,
        train_set=context.train_set,
        test_set=context.test_set,
        config=context.config,
    )
    cache = None
    if cache_dir is not None:
        # The factory cannot be hashed; tags pin everything it derives from.
        fingerprint = context_fingerprint(
            explorer.context, tags=grid_search_tags(profile)
        )
        cache = CellCache(cache_dir, fingerprint)
    if queue_dir is not None:
        return _run_grid_queue(
            explorer, context, cache, cache_dir, Path(queue_dir) / "grid",
            lease_ttl, profile, verbose, resume, stack,
            resilience=resilience,
        )
    spec = spawn_spec_for("build_grid_context", profile, cache_dir, resume)
    if shard is not None:
        return _run_grid_shard(
            explorer, context, cache, cache_dir, shard, profile,
            verbose, jobs, resume, start_method, spec, stack=stack,
        )
    try:
        result = explorer.run(
            verbose=verbose,
            jobs=jobs,
            cache=cache,
            resume=resume,
            start_method=start_method,
            context_spec=spec,
            weight_cache=context.weight_cache,
            stack=stack,
        )
    finally:
        if cache is not None:
            # Unsharded runs, interrupted ones too, record the degenerate
            # 0/1 shard, so any cache directory answers `cache verify`.
            record_durable_manifest(cache_dir, cache, "grid", explorer.tasks(), None)
    result.metadata["profile"] = profile.name
    return result


def grid_search_tags(profile: ExperimentProfile) -> dict:
    """The grid experiment's cache-identity tags, shared with the search.

    The guided search caches its rung checkpoints under these same tags
    (plus its own ``search``/``budget``/``warm_plan`` qualifiers), so the
    artifacts live alongside — but never collide with — the exhaustive
    grid's in one cache directory.
    """
    return {
        "experiment": "fig678_grid",
        "profile": profile.name,
        "model": profile.snn_model,
        "image_size": profile.image_size,
        "input_scale": profile.input_scale,
    }


def run_grid_search(
    profile: ExperimentProfile | str = "smoke",
    search: SearchConfig | None = None,
    verbose: bool = False,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    resume: bool = False,
    start_method: str = "auto",
    stack: int = 1,
    queue_dir: str | Path | None = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
) -> SearchResult:
    """Guided (successive-halving) replacement for the exhaustive grid.

    Same measurement recipe as :func:`run_grid_exploration` — identical
    context, seeds and attacked-accuracy metrics per cell — but cells are
    first screened on small epoch budgets and only the promising fraction
    graduates to the full budget, warm-starting from cached lower-budget
    weights along the way (see :mod:`repro.engine.search`).  Requires
    ``cache_dir``; composes with ``jobs``, ``stack`` and ``queue_dir``
    (the search queue roots at ``<queue_dir>/grid-search`` so a guided
    fleet never crosses wires with an exhaustive one).  Static sharding
    is deliberately unsupported: promotions need every cell of a rung.

    Returns a :class:`~repro.engine.search.SearchResult`; its
    ``exploration()`` view renders through the usual Fig. 6-8 tables
    (pruned cells show as gaps — that is the saving).
    """
    if isinstance(profile, str):
        profile = get_profile(profile)
    if search is None:
        search = SearchConfig(
            schedule=derive_schedule(profile.training_config().epochs)
        )
    context = build_grid_context(profile, cache_dir=None, reuse_weights=False)
    served = 0

    def progress(task, cell, from_cache: bool) -> None:
        nonlocal served
        served += 1
        if verbose:
            _logger.info(
                "[search %d] Vth=%g T=%d acc=%.3f%s",
                served, task.v_th, task.time_window,
                cell.clean_accuracy, " (cached)" if from_cache else "",
            )

    result = run_halving_search(
        context,
        search,
        cache_dir,
        tags=grid_search_tags(profile),
        jobs=jobs,
        stack=stack,
        start_method=start_method,
        resume=resume,
        queue_dir=None if queue_dir is None else Path(queue_dir) / "grid-search",
        lease_ttl=lease_ttl,
        experiment="grid",
        progress=progress,
    )
    result.metadata["profile"] = profile.name
    return result


def fig6_table(result: ExplorationResult) -> str:
    """Render the Figure-6 learnability heat map."""
    return render_heatmap(
        result.accuracy_grid(),
        result.row_labels(),
        result.column_labels(),
        title="Figure 6 - clean accuracy (%) per (Vth, T)",
    )


def fig7_table(result: ExplorationResult, epsilon: float = 1.0) -> str:
    """Render the Figure-7 security heat map (PGD ε = 1)."""
    return render_heatmap(
        result.robustness_grid(epsilon),
        result.row_labels(),
        result.column_labels(),
        title=f"Figure 7 - robustness (%) under PGD eps={epsilon:g} per (Vth, T)",
    )


def fig8_table(result: ExplorationResult, epsilon: float = 1.5) -> str:
    """Render the Figure-8 security heat map (PGD ε = 1.5)."""
    return render_heatmap(
        result.robustness_grid(epsilon),
        result.row_labels(),
        result.column_labels(),
        title=f"Figure 8 - robustness (%) under PGD eps={epsilon:g} per (Vth, T)",
    )
