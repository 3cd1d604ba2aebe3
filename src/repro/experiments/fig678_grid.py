"""Figures 6, 7 and 8 — the (Vth, T) grid exploration.

One run of Algorithm 1 produces all three artifacts:

* Fig. 6 — clean-accuracy heat map (learnability study);
* Fig. 7 — robustness heat map under PGD ε = 1;
* Fig. 8 — robustness heat map under PGD ε = 1.5.

Pseudo-code of the paper (Algorithm 1) and its mapping here:

.. code-block:: text

    for i in 1..n:                      # v_thresholds        (cell tasks)
      for j in 1..m:                    # time_windows        (cell tasks)
        Train(Sij)                      # learnability.train_and_score
        if Accuracy(Sij) >= Ath:        # JobContext.passes_gate
          for k in 1..p:                # epsilons
            X* = PGD(Sij, eps_k, Xt)    # attacks.pgd via JobContext.build_attack
            Robustness(eps_k) = 1 - Adv/|D|   # attacks.metrics

Every grid cell derives independent child seeds for model initialisation,
training shuffling and attack randomness from the root seed
(:func:`~repro.engine.job.build_cell_tasks`), so cells are reproducible in
isolation and independent of evaluation order.  Execution is the
engine's: the scheduler runs the cell tasks serially, across worker
processes, in fused stacks, by shard or from a queue with
bitwise-identical results, and checkpoints / resumes them through a
:class:`~repro.engine.cache.CellCache`.
"""

from __future__ import annotations

from pathlib import Path

from repro.engine import CellCache, context_fingerprint, scheduler
from repro.engine.job import CellTask, JobContext, build_cell_tasks
from repro.engine.queue import DEFAULT_LEASE_TTL, QueueRunResult
from repro.engine.resilience import ResilienceConfig
from repro.engine.search import (
    SearchConfig,
    SearchResult,
    derive_schedule,
    run_halving_search,
)
from repro.engine.shard import ShardRunResult, ShardSpec, shard_run_result
from repro.experiments.profiles import ExperimentProfile, get_profile
from repro.experiments.sweeps import build_grid_context, grid_config, spawn_spec_for
from repro.robustness.config import ExplorationConfig
from repro.robustness.report import render_heatmap
from repro.robustness.results import CellResult, ExplorationResult
from repro.utils.logging import get_logger

__all__ = [
    "cell_progress",
    "fig6_table",
    "fig7_table",
    "fig8_table",
    "grid_result",
    "grid_search_tags",
    "run_grid_exploration",
    "run_grid_search",
]

# Per-cell lines keep the ``repro.robustness`` logger they have always used.
_logger = get_logger("robustness")


def cell_progress(verbose: bool, total: int | None = None):
    """Engine progress callback logging one line per completed grid cell.

    Returns ``None`` (no callback) unless ``verbose``.  Lines count as
    ``[done/total]``; a queue worker or search rung, which cannot know
    its share of the cells in advance, passes no ``total`` and counts
    ``[done]``.
    """
    if not verbose:
        return None
    done = 0

    def progress(task: CellTask, cell: CellResult, from_cache: bool) -> None:
        nonlocal done
        done += 1
        status = "learnable" if cell.learnable else "rejected"
        if from_cache:
            status += " (cached)"
        _logger.info(
            "[%s] Vth=%g T=%d acc=%.3f %s %s",
            done if total is None else f"{done}/{total}",
            task.v_th,
            task.time_window,
            cell.clean_accuracy,
            status,
            {e: round(r, 3) for e, r in cell.robustness.items()},
        )

    return progress


def grid_result(
    config: ExplorationConfig,
    context: JobContext,
    cells: list[CellResult],
    stats: scheduler.ScheduleStats,
) -> ExplorationResult:
    """Wrap a grid run's cells and schedule stats as the Figs. 6-8 result."""
    return ExplorationResult(
        v_thresholds=config.v_thresholds,
        time_windows=config.time_windows,
        cells=cells,
        metadata={
            "attack": config.attack,
            "attack_steps": config.attack_steps,
            "epsilons": list(config.epsilons),
            "accuracy_threshold": config.accuracy_threshold,
            "seed": config.seed,
            "num_train": len(context.train_set),
            "num_test": len(context.clean_eval_set),
            "engine": stats.as_dict(),
        },
    )


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
        identical per-cell results (``docs/cli.md`` gives its measured
        wall clock).  It composes with ``jobs`` (each pool worker runs
        whole stacks), with ``shard`` (the shard's slice is packed) and
        with ``cache_dir``/``resume`` (checkpoints and weight archives
        stay per-cell and fingerprint-identical to the unstacked path).
    queue_dir:
        Join the dynamic work queue rooted at this directory (the grid
        queue lives in its ``grid/`` subdirectory) as one worker of an
        elastic fleet, and return a
        :class:`~repro.engine.queue.QueueRunResult` summary instead of
        the heat maps.  Mutually exclusive with ``shard`` (the static
        pre-partitioned mode) and requires ``cache_dir`` — the shared
        checkpoint directory is how workers exchange results.  These and
        the other mode rules are
        :func:`~repro.engine.scheduler.check_run_options`'s, checked
        before any work.
    lease_ttl:
        Queue mode only: seconds without a heartbeat after which another
        worker may steal a task lease from a presumed-dead owner.
    resilience:
        Queue mode only: supervision knobs (attempt budget before
        quarantine, backoff shape, watchdog deadline pricing); defaults
        to :class:`~repro.engine.resilience.ResilienceConfig`'s.
    """
    if isinstance(profile, str):
        profile = get_profile(profile)
    context = build_grid_context(profile, cache_dir=cache_dir, reuse_weights=resume)
    config = grid_config(profile)
    tasks = build_cell_tasks(config)
    cache = None
    if cache_dir is not None:
        # The factory cannot be hashed; tags pin everything it derives from.
        fingerprint = context_fingerprint(context, tags=grid_search_tags(profile))
        cache = CellCache(cache_dir, fingerprint)
    total = None if queue_dir is not None else len(
        tasks if shard is None else shard.partition(tasks)
    )
    # Looked up on the module at call time, so wrappers installed on
    # scheduler.run_cell_tasks — gridbench's tracer — see every grid run.
    outcome, stats = scheduler.run_cell_tasks(
        context,
        tasks,
        jobs=jobs,
        cache=cache,
        resume=resume,
        progress=cell_progress(verbose, total),
        start_method=start_method,
        context_spec=spawn_spec_for("build_grid_context", profile, cache_dir, resume),
        shard=shard,
        stack=stack,
        queue_dir=None if queue_dir is None else Path(queue_dir) / "grid",
        lease_ttl=lease_ttl,
        resilience=resilience,
        experiment="grid",
        cache_dir=cache_dir,
    )
    if queue_dir is not None:
        outcome.metadata["profile"] = profile.name
        return outcome
    if shard is not None:
        return shard_run_result(
            "grid", shard, tasks, cache_dir,
            {"profile": profile.name, "engine": stats.as_dict()},
        )
    result = grid_result(config, context, outcome, stats)
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
    resilience: ResilienceConfig | None = None,
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
    ``resilience`` governs queued rungs exactly as it governs the
    exhaustive queue (attempt budget, watchdog deadlines).

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
    result = run_halving_search(
        context,
        build_cell_tasks(grid_config(profile)),
        search,
        cache_dir,
        tags=grid_search_tags(profile),
        jobs=jobs,
        stack=stack,
        start_method=start_method,
        resume=resume,
        queue_dir=None if queue_dir is None else Path(queue_dir) / "grid-search",
        lease_ttl=lease_ttl,
        resilience=resilience,
        experiment="grid",
        progress=cell_progress(verbose),
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
