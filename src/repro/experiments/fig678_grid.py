"""Figures 6, 7 and 8 — the (Vth, T) grid exploration.

One run of Algorithm 1 produces all three artifacts:

* Fig. 6 — clean-accuracy heat map (learnability study);
* Fig. 7 — robustness heat map under PGD ε = 1;
* Fig. 8 — robustness heat map under PGD ε = 1.5.
"""

from __future__ import annotations

from pathlib import Path

from repro.engine import CellCache, context_fingerprint, scheduler
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
from repro.experiments.sweeps import build_grid_context, spawn_spec_for
from repro.robustness.exploration import RobustnessExplorer, cell_progress
from repro.robustness.report import render_heatmap
from repro.robustness.results import ExplorationResult

__all__ = [
    "fig6_table",
    "fig7_table",
    "fig8_table",
    "grid_search_tags",
    "run_grid_exploration",
    "run_grid_search",
]


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
    explorer = RobustnessExplorer(
        model_factory=context.model_factory,
        train_set=context.train_set,
        test_set=context.test_set,
        config=context.config,
    )
    tasks = explorer.tasks()
    cache = None
    if cache_dir is not None:
        # The factory cannot be hashed; tags pin everything it derives from.
        fingerprint = context_fingerprint(context, tags=grid_search_tags(profile))
        cache = CellCache(cache_dir, fingerprint)
    total = None if queue_dir is not None else len(
        tasks if shard is None else shard.partition(tasks)
    )
    # Looked up on the module at call time (as RobustnessExplorer.run
    # imports it), so wrappers installed on scheduler.run_cell_tasks —
    # gridbench's tracer — see every grid run.
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
    result = explorer.result(outcome, stats)
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
