"""The experiment-job engine: parallel, resumable execution of sweep workloads.

The paper's Algorithm 1 — and every sweep-style workload built on it — is
embarrassingly parallel at the granularity of one job.  This package
turns that observation into infrastructure, split into three layers:

* **jobs** (:mod:`repro.engine.job`) — one tiny, picklable task type
  with deterministically derived seeds, :class:`CellTask`, and the one
  pure function evaluating it, :func:`run_cell_task`: train (or load) a
  model, score it and attack it over ε, one curve per attack family.  A
  ``(Vth, T)`` grid cell is a task whose :class:`JobContext` carries the
  learnability gate (and, in a search, a warm-start plan); a Fig. 1,
  Fig. 9 or ablation variant is the same task with no gate;
* **scheduler** (:mod:`repro.engine.scheduler`) — :func:`run_tasks`,
  executing any task list serially, on a fork pool, or on a spawn pool
  that rebuilds the context from a :class:`ContextSpec`, with identical
  results in every mode — and every experiment's one dispatch call,
  serving a ``shard`` slice or joining a ``queue_dir`` fleet too;
* **caches** (:mod:`repro.engine.cache`) — the :class:`CellCache` of
  atomic JSON result checkpoints and the :class:`WeightCache` of trained
  ``state_dict`` archives, both keyed by context fingerprints, making
  interrupted runs resumable and security-only re-sweeps
  retraining-free;
* **search** (:mod:`repro.engine.search`) — :func:`run_halving_search`,
  a successive-halving scheduler that replaces the exhaustive sweep with
  budgeted rungs, warm-starting promoted cells from the nearest cached
  :class:`WeightCache` archive and auditing the shortcut with a
  warm-vs-cold bias gate;
* **sharding** (:mod:`repro.engine.shard`, :mod:`repro.engine.merge`) —
  :class:`ShardSpec` deterministically partitions any task list across
  hosts (``task i -> shard i mod N``), shard manifests record per-shard
  completion, and :func:`merge_cache_dirs` federates the per-host cache
  directories back into one a ``--resume`` run can render figures from.

The experiment runners in :mod:`repro.experiments` are the consumers
(the Figs. 6-8 grid is ``JobContext.for_grid`` plus
``build_cell_tasks``); future sweeps (transfer studies) should build on
the same layers instead of hand-rolling loops.  See
``docs/architecture.md`` for the full layer map and ``docs/sharding.md``
for the multi-host workflow.
"""

from repro.engine.cache import (
    CacheEntry,
    CellCache,
    WeightCache,
    WeightEntry,
    cache_stats,
    clear_cache_dir,
    context_fingerprint,
    entry_provenance,
    entry_timings,
    gc_cache_dir,
    nearest_weight_entry,
    scan_cache_dir,
    training_fingerprint,
)
from repro.engine.job import (
    CellTask,
    JobContext,
    WarmStartRef,
    build_cell_tasks,
    make_cell_task,
    make_variant_task,
    run_cell_task,
)
from repro.engine.metrics import (
    ATTEMPT_BUCKETS,
    CATALOG,
    configure_metrics,
    flush_metrics,
    merge_snapshots,
    metrics_enabled,
    read_metrics_dir,
    render_snapshot_text,
    reset_metrics,
)
from repro.engine.merge import (
    CacheMergeError,
    MergeReport,
    merge_cache_dirs,
    verify_cache_dir,
)
from repro.engine.queue import (
    QueueError,
    QueueRunResult,
    WorkQueue,
    merge_event_logs,
    queue_status,
    read_events,
    run_queued_tasks,
)
from repro.engine.resilience import (
    QUARANTINE_EXIT_CODE,
    AttemptLedger,
    ChaosConfig,
    ResilienceConfig,
    RetryPolicy,
    TaskTimeout,
    Watchdog,
    WorkerRetired,
)
from repro.engine.scheduler import (
    ContextSpec,
    ScheduleStats,
    run_cell_tasks,
    run_tasks,
)
from repro.engine.search import (
    RungReport,
    SearchConfig,
    SearchResult,
    derive_schedule,
    parse_budget_schedule,
    run_halving_search,
)
from repro.engine.shard import (
    ShardManifest,
    ShardRunResult,
    ShardSpec,
    load_manifests,
    record_durable_manifest,
    update_manifest,
)

__all__ = [
    "ATTEMPT_BUCKETS",
    "AttemptLedger",
    "CATALOG",
    "CacheEntry",
    "CacheMergeError",
    "CellCache",
    "CellTask",
    "ChaosConfig",
    "ContextSpec",
    "JobContext",
    "MergeReport",
    "QUARANTINE_EXIT_CODE",
    "QueueError",
    "QueueRunResult",
    "ResilienceConfig",
    "RetryPolicy",
    "TaskTimeout",
    "Watchdog",
    "WorkerRetired",
    "RungReport",
    "ScheduleStats",
    "SearchConfig",
    "SearchResult",
    "ShardManifest",
    "ShardRunResult",
    "ShardSpec",
    "WarmStartRef",
    "WeightCache",
    "WeightEntry",
    "WorkQueue",
    "build_cell_tasks",
    "cache_stats",
    "clear_cache_dir",
    "configure_metrics",
    "context_fingerprint",
    "derive_schedule",
    "entry_provenance",
    "entry_timings",
    "flush_metrics",
    "gc_cache_dir",
    "load_manifests",
    "make_cell_task",
    "make_variant_task",
    "merge_cache_dirs",
    "merge_event_logs",
    "merge_snapshots",
    "metrics_enabled",
    "nearest_weight_entry",
    "parse_budget_schedule",
    "queue_status",
    "read_events",
    "read_metrics_dir",
    "record_durable_manifest",
    "render_snapshot_text",
    "reset_metrics",
    "run_cell_task",
    "run_cell_tasks",
    "run_halving_search",
    "run_queued_tasks",
    "run_tasks",
    "scan_cache_dir",
    "training_fingerprint",
    "update_manifest",
    "verify_cache_dir",
]
