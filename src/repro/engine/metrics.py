"""Process-local engine metrics with Prometheus-style text export.

The engine's only telemetry used to be per-result ``phase_seconds``.
This module turns it into an aggregate, fleet-mergeable view:

* one module-level store, keyed by :data:`CATALOG` name and label
  values and guarded by one lock, holds every sample already in
  snapshot form; :func:`snapshot` is a sorted copy of it;
* :func:`render_snapshot_text` — the Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` / samples), so any scrape-side tooling reads
  the snapshots unchanged;
* :func:`flush_metrics` — an atomic per-worker snapshot writer
  (``metrics_<worker>.prom`` plus a ``.json`` twin) suitable for the
  multi-worker merge performed by ``cache metrics DIR``;
* :func:`merge_snapshots` — the fleet view: counters and histograms
  sum, gauges take the max (all three are associative and
  commutative, so merge order never matters).

Instrumentation is strictly observational.  The recording helpers
(:func:`record_task`, :func:`record_cache`, :func:`record_queue_event`,
...) are one-line no-ops until :func:`configure_metrics` points the
module at a snapshot directory, and nothing here touches job results —
serial, pool, stacked and queue outputs are byte-identical with
metrics on or off (tested).

Only the standard library and the stdlib-only
:func:`repro.utils.atomic.write_atomic` are imported: every engine layer
(scheduler, caches, queue, search, stacking) records through this
module, so it must sit below all of them in the import graph.

The metric catalogue (:data:`CATALOG`) is the single source of truth
for names, types, labels, units and histogram buckets; a new metric is
one catalogue entry plus one recording helper.  ``docs/observability.md``
is checked against the catalogue by ``scripts/check_docs.py``.
"""

from __future__ import annotations

import json
import os
import socket
import threading

from repro.utils.atomic import write_atomic

__all__ = [
    "ATTEMPT_BUCKETS",
    "CATALOG",
    "LATENCY_BUCKETS_MS",
    "configure_metrics",
    "flush_metrics",
    "load_snapshot",
    "merge_snapshots",
    "metrics_dir",
    "metrics_enabled",
    "read_metrics_dir",
    "record_cache",
    "record_queue_event",
    "record_search_promotion",
    "record_search_rung",
    "record_search_warm_start",
    "record_task",
    "record_task_attempts",
    "render_snapshot_text",
    "reset_metrics",
    "set_queue_depth",
    "snapshot",
    "snapshot_worker_id",
]

SNAPSHOT_VERSION = 1

LATENCY_BUCKETS_MS: tuple[float, ...] = (
    10.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1000.0,
    2500.0,
    5000.0,
    10000.0,
    30000.0,
    60000.0,
    120000.0,
    300000.0,
    600000.0,
)
"""Fixed millisecond buckets for every latency histogram.

Fixed (not adaptive) so that histograms from different workers merge by
plain element-wise addition; the range spans a micro-profile attack
(~tens of ms) to a paper-profile training phase (~minutes).
"""

ATTEMPT_BUCKETS: tuple[float, ...] = (1.0, 2.0, 3.0, 5.0, 8.0)
"""Buckets for the attempts-to-resolution histogram.

A healthy fleet resolves everything in the first bucket (one attempt);
anything beyond the default three-attempt budget only appears when the
operator raised ``--max-attempts``.  Fixed for the same element-wise
mergeability as :data:`LATENCY_BUCKETS_MS`.
"""

CATALOG: tuple[dict, ...] = (
    {
        "name": "repro_tasks_total",
        "type": "counter",
        "help": "Tasks completed by the scheduler, by job kind and how the result was obtained.",
        "labels": {
            "job": ("cell", "sweep", "stacked"),
            "status": ("computed", "cached"),
        },
        "unit": "tasks",
    },
    {
        "name": "repro_task_phase_duration_ms",
        "type": "histogram",
        "help": "Per-task phase wall time from the result's phase_seconds telemetry.",
        "labels": {
            "job": ("cell", "sweep", "stacked"),
            "phase": ("train", "attack", "eval"),
        },
        "unit": "milliseconds",
    },
    {
        "name": "repro_cache_requests_total",
        "type": "counter",
        "help": "Checkpoint and weight-cache operations, by cache kind and outcome.",
        "labels": {
            "cache": ("cell", "sweep", "weights"),
            "op": ("hit", "miss", "put"),
        },
        "unit": "operations",
    },
    {
        "name": "repro_queue_events_total",
        "type": "counter",
        "help": "Work-queue lifecycle events appended to the per-worker event streams.",
        "labels": {
            "event": (
                "claim", "steal", "commit", "cached", "duplicate", "failed",
                "retry", "quarantine", "handoff", "timeout",
                "cache_write_retry",
            ),
        },
        "unit": "events",
    },
    {
        "name": "repro_task_attempts",
        "type": "histogram",
        "help": "Attempts a queue task needed before it resolved — committed, or quarantined with its budget spent.",
        "labels": {"outcome": ("committed", "quarantined")},
        "unit": "attempts",
        "buckets": ATTEMPT_BUCKETS,
    },
    {
        "name": "repro_queue_depth",
        "type": "gauge",
        "help": "Tasks not yet committed in the queue this worker is draining, sampled each scheduling round.",
        "labels": {},
        "unit": "tasks",
    },
    {
        "name": "repro_search_rungs_total",
        "type": "counter",
        "help": "Successive-halving rungs executed.",
        "labels": {},
        "unit": "rungs",
    },
    {
        "name": "repro_search_promotions_total",
        "type": "counter",
        "help": "Per-cell promotion decisions at each non-final rung.",
        "labels": {"outcome": ("promoted", "pruned")},
        "unit": "cells",
    },
    {
        "name": "repro_search_warm_starts_total",
        "type": "counter",
        "help": "Warm-start initialisations of promoted cells, by weight provenance.",
        "labels": {"source": ("self", "neighbor")},
        "unit": "cells",
    },
)
"""Every metric the engine emits: name, type, label names with their
value vocabulary, and unit.  ``docs/observability.md`` documents exactly
this list; ``scripts/check_docs.py`` fails if either side drifts."""


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_number(value: float) -> str:
    """Prometheus-style number rendering: integers without a decimal point."""
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _render_labels(labelnames: tuple[str, ...], labelvalues: tuple[str, ...],
                   extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = [
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(labelnames, labelvalues)
    ]
    pairs.extend(f'{name}="{_escape_label_value(value)}"' for name, value in extra)
    if not pairs:
        return ""
    return "{" + ",".join(pairs) + "}"


# ---------------------------------------------------------------------------
# The store: one sample per catalogue name and label values, held in the
# exact form a snapshot carries it, behind one lock.
# ---------------------------------------------------------------------------

_CATALOG_BY_NAME = {entry["name"]: entry for entry in CATALOG}
_LOCK = threading.Lock()
_STORE: dict[str, dict[tuple[str, ...], dict]] = {}


def _buckets(entry: dict) -> tuple[float, ...]:
    return tuple(entry.get("buckets") or LATENCY_BUCKETS_MS)


def _sample(name: str, labels: dict) -> dict:
    """Get or create the sample of ``name`` for ``labels``; the caller
    holds :data:`_LOCK`.  Label values are keyed in catalogue order."""
    entry = _CATALOG_BY_NAME[name]
    key = tuple(str(labels[label]) for label in entry["labels"])
    samples = _STORE.setdefault(name, {})
    sample = samples.get(key)
    if sample is None:
        sample = {"labels": dict(zip(entry["labels"], key))}
        if entry["type"] == "histogram":
            sample.update(counts=[0] * (len(_buckets(entry)) + 1), sum=0.0, count=0)
        else:
            sample["value"] = 0.0
        samples[key] = sample
    return sample


def _add(name: str, amount: float = 1.0, **labels: str) -> None:
    """Increment a counter sample (merge semantics: sum)."""
    with _LOCK:
        _sample(name, labels)["value"] += amount


def _set(name: str, value: float) -> None:
    """Unlabelled gauge sample (merge semantics: max — N workers
    observing the same queue's depth would overcount if summed)."""
    with _LOCK:
        _sample(name, {})["value"] = float(value)


def _observe(name: str, value: float, **labels: str) -> None:
    """Count ``value`` in the first bucket whose upper bound is >= it
    (the last slot is ``+Inf``).  Counts stay non-cumulative, so merging
    is element-wise addition; :func:`render_snapshot_text` re-cumulates
    them."""
    with _LOCK:
        sample = _sample(name, labels)
        buckets = _buckets(_CATALOG_BY_NAME[name])
        slot = next((i for i, bound in enumerate(buckets) if value <= bound), len(buckets))
        sample["counts"][slot] += 1
        sample["sum"] += value
        sample["count"] += 1


def _copy_sample(sample: dict) -> dict:
    copy = dict(sample, labels=dict(sample["labels"]))
    if "counts" in copy:
        copy["counts"] = list(copy["counts"])
    return copy


def snapshot(worker: str | None = None) -> dict:
    """JSON-friendly copy of everything recorded in this process:
    metrics sorted by name, samples by label values."""
    with _LOCK:
        metrics: dict[str, dict] = {}
        for name in sorted(_STORE):
            entry = _CATALOG_BY_NAME[name]
            samples = _STORE[name]
            family = {
                "type": entry["type"],
                "help": entry["help"],
                "labelnames": list(entry["labels"]),
                "samples": [_copy_sample(samples[key]) for key in sorted(samples)],
            }
            if entry["type"] == "histogram":
                family["buckets"] = list(_buckets(entry))
            metrics[name] = family
    return {
        "version": SNAPSHOT_VERSION,
        "worker": worker if worker is not None else snapshot_worker_id(),
        "metrics": metrics,
    }


def render_snapshot_text(snapshot: dict) -> str:
    """Render a snapshot dict (from :func:`snapshot` or
    :func:`merge_snapshots`) in the Prometheus text exposition format."""
    lines: list[str] = []
    for name in sorted(snapshot["metrics"]):
        family = snapshot["metrics"][name]
        kind = family["type"]
        labelnames = tuple(family["labelnames"])
        lines.append(f"# HELP {name} {_escape_help(family['help'])}")
        lines.append(f"# TYPE {name} {kind}")
        for sample in family["samples"]:
            labelvalues = tuple(sample["labels"][ln] for ln in labelnames)
            if kind == "histogram":
                bounds = [*family["buckets"], float("inf")]
                cumulative = 0
                for bound, count in zip(bounds, sample["counts"]):
                    cumulative += count
                    le = _format_number(bound)
                    labels = _render_labels(labelnames, labelvalues, (("le", le),))
                    lines.append(f"{name}_bucket{labels} {cumulative}")
                labels = _render_labels(labelnames, labelvalues)
                lines.append(f"{name}_sum{labels} {_format_number(sample['sum'])}")
                lines.append(f"{name}_count{labels} {sample['count']}")
            else:
                labels = _render_labels(labelnames, labelvalues)
                lines.append(f"{name}{labels} {_format_number(sample['value'])}")
    return "\n".join(lines) + ("\n" if lines else "")


def merge_snapshots(snapshots: list[dict]) -> dict:
    """Merge per-worker snapshots into one fleet view.

    Counters and histograms sum; gauges take the max.  Both operations
    are associative and commutative, so any merge order (including
    incremental re-merges) yields the same fleet view.  Mixing
    incompatible definitions of the same metric name (different type,
    labels or buckets) is an error, not a silent coercion.
    """
    merged: dict[str, dict] = {}
    workers: list[str] = []
    for snap in snapshots:
        worker = snap.get("worker", "")
        if worker and worker not in workers:
            workers.append(worker)
        for name, family in snap.get("metrics", {}).items():
            target = merged.get(name)
            if target is None:
                target = {
                    "type": family["type"],
                    "help": family["help"],
                    "labelnames": list(family["labelnames"]),
                    "samples": [],
                }
                if family["type"] == "histogram":
                    target["buckets"] = list(family["buckets"])
                merged[name] = target
            else:
                if target["type"] != family["type"] or target["labelnames"] != list(
                    family["labelnames"]
                ):
                    raise ValueError(
                        f"cannot merge metric {name}: conflicting definitions "
                        f"({target['type']}{tuple(target['labelnames'])} vs "
                        f"{family['type']}{tuple(family['labelnames'])})"
                    )
                if family["type"] == "histogram" and target["buckets"] != list(
                    family["buckets"]
                ):
                    raise ValueError(
                        f"cannot merge histogram {name}: bucket boundaries differ"
                    )
            by_labels = {
                tuple(sorted(sample["labels"].items())): sample
                for sample in target["samples"]
            }
            for sample in family["samples"]:
                key = tuple(sorted(sample["labels"].items()))
                existing = by_labels.get(key)
                if existing is None:
                    copy = _copy_sample(sample)
                    target["samples"].append(copy)
                    by_labels[key] = copy
                elif family["type"] == "histogram":
                    existing["counts"] = [
                        a + b for a, b in zip(existing["counts"], sample["counts"])
                    ]
                    existing["sum"] += sample["sum"]
                    existing["count"] += sample["count"]
                elif family["type"] == "gauge":
                    existing["value"] = max(existing["value"], sample["value"])
                else:
                    existing["value"] += sample["value"]
    for family in merged.values():
        family["samples"].sort(key=lambda s: tuple(sorted(s["labels"].items())))
    return {
        "version": SNAPSHOT_VERSION,
        "worker": ",".join(workers),
        "metrics": dict(sorted(merged.items())),
    }


# ---------------------------------------------------------------------------
# Configuration, snapshot files and the engine's recording helpers.
# ---------------------------------------------------------------------------

_METRICS_DIR: str | None = None

_WORKER_ENV = "REPRO_QUEUE_WORKER"  # mirrors repro.engine.queue (no import: cycle)


def configure_metrics(directory: str | os.PathLike) -> None:
    """Enable metrics collection, flushing snapshots into ``directory``.

    Creates the directory eagerly so a bad ``--metrics-dir`` fails at
    startup, not after a long run.  Idempotent; call
    :func:`reset_metrics` to disable again (tests do).
    """
    global _METRICS_DIR
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    _METRICS_DIR = directory


def metrics_enabled() -> bool:
    return _METRICS_DIR is not None


def metrics_dir() -> str | None:
    return _METRICS_DIR


def reset_metrics(keep_dir: bool = False) -> None:
    """Clear all recorded values; optionally keep the configured
    directory.  ``keep_dir=True`` is how forked pool workers drop the
    counts inherited from the parent (flushing them again would
    double-count on merge) while staying configured to flush their own."""
    global _METRICS_DIR
    with _LOCK:
        _STORE.clear()
    if not keep_dir:
        _METRICS_DIR = None


def snapshot_worker_id() -> str:
    """Stable-ish identity for this process's snapshot files.

    The queue's ``REPRO_QUEUE_WORKER`` pin wins when set (fleet metrics
    then line up with the event streams); otherwise ``hostname-pid``.
    Computed at call time, never cached: a forked pool worker must not
    inherit its parent's id.
    """
    pinned = os.environ.get(_WORKER_ENV, "").strip()
    if pinned:
        raw = pinned
    else:
        raw = f"{socket.gethostname()}-{os.getpid()}"
    return "".join(c if (c.isalnum() or c in "-_.") else "-" for c in raw) or "worker"


def flush_metrics() -> str | None:
    """Atomically write this process's snapshot pair into the metrics dir.

    Writes ``metrics_<worker>.prom`` (Prometheus text) and a
    ``metrics_<worker>.json`` twin (the merge input), both via
    :func:`repro.utils.atomic.write_atomic` so a concurrently running
    ``cache metrics`` never reads a half-written file.  Returns the
    ``.prom`` path, or ``None`` when metrics are disabled.  Safe to call
    repeatedly — each flush replaces the previous snapshot wholesale.
    """
    directory = _METRICS_DIR
    if directory is None:
        return None
    worker = snapshot_worker_id()
    snap = snapshot(worker=worker)
    text = render_snapshot_text(snap)
    prom_path = os.path.join(directory, f"metrics_{worker}.prom")
    json_path = os.path.join(directory, f"metrics_{worker}.json")
    for path, payload in ((json_path, json.dumps(snap, indent=2) + "\n"), (prom_path, text)):
        try:
            write_atomic(path, payload)
        except OSError:
            # Telemetry must never abort the computation (full disk,
            # directory deleted mid-run): drop the snapshot silently.
            return None
    return prom_path


def load_snapshot(path: str | os.PathLike) -> dict:
    """Read one ``metrics_*.json`` snapshot file."""
    with open(path, encoding="utf-8") as handle:
        snap = json.load(handle)
    if not isinstance(snap, dict) or "metrics" not in snap:
        raise ValueError(f"{os.fspath(path)} is not a metrics snapshot")
    return snap


def read_metrics_dir(directory: str | os.PathLike) -> list[dict]:
    """Load every per-worker JSON snapshot under ``directory`` (sorted by
    filename, so the merge is reproducible)."""
    directory = os.fspath(directory)
    snapshots = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("metrics_") and name.endswith(".json"):
            snapshots.append(load_snapshot(os.path.join(directory, name)))
    return snapshots


def record_task(task, result, cached: bool) -> None:
    """Count one completed task and fold its ``phase_seconds`` telemetry
    into the latency histograms.  The ``job`` label is the task's family
    (``cell`` or ``sweep``), or ``stacked`` for a cell of a fused stack.
    Cached tasks count toward ``repro_tasks_total`` only — their phases
    were not re-run."""
    if _METRICS_DIR is None:
        return
    job = "stacked" if getattr(result, "stack_size", 1) > 1 else task.family
    status = "cached" if cached else "computed"
    _add("repro_tasks_total", job=job, status=status)
    if cached:
        return
    phases = getattr(result, "phase_seconds", None) or {}
    with _LOCK:
        # A computed task lists the phase family even when it reports no phase.
        _STORE.setdefault("repro_task_phase_duration_ms", {})
    for key, seconds in phases.items():
        phase = key[:-2] if key.endswith("_s") else key
        if not isinstance(seconds, (int, float)):
            continue
        _observe(
            "repro_task_phase_duration_ms", float(seconds) * 1000.0,
            job=job, phase=phase,
        )


def record_cache(kind: str, op: str) -> None:
    """One cache operation: ``kind`` in cell/sweep/weights, ``op`` in
    hit/miss/put."""
    if _METRICS_DIR is None:
        return
    _add("repro_cache_requests_total", cache=kind, op=op)


def record_queue_event(event: str) -> None:
    """One work-queue lifecycle event (claim/steal/commit/cached/
    duplicate/failed/retry/quarantine/handoff/timeout/cache_write_retry)
    — recorded exactly where the JSONL event stream is appended, so
    metrics and ``cache watch`` always agree."""
    if _METRICS_DIR is None:
        return
    _add("repro_queue_events_total", event=event)


def record_task_attempts(outcome: str, attempts: int) -> None:
    """Observe how many attempts a task needed to resolve.

    ``outcome`` is ``committed`` (recorded by the worker whose commit
    marker won, with the attempt number that succeeded) or
    ``quarantined`` (recorded once, by the worker that created the
    quarantine marker, with the budget-exhausting attempt count).
    Cache-served replays are not observed — they spent no attempt.
    """
    if _METRICS_DIR is None:
        return
    _observe("repro_task_attempts", float(attempts), outcome=outcome)


def set_queue_depth(depth: int) -> None:
    """Sample the number of not-yet-committed tasks in the queue."""
    if _METRICS_DIR is None:
        return
    _set("repro_queue_depth", depth)


def record_search_rung() -> None:
    if _METRICS_DIR is None:
        return
    _add("repro_search_rungs_total")


def record_search_promotion(outcome: str, count: int = 1) -> None:
    """``outcome`` in promoted/pruned; ``count`` cells at once."""
    if _METRICS_DIR is None or count <= 0:
        return
    _add("repro_search_promotions_total", count, outcome=outcome)


def record_search_warm_start(source: str) -> None:
    """``source``: ``self`` (own lower-budget checkpoint, bitwise resume)
    or ``neighbor`` (nearest compatible cell's archive)."""
    if _METRICS_DIR is None:
        return
    _add("repro_search_warm_starts_total", source=source)
