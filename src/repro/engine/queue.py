"""Elastic fleet: a filesystem-backed work-stealing task queue.

Static ``--shard I/N`` partitioning (:mod:`repro.engine.shard`) strands
wall-clock when cell costs are skewed: the slowest host finishes last
while the others idle.  This module replaces the *static* partition with
a *dynamic* one — any number of workers, on any host sharing a
filesystem, join one queue directory and claim tasks as they go.  The
static shard remains the degenerate pre-partitioned mode; because every
task carries its own derived seeds, the two (and a serial run) produce
byte-identical results.

The protocol is plain files and three atomic primitives, so it needs no
server and no locks held across work.  Every lease and marker is
written through :mod:`repro.utils.atomic` and scanned by
:func:`~repro.engine.resilience.scan_markers`:

* **claim** — a worker creates ``lease_<index>.json`` *exclusively*
  (:func:`~repro.utils.atomic.create_exclusive`: hard-link of a private
  temp file, the portable ``O_CREAT|O_EXCL`` with full content):
  exactly one claimer wins.  The lease records owner, pid, host,
  acquire time, heartbeat and TTL.
* **heartbeat** — a daemon thread rewrites each held lease
  (:func:`~repro.utils.atomic.write_atomic`) every ``ttl/4`` seconds.
  A lease whose heartbeat is older than its TTL is *expired*: its
  owner is presumed dead (SIGKILL, OOM, unplugged host).
* **steal** — a worker renames an expired lease to a private tombstone
  (``os.rename``: exactly one renamer succeeds) and then claims the
  freed task normally.  Losing either race just means someone else got
  there first.
* **commit** — the task's result checkpoint is written through the
  existing :class:`~repro.engine.cache.CellCache` atomic write, then a
  ``done_<index>.json`` marker is created exclusively.  The marker's
  creator is *the* committer; a second worker finishing the same task
  (possible when a presumed-dead owner was merely slow) records a
  ``duplicate`` event instead — harmless, because checkpoints are
  idempotent and byte-identical.

Every worker also streams an append-only JSONL **event log**
(``events_<worker>.jsonl`` in the queue directory): one line per claim,
steal, commit, cache-hit and duplicate, carrying the task's checkpoint
fingerprint, a sha256 checksum of the committed checkpoint bytes and the
per-phase wall-clock timings.  :func:`merge_event_logs` /
:func:`queue_status` merge the streams into a live coordinator view
(``cache watch`` on the CLI).  A reader must survive a crash mid-append:
:func:`read_events` skips a truncated final line with a warning instead
of raising.

Detection alone is not recovery: :mod:`repro.engine.resilience`
supplies the supervision layer on top of this protocol — failed
attempts are recorded (``attempt_<i>_<n>.json``) and retried with
deterministic backoff, tasks that exhaust their attempt budget are
**quarantined** (``quarantined_<i>.json``, the rest of the grid still
completes), SIGTERM/SIGINT drains the worker gracefully with a
``handoff_<i>.json`` tombstone so peers reclaim the lease without
waiting out the TTL, and a watchdog aborts phases that blow their
cost-model-priced deadline.  A fully-healthy run takes none of those
paths and stays byte-identical to an unsupervised one.

See ``docs/sharding.md`` for the operational walkthrough and
``tests/test_fleet_faults.py`` for the fault-injection proof (a worker
SIGKILLed mid-lease; survivors steal and finish; results byte-identical
to the serial reference).
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import threading
import time
import traceback
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.engine.metrics import (
    flush_metrics,
    record_queue_event,
    record_task_attempts,
    set_queue_depth,
)
from repro.engine.resilience import (
    AttemptLedger,
    ChaosConfig,
    DrainGuard,
    ResilienceConfig,
    TaskTimeout,
    Watchdog,
    WorkerRetired,
    attempt_records,
    handoff_records,
    quarantined_indices,
    scan_markers,
)
from repro.engine.stacking import plan_units
from repro.errors import ReproError
from repro.utils.atomic import create_exclusive, read_json, write_atomic
from repro.utils.logging import get_logger

__all__ = [
    "DEFAULT_LEASE_TTL",
    "QueueError",
    "QueueRunResult",
    "WorkQueue",
    "merge_event_logs",
    "queue_status",
    "read_events",
    "run_queued_tasks",
]

_logger = get_logger("engine")

DEFAULT_LEASE_TTL = 60.0
"""Seconds without a heartbeat after which a lease counts as abandoned."""

QUEUE_MANIFEST_NAME = "queue.json"
"""Filename of the queue identity manifest inside a queue directory."""

_QUEUE_VERSION = 1

_WORKER_ENV = "REPRO_QUEUE_WORKER"
"""Environment override for the worker id (tests pin it for determinism)."""


class QueueError(ReproError):
    """Raised when a worker cannot join or serve a work queue."""


def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() or c in "._-" else "-" for c in name)


def default_worker_id() -> str:
    """``<hostname>-<pid>``, unless :data:`_WORKER_ENV` overrides it."""
    override = os.environ.get(_WORKER_ENV)
    if override:
        return _sanitize(override)
    return _sanitize(f"{socket.gethostname()}-{os.getpid()}")


def read_events(path: str | Path) -> list[dict]:
    """Parse one ``events_*.jsonl`` stream, surviving a crash mid-append.

    A worker killed between ``write()`` and the newline leaves a
    truncated final line; a reader that raised on it would wedge the
    coordinator view exactly when it is most needed.  Any unparseable
    line — final or not — is skipped with a warning; everything else is
    returned in file order.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError:
        return []
    events: list[dict] = []
    lines = text.splitlines()
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except ValueError:
            kind = "truncated final" if number == len(lines) else "corrupt"
            _logger.warning(
                "skipping %s line %d of event log %s (crash mid-append?)",
                kind, number, path,
            )
            continue
        if isinstance(event, dict):
            events.append(event)
    return events


def merge_event_logs(directory: str | Path) -> list[dict]:
    """Union every worker's event stream in a queue directory, by time."""
    directory = Path(directory)
    events: list[dict] = []
    for path in sorted(directory.glob("events_*.jsonl")):
        events.extend(read_events(path))
    events.sort(key=lambda e: (float(e.get("time", 0.0)), str(e.get("worker", ""))))
    return events


@dataclass(frozen=True)
class QueueSnapshot:
    """One scan of a queue directory's protocol files."""

    done: frozenset[int]
    """Task indices with a commit marker."""

    active: dict[int, dict]
    """Unexpired leases: ``index -> lease payload`` (done tasks excluded)."""

    expired: dict[int, dict]
    """Stale leases ripe for stealing: ``index -> lease payload``."""


class _QueueView:
    """Read-only view of a queue directory's leases and commit markers.

    :class:`WorkQueue` is one worker's view; :func:`queue_status` scans
    through a bare one, so workers and the coordinator classify leases
    by one rule.  ``clock`` is injectable so the invariant tests can
    drive expiry deterministically.
    """

    def __init__(self, directory: str | Path, *, lease_ttl: float = DEFAULT_LEASE_TTL,
                 clock: Callable[[], float] = time.time) -> None:
        self.directory = Path(directory)
        self.lease_ttl = float(lease_ttl)
        self.clock = clock
        # When this view first observed a torn (unparseable) lease per
        # task — caps the synthetic heartbeat below so a torn lease can
        # never stall the queue longer than one TTL of observation.
        self._torn_first_seen: dict[int, float] = {}

    def lease_path(self, index: int) -> Path:
        return self.directory / f"lease_{int(index)}.json"

    def done_path(self, index: int) -> Path:
        return self.directory / f"done_{int(index)}.json"

    def read_lease(self, index: int) -> dict | None:
        """The lease payload, or ``None`` when the task is unleased.

        An unparseable lease (a claimer died inside the claim itself, or
        the file is mid-``os.replace`` on a non-atomic filesystem) still
        *blocks* the task — but only for one TTL: the synthetic
        heartbeat is the *older* of the file's mtime and the moment this
        worker first observed the torn file, so even a skewed mtime (a
        writer's clock running ahead) expires the lease one TTL after
        first sight and it is tombstoned through the normal steal path,
        exactly like a dead worker's.
        """
        path = self.lease_path(index)
        payload = read_json(path)
        if payload is not None:
            self._torn_first_seen.pop(int(index), None)
            return payload
        try:
            mtime = path.stat().st_mtime
        except OSError:
            self._torn_first_seen.pop(int(index), None)
            return None
        first_seen = self._torn_first_seen.setdefault(int(index), self.clock())
        return {"task_index": int(index), "owner": "",
                "heartbeat": min(mtime, first_seen), "ttl": self.lease_ttl}

    def lease_expired(self, lease: dict) -> bool:
        """Whether a lease payload's heartbeat is older than its TTL."""
        heartbeat = float(lease.get("heartbeat", 0.0))
        ttl = float(lease.get("ttl", self.lease_ttl))
        return self.clock() - heartbeat > ttl

    def is_done(self, index: int) -> bool:
        return self.done_path(index).exists()

    def done_indices(self) -> set[int]:
        """Task indices with a commit marker in the queue directory."""
        return {index for index, _ in scan_markers(self.directory, "done_")}

    def snapshot(self) -> QueueSnapshot:
        """Scan the directory once: done markers, live and stale leases."""
        done = self.done_indices()
        active: dict[int, dict] = {}
        expired: dict[int, dict] = {}
        for index, _ in scan_markers(self.directory, "lease_"):
            if index in done:
                continue  # post-commit stragglers; nobody waits on these
            lease = self.read_lease(index)
            if lease is None:
                continue
            (expired if self.lease_expired(lease) else active)[index] = lease
        return QueueSnapshot(done=frozenset(done), active=active, expired=expired)


class WorkQueue(_QueueView):
    """One worker's handle on a shared queue directory.

    Opening the handle creates the directory and its identity manifest
    (``queue.json``: experiment, context fingerprint, task count) — or
    validates it, so a worker pointed at a queue serving a *different*
    grid aborts instead of interleaving incompatible results.

    The handle owns this worker's event log and lease bookkeeping; the
    scheduling loop lives in :func:`run_queued_tasks`.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        experiment: str,
        fingerprint: str,
        task_count: int,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        worker: str | None = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        # The scheduler owns every run-option rule and imports this module.
        from repro.engine.scheduler import check_run_options

        check_run_options(lease_ttl=lease_ttl)
        super().__init__(directory, lease_ttl=lease_ttl, clock=clock)
        self.experiment = str(experiment)
        self.fingerprint = str(fingerprint)
        self.task_count = int(task_count)
        self.worker = _sanitize(worker) if worker else default_worker_id()
        self.directory.mkdir(parents=True, exist_ok=True)
        self._join()

    # -- identity --------------------------------------------------------------

    def _join(self) -> None:
        identity = {
            "version": _QUEUE_VERSION,
            "experiment": self.experiment,
            "fingerprint": self.fingerprint,
            "task_count": self.task_count,
        }
        path = self.directory / QUEUE_MANIFEST_NAME
        # Concurrent first joiners write identical bytes, so losing the
        # creation race is indistinguishable from arriving second.
        if not create_exclusive(path, json.dumps(identity, sort_keys=True)):
            existing = read_json(path)
            if existing is None:
                raise QueueError(
                    f"queue manifest {path} exists but is unreadable; "
                    "remove the directory to start a fresh queue"
                )
            mismatched = {
                key: (existing.get(key), identity[key])
                for key in ("experiment", "fingerprint", "task_count")
                if existing.get(key) != identity[key]
            }
            if mismatched:
                detail = ", ".join(
                    f"{key}: queue has {theirs!r}, this run has {ours!r}"
                    for key, (theirs, ours) in sorted(mismatched.items())
                )
                raise QueueError(
                    f"queue {self.directory} serves a different task list "
                    f"({detail}); point --queue at a fresh directory"
                )

    @property
    def events_path(self) -> Path:
        return self.directory / f"events_{self.worker}.jsonl"

    # -- events ----------------------------------------------------------------

    def append_event(self, event: str, index: int | None = None, **extra) -> None:
        """Append one JSONL line to this worker's event stream (best effort).

        Every event also bumps ``repro_queue_events_total`` — metrics and
        the ``cache watch`` view always agree because they share this one
        recording site.
        """
        record_queue_event(event)
        payload = {"event": event, "worker": self.worker, "time": self.clock()}
        if index is not None:
            payload["task"] = int(index)
        payload.update(extra)
        try:
            with open(self.events_path, "a") as stream:
                stream.write(json.dumps(payload, sort_keys=True) + "\n")
        except OSError as error:
            _logger.warning("event log append failed (run unaffected): %s", error)

    # -- leases ----------------------------------------------------------------

    def _lease_payload(self, index: int) -> dict:
        now = self.clock()
        return {
            "task_index": int(index),
            "owner": self.worker,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "acquired": now,
            "heartbeat": now,
            "ttl": self.lease_ttl,
        }

    def claim(self, index: int) -> bool:
        """Try to lease an unleased task; ``True`` iff this worker won."""
        if self.is_done(index):
            return False
        return create_exclusive(self.lease_path(index),
                                json.dumps(self._lease_payload(index), sort_keys=True))

    def handed_off(self, index: int, lease: dict) -> bool:
        """Whether ``lease`` was gracefully released by a retired worker.

        A retiring worker writes a ``handoff_<i>.json`` tombstone before
        releasing its lease; if the release itself failed (or a reader
        races it), peers must treat the lease as expired *immediately*
        instead of waiting out the TTL.  Matching is by owner and
        acquire time so a later re-claim by the same worker id is not
        shot down by a stale tombstone.
        """
        payload = read_json(self.directory / f"handoff_{int(index)}.json")
        if payload is None:
            return False
        return (
            str(payload.get("worker", "")) == str(lease.get("owner", ""))
            and float(payload.get("time", 0.0)) >= float(lease.get("acquired", 0.0))
        )

    def steal(self, index: int) -> bool:
        """Take over an *expired or handed-off* lease; ``True`` iff this
        worker now holds it.

        Exactly-one-stealer: the expired lease is renamed to a private
        tombstone first (one renamer succeeds; the losers see
        ``FileNotFoundError`` and back off), then the freed slot is
        claimed normally — which can still lose to a concurrent fresh
        claimer, and that is fine.
        """
        lease = self.read_lease(index)
        if lease is None:
            return False
        if not self.lease_expired(lease) and not self.handed_off(index, lease):
            return False
        tombstone = self.directory / f".lease_{int(index)}.stolen.{self.worker}.{os.getpid()}"
        try:
            os.rename(self.lease_path(index), tombstone)
        except OSError:
            return False  # another stealer (or the release) got there first
        tombstone.unlink(missing_ok=True)
        if not self.claim(index):
            return False
        self.append_event("steal", index, victim=str(lease.get("owner", "")))
        return True

    def acquire(self, index: int) -> tuple[bool, bool]:
        """Claim a task, stealing its lease if abandoned.

        Returns ``(acquired, stolen)``.  A fresh claim logs a ``claim``
        event; a successful steal logs ``steal``.
        """
        if self.is_done(index):
            return False, False
        lease = self.read_lease(index)
        if lease is None:
            if self.claim(index):
                self.append_event("claim", index)
                return True, False
            return False, False
        if (self.lease_expired(lease) or self.handed_off(index, lease)) \
                and self.steal(index):
            return True, True
        return False, False

    def refresh(self, index: int) -> bool:
        """Re-stamp a held lease's heartbeat; ``True`` iff still held.

        Refuses when the lease vanished or changed owner (it was stolen
        because *we* were presumed dead — the thief now owns the task,
        and resurrecting the lease would fight it).
        """
        path = self.lease_path(index)
        lease = read_json(path)
        if lease is None or lease.get("owner") != self.worker:
            return False
        lease["heartbeat"] = self.clock()
        try:
            write_atomic(path, json.dumps(lease, sort_keys=True))
        except OSError:
            return False
        return True

    def release(self, index: int) -> None:
        """Drop this worker's lease (no-op when already gone or stolen)."""
        lease = read_json(self.lease_path(index))
        if lease is not None and lease.get("owner") == self.worker:
            self.lease_path(index).unlink(missing_ok=True)

    # -- commits ---------------------------------------------------------------

    def commit(
        self,
        index: int,
        *,
        fingerprint: str = "",
        checksum: str = "",
        elapsed: float | None = None,
        phase_seconds: dict | None = None,
        cached: bool = False,
    ) -> bool:
        """Record a task as done, exactly once across the whole fleet.

        The ``done_<index>.json`` marker is created exclusively: its
        creator logs a ``commit`` (or ``cached``) event and returns
        ``True``; anyone else logs a ``duplicate`` — which happens when
        a slow-but-alive owner finishes after its lease was stolen, and
        is harmless because the checkpoint writes are idempotent.
        """
        marker = {
            "task_index": int(index),
            "worker": self.worker,
            "time": self.clock(),
            "fingerprint": str(fingerprint),
            "checksum": str(checksum),
        }
        detail = {
            "fingerprint": str(fingerprint),
            "checksum": str(checksum),
            "elapsed_s": None if elapsed is None else round(float(elapsed), 6),
            "phase_seconds": dict(phase_seconds or {}),
        }
        if create_exclusive(self.done_path(index), json.dumps(marker, sort_keys=True)):
            self.append_event("cached" if cached else "commit", index, **detail)
            return True
        self.append_event("duplicate", index, **detail)
        return False

    def quarantined_indices(self) -> set[int]:
        """Task indices carrying a quarantine marker (attempt budget spent)."""
        return quarantined_indices(self.directory)

    @property
    def complete(self) -> bool:
        """Whether every declared task is *resolved*: committed, or
        quarantined after exhausting its attempt budget (the fleet is
        done with it either way — a quarantined cell will never commit,
        and waiting on it would hang every worker forever)."""
        done = self.done_indices()
        if len(done) >= self.task_count:
            return True
        return len(done | self.quarantined_indices()) >= self.task_count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WorkQueue({str(self.directory)!r}, experiment={self.experiment!r}, "
            f"worker={self.worker!r}, tasks={self.task_count})"
        )


class _HeartbeatThread(threading.Thread):
    """Daemon re-stamping the worker's held leases every ``ttl/4``.

    Runs beside the (potentially minutes-long) task evaluation so the
    lease outlives any single training phase; dies with the process, so
    a SIGKILLed worker stops heartbeating and its lease expires.
    """

    def __init__(self, queue: WorkQueue) -> None:
        super().__init__(daemon=True, name=f"queue-heartbeat-{queue.worker}")
        self._queue = queue
        self._interval = max(queue.lease_ttl / 4.0, 0.05)
        self._held: set[int] = set()
        self._lock = threading.Lock()
        self._stop = threading.Event()

    def hold(self, index: int) -> None:
        with self._lock:
            self._held.add(int(index))

    def drop(self, index: int) -> None:
        with self._lock:
            self._held.discard(int(index))

    def held(self) -> set[int]:
        with self._lock:
            return set(self._held)

    def run(self) -> None:
        while not self._stop.wait(self._interval):
            for index in self.held():
                self._queue.refresh(index)

    def stop(self) -> None:
        self._stop.set()


@dataclass(frozen=True)
class QueueRunResult:
    """What one queue worker contributed (instead of a figure).

    Like a :class:`~repro.engine.shard.ShardRunResult`, a queue worker
    cannot render the full figure — other workers computed part of it —
    so it returns this summary; the figure is rendered afterwards by a
    ``--resume`` run against the shared cache directory.
    """

    experiment: str
    worker: str
    queue_dir: str
    task_count: int
    """Length of the full task list served by the queue."""

    committed: tuple[int, ...]
    """Task ids whose commit marker *this worker* created."""

    stolen: int
    """How many of those came from stealing an expired lease."""

    manifest_path: str | None
    """Where :func:`~repro.engine.scheduler.run_tasks` certified the
    completion manifest (for ``cache verify``)."""

    events_path: str
    """This worker's JSONL event stream."""

    quarantined: tuple[int, ...] = ()
    """Task ids quarantined fleet-wide when this worker left: they
    exhausted their attempt budget and will never commit.  Non-empty
    means the run must exit with the quarantine code, not success."""

    handoffs: int = 0
    """Leases this worker handed off while retiring gracefully."""

    metadata: dict = field(default_factory=dict)
    """``queue_complete`` (and ``retired``), plus the engine accounting
    that :func:`~repro.engine.scheduler.run_tasks` adds under ``engine``,
    the same shape as the full-run results carry."""

    @property
    def complete(self) -> bool:
        """Whether the whole queue was complete when this worker left."""
        return bool(self.metadata.get("queue_complete"))

    def render(self) -> str:
        """One-paragraph text summary of this worker's queue run."""
        lines = [
            f"queue worker '{self.worker}' on experiment '{self.experiment}': "
            f"committed {len(self.committed)}/{self.task_count} tasks"
            + (f" ({self.stolen} stolen)" if self.stolen else ""),
            f"queue: {self.queue_dir}",
            f"events: {self.events_path}",
        ]
        if self.manifest_path:
            lines.append(f"manifest: {self.manifest_path}")
        if self.handoffs:
            lines.append(
                f"retired gracefully on {self.metadata.get('retired', 'signal')}"
                f" — {self.handoffs} lease(s) handed off for immediate reclaim"
            )
        if self.quarantined:
            cells = ", ".join(str(i) for i in self.quarantined)
            lines.append(
                f"{len(self.quarantined)} task(s) QUARANTINED after exhausting "
                f"retries: [{cells}] — inspect with `cache watch --queue DIR "
                "--json` (attempt history travels in quarantined_<i>.json)"
            )
        if self.complete:
            lines.append(
                "queue complete — render figures via a --resume run against "
                "the shared cache directory"
            )
        else:
            lines.append(
                "queue not yet complete — other workers are still serving it "
                "(watch with `cache watch --queue DIR`)"
            )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """JSON-friendly representation."""
        return {
            "experiment": self.experiment,
            "worker": self.worker,
            "queue_dir": self.queue_dir,
            "task_count": self.task_count,
            "committed": list(self.committed),
            "stolen": self.stolen,
            "quarantined": list(self.quarantined),
            "handoffs": self.handoffs,
            "manifest_path": self.manifest_path,
            "events_path": self.events_path,
            "metadata": dict(self.metadata),
        }


def _checkpoint_digest(path: Path) -> str:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return ""


class _CorruptCheckpoint(Exception):
    """A just-written checkpoint failed read-back verification."""

    def __init__(self, index: int) -> None:
        super().__init__(f"checkpoint for task {index} failed verification")
        self.index = int(index)


def run_queued_tasks(
    context,
    tasks: Sequence,
    run_fn: Callable,
    cache,
    queue_dir: str | Path,
    *,
    experiment: str,
    resume: bool = False,
    record: Callable | None = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    worker: str | None = None,
    stack: int = 1,
    poll_interval: float | None = None,
    resilience: ResilienceConfig | None = None,
    task_deadline: Callable | None = None,
) -> QueueRunResult:
    """Serve a task list as one worker of a dynamic fleet.

    The queue backend of :func:`repro.engine.scheduler.run_tasks`, which
    plans the run, certifies the manifest and passes its recorder as
    ``record``.  The worker repeatedly scans the queue directory, claims
    (or steals) the first claimable tasks in list order (the plan's cost
    order), runs them, and commits each checkpoint plus an event-log
    line, calling ``record(task, result, cached)`` only for the commit
    markers it created — a completion that lost the marker race is a
    ``duplicate`` event.  It returns when every task is *resolved* —
    committed, or quarantined after exhausting its attempt budget —
    however many other workers contributed.

    ``cache`` is mandatory: in queue mode the checkpoint directory *is*
    the result transport between workers, so a failed cache write is a
    hard :class:`QueueError` (after one bounded retry), not the soft
    warning of the local scheduler; every computed checkpoint is also
    re-read and decode-verified before its commit marker is created, so
    a corrupt write becomes a retry instead of a poisoned merge.
    ``stack > 1`` claims up to that many cells per round and runs them
    as the units of :func:`~repro.engine.stacking.plan_units` —
    compatible ones fold through one variant-stack pass, bitwise
    identical per cell.  ``resume`` serves already-checkpointed tasks
    straight into commit markers, which makes a replay over a finished
    queue a no-op.

    ``resilience`` bundles the supervision knobs (attempt budget,
    backoff shape, watchdog pricing); ``task_deadline`` maps a task to
    its watchdog deadline in seconds (``run_tasks`` prices it from the
    cache's timings via :func:`repro.engine.costs.deadline_estimator`)
    — ``None`` leaves the watchdog off.  A failed attempt records an
    ``attempt_<i>_<n>.json`` file, releases the lease and re-enqueues
    the task behind a deterministic backoff; the attempt that exhausts
    the budget writes ``quarantined_<i>.json`` instead and the rest of
    the grid completes without the cell.  SIGTERM/SIGINT (main thread
    only) drains the worker: the in-flight phase aborts with
    :class:`~repro.engine.resilience.WorkerRetired`, its lease is handed
    off via ``handoff_<i>.json`` for immediate reclaim, and metrics are
    flushed on the way out.
    """
    from repro.engine.scheduler import check_run_options

    check_run_options(cache=cache, queue_dir=queue_dir)
    tasks = list(tasks)
    by_index = {task.index: task for task in tasks}
    queue = WorkQueue(
        queue_dir,
        experiment=experiment,
        fingerprint=cache.fingerprint,
        task_count=len(tasks),
        lease_ttl=lease_ttl,
        worker=worker,
    )
    poll = poll_interval if poll_interval is not None else min(
        max(lease_ttl / 4.0, 0.05), 0.5
    )
    supervision = resilience if resilience is not None else ResilienceConfig()
    policy = supervision.retry_policy()
    ledger = AttemptLedger(queue.directory, clock=queue.clock)
    chaos = ChaosConfig.from_env()
    committed: list[int] = []
    stolen = 0
    handoffs = 0
    retired: str | None = None

    def put_checkpoint(task, result, attempt: int) -> str:
        """Write the checkpoint durably: one bounded retry on a failed
        write, then a read-back decode proof whose digest becomes the
        commit marker's checksum (same bytes, same sha256 a healthy run
        always recorded)."""
        try:
            cache.put(task, result)
        except OSError as error:
            # Satellite contract: a transient ENOSPC/EROFS blip gets one
            # bounded retry before it is allowed to kill the worker.
            queue.append_event(
                "cache_write_retry", task.index,
                error=f"{type(error).__name__}: {error}",
            )
            policy.sleep(min(1.0, policy.backoff_base))
            try:
                cache.put(task, result)
            except OSError as retry_error:
                queue.append_event("failed", task.index,
                                   error=f"{type(retry_error).__name__}")
                raise QueueError(
                    f"cannot checkpoint task {task.index} into "
                    f"{cache.directory}: {retry_error} — in queue mode the "
                    "cache is the result transport, so this worker cannot "
                    "contribute"
                ) from retry_error
        path = cache.path_for(task)
        chaos.maybe_corrupt(path, task.index, attempt)
        digest = cache.verify(task)
        if digest is None:
            # Torn or unreadable on disk: drop it and burn an attempt so
            # the task retries instead of poisoning the merge.
            path.unlink(missing_ok=True)
            raise _CorruptCheckpoint(task.index)
        return digest

    def commit(task, result, *, cached: bool, attempt: int | None = None) -> None:
        digest: str | None = None
        if not cached:
            digest = put_checkpoint(task, result, attempt or 1)
        path = cache.path_for(task)
        created = queue.commit(
            task.index,
            fingerprint=path.name,
            checksum=digest if digest is not None else _checkpoint_digest(path),
            elapsed=getattr(result, "elapsed_seconds", None),
            phase_seconds=getattr(result, "phase_seconds", None),
            cached=cached,
        )
        if not created:
            # A peer committed first: counted only as
            # repro_queue_events_total{event="duplicate"}, never recorded.
            return
        committed.append(task.index)
        if attempt is not None:
            # Attempts-to-resolution histogram: computed commits
            # only — a cache-served replay spent no attempt.
            record_task_attempts("committed", attempt)
        if record is not None:
            record(task, result, cached)

    def dispose_failure(task, attempt: int, kind: str, error: str,
                        traceback_text: str = "") -> None:
        """Route one failed attempt: durable record, then retry-with-
        backoff or (budget spent) quarantine.  The lease is released by
        the round's ``finally``, so another worker serves the retry."""
        if kind == "timeout":
            queue.append_event("timeout", task.index, attempt=attempt,
                               error=error)
        if attempt >= policy.max_attempts:
            ledger.record_attempt(
                task.index, worker=queue.worker, kind=kind, error=error,
                traceback_text=traceback_text, not_before=None,
            )
            if ledger.quarantine(task.index, worker=queue.worker):
                queue.append_event("quarantine", task.index, attempts=attempt,
                                   error=error)
                record_task_attempts("quarantined", attempt)
                _logger.error(
                    "task %d quarantined after %d attempt(s): %s",
                    task.index, attempt, error,
                )
        else:
            delay = policy.backoff_delay(task.index, attempt)
            ledger.record_attempt(
                task.index, worker=queue.worker, kind=kind, error=error,
                traceback_text=traceback_text,
                not_before=queue.clock() + delay,
            )
            queue.append_event("retry", task.index, attempt=attempt,
                               error=error, backoff_s=round(delay, 3))

    watchdog = Watchdog() if task_deadline is not None else None
    if watchdog is not None:
        watchdog.start()
    drain = DrainGuard().install()

    def execute(group_tasks: list, runner: Callable[[], list]) -> None:
        """Run one claimed group under supervision.

        Crashes, watchdog timeouts and corrupt checkpoints burn an
        attempt and are routed through ``dispose_failure``;
        :class:`WorkerRetired` and :class:`QueueError` propagate (the
        round handler hands off / the worker dies, respectively).
        """
        attempt_by = {
            task.index: ledger.attempt_count(task.index) + 1
            for task in group_tasks
        }
        key = tuple(attempt_by)
        deadline: float | None = None
        if watchdog is not None:
            budget = sum(
                max(0.0, float(task_deadline(task) or 0.0))
                for task in group_tasks
            )
            deadline = budget if budget > 0 else None
        try:
            for task in group_tasks:
                chaos.maybe_fail(task.index, attempt_by[task.index])
            if deadline is not None:
                watchdog.arm(key, threading.get_ident(), deadline)
            try:
                with drain.task_region():
                    results = runner()
            finally:
                if deadline is not None:
                    watchdog.disarm(key)
            for task, result in zip(group_tasks, results):
                commit(task, result, cached=False,
                       attempt=attempt_by[task.index])
        except (WorkerRetired, QueueError):
            raise
        except TaskTimeout:
            for task in group_tasks:
                if queue.is_done(task.index):
                    continue
                dispose_failure(
                    task, attempt_by[task.index], "timeout",
                    f"phase exceeded its {deadline or 0.0:.1f}s watchdog "
                    "deadline",
                )
        except _CorruptCheckpoint as corrupt:
            # Only the corrupt task burns an attempt; group members
            # committed before it stay committed, later ones recompute
            # next round without an attempt record.
            dispose_failure(
                by_index[corrupt.index], attempt_by[corrupt.index], "corrupt",
                "checkpoint failed read-back verification after write",
            )
        except Exception as error:
            traceback_text = traceback.format_exc()
            for task in group_tasks:
                if queue.is_done(task.index):
                    continue
                dispose_failure(
                    task, attempt_by[task.index], "failure",
                    f"{type(error).__name__}: {error}", traceback_text,
                )

    heartbeat = _HeartbeatThread(queue)
    heartbeat.start()
    try:
        if resume:
            # Serve warm checkpoints straight into commit markers — no
            # lease needed, the result already exists.  This is what makes
            # a replay over a completed queue a no-op.
            for task in tasks:
                if queue.is_done(task.index):
                    continue
                result = cache.get(task)
                if result is not None:
                    commit(task, result, cached=True)
        while True:
            state = queue.snapshot()
            resolved = set(state.done) | ledger.quarantined_indices()
            pending = [task for task in tasks if task.index not in resolved]
            set_queue_depth(len(pending))
            flush_metrics()
            if not pending:
                break
            if drain.requested:
                # Drain requested between tasks: leave without claiming
                # more; peers finish the queue.
                retired = drain.signal_name or "SIGTERM"
                break
            now = queue.clock()
            claimable = [
                task for task in pending
                if task.index not in state.active
                and ledger.ready(task.index, now)
            ]
            held: list = []
            for task in claimable:
                if len(held) >= stack:
                    break
                acquired, was_steal = queue.acquire(task.index)
                if acquired:
                    heartbeat.hold(task.index)
                    held.append(task)
                    stolen += int(was_steal)
            if not held:
                # Nothing claimable right now: everything pending is
                # actively leased elsewhere, backing off before a retry,
                # or we lost every race.  Wait for commits or expiries.
                time.sleep(poll)
                continue
            try:
                for unit_tasks, run in plan_units(context, held, run_fn, stack):
                    execute(unit_tasks, run)
            except WorkerRetired:
                # Graceful retirement: hand off every unfinished held
                # lease so peers reclaim it immediately (no TTL wait),
                # then leave through the normal shutdown path — flushed
                # metrics and all.
                signal_name = drain.signal_name or "SIGTERM"
                for task in held:
                    if queue.is_done(task.index):
                        continue
                    ledger.record_handoff(
                        task.index, worker=queue.worker,
                        signal_name=signal_name,
                    )
                    queue.append_event("handoff", task.index,
                                       signal=signal_name)
                    handoffs += 1
                retired = signal_name
            except TaskTimeout:  # pragma: no cover - narrow disarm race
                # A watchdog shot that landed after its phase finished
                # and disarmed; the held tasks retry next round without
                # burning an attempt.
                _logger.warning("stray watchdog timeout after disarm; ignored")
            finally:
                for task in held:
                    heartbeat.drop(task.index)
                    queue.release(task.index)
            if retired is not None:
                break
    finally:
        heartbeat.stop()
        for index in heartbeat.held():
            queue.release(index)
        if watchdog is not None:
            watchdog.stop()
        drain.uninstall()
        flush_metrics()
    done_now = queue.done_indices()
    quarantined_now = tuple(sorted(
        index for index in ledger.quarantined_indices()
        if index in by_index and index not in done_now
    ))
    metadata = {"queue_complete": queue.complete}
    if retired is not None:
        metadata["retired"] = retired
    return QueueRunResult(
        experiment=experiment,
        worker=queue.worker,
        queue_dir=str(queue.directory),
        task_count=len(tasks),
        committed=tuple(committed),
        stolen=stolen,
        quarantined=quarantined_now,
        handoffs=handoffs,
        manifest_path=None,
        events_path=str(queue.events_path),
        metadata=metadata,
    )


_EVENT_COUNTERS = {
    "claim": ("claims",),
    "steal": ("steals", "claims"),  # a steal is a claim too
    "commit": ("commits",),
    "cached": ("cached",),
    "duplicate": ("duplicates",),
    "failed": ("failed",),
    "retry": ("retries",),
    "timeout": ("timeouts",),
    "handoff": ("handoffs",),
    "quarantine": ("quarantines",),
}
"""Event name -> the per-worker :func:`queue_status` totals it bumps."""


def queue_status(directory: str | Path, now: float | None = None) -> dict:
    """Merge a queue directory's protocol state into one coordinator view.

    The data behind ``cache watch``: the identity manifest, done count,
    live and expired leases, per-worker totals aggregated from every
    event stream (commits, steals, cache hits, duplicates, phase-second
    sums), plus the resilience ledger — total retry attempts recorded,
    handed-off leases, and the quarantined tasks with their attempt
    counts and last error so a coordinator can alert instead of
    reporting success.  Purely read-only — safe to run beside a live
    fleet.
    """
    directory = Path(directory)
    now = time.time() if now is None else now
    identity = read_json(directory / QUEUE_MANIFEST_NAME)
    task_count = int(identity.get("task_count", 0)) if identity else 0

    state = _QueueView(directory, clock=lambda: now).snapshot()
    done = state.done

    def lease_rows(leases: dict[int, dict]) -> list[dict]:
        return [
            {
                "task": index,
                "owner": str(lease.get("owner", "")),
                "heartbeat_age_s": round(
                    max(0.0, now - float(lease.get("heartbeat", 0.0))), 3
                ),
            }
            for index, lease in sorted(leases.items())
        ]

    totals = {counter for counters in _EVENT_COUNTERS.values() for counter in counters}
    workers: dict[str, dict] = {}
    phase_totals: dict[str, float] = {}
    events = merge_event_logs(directory)
    for event in events:
        bucket = workers.setdefault(
            str(event.get("worker", "?")), {**dict.fromkeys(totals, 0), "elapsed_s": 0.0}
        )
        kind = event.get("event")
        for counter in _EVENT_COUNTERS.get(kind, ()):
            bucket[counter] += 1
        if kind == "commit":
            bucket["elapsed_s"] += float(event.get("elapsed_s") or 0.0)
            for phase, value in (event.get("phase_seconds") or {}).items():
                phase_totals[phase] = phase_totals.get(phase, 0.0) + float(value)
    for bucket in workers.values():
        bucket["elapsed_s"] = round(bucket["elapsed_s"], 3)

    # The resilience ledger: durable attempt/quarantine/handoff records
    # beside the leases (authoritative even when event logs are lost).
    attempts = attempt_records(directory)
    quarantined = []
    for index in sorted(quarantined_indices(directory) - done):
        marker = read_json(directory / f"quarantined_{index}.json") or {}
        history = marker.get("attempts") or attempts.get(index, [])
        quarantined.append({
            "task": index,
            "attempts": len(history),
            "worker": str(marker.get("worker", "")),
            "error": str(marker.get("error", "")),
        })

    return {
        "directory": str(directory),
        "experiment": None if identity is None else identity.get("experiment"),
        "fingerprint": None if identity is None else identity.get("fingerprint"),
        "task_count": task_count,
        "done": len(done),
        "complete": (
            bool(identity)
            and len(done | {entry["task"] for entry in quarantined}) >= task_count
        ),
        "active_leases": lease_rows(state.active),
        "expired_leases": lease_rows(state.expired),
        "attempts": sum(len(history) for history in attempts.values()),
        "quarantined": quarantined,
        "handoffs": len(handoff_records(directory)),
        "workers": {name: workers[name] for name in sorted(workers)},
        "phase_totals": {k: round(v, 3) for k, v in sorted(phase_totals.items())},
        "events": len(events),
    }
