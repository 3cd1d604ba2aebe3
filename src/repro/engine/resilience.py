"""Fleet resilience: retry, quarantine, graceful retirement, watchdog.

The work-stealing queue (:mod:`repro.engine.queue`) *detects* faults —
dead workers get their leases stolen, crashes land in the event logs —
but detection alone leaves a failed task abandoned forever and the only
worker-exit path is TTL expiry.  This module supplies the supervision
layer that turns those detections into recovery:

* **retry with capped exponential backoff** — a task failure writes an
  ``attempt_<i>_<n>.json`` record beside the queue's leases, the lease
  is released, and the task re-enqueues after a deterministic backoff
  (injectable clock, seeded jitter) so another worker retries it;
* **poison-task quarantine** — after ``max_attempts`` distinct failures
  the task is committed as a ``quarantined_<i>.json`` marker carrying
  the full attempt history and last traceback.  The rest of the grid
  completes; coordinators (``cache watch``, ``queue_status``) surface
  the quarantined cells and the CLI exits with
  :data:`QUARANTINE_EXIT_CODE` instead of hanging or silently dropping
  results;
* **graceful retirement** — :class:`DrainGuard` turns SIGTERM/SIGINT
  into a drain: the in-flight phase is aborted with
  :class:`WorkerRetired`, a ``handoff_<i>.json`` tombstone is written so
  peers reclaim the lease *immediately* instead of waiting out the TTL,
  and the worker leaves after flushing metrics and certifying its
  manifest.  A second signal aborts immediately (``KeyboardInterrupt``);
* **hung-task watchdog** — :class:`Watchdog` arms a per-task deadline
  (priced from the cost model by the runners: ``k ×`` predicted phase
  seconds, floored for cold cells) and injects :class:`TaskTimeout`
  into the compute thread when it blows, routing the task through the
  same retry/quarantine path as a crash.

Everything here is observational or recovery-only: a fully-healthy run
takes none of these paths and stays byte-identical to an unsupervised
one (the parity tests assert it).

The chaos knobs (:class:`ChaosConfig`) are the fault-injection side of
the same coin: seeded transient failures, checkpoint corruption and
permanently-poisoned tasks, driven from environment variables so the
fleet harness (``scripts/run_queue_fleet.py``, CI's chaos leg) can hurt
real worker subprocesses without bespoke test builds.  Injected
transient faults strike only a task's *first* attempt, so chaos alone
can never quarantine a task — CI gates on exactly that.

Only the standard library and the stdlib-only :mod:`repro.utils.atomic`
(which writes every record and marker here) are imported; like
:mod:`repro.engine.metrics` this module sits below every other engine
layer.
"""

from __future__ import annotations

import json
import os
import random
import signal
import threading
import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro.utils.atomic import create_exclusive, read_json, write_atomic

try:  # CPython-only: the watchdog's abort mechanism.
    import ctypes
except ImportError:  # pragma: no cover - no ctypes on exotic builds
    ctypes = None

__all__ = [
    "AttemptLedger",
    "ChaosConfig",
    "ChaosFailure",
    "DEFAULT_MAX_ATTEMPTS",
    "DrainGuard",
    "QUARANTINE_EXIT_CODE",
    "ResilienceConfig",
    "RetryPolicy",
    "TaskTimeout",
    "Watchdog",
    "WorkerRetired",
    "attempt_records",
    "handoff_records",
    "quarantined_indices",
    "scan_markers",
]

DEFAULT_MAX_ATTEMPTS = 3
"""Distinct failures a task may accumulate before it is quarantined."""

QUARANTINE_EXIT_CODE = 3
"""Process exit code of a run (or ``cache watch``) that saw quarantined
tasks: the grid completed *minus* those cells, which a coordinator must
treat as an alert, not a success."""

CHAOS_FAIL_RATE_ENV = "REPRO_CHAOS_FAIL_RATE"
CHAOS_CORRUPT_RATE_ENV = "REPRO_CHAOS_CORRUPT_RATE"
CHAOS_POISON_ENV = "REPRO_CHAOS_POISON_TASKS"
CHAOS_SEED_ENV = "REPRO_CHAOS_SEED"


class TaskTimeout(Exception):
    """Injected by the :class:`Watchdog` into a phase that blew its
    deadline; handled as a ``timeout`` attempt on the retry path."""


class WorkerRetired(Exception):
    """Raised (from the signal handler) inside the in-flight task when a
    drain was requested; the queue loop hands the task off and exits."""


class ChaosFailure(RuntimeError):
    """A fault injected by :class:`ChaosConfig` (never a real error)."""


# ---------------------------------------------------------------------------
# Retry policy.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic capped exponential backoff for task retries.

    ``backoff_delay`` is a pure function of ``(seed, task index,
    attempt)``: the jitter comes from a seeded per-attempt draw, not the
    wall clock, so two runs of the same fleet schedule retries
    identically and the invariant tests can assert exact delays.
    """

    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    backoff_base: float = 2.0
    """Delay before the first retry, doubled per subsequent attempt."""
    backoff_cap: float = 60.0
    """Upper bound on the pre-jitter delay, however many attempts."""
    jitter: float = 0.25
    """Max jitter as a fraction of the delay (spreads thundering herds)."""
    seed: int = 0
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff_base and backoff_cap must be >= 0")
        if not 0 <= self.jitter <= 1:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def backoff_delay(self, index: int, attempt: int) -> float:
        """Seconds before attempt ``attempt + 1`` of task ``index`` may run."""
        base = min(self.backoff_cap, self.backoff_base * (2.0 ** max(0, attempt - 1)))
        draw = random.Random(f"{self.seed}:{int(index)}:{int(attempt)}").random()
        return base * (1.0 + self.jitter * draw)


@dataclass(frozen=True)
class ResilienceConfig:
    """One bundle of supervision knobs for queue workers.

    Threaded from the CLI through each runner's one dispatch call,
    :func:`repro.engine.scheduler.run_tasks`, to
    :func:`repro.engine.queue.run_queued_tasks` — for the exhaustive
    grid, the sweeps and every halving-search rung alike.

    ``watchdog_multiplier`` and ``watchdog_floor`` price the per-task
    deadline from the cost model (``multiplier ×`` predicted phase
    seconds, never below the floor; a cold cache prices every cell at
    the floor).  ``watchdog_multiplier=0`` disables deadlines entirely.
    """

    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    backoff_base: float = 2.0
    backoff_cap: float = 60.0
    jitter: float = 0.25
    seed: int = 0
    watchdog_multiplier: float = 8.0
    watchdog_floor: float = 600.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        # Written as not (x >= 0) so NaN fails too.
        if not (self.watchdog_multiplier >= 0):
            raise ValueError("watchdog_multiplier must be >= 0 (0 disables)")
        if not (self.watchdog_floor >= 0):
            raise ValueError("watchdog_floor must be >= 0 seconds")

    def retry_policy(self) -> RetryPolicy:
        return RetryPolicy(
            max_attempts=self.max_attempts,
            backoff_base=self.backoff_base,
            backoff_cap=self.backoff_cap,
            jitter=self.jitter,
            seed=self.seed,
        )


# ---------------------------------------------------------------------------
# Attempt ledger: the durable per-task failure history in a queue directory.
# ---------------------------------------------------------------------------


def scan_markers(directory: str | Path, prefix: str) -> list[tuple[int, Path]]:
    """Every ``<prefix><index>[_...].json`` in ``directory`` as ``(index, path)``.

    The one scan behind every protocol marker: leases, commit markers,
    attempt records, quarantine markers and handoff tombstones.  Temp
    files start with a dot and never match.
    """
    found: list[tuple[int, Path]] = []
    for path in Path(directory).glob(f"{prefix}*.json"):
        try:
            found.append((int(path.stem.removeprefix(prefix).split("_", 1)[0]), path))
        except ValueError:
            continue
    return found


def attempt_records(directory: str | Path) -> dict[int, list[dict]]:
    """Every ``attempt_<i>_<n>.json`` in a queue directory, grouped by
    task index and sorted by attempt number."""
    records: dict[int, list[dict]] = {}
    for index, path in scan_markers(directory, "attempt_"):
        payload = read_json(path)
        if payload is not None:
            records.setdefault(index, []).append(payload)
    for history in records.values():
        history.sort(key=lambda record: int(record.get("attempt", 0)))
    return records


def quarantined_indices(directory: str | Path) -> set[int]:
    """Task indices carrying a ``quarantined_<i>.json`` marker."""
    return {index for index, _ in scan_markers(directory, "quarantined_")}


def handoff_records(directory: str | Path) -> dict[int, dict]:
    """``handoff_<i>.json`` tombstones left by gracefully retired workers."""
    records: dict[int, dict] = {}
    for index, path in scan_markers(directory, "handoff_"):
        payload = read_json(path)
        if payload is not None:
            records[index] = payload
    return records


class AttemptLedger:
    """One worker's handle on the attempt/quarantine/handoff records.

    All records live beside the queue's leases and commit markers and
    use the same atomic primitives: attempt records and quarantine
    markers are created *exclusively* (concurrent failers of one task
    get distinct attempt numbers; exactly one worker quarantines it),
    handoff tombstones are plain atomic replaces (only the retiring
    lease owner writes one).
    """

    def __init__(self, directory: str | Path, *,
                 clock: Callable[[], float] = time.time) -> None:
        self.directory = Path(directory)
        self.clock = clock

    # -- paths ---------------------------------------------------------------

    def attempt_path(self, index: int, attempt: int) -> Path:
        return self.directory / f"attempt_{int(index)}_{int(attempt)}.json"

    def quarantine_path(self, index: int) -> Path:
        return self.directory / f"quarantined_{int(index)}.json"

    def handoff_path(self, index: int) -> Path:
        return self.directory / f"handoff_{int(index)}.json"

    # -- attempts ------------------------------------------------------------

    def attempts(self, index: int) -> list[dict]:
        """This task's attempt records, sorted by attempt number."""
        return attempt_records(self.directory).get(int(index), [])

    def attempt_count(self, index: int) -> int:
        return len(self.attempts(index))

    def record_attempt(
        self,
        index: int,
        *,
        worker: str,
        kind: str,
        error: str = "",
        traceback_text: str = "",
        not_before: float | None = None,
    ) -> dict:
        """Durably record one failed attempt; returns the written payload.

        ``kind`` is ``failure`` (run_fn raised), ``timeout`` (watchdog
        abort) or ``corrupt`` (checkpoint failed post-write
        verification).  ``not_before`` is the backoff deadline before
        which no worker should re-claim the task (``None`` on the final
        attempt — the next step is quarantine, not retry).  Attempt
        numbers are allocated by exclusive creation, so concurrent
        failers never collide.
        """
        payload = {
            "task_index": int(index),
            "worker": str(worker),
            "time": self.clock(),
            "kind": str(kind),
            "error": str(error),
            "traceback": str(traceback_text),
            "not_before": None if not_before is None else float(not_before),
        }
        attempt = self.attempt_count(index) + 1
        while True:
            payload["attempt"] = attempt
            if create_exclusive(self.attempt_path(index, attempt),
                                json.dumps(payload, sort_keys=True)):
                return payload
            attempt += 1

    def ready(self, index: int, now: float | None = None) -> bool:
        """Whether the task's latest backoff deadline has passed."""
        history = self.attempts(index)
        if not history:
            return True
        not_before = history[-1].get("not_before")
        if not_before is None:
            return True
        return (self.clock() if now is None else now) >= float(not_before)

    # -- quarantine ----------------------------------------------------------

    def quarantine(self, index: int, *, worker: str) -> bool:
        """Mark a task as poisoned, exactly once fleet-wide.

        The marker embeds the full attempt history (with each attempt's
        error and traceback), so the coordinator can diagnose the cell
        without grepping worker logs.  Returns ``True`` iff this worker
        created the marker.
        """
        history = self.attempts(index)
        marker = {
            "task_index": int(index),
            "worker": str(worker),
            "time": self.clock(),
            "attempts": history,
            "error": history[-1].get("error", "") if history else "",
        }
        return create_exclusive(self.quarantine_path(index),
                                json.dumps(marker, sort_keys=True))

    def quarantined_indices(self) -> set[int]:
        return quarantined_indices(self.directory)

    def quarantine_record(self, index: int) -> dict | None:
        return read_json(self.quarantine_path(index))

    # -- handoff -------------------------------------------------------------

    def record_handoff(self, index: int, *, worker: str, signal_name: str) -> dict:
        """Tombstone a gracefully released lease so peers reclaim it now.

        The releasing worker also deletes its lease, so normally peers
        simply claim the freed slot; the tombstone covers the case where
        the release itself failed — the steal path treats a lease whose
        owner has handed off as expired regardless of its heartbeat.
        """
        payload = {
            "task_index": int(index),
            "worker": str(worker),
            "time": self.clock(),
            "signal": str(signal_name),
        }
        write_atomic(self.handoff_path(index), json.dumps(payload, sort_keys=True))
        return payload


# ---------------------------------------------------------------------------
# Hung-task watchdog.
# ---------------------------------------------------------------------------


def _raise_in_thread(ident: int, exc_type: type[BaseException]) -> bool:
    """Inject ``exc_type`` into the thread ``ident`` (CPython only).

    The exception surfaces at the target thread's next bytecode
    boundary — exact enough for the engine's pure-Python compute loops.
    Returns ``False`` (a no-op) when the platform cannot do it.
    """
    if ctypes is None:  # pragma: no cover - exotic platform fallback
        return False
    try:
        result = ctypes.pythonapi.PyThreadState_SetAsyncExc(
            ctypes.c_ulong(ident), ctypes.py_object(exc_type)
        )
    except Exception:  # pragma: no cover - defensive: never break the loop
        return False
    if result > 1:  # pragma: no cover - "should never happen" per CPython docs
        ctypes.pythonapi.PyThreadState_SetAsyncExc(ctypes.c_ulong(ident), None)
        return False
    return result == 1


class Watchdog(threading.Thread):
    """Daemon aborting the armed phase when its deadline passes.

    One phase is watched at a time (a queue worker runs one task or
    stacked group at a time).  Arming records the target thread and an
    absolute deadline; when it blows, :class:`TaskTimeout` is injected
    into that thread and the firing is remembered so ``disarm`` can
    report it.  Fire and disarm contend on one lock, so a phase that
    finished just in time is never shot after the fact.
    """

    def __init__(self, *, clock: Callable[[], float] = time.monotonic,
                 interval: float = 0.05) -> None:
        super().__init__(daemon=True, name="queue-watchdog")
        self._clock = clock
        self._interval = interval
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._watch: tuple[object, int, float] | None = None
        self._fired: set = set()

    def arm(self, key, ident: int, deadline_seconds: float) -> None:
        """Watch thread ``ident``: abort it ``deadline_seconds`` from now."""
        with self._lock:
            self._fired.discard(key)
            self._watch = (key, int(ident), self._clock() + float(deadline_seconds))

    def disarm(self, key) -> bool:
        """Stop watching ``key``; ``True`` iff the deadline already fired."""
        with self._lock:
            fired = key in self._fired
            self._fired.discard(key)
            if self._watch is not None and self._watch[0] == key:
                self._watch = None
            return fired

    def run(self) -> None:
        while not self._stop.wait(self._interval):
            with self._lock:
                if self._watch is None:
                    continue
                key, ident, deadline = self._watch
                if self._clock() < deadline:
                    continue
                self._watch = None
                self._fired.add(key)
                _raise_in_thread(ident, TaskTimeout)

    def stop(self) -> None:
        self._stop.set()


# ---------------------------------------------------------------------------
# Graceful retirement.
# ---------------------------------------------------------------------------


class DrainGuard:
    """SIGTERM/SIGINT → drain instead of die (queue workers only).

    The first signal requests a drain: if the worker is inside a task
    (the ``task_region`` context), :class:`WorkerRetired` is raised
    there so the phase aborts and the task is handed off; otherwise the
    flag alone makes the scheduling loop exit at its next round.  A
    second signal gives up waiting and raises ``KeyboardInterrupt``.

    Handlers are only installed from the main thread (CPython forbids
    anything else); a worker hosted in a helper thread simply runs
    unguarded, exactly like today.
    """

    SIGNALS = ("SIGTERM", "SIGINT")

    def __init__(self, enabled: bool = True) -> None:
        self.requested = False
        self.signal_name: str | None = None
        self._in_task = False
        self._previous: dict[int, object] = {}
        self._enabled = enabled

    def install(self) -> "DrainGuard":
        if not self._enabled:
            return self
        if threading.current_thread() is not threading.main_thread():
            return self
        for name in self.SIGNALS:
            signum = getattr(signal, name, None)
            if signum is None:  # pragma: no cover - platform without the signal
                continue
            try:
                self._previous[signum] = signal.signal(signum, self._handle)
            except (ValueError, OSError):  # pragma: no cover - embedded interp
                continue
        return self

    def uninstall(self) -> None:
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):  # pragma: no cover
                continue
        self._previous.clear()

    @contextmanager
    def task_region(self):
        """Mark the interruptible span: only here does a drain signal
        abort the work in place (never mid-commit)."""
        self._in_task = True
        try:
            yield
        finally:
            self._in_task = False

    def _handle(self, signum, frame) -> None:
        name = signal.Signals(signum).name
        if self.requested:
            raise KeyboardInterrupt(f"second {name} during drain")
        self.requested = True
        self.signal_name = name
        if self._in_task:
            raise WorkerRetired(name)


# ---------------------------------------------------------------------------
# Chaos: seeded fault injection for the fleet harness.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChaosConfig:
    """Deterministic fault injection, configured via environment.

    * ``REPRO_CHAOS_FAIL_RATE`` — probability that a task's *first*
      attempt raises :class:`ChaosFailure`.  First-attempt-only makes
      every injected crash transient by construction, so chaos alone can
      never quarantine a task (CI's chaos leg gates on zero
      quarantines).
    * ``REPRO_CHAOS_CORRUPT_RATE`` — probability that a task's first
      checkpoint write is truncated post-write; the commit path's
      read-back verification must catch it and convert it into a retry.
    * ``REPRO_CHAOS_POISON_TASKS`` — comma-separated task indices that
      fail on *every* attempt: the poison-task path, driving retries
      into quarantine.
    * ``REPRO_CHAOS_SEED`` — the seed behind both rate draws; per-task
      draws are pure functions of ``(seed, task index)``, identical in
      every worker, so which tasks fail is reproducible fleet-wide.
    """

    fail_rate: float = 0.0
    corrupt_rate: float = 0.0
    poison: frozenset[int] = frozenset()
    seed: int = 0

    @classmethod
    def from_env(cls, environ=None) -> "ChaosConfig":
        environ = os.environ if environ is None else environ

        def rate(name: str) -> float:
            try:
                return min(1.0, max(0.0, float(environ.get(name, "") or 0.0)))
            except ValueError:
                return 0.0

        poison: set[int] = set()
        for token in str(environ.get(CHAOS_POISON_ENV, "")).split(","):
            token = token.strip()
            if token:
                try:
                    poison.add(int(token))
                except ValueError:
                    continue
        try:
            seed = int(environ.get(CHAOS_SEED_ENV, "") or 0)
        except ValueError:
            seed = 0
        return cls(
            fail_rate=rate(CHAOS_FAIL_RATE_ENV),
            corrupt_rate=rate(CHAOS_CORRUPT_RATE_ENV),
            poison=frozenset(poison),
            seed=seed,
        )

    @property
    def enabled(self) -> bool:
        return bool(self.fail_rate or self.corrupt_rate or self.poison)

    def _draw(self, kind: str, index: int) -> float:
        return random.Random(f"{self.seed}:{kind}:{int(index)}").random()

    def should_fail(self, index: int, attempt: int) -> bool:
        if int(index) in self.poison:
            return True
        if self.fail_rate <= 0 or attempt != 1:
            return False
        return self._draw("fail", index) < self.fail_rate

    def maybe_fail(self, index: int, attempt: int) -> None:
        if self.should_fail(index, attempt):
            kind = "poisoned" if int(index) in self.poison else "transient"
            raise ChaosFailure(
                f"injected {kind} failure (task {index}, attempt {attempt})"
            )

    def should_corrupt(self, index: int, attempt: int) -> bool:
        if self.corrupt_rate <= 0 or attempt != 1:
            return False
        return self._draw("corrupt", index) < self.corrupt_rate

    def maybe_corrupt(self, path: Path, index: int, attempt: int) -> bool:
        """Truncate a just-written checkpoint (first attempt only)."""
        if not self.should_corrupt(index, attempt):
            return False
        try:
            data = path.read_bytes()
            write_atomic(path, data[: max(1, len(data) // 2)])
        except OSError:
            return False
        return True
