"""Unit tests for the fleet resilience layer (`repro.engine.resilience`).

Covers the supervision primitives in isolation — deterministic backoff,
the durable attempt/quarantine/handoff ledger, the hung-task watchdog's
in-thread abort, graceful SIGTERM/SIGINT draining, and seeded chaos
injection — plus two `run_queued_tasks` integration proofs: a watchdog
timeout and an injected checkpoint corruption must both burn an attempt
and retry to a clean, complete queue.

The end-to-end subprocess proofs (real workers, real signals) live in
``tests/test_fleet_faults.py``; retry/quarantine behaviour of the queue
protocol itself is in ``tests/test_queue.py``.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time
import zipfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro import nn
from repro.data import ArrayDataset
from repro.engine import (
    CellCache,
    CellTask,
    context_fingerprint,
    read_events,
    run_cell_task,
    run_queued_tasks,
)
from repro.engine.merge import _atomic_copy
from repro.engine.metrics import configure_metrics, flush_metrics, reset_metrics
from repro.engine.resilience import (
    AttemptLedger,
    ChaosConfig,
    DrainGuard,
    ResilienceConfig,
    RetryPolicy,
    TaskTimeout,
    Watchdog,
    WorkerRetired,
    _raise_in_thread,
    attempt_records,
    handoff_records,
    quarantined_indices,
)
from repro.engine.shard import ShardManifest, save_manifests
from repro.robustness import ExplorationConfig, RobustnessExplorer
from repro.robustness.results import CellResult, ExplorationResult
from repro.training.trainer import TrainingConfig
from repro.utils.atomic import create_exclusive, write_atomic
from repro.utils.serialization import save_npz


class FakeClock:
    def __init__(self, start: float = 1_000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestRetryPolicy:
    def test_backoff_is_a_pure_function_of_seed_index_attempt(self):
        a = RetryPolicy(seed=3)
        b = RetryPolicy(seed=3)
        assert a.backoff_delay(2, 1) == b.backoff_delay(2, 1)
        # Different task, different attempt, different seed: the jitter
        # draw changes, so retries de-synchronise across the fleet.
        assert a.backoff_delay(2, 1) != a.backoff_delay(3, 1)
        assert a.backoff_delay(2, 1) != RetryPolicy(seed=4).backoff_delay(2, 1)

    def test_backoff_doubles_then_caps(self):
        policy = RetryPolicy(backoff_base=2.0, backoff_cap=5.0, jitter=0.0)
        assert policy.backoff_delay(0, 1) == 2.0
        assert policy.backoff_delay(0, 2) == 4.0
        assert policy.backoff_delay(0, 3) == 5.0  # 8.0 pre-cap
        assert policy.backoff_delay(0, 9) == 5.0

    def test_jitter_is_bounded_by_its_fraction(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_cap=60.0, jitter=0.25)
        for attempt in range(1, 4):
            delay = policy.backoff_delay(7, attempt)
            base = min(60.0, 2.0 ** (attempt - 1))
            assert base <= delay <= base * 1.25

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError, match="backoff"):
            RetryPolicy(backoff_base=-1.0)


class TestResilienceConfig:
    def test_retry_policy_carries_the_knobs(self):
        config = ResilienceConfig(
            max_attempts=5, backoff_base=0.5, backoff_cap=9.0,
            jitter=0.1, seed=11,
        )
        policy = config.retry_policy()
        assert policy.max_attempts == 5
        assert policy.backoff_base == 0.5
        assert policy.backoff_cap == 9.0
        assert policy.jitter == 0.1
        assert policy.seed == 11

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            ResilienceConfig(max_attempts=0)
        with pytest.raises(ValueError, match="watchdog_multiplier"):
            ResilienceConfig(watchdog_multiplier=-1.0)
        with pytest.raises(ValueError, match="watchdog_floor"):
            ResilienceConfig(watchdog_floor=-1.0)

    @pytest.mark.parametrize("field", ["watchdog_multiplier", "watchdog_floor"])
    def test_nan_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            ResilienceConfig(**{field: float("nan")})


# ---------------------------------------------------------------------------
# Writers racing for one path: each takes (directory, writer id), writes
# the writer's own payload (payload sizes differ, so a torn write shows)
# and returns the path it wrote.
# ---------------------------------------------------------------------------


def _pad(writer: int) -> str:
    return "x" * (64 * writer + 1)


def _checkpoint_put(directory: Path, writer: int) -> Path:
    task = CellTask(index=0, v_th=1.0, time_window=8, cell_seed=1, attack_seed=2)
    value = CellResult(1.0, 8, 0.5, True, robustness={1.0: 0.25}, worker=_pad(writer))
    return CellCache(directory, "f" * 64).put(task, value)


def _save_npz(directory: Path, writer: int) -> Path:
    arrays = {"w": np.full(writer + 1, float(writer))}
    return save_npz(directory / "weights.npz", arrays, {"writer": _pad(writer)})


def _save_manifests(directory: Path, writer: int) -> Path:
    manifest = ShardManifest("grid", _pad(writer) + "f" * 12, task_count=writer + 1)
    return save_manifests(directory, {manifest.key: manifest})


def _flush_metrics(directory: Path, writer: int) -> Path:
    configure_metrics(directory)
    path = flush_metrics()
    assert path is not None, "flush_metrics dropped its snapshot"
    return Path(path)


def _merge_copy(directory: Path, writer: int) -> Path:
    source = directory.parent / f"{directory.name}-source-{writer}.json"
    if not source.exists():
        source.write_text(json.dumps({"writer": _pad(writer)}))
    _atomic_copy(source, directory / "cell.json")
    return directory / "cell.json"


def _artifact_to_json(directory: Path, writer: int) -> Path:
    result = ExplorationResult((1.0,), (8,), [], {"writer": _pad(writer)})
    result.to_json(directory / "grid.json")
    return directory / "grid.json"


def _write_atomic(directory: Path, writer: int) -> Path:
    write_atomic(directory / "lease_0.json", json.dumps({"writer": _pad(writer)}))
    return directory / "lease_0.json"


def _create_exclusive(directory: Path, writer: int) -> Path:
    create_exclusive(directory / "done_0.json", json.dumps({"writer": _pad(writer)}))
    return directory / "done_0.json"


_RACING_WRITERS = {
    "checkpoint_put": _checkpoint_put,
    "save_npz": _save_npz,
    "save_manifests": _save_manifests,
    "flush_metrics": _flush_metrics,
    "merge_copy": _merge_copy,
    "artifact_to_json": _artifact_to_json,
    "write_atomic": _write_atomic,
    "create_exclusive": _create_exclusive,
}


def _contents(path: Path):
    """What a writer's payload amounts to: the bytes, except that npz
    archives embed zip timestamps and are compared member by member.
    (Not through ``np.load``: its header parser can raise SystemError
    under threads on CPython 3.11 at the short switch interval below.)"""
    if path.suffix != ".npz":
        return path.read_bytes()
    with zipfile.ZipFile(path) as archive:
        return tuple(archive.read(name) for name in sorted(archive.namelist()))


class TestAtomicJson:
    @pytest.mark.parametrize("name", sorted(_RACING_WRITERS))
    def test_threads_rewriting_one_path_lose_no_write(self, tmp_path, name):
        # Threads of one process each rewrite one path through the same
        # writer and read it back.  A temp name private to the process
        # but not the thread lets one thread's rename carry off (or
        # truncate) another's temp file, which fails the other's rename;
        # a write in place lets a reader see a torn file.
        write, threads, calls = _RACING_WRITERS[name], 4, 100
        switch = sys.getswitchinterval()
        try:
            payloads = set()
            for writer in range(threads):
                reference = tmp_path / f"reference-{writer}"
                reference.mkdir()
                target = write(reference, writer)
                payloads.add(_contents(target))
                names = sorted(path.name for path in reference.iterdir())
            race = tmp_path / "race"
            race.mkdir()
            errors: list[BaseException] = []
            start = threading.Barrier(threads, timeout=10.0)

            def rewrite(writer: int) -> None:
                start.wait()
                for _ in range(calls):
                    try:
                        if _contents(write(race, writer)) not in payloads:
                            raise AssertionError("read back a torn file")
                    except Exception as error:
                        errors.append(error)

            workers = [
                threading.Thread(target=rewrite, args=(writer,))
                for writer in range(threads)
            ]
            sys.setswitchinterval(1e-5)
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60.0)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(switch)
            reset_metrics()
        assert not errors, (
            f"{len(errors)} of {threads * calls} writes failed, first: {errors[0]!r}"
        )
        assert _contents(race / target.name) in payloads
        # Exactly the reference's files: no temp file is left behind.
        assert sorted(path.name for path in race.iterdir()) == names

    def test_threads_racing_for_one_file_use_separate_temp_files(
        self, tmp_path, monkeypatch
    ):
        # Queue workers may be threads of one process.  The second writer
        # must not clobber (and then unlink) the first one's temp file
        # while the first is between writing it and linking it in place.
        path = tmp_path / "lease_0.json"
        linking, release = threading.Event(), threading.Event()
        link = os.link

        def paused_link(src, dst):
            if threading.current_thread() is not threading.main_thread():
                linking.set()
                release.wait(5.0)
            return link(src, dst)

        monkeypatch.setattr(os, "link", paused_link)
        won: dict[str, bool] = {}
        worker = threading.Thread(
            target=lambda: won.update(worker=create_exclusive(path, '{"by": "worker"}'))
        )
        worker.start()
        assert linking.wait(5.0)
        won["main"] = create_exclusive(path, '{"by": "main"}')
        release.set()
        worker.join()
        assert won == {"main": True, "worker": False}
        assert json.loads(path.read_text()) == {"by": "main"}
        assert list(tmp_path.iterdir()) == [path]


class TestAttemptLedger:
    def test_attempts_are_numbered_and_sorted(self, tmp_path):
        clock = FakeClock()
        ledger = AttemptLedger(tmp_path, clock=clock)
        first = ledger.record_attempt(
            0, worker="a", kind="failure", error="boom", not_before=1_005.0
        )
        clock.advance(10.0)
        second = ledger.record_attempt(
            0, worker="b", kind="timeout", error="too slow", not_before=None
        )
        assert (first["attempt"], second["attempt"]) == (1, 2)
        assert ledger.attempt_count(0) == 2
        history = ledger.attempts(0)
        assert [r["kind"] for r in history] == ["failure", "timeout"]
        assert [r["worker"] for r in history] == ["a", "b"]
        assert (tmp_path / "attempt_0_1.json").is_file()
        assert (tmp_path / "attempt_0_2.json").is_file()
        assert ledger.attempt_count(1) == 0  # per-task isolation

    def test_torn_attempt_file_does_not_block_allocation(self, tmp_path):
        # A crashed writer can leave a torn attempt record: unreadable,
        # so it does not count, but its *name* still occupies the slot.
        # Exclusive creation must skip over it, not spin or overwrite.
        (tmp_path / "attempt_0_1.json").write_text('{"torn')
        ledger = AttemptLedger(tmp_path, clock=FakeClock())
        payload = ledger.record_attempt(0, worker="a", kind="failure")
        assert payload["attempt"] == 2
        assert ledger.attempt_count(0) == 1  # the torn record stays invisible

    def test_ready_respects_the_backoff_deadline(self, tmp_path):
        clock = FakeClock()
        ledger = AttemptLedger(tmp_path, clock=clock)
        assert ledger.ready(0)  # no history: claimable now
        ledger.record_attempt(
            0, worker="a", kind="failure", not_before=clock() + 5.0
        )
        assert not ledger.ready(0)
        clock.advance(5.0)
        assert ledger.ready(0)
        # A final attempt carries no deadline (next step is quarantine).
        ledger.record_attempt(0, worker="a", kind="failure", not_before=None)
        assert ledger.ready(0)

    def test_quarantine_is_exclusive_and_embeds_history(self, tmp_path):
        clock = FakeClock()
        a = AttemptLedger(tmp_path, clock=clock)
        b = AttemptLedger(tmp_path, clock=clock)
        a.record_attempt(3, worker="a", kind="failure", error="first")
        a.record_attempt(
            3, worker="a", kind="failure", error="last",
            traceback_text="Traceback...",
        )
        assert a.quarantine(3, worker="a")
        assert not b.quarantine(3, worker="b")  # exactly once fleet-wide
        marker = b.quarantine_record(3)
        assert marker["worker"] == "a"
        assert marker["error"] == "last"
        assert [r["error"] for r in marker["attempts"]] == ["first", "last"]
        assert a.quarantined_indices() == {3}
        assert quarantined_indices(tmp_path) == {3}

    def test_handoff_tombstone_is_replaceable(self, tmp_path):
        ledger = AttemptLedger(tmp_path, clock=FakeClock())
        ledger.record_handoff(1, worker="a", signal_name="SIGTERM")
        again = ledger.record_handoff(1, worker="b", signal_name="SIGINT")
        records = handoff_records(tmp_path)
        assert set(records) == {1}
        assert records[1] == again
        assert records[1]["signal"] == "SIGINT"

    def test_scans_ignore_garbage_files(self, tmp_path):
        (tmp_path / "attempt_junk.json").write_text("{}")
        (tmp_path / "quarantined_x.json").write_text("{}")
        (tmp_path / "handoff_y.json").write_text("{}")
        (tmp_path / "handoff_2.json").write_text("not json")
        assert attempt_records(tmp_path) == {}
        assert quarantined_indices(tmp_path) == set()
        assert handoff_records(tmp_path) == {}


class TestWatchdog:
    def test_deadline_fires_and_aborts_the_armed_thread(self):
        dog = Watchdog(interval=0.01)
        dog.start()
        caught: list[bool] = []

        def spin():
            try:
                stop_at = time.monotonic() + 5.0
                while time.monotonic() < stop_at:
                    pass  # pure-Python loop: the injected abort lands here
                caught.append(False)
            except TaskTimeout:
                caught.append(True)

        worker = threading.Thread(target=spin)
        worker.start()
        try:
            dog.arm("phase", worker.ident, 0.05)
            worker.join(timeout=10.0)
            assert caught == [True]
            assert dog.disarm("phase")  # remembers that it fired
            assert not dog.disarm("phase")  # and reports it only once
        finally:
            dog.stop()
            worker.join(timeout=1.0)

    def test_disarm_before_the_deadline_never_fires(self):
        dog = Watchdog(interval=0.01)
        dog.start()
        try:
            dog.arm("phase", threading.get_ident(), 30.0)
            assert not dog.disarm("phase")
            time.sleep(0.05)  # the loop must not shoot a disarmed phase
        finally:
            dog.stop()

    def test_raise_in_thread_rejects_a_dead_ident(self):
        # No thread has this ident, so CPython reports zero states
        # modified — the helper must signal the no-op, not pretend.
        assert not _raise_in_thread(2**31 - 1, TaskTimeout)


class TestDrainGuard:
    def test_first_signal_between_tasks_only_sets_the_flag(self):
        before = signal.getsignal(signal.SIGTERM)
        guard = DrainGuard().install()
        try:
            signal.raise_signal(signal.SIGTERM)
            assert guard.requested
            assert guard.signal_name == "SIGTERM"
        finally:
            guard.uninstall()
        assert signal.getsignal(signal.SIGTERM) is before

    def test_signal_inside_the_task_region_retires_the_worker(self):
        guard = DrainGuard().install()
        try:
            with pytest.raises(WorkerRetired, match="SIGTERM"):
                with guard.task_region():
                    signal.raise_signal(signal.SIGTERM)
            assert guard.requested
        finally:
            guard.uninstall()

    def test_second_signal_gives_up_the_drain(self):
        guard = DrainGuard().install()
        try:
            signal.raise_signal(signal.SIGTERM)
            with pytest.raises(KeyboardInterrupt, match="second SIGINT"):
                signal.raise_signal(signal.SIGINT)
        finally:
            guard.uninstall()

    def test_install_outside_the_main_thread_is_a_noop(self):
        before = signal.getsignal(signal.SIGTERM)
        raised: list[BaseException] = []

        def hosted():
            try:
                DrainGuard().install().uninstall()
            except BaseException as error:  # pragma: no cover - the assert
                raised.append(error)

        worker = threading.Thread(target=hosted)
        worker.start()
        worker.join(timeout=5.0)
        assert raised == []
        assert signal.getsignal(signal.SIGTERM) is before


class TestChaosConfig:
    def test_from_env_parses_and_clamps(self):
        chaos = ChaosConfig.from_env({
            "REPRO_CHAOS_FAIL_RATE": "1.7",
            "REPRO_CHAOS_CORRUPT_RATE": "-0.3",
            "REPRO_CHAOS_POISON_TASKS": " 1, 2,junk,3 ",
            "REPRO_CHAOS_SEED": "5",
        })
        assert chaos.fail_rate == 1.0
        assert chaos.corrupt_rate == 0.0
        assert chaos.poison == frozenset({1, 2, 3})
        assert chaos.seed == 5
        assert chaos.enabled

    def test_from_env_defaults_to_disabled(self):
        chaos = ChaosConfig.from_env({})
        assert not chaos.enabled
        assert not chaos.should_fail(0, 1)
        assert not chaos.should_corrupt(0, 1)

    def test_injected_failures_strike_the_first_attempt_only(self):
        chaos = ChaosConfig(fail_rate=1.0)
        assert chaos.should_fail(0, 1)
        # Transient by construction: the retry can never be struck, so
        # chaos alone cannot drive a task into quarantine.
        assert not chaos.should_fail(0, 2)
        chaos.maybe_fail(0, 2)  # does not raise

    def test_poisoned_tasks_fail_every_attempt(self):
        chaos = ChaosConfig(poison=frozenset({4}))
        assert chaos.should_fail(4, 1) and chaos.should_fail(4, 7)
        assert not chaos.should_fail(5, 1)
        with pytest.raises(Exception, match="poisoned"):
            chaos.maybe_fail(4, 3)

    def test_ci_chaos_seed_strikes_most_of_the_micro_grid(self):
        # Pins the numbers CI's chaos leg relies on: at rate 0.3 with
        # seed 9, tasks 0, 1 and 3 of the 4-task micro grid fail their
        # first attempt — a strong retry signal, identical in every
        # worker because the draw is a pure function of (seed, index).
        chaos = ChaosConfig(fail_rate=0.3, seed=9)
        assert {i for i in range(4) if chaos.should_fail(i, 1)} == {0, 1, 3}

    def test_maybe_corrupt_truncates_the_first_write_only(self, tmp_path):
        chaos = ChaosConfig(corrupt_rate=1.0)
        path = tmp_path / "checkpoint.json"
        path.write_bytes(b"x" * 100)
        assert chaos.maybe_corrupt(path, 0, attempt=1)
        assert path.read_bytes() == b"x" * 50
        path.write_bytes(b"y" * 100)
        assert not chaos.maybe_corrupt(path, 0, attempt=2)
        assert path.read_bytes() == b"y" * 100


# ---------------------------------------------------------------------------
# run_queued_tasks integration: timeout and corruption both route through
# the retry layer and end in a clean, complete queue.
# ---------------------------------------------------------------------------

FAST_RETRIES = ResilienceConfig(backoff_base=0.01, backoff_cap=0.02, jitter=0.0)


def _tiny_sets() -> tuple[ArrayDataset, ArrayDataset]:
    rng = np.random.default_rng(42)
    train = ArrayDataset(
        rng.random((24, 1, 6, 6)).astype(np.float32), rng.integers(0, 4, 24)
    )
    test = ArrayDataset(
        rng.random((12, 1, 6, 6)).astype(np.float32), rng.integers(0, 4, 12)
    )
    return train, test


def _factory(v_th: float, time_window: int, seed: int) -> nn.Module:
    return nn.Sequential(nn.Flatten(), nn.Linear(36, 4, rng=seed))


@pytest.fixture()
def explorer() -> RobustnessExplorer:
    train, test = _tiny_sets()
    config = ExplorationConfig(
        v_thresholds=(0.5, 1.5),
        time_windows=(2,),
        epsilons=(0.1,),
        accuracy_threshold=0.0,
        attack="fgsm",
        attack_steps=1,
        training=TrainingConfig(epochs=1, batch_size=8, learning_rate=0.01),
        seed=7,
    )
    return RobustnessExplorer(_factory, train, test, config)


class TestSupervisedQueueRuns:
    def _cache(self, explorer, directory) -> CellCache:
        return CellCache(directory, context_fingerprint(explorer.context))

    def test_watchdog_timeout_burns_an_attempt_then_retries(
        self, explorer, tmp_path, monkeypatch
    ):
        for name in ("REPRO_CHAOS_FAIL_RATE", "REPRO_CHAOS_CORRUPT_RATE",
                     "REPRO_CHAOS_POISON_TASKS"):
            monkeypatch.delenv(name, raising=False)
        tasks = explorer.tasks()
        cache = self._cache(explorer, tmp_path / "cache")
        attempts: dict[int, int] = {}
        lock = threading.Lock()

        def hang_once(context, task):
            with lock:
                n = attempts.get(task.index, 0) + 1
                attempts[task.index] = n
            if n == 1:
                stop_at = time.monotonic() + 3.0
                while time.monotonic() < stop_at:
                    pass  # hung phase: the watchdog must shoot it
            return run_cell_task(context, task)

        result = run_queued_tasks(
            explorer.context, tasks, hang_once, cache, tmp_path / "q",
            experiment="grid", lease_ttl=30.0, worker="sleepy",
            resilience=FAST_RETRIES, poll_interval=0.01,
            task_deadline=lambda task: 0.1,
        )
        assert sorted(result.committed) == [t.index for t in tasks]
        assert result.complete and result.quarantined == ()
        kinds = Counter(e["event"] for e in read_events(result.events_path))
        assert kinds["timeout"] == len(tasks)
        assert kinds["retry"] == len(tasks)
        assert kinds.get("quarantine", 0) == 0
        history = attempt_records(tmp_path / "q")
        for task in tasks:
            (record,) = history[task.index]
            assert record["kind"] == "timeout"
            assert "watchdog deadline" in record["error"]
        # The retried results equal a serial evaluation of the same cell.
        for task in tasks:
            assert cache.get(task) == run_cell_task(explorer.context, task)

    def test_injected_corruption_is_caught_and_retried(
        self, explorer, tmp_path, monkeypatch
    ):
        # Chaos truncates every task's first checkpoint post-write; the
        # read-back sha256 proof must catch each one, drop the torn
        # file, burn an attempt, and let the retry commit clean bytes.
        monkeypatch.setenv("REPRO_CHAOS_CORRUPT_RATE", "1.0")
        monkeypatch.delenv("REPRO_CHAOS_FAIL_RATE", raising=False)
        monkeypatch.delenv("REPRO_CHAOS_POISON_TASKS", raising=False)
        tasks = explorer.tasks()
        cache = self._cache(explorer, tmp_path / "cache")
        result = run_queued_tasks(
            explorer.context, tasks, run_cell_task, cache, tmp_path / "q",
            experiment="grid", lease_ttl=30.0, worker="victim",
            resilience=FAST_RETRIES, poll_interval=0.01,
        )
        assert sorted(result.committed) == [t.index for t in tasks]
        assert result.complete and result.quarantined == ()
        kinds = Counter(e["event"] for e in read_events(result.events_path))
        assert kinds["retry"] == len(tasks)
        assert kinds.get("quarantine", 0) == 0
        history = attempt_records(tmp_path / "q")
        for task in tasks:
            (record,) = history[task.index]
            assert record["kind"] == "corrupt"
        # The committed checkpoints are whole: they parse, verify, and
        # match a serial evaluation byte-for-byte at the value level.
        for task in tasks:
            json.loads(cache.path_for(task).read_text())
            assert cache.get(task) == run_cell_task(explorer.context, task)
