"""Elastic fleet: the work-stealing queue protocol, invariants, and CLI.

Three layers, mirroring docs/sharding.md's dynamic-fleet section:

* protocol primitives — exclusive claims, expiry-driven steals,
  exactly-once commit markers, crash-tolerant event-log readers — driven
  deterministically through an injectable clock;
* property-style invariants — randomized (seeded) claim / steal / crash
  / resume interleavings across several simulated workers must never
  lose a task, never double-commit one, and leave event-log fingerprints
  forming an exact cover of the task list;
* the engine loop and CLI — ``run_queued_tasks`` parity with the static
  shard and serial paths (including a ``--stack 2`` leg and a ragged,
  late-joining worker pair), and the ``cache watch`` coordinator view.

The subprocess fault-injection proof (real workers, SIGKILL mid-lease)
lives in ``tests/test_fleet_faults.py``.
"""

from __future__ import annotations

import json
import logging
import os
import random
import threading
import time
from collections import Counter

import numpy as np
import pytest

from repro import nn
from repro.data import ArrayDataset
from repro.engine import (
    AttemptLedger,
    CellCache,
    CellTask,
    JobContext,
    QueueError,
    ResilienceConfig,
    ShardSpec,
    WorkQueue,
    build_cell_tasks,
    context_fingerprint,
    merge_event_logs,
    queue_status,
    read_events,
    run_cell_task,
    run_cell_tasks,
    run_queued_tasks,
    run_tasks,
    verify_cache_dir,
)
from repro.experiments.runner import main
from repro.robustness import ExplorationConfig
from repro.training.trainer import TrainingConfig

FINGERPRINT = "f" * 64

# Failures in these tests are injected, not real: a tiny deterministic
# backoff keeps the retry path fast without changing its structure.
FAST_RETRIES = ResilienceConfig(
    backoff_base=0.01, backoff_cap=0.02, jitter=0.0
)


class FakeClock:
    """A hand-cranked clock so lease expiry is deterministic in tests."""

    def __init__(self, start: float = 1_000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_queue(directory, worker: str, clock, *, task_count: int = 4,
               lease_ttl: float = 10.0) -> WorkQueue:
    return WorkQueue(
        directory,
        experiment="grid",
        fingerprint=FINGERPRINT,
        task_count=task_count,
        lease_ttl=lease_ttl,
        worker=worker,
        clock=clock,
    )


def _tiny_sets() -> tuple[ArrayDataset, ArrayDataset]:
    rng = np.random.default_rng(42)
    train = ArrayDataset(rng.random((24, 1, 6, 6)).astype(np.float32), rng.integers(0, 4, 24))
    test = ArrayDataset(rng.random((12, 1, 6, 6)).astype(np.float32), rng.integers(0, 4, 12))
    return train, test


def _factory(v_th: float, time_window: int, seed: int) -> nn.Module:
    return nn.Sequential(nn.Flatten(), nn.Linear(36, 4, rng=seed))


def _config() -> ExplorationConfig:
    return ExplorationConfig(
        v_thresholds=(0.5, 1.0, 1.5),
        time_windows=(2, 4),
        epsilons=(0.1,),
        accuracy_threshold=0.0,
        attack="fgsm",
        attack_steps=1,
        training=TrainingConfig(epochs=1, batch_size=8, learning_rate=0.01),
        seed=7,
    )


@pytest.fixture()
def context() -> JobContext:
    train, test = _tiny_sets()
    return JobContext.for_grid(_config(), _factory, train, test)


@pytest.fixture()
def tasks() -> list[CellTask]:
    return build_cell_tasks(_config())


class TestEventLogs:
    def test_read_events_skips_truncated_final_line(self, tmp_path, caplog):
        # A worker SIGKILLed between write() and the newline leaves a
        # truncated tail; the reader must serve the intact prefix.
        path = tmp_path / "events_w0.jsonl"
        path.write_text(
            json.dumps({"event": "claim", "task": 0, "worker": "w0"}) + "\n"
            + json.dumps({"event": "commit", "task": 0, "worker": "w0"}) + "\n"
            + '{"event": "claim", "task": 1, "wor'
        )
        with caplog.at_level(logging.WARNING, logger="repro.engine"):
            events = read_events(path)
        assert [e["event"] for e in events] == ["claim", "commit"]
        assert "truncated final" in caplog.text
        assert "crash mid-append" in caplog.text

    def test_read_events_skips_corrupt_interior_line(self, tmp_path, caplog):
        path = tmp_path / "events_w0.jsonl"
        path.write_text(
            json.dumps({"event": "claim", "task": 0}) + "\n"
            + "not json at all\n"
            + json.dumps({"event": "commit", "task": 0}) + "\n"
        )
        with caplog.at_level(logging.WARNING, logger="repro.engine"):
            events = read_events(path)
        assert [e["event"] for e in events] == ["claim", "commit"]
        assert "corrupt" in caplog.text

    def test_read_events_missing_file_is_empty(self, tmp_path):
        assert read_events(tmp_path / "events_nobody.jsonl") == []

    def test_merge_orders_across_workers_by_time(self, tmp_path):
        (tmp_path / "events_b.jsonl").write_text(
            json.dumps({"event": "claim", "worker": "b", "time": 2.0}) + "\n"
        )
        (tmp_path / "events_a.jsonl").write_text(
            json.dumps({"event": "claim", "worker": "a", "time": 3.0}) + "\n"
            + json.dumps({"event": "claim", "worker": "a", "time": 1.0}) + "\n"
        )
        merged = merge_event_logs(tmp_path)
        assert [(e["worker"], e["time"]) for e in merged] == [
            ("a", 1.0), ("b", 2.0), ("a", 3.0)
        ]


class TestWorkQueueProtocol:
    def test_claim_is_exclusive(self, tmp_path):
        clock = FakeClock()
        a = make_queue(tmp_path, "a", clock)
        b = make_queue(tmp_path, "b", clock)
        assert a.claim(0)
        assert not b.claim(0)
        lease = a.read_lease(0)
        assert lease["owner"] == "a"
        assert lease["ttl"] == 10.0

    def test_done_tasks_cannot_be_claimed(self, tmp_path):
        clock = FakeClock()
        a = make_queue(tmp_path, "a", clock)
        assert a.commit(0, fingerprint="task-0")
        assert not a.claim(0)
        acquired, stolen = a.acquire(0)
        assert not acquired and not stolen

    def test_steal_requires_expiry(self, tmp_path):
        clock = FakeClock()
        a = make_queue(tmp_path, "a", clock)
        b = make_queue(tmp_path, "b", clock)
        assert a.claim(0)
        clock.advance(9.0)  # inside the TTL: the owner is presumed alive
        assert not b.steal(0)
        clock.advance(2.0)  # heartbeat now older than the TTL
        assert b.steal(0)
        assert b.read_lease(0)["owner"] == "b"
        events = read_events(b.events_path)
        assert {"event": "steal", "task": 0} == {
            k: events[-1][k] for k in ("event", "task")
        }
        assert events[-1]["victim"] == "a"

    def test_exactly_one_stealer_wins(self, tmp_path):
        clock = FakeClock()
        a = make_queue(tmp_path, "a", clock)
        thieves = [make_queue(tmp_path, f"t{i}", clock) for i in range(4)]
        assert a.claim(0)
        clock.advance(11.0)
        winners = [queue for queue in thieves if queue.steal(0)]
        assert len(winners) == 1
        assert a.read_lease(0)["owner"] == winners[0].worker

    def test_heartbeat_refresh_extends_the_lease(self, tmp_path):
        clock = FakeClock()
        a = make_queue(tmp_path, "a", clock)
        b = make_queue(tmp_path, "b", clock)
        assert a.claim(0)
        clock.advance(8.0)
        assert a.refresh(0)
        clock.advance(8.0)  # 16s since claim, but only 8s since refresh
        assert not b.steal(0)

    def test_refresh_refuses_after_steal(self, tmp_path):
        # The victim was presumed dead and its task stolen; a late
        # heartbeat must not resurrect the old lease under the thief.
        clock = FakeClock()
        a = make_queue(tmp_path, "a", clock)
        b = make_queue(tmp_path, "b", clock)
        assert a.claim(0)
        clock.advance(11.0)
        assert b.steal(0)
        assert not a.refresh(0)
        assert a.read_lease(0)["owner"] == "b"

    def test_release_only_drops_own_lease(self, tmp_path):
        clock = FakeClock()
        a = make_queue(tmp_path, "a", clock)
        b = make_queue(tmp_path, "b", clock)
        assert a.claim(0)
        b.release(0)  # not b's lease: must be a no-op
        assert a.read_lease(0)["owner"] == "a"
        a.release(0)
        assert a.read_lease(0) is None

    def test_commit_is_exactly_once_fleet_wide(self, tmp_path):
        clock = FakeClock()
        a = make_queue(tmp_path, "a", clock)
        b = make_queue(tmp_path, "b", clock)
        assert a.commit(0, fingerprint="cell_0.json", checksum="c" * 64)
        # A slow-but-alive worker finishing the same task records a
        # duplicate, not a second commit.
        assert not b.commit(0, fingerprint="cell_0.json", checksum="c" * 64)
        assert [e["event"] for e in read_events(a.events_path)] == ["commit"]
        assert [e["event"] for e in read_events(b.events_path)] == ["duplicate"]
        marker = json.loads(a.done_path(0).read_text())
        assert marker["worker"] == "a"
        assert marker["fingerprint"] == "cell_0.json"

    def test_unparseable_lease_blocks_then_expires_by_mtime(self, tmp_path):
        # A claimer that died inside the claim write leaves garbage: the
        # task must stay blocked while the file is fresh (the writer may
        # be alive mid-write) but become stealable once the mtime ages
        # out like any abandoned heartbeat.
        clock = FakeClock(start=time.time())
        a = make_queue(tmp_path, "a", clock, lease_ttl=5.0)
        a.lease_path(0).write_text("{half a claim")
        assert not a.claim(0)
        acquired, _ = a.acquire(0)
        assert not acquired
        old = time.time() - 60.0
        os.utime(a.lease_path(0), (old, old))
        acquired, stolen = a.acquire(0)
        assert acquired and stolen

    def test_torn_lease_with_future_mtime_expires_after_one_ttl(self, tmp_path):
        # Clock skew (NFS, a wrong-clocked host) can stamp the garbage
        # lease with a *future* mtime; keying expiry on the mtime alone
        # would then block the task forever.  The observer's first
        # sighting caps the synthetic heartbeat, so one TTL after a
        # worker first sees the torn lease it becomes stealable through
        # the normal path.
        clock = FakeClock(start=time.time())
        a = make_queue(tmp_path, "a", clock, lease_ttl=5.0)
        a.lease_path(0).write_text("{half a claim")
        future = time.time() + 3_600.0
        os.utime(a.lease_path(0), (future, future))
        acquired, _ = a.acquire(0)
        assert not acquired  # first sighting: still within its TTL grace
        clock.advance(6.0)
        acquired, stolen = a.acquire(0)
        assert acquired and stolen

    def test_handed_off_lease_is_stolen_without_ttl_wait(self, tmp_path):
        # A gracefully retiring worker writes a handoff tombstone; peers
        # reclaim its fresh lease immediately instead of waiting out the
        # heartbeat TTL.
        clock = FakeClock()
        a = make_queue(tmp_path, "a", clock, lease_ttl=1_000.0)
        b = make_queue(tmp_path, "b", clock, lease_ttl=1_000.0)
        assert a.claim(0)
        assert not b.steal(0)  # fresh lease, no handoff: untouchable
        AttemptLedger(tmp_path, clock=clock).record_handoff(
            0, worker="a", signal_name="SIGTERM"
        )
        clock.advance(0.5)  # far inside the TTL — the handoff alone frees it
        acquired, stolen = b.acquire(0)
        assert acquired and stolen

    def test_snapshot_classifies_done_active_expired(self, tmp_path):
        clock = FakeClock()
        a = make_queue(tmp_path, "a", clock)
        assert a.commit(0, fingerprint="task-0")
        assert a.claim(1)
        clock.advance(11.0)
        assert a.claim(2)  # fresh; task 1's heartbeat is now stale
        state = a.snapshot()
        assert state.done == frozenset({0})
        assert set(state.active) == {2}
        assert set(state.expired) == {1}
        # A straggler lease on a committed task is ignored, not waited on.
        a.release(2)
        assert a.claim(3)
        assert a.commit(3, fingerprint="task-3")
        assert 3 not in a.snapshot().active

    def test_complete_tracks_the_declared_task_count(self, tmp_path):
        clock = FakeClock()
        a = make_queue(tmp_path, "a", clock, task_count=2)
        assert not a.complete
        a.commit(0)
        a.commit(1)
        assert a.complete


class TestQueueIdentity:
    def test_mismatched_fingerprint_rejected(self, tmp_path):
        clock = FakeClock()
        make_queue(tmp_path, "a", clock)
        with pytest.raises(QueueError, match="different task list"):
            WorkQueue(tmp_path, experiment="grid", fingerprint="0" * 64,
                      task_count=4, worker="b", clock=clock)

    def test_mismatched_task_count_rejected(self, tmp_path):
        clock = FakeClock()
        make_queue(tmp_path, "a", clock, task_count=4)
        with pytest.raises(QueueError, match="task_count"):
            make_queue(tmp_path, "b", clock, task_count=5)

    def test_matching_identity_joins(self, tmp_path):
        clock = FakeClock()
        make_queue(tmp_path, "a", clock)
        make_queue(tmp_path, "b", clock)  # no raise: same grid, new worker

    def test_unreadable_manifest_rejected(self, tmp_path):
        (tmp_path / "queue.json").write_text("{broken")
        with pytest.raises(QueueError, match="unreadable"):
            make_queue(tmp_path, "a", FakeClock())

    def test_nonpositive_ttl_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="lease_ttl"):
            make_queue(tmp_path, "a", FakeClock(), lease_ttl=0.0)


class TestQueueInvariants:
    """Randomized interleavings: the protocol's safety net, seeded."""

    TASKS = 8
    WORKERS = 4
    TTL = 10.0

    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 20210301])
    def test_random_claim_steal_crash_resume_interleavings(self, tmp_path, seed):
        rng = random.Random(seed)
        clock = FakeClock()
        queues = [
            make_queue(tmp_path, f"w{i}", clock,
                       task_count=self.TASKS, lease_ttl=self.TTL)
            for i in range(self.WORKERS)
        ]
        held: dict[int, set[int]] = {i: set() for i in range(self.WORKERS)}
        alive = [True] * self.WORKERS
        steals = 0
        for _step in range(10_000):
            if queues[0].complete:
                break
            w = rng.randrange(self.WORKERS)
            if not alive[w]:
                # A crashed worker may come back with the same identity;
                # whatever it held stays abandoned until stolen.
                if rng.random() < 0.3:
                    alive[w] = True
                continue
            roll = rng.random()
            if roll < 0.45:
                index = rng.randrange(self.TASKS)
                acquired, stolen = queues[w].acquire(index)
                if acquired:
                    held[w].add(index)
                    steals += int(stolen)
            elif roll < 0.70 and held[w]:
                index = held[w].pop()
                queues[w].commit(index, fingerprint=f"task-{index}")
                queues[w].release(index)
            elif roll < 0.80 and held[w]:
                for index in list(held[w]):
                    queues[w].refresh(index)
            elif roll < 0.95:
                clock.advance(rng.uniform(0.5, self.TTL))
            else:
                # SIGKILL: leases abandoned, no release, no cleanup.
                alive[w] = False
                held[w] = set()
        assert queues[0].complete, f"queue never drained (seed {seed})"

        # No task lost: every declared index has a commit marker, and the
        # marker fingerprints form an exact cover of the task list.
        done = queues[0].done_indices()
        assert done == set(range(self.TASKS))
        markers = {
            index: json.loads(queues[0].done_path(index).read_text())
            for index in done
        }
        assert {m["fingerprint"] for m in markers.values()} == {
            f"task-{index}" for index in range(self.TASKS)
        }

        # No task double-committed: exactly one commit event per task
        # across every worker's stream; later finishers show up only as
        # harmless duplicates.
        events = merge_event_logs(tmp_path)
        commits = Counter(
            e["task"] for e in events if e["event"] == "commit"
        )
        assert commits == Counter({index: 1 for index in range(self.TASKS)})
        for event in events:
            if event["event"] == "commit":
                assert markers[event["task"]]["worker"] == event["worker"]
        # Steal accounting survives the merge.
        logged_steals = sum(1 for e in events if e["event"] == "steal")
        assert logged_steals == steals

        # Replay after completion is a no-op: no index is claimable and
        # a fresh joiner immediately observes the queue complete.
        late = make_queue(tmp_path, "late", clock,
                          task_count=self.TASKS, lease_ttl=self.TTL)
        assert late.complete
        for index in range(self.TASKS):
            acquired, _ = late.acquire(index)
            assert not acquired
        assert not late.events_path.exists()


class TestRunQueuedTasks:
    def _cache(self, context, directory) -> CellCache:
        return CellCache(directory, context_fingerprint(context))

    def test_single_worker_serves_the_whole_grid(
        self, context, tasks, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_QUEUE_WORKER", "solo")
        cache = self._cache(context, tmp_path / "cache")
        result, stats = run_tasks(
            context, tasks, run_cell_task, cache=cache,
            queue_dir=tmp_path / "q", experiment="grid",
            cache_dir=tmp_path / "cache", lease_ttl=30.0,
        )
        assert sorted(result.committed) == [t.index for t in tasks]
        assert result.complete
        assert result.stolen == 0
        assert stats.computed_cells == len(tasks)
        assert stats.start_method == "queue"
        # Every committed checkpoint equals the serial evaluation.
        for task in tasks:
            assert cache.get(task) == run_cell_task(context, task)
        # The shared cache is certified for `cache verify`.
        ok, summaries = verify_cache_dir(tmp_path / "cache")
        assert ok and summaries[0]["experiment"] == "grid"
        # Commit events carry the checkpoint fingerprint and checksum.
        for event in read_events(result.events_path):
            if event["event"] == "commit":
                path = tmp_path / "cache" / event["fingerprint"]
                assert path.is_file()
                assert len(event["checksum"]) == 64

    def test_replay_over_a_finished_queue_is_a_noop(
        self, context, tasks, tmp_path, monkeypatch
    ):
        cache = self._cache(context, tmp_path / "cache")
        common = dict(cache=cache, queue_dir=tmp_path / "q", experiment="grid",
                      cache_dir=tmp_path / "cache", lease_ttl=30.0)
        monkeypatch.setenv("REPRO_QUEUE_WORKER", "first")
        run_tasks(context, tasks, run_cell_task, **common)
        monkeypatch.setenv("REPRO_QUEUE_WORKER", "second")
        replay, stats = run_tasks(
            context, tasks, run_cell_task, resume=True, **common
        )
        assert replay.committed == ()
        assert stats.computed_cells == 0
        assert stats.cached_cells == 0
        # The replaying worker logged nothing: no claims, no commits.
        assert read_events(replay.events_path) == []

    def test_resume_streams_warm_checkpoints_into_commits(
        self, context, tasks, tmp_path, monkeypatch
    ):
        # A queue restarted after a wipe of its markers (but with the
        # checkpoint directory intact) must serve cache hits straight
        # into commit markers without recomputing or leasing anything.
        cache = self._cache(context, tmp_path / "cache")
        common = dict(cache=cache, experiment="grid",
                      cache_dir=tmp_path / "cache", lease_ttl=30.0)
        monkeypatch.setenv("REPRO_QUEUE_WORKER", "first")
        run_tasks(context, tasks, run_cell_task,
                  queue_dir=tmp_path / "q1", **common)
        monkeypatch.setenv("REPRO_QUEUE_WORKER", "warm")
        warm, stats = run_tasks(
            context, tasks, run_cell_task, queue_dir=tmp_path / "q2",
            resume=True, **common,
        )
        assert sorted(warm.committed) == [t.index for t in tasks]
        assert stats.cached_cells == len(tasks)
        assert stats.computed_cells == 0
        events = read_events(warm.events_path)
        assert {e["event"] for e in events} == {"cached"}

    def test_progress_fires_only_on_commits_this_worker_created(
        self, context, tasks, tmp_path
    ):
        # A completion that loses the done_ marker race to a peer is a
        # duplicate: it must reach neither progress nor the stats.
        cache = self._cache(context, tmp_path / "cache")
        queue_dir = tmp_path / "q"

        def peer_commits_first(context, task):
            result = run_cell_task(context, task)
            (queue_dir / f"done_{task.index}.json").write_text("{}")
            return result

        seen: list[int] = []
        result, stats = run_tasks(
            context, tasks, peer_commits_first, cache=cache,
            queue_dir=queue_dir, experiment="grid", lease_ttl=30.0,
            progress=lambda task, cell, cached: seen.append(task.index),
        )
        assert result.committed == ()
        assert seen == []
        assert (stats.computed_cells, stats.cached_cells) == (0, 0)
        kinds = Counter(e["event"] for e in read_events(result.events_path))
        assert kinds["duplicate"] == len(tasks)

    def test_queue_requires_a_cache(self, context, tasks, tmp_path):
        with pytest.raises(ValueError, match="requires a cache"):
            run_queued_tasks(
                context, tasks, run_cell_task, None,
                tmp_path / "q", experiment="grid",
            )

    def test_failed_cache_write_is_fatal_after_one_retry(
        self, context, tasks, tmp_path, monkeypatch
    ):
        # The local scheduler shrugs off checkpoint failures; a queue
        # worker cannot — the cache is how its results reach the fleet.
        # A transient ENOSPC gets exactly one bounded retry (recorded as
        # a cache_write_retry event) before the worker dies.
        cache = self._cache(context, tmp_path / "cache")
        monkeypatch.setattr(
            CellCache, "put",
            lambda self, task, value: (_ for _ in ()).throw(OSError("disk full")),
        )
        with pytest.raises(QueueError, match="result transport"):
            run_queued_tasks(
                context, tasks, run_cell_task, cache,
                tmp_path / "q", experiment="grid", lease_ttl=30.0,
                worker="full", resilience=FAST_RETRIES,
            )
        events = read_events(tmp_path / "q" / "events_full.jsonl")
        kinds = [e["event"] for e in events]
        assert "cache_write_retry" in kinds
        assert "failed" in kinds
        assert kinds.index("cache_write_retry") < kinds.index("failed")

    def test_transient_cache_write_failure_is_absorbed(
        self, context, tasks, tmp_path, monkeypatch
    ):
        # ENOSPC that clears before the bounded retry (space freed, quota
        # raised) must cost one cache_write_retry event and nothing else.
        cache = self._cache(context, tmp_path / "cache")
        real_put = CellCache.put
        flaked: set[int] = set()

        def flaky_put(self, task, value):
            if task.index not in flaked:
                flaked.add(task.index)
                raise OSError("disk full")
            return real_put(self, task, value)

        monkeypatch.setattr(CellCache, "put", flaky_put)
        result = run_queued_tasks(
            context, tasks, run_cell_task, cache, tmp_path / "q",
            experiment="grid", lease_ttl=30.0, worker="flaky",
            resilience=FAST_RETRIES,
        )
        assert sorted(result.committed) == [t.index for t in tasks]
        assert result.quarantined == ()
        events = read_events(result.events_path)
        retries = [e for e in events if e["event"] == "cache_write_retry"]
        assert len(retries) == len(tasks)
        assert not any(e["event"] == "failed" for e in events)

    def test_crashed_run_fn_retries_then_quarantines(self, context, tasks, tmp_path):
        # A task that fails on every attempt burns its budget and lands
        # in quarantine; the worker survives, nothing stays leased, and
        # the marker carries the attempt history.
        cache = self._cache(context, tmp_path / "cache")

        def explode(context, task):
            raise RuntimeError("boom")

        supervision = ResilienceConfig(
            max_attempts=2, backoff_base=0.01, backoff_cap=0.02, jitter=0.0
        )
        result = run_queued_tasks(
            context, tasks, explode, cache, tmp_path / "q",
            experiment="grid", lease_ttl=30.0, worker="doomed",
            resilience=supervision, poll_interval=0.01,
        )
        assert result.committed == ()
        assert sorted(result.quarantined) == [t.index for t in tasks]
        assert result.complete  # quarantine resolves the queue, not hangs it
        assert not list((tmp_path / "q").glob("lease_*.json"))
        events = read_events(result.events_path)
        kinds = Counter(e["event"] for e in events)
        assert kinds["retry"] == len(tasks)  # attempt 1 of each
        assert kinds["quarantine"] == len(tasks)  # attempt 2 exhausts
        assert kinds.get("failed", 0) == 0  # task crashes are not worker-fatal
        ledger = AttemptLedger(tmp_path / "q")
        for task in tasks:
            marker = ledger.quarantine_record(task.index)
            assert len(marker["attempts"]) == 2
            assert "boom" in marker["error"]
            assert "RuntimeError" in marker["attempts"][-1]["traceback"]

    def test_every_task_failing_once_still_exact_covers(self, context, tasks, tmp_path):
        # The seeded-interleaving guarantee under fire: a ragged pair of
        # workers where *every* task's first attempt crashes must still
        # end with an exact cover and exactly one commit per task.
        cache = self._cache(context, tmp_path / "cache")
        attempts_seen: dict[int, int] = {}
        attempts_lock = threading.Lock()

        def fail_once(context, task):
            with attempts_lock:
                n = attempts_seen.get(task.index, 0) + 1
                attempts_seen[task.index] = n
            if n == 1:
                raise RuntimeError(f"transient {task.index}")
            return run_cell_task(context, task)

        outcomes: dict[str, object] = {}

        def serve(worker: str, delay: float) -> None:
            time.sleep(delay)
            outcomes[worker] = run_queued_tasks(
                context, tasks, fail_once, cache, tmp_path / "q",
                experiment="grid", lease_ttl=30.0, worker=worker,
                poll_interval=0.01, resilience=FAST_RETRIES,
            )

        threads = [
            threading.Thread(target=serve, args=("early", 0.0)),
            threading.Thread(target=serve, args=("late", 0.05)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        early = set(outcomes["early"].committed)
        late = set(outcomes["late"].committed)
        assert early.isdisjoint(late)
        assert early | late == {t.index for t in tasks}
        assert outcomes["early"].quarantined == ()
        assert outcomes["late"].quarantined == ()
        events = merge_event_logs(tmp_path / "q")
        commits = Counter(e["task"] for e in events if e["event"] == "commit")
        assert commits == Counter({t.index: 1 for t in tasks})
        retries = Counter(e["task"] for e in events if e["event"] == "retry")
        assert retries == Counter({t.index: 1 for t in tasks})
        # The salvaged results are byte-identical to a clean evaluation.
        for task in tasks:
            assert cache.get(task) == run_cell_task(context, task)

    def test_two_workers_partition_without_overlap(self, context, tasks, tmp_path):
        # A ragged pair: the second worker joins late, mid-drain.  The
        # committed sets must be disjoint and union to the full grid no
        # matter who wins which race.
        cache = self._cache(context, tmp_path / "cache")
        outcomes: dict[str, object] = {}

        def slow_cell(context, task):
            time.sleep(0.05)
            return run_cell_task(context, task)

        def serve(worker: str, delay: float) -> None:
            time.sleep(delay)
            outcomes[worker] = run_queued_tasks(
                context, tasks, slow_cell, cache, tmp_path / "q",
                experiment="grid", lease_ttl=30.0, worker=worker,
                poll_interval=0.02,
            )

        threads = [
            threading.Thread(target=serve, args=("early", 0.0)),
            threading.Thread(target=serve, args=("late", 0.12)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        early = set(outcomes["early"].committed)
        late = set(outcomes["late"].committed)
        assert early.isdisjoint(late)
        assert early | late == {t.index for t in tasks}
        assert outcomes["early"].complete and outcomes["late"].complete
        for task in tasks:
            assert cache.get(task) == run_cell_task(context, task)


class TestQueueParity:
    """Dynamic queue == static shards merged == serial, bit for bit."""

    def test_queue_equals_shard_equals_serial(self, context, tasks, tmp_path):
        fingerprint = context_fingerprint(context)
        serial, _ = run_cell_tasks(context, tasks)

        # Static partition: two shards into one shared cache directory.
        shard_cache = CellCache(tmp_path / "shards", fingerprint)
        for index in range(2):
            run_cell_tasks(context, tasks, cache=shard_cache,
                           shard=ShardSpec(index, 2))

        # Dynamic partition: one queue worker drains the same task list.
        queue_cache = CellCache(tmp_path / "qcache", fingerprint)
        run_queued_tasks(
            context, tasks, run_cell_task, queue_cache,
            tmp_path / "q", experiment="grid", lease_ttl=30.0, worker="solo",
        )

        for task, reference in zip(tasks, serial):
            assert shard_cache.get(task) == reference
            assert queue_cache.get(task) == reference

    def test_quarantined_cell_leaves_the_rest_byte_identical(
        self, context, tasks, tmp_path
    ):
        # Quarantine bounds the blast radius: a grid with one poisoned
        # cell must equal the serial reference on every *other* cell —
        # same bytes, no contagion — and leave only the poisoned index
        # without a checkpoint.
        serial, _ = run_cell_tasks(context, tasks)
        poisoned = tasks[2].index
        cache = CellCache(tmp_path / "cache", context_fingerprint(context))

        def poison_one(context, task):
            if task.index == poisoned:
                raise RuntimeError("poisoned cell")
            return run_cell_task(context, task)

        supervision = ResilienceConfig(
            max_attempts=2, backoff_base=0.01, backoff_cap=0.02, jitter=0.0
        )
        result = run_queued_tasks(
            context, tasks, poison_one, cache, tmp_path / "q",
            experiment="grid", lease_ttl=30.0, worker="solo",
            resilience=supervision, poll_interval=0.01,
        )
        assert result.quarantined == (poisoned,)
        assert sorted(result.committed) == [
            t.index for t in tasks if t.index != poisoned
        ]
        for task, reference in zip(tasks, serial):
            if task.index == poisoned:
                assert cache.get(task) is None
            else:
                assert cache.get(task) == reference

    def test_stacked_queue_leg_matches_serial(self, context, tasks, tmp_path, monkeypatch):
        # --stack 2 through the queue: cells are folded into fused
        # multi-variant passes but must stay bitwise identical per cell.
        monkeypatch.setenv("REPRO_QUEUE_WORKER", "stacker")
        cache = CellCache(tmp_path / "cache", context_fingerprint(context))
        result, stats = run_tasks(
            context, tasks, run_cell_task, cache=cache,
            queue_dir=tmp_path / "q", experiment="grid",
            cache_dir=tmp_path / "cache", lease_ttl=30.0, stack=2,
        )
        assert sorted(result.committed) == [t.index for t in tasks]
        assert stats.computed_cells == len(tasks)
        for task in tasks:
            assert cache.get(task) == run_cell_task(context, task)


def _fake_queue_dir(root, experiment: str = "grid", tasks: int = 2,
                    done: int | None = None):
    """A hand-built queue directory, committed without running anything."""
    clock = FakeClock()
    queue = WorkQueue(root / experiment, experiment=experiment,
                      fingerprint=FINGERPRINT, task_count=tasks,
                      worker="w0", clock=clock)
    for index in range(tasks if done is None else done):
        queue.acquire(index)
        queue.commit(index, fingerprint=f"task-{index}", checksum="a" * 64,
                     elapsed=1.5, phase_seconds={"train_s": 1.0})
        queue.release(index)
    return queue


class TestQueueStatus:
    def test_status_aggregates_worker_totals(self, tmp_path):
        queue = _fake_queue_dir(tmp_path, tasks=3, done=2)
        queue.acquire(2)  # one live lease left behind
        status = queue_status(tmp_path / "grid", now=queue.clock())
        assert status["experiment"] == "grid"
        assert status["task_count"] == 3
        assert status["done"] == 2
        assert not status["complete"]
        assert [lease["task"] for lease in status["active_leases"]] == [2]
        totals = status["workers"]["w0"]
        assert totals["claims"] == 3
        assert totals["commits"] == 2
        assert totals["elapsed_s"] == pytest.approx(3.0)
        assert status["phase_totals"] == {"train_s": 2.0}

    def test_status_counts_expired_leases(self, tmp_path):
        queue = _fake_queue_dir(tmp_path, tasks=2, done=0)
        queue.acquire(0)
        status = queue_status(
            tmp_path / "grid", now=queue.clock() + 2 * queue.lease_ttl
        )
        assert [lease["task"] for lease in status["expired_leases"]] == [0]
        assert status["active_leases"] == []


class TestQueueCLI:
    def test_queue_conflicts_with_shard(self, capsys):
        with pytest.raises(SystemExit):
            main(["grid", "--profile", "micro", "--queue", "/tmp/q",
                  "--shard", "0/2"])
        assert "conflicts with shard" in capsys.readouterr().err

    def test_queue_conflicts_with_no_cache(self, capsys):
        with pytest.raises(SystemExit):
            main(["grid", "--profile", "micro", "--queue", "/tmp/q",
                  "--no-cache"])
        assert "drop --no-cache" in capsys.readouterr().err

    def test_queue_conflicts_with_jobs(self, capsys):
        with pytest.raises(SystemExit):
            main(["grid", "--profile", "micro", "--queue", "/tmp/q",
                  "--jobs", "2"])
        assert "more workers" in capsys.readouterr().err

    def test_nonpositive_lease_ttl_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["grid", "--profile", "micro", "--queue", "/tmp/q",
                  "--lease-ttl", "0"])
        assert "lease_ttl must be > 0" in capsys.readouterr().err

    def test_watch_requires_queue_flag(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["cache", "watch"])
        assert exited.value.code == 2
        assert "required: --queue" in capsys.readouterr().err

    def test_watch_flags_rejected_outside_watch(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["cache", "stats", "--queue", str(tmp_path)])
        assert exited.value.code == 2
        assert "unrecognized arguments: --queue" in capsys.readouterr().err

    def test_watch_missing_queue_exits_2(self, tmp_path, capsys):
        assert main(["cache", "watch", "--queue", str(tmp_path / "nope")]) == 2
        assert "no queue manifest" in capsys.readouterr().err

    def test_watch_incomplete_queue_exits_1(self, tmp_path, capsys):
        _fake_queue_dir(tmp_path, tasks=3, done=1)
        assert main(["cache", "watch", "--queue", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "1/3" in out

    def test_watch_complete_queue_exits_0(self, tmp_path, capsys):
        _fake_queue_dir(tmp_path, tasks=2)
        assert main(["cache", "watch", "--queue", str(tmp_path)]) == 0
        assert "complete" in capsys.readouterr().out

    def test_watch_merges_multiple_experiment_queues(self, tmp_path, capsys):
        # One queue root, several experiment subqueues (the `all` layout):
        # watch reports each and gates its exit code on *all* of them.
        _fake_queue_dir(tmp_path, experiment="grid", tasks=2)
        _fake_queue_dir(tmp_path, experiment="fig9", tasks=3, done=1)
        assert main(["cache", "watch", "--queue", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "grid" in out and "fig9" in out

    def test_watch_json_is_machine_readable(self, tmp_path, capsys):
        _fake_queue_dir(tmp_path, tasks=2)
        assert main(["cache", "watch", "--queue", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        statuses = payload if isinstance(payload, list) else [payload]
        assert statuses[0]["complete"] is True
        assert statuses[0]["workers"]["w0"]["commits"] == 2
        # The resilience fields are always present, zeroed when healthy.
        assert statuses[0]["attempts"] == 0
        assert statuses[0]["quarantined"] == []
        assert statuses[0]["handoffs"] == 0

    @staticmethod
    def _quarantine(root, index: int, *, attempts: int = 3) -> None:
        ledger = AttemptLedger(root / "grid")
        for _n in range(attempts):
            ledger.record_attempt(
                index, worker="w0", kind="error",
                error="RuntimeError: boom", traceback_text="...",
            )
        assert ledger.quarantine(index, worker="w0")

    def test_watch_quarantined_queue_exits_3(self, tmp_path, capsys):
        # One cell quarantined, the other committed: the queue counts as
        # complete (nothing left to run) but the watch exit code must
        # surface the poisoned cell to supervisors.
        _fake_queue_dir(tmp_path, tasks=2, done=1)
        self._quarantine(tmp_path, 1)
        assert main(["cache", "watch", "--queue", str(tmp_path)]) == 3
        out = capsys.readouterr().out
        assert "QUARANTINED" in out

    def test_watch_json_carries_quarantine_attempt_history(self, tmp_path, capsys):
        _fake_queue_dir(tmp_path, tasks=2, done=1)
        self._quarantine(tmp_path, 1, attempts=3)
        code = main(["cache", "watch", "--queue", str(tmp_path), "--json"])
        assert code == 3
        payload = json.loads(capsys.readouterr().out)
        status = payload if isinstance(payload, dict) else payload[0]
        assert status["complete"] is True
        assert status["attempts"] == 3
        [entry] = status["quarantined"]
        assert entry["task"] == 1
        assert entry["attempts"] == 3
        assert "boom" in entry["error"]
