"""Fault injection: a real fleet survives a SIGKILLed worker, provably.

This is the subprocess half of the elastic-fleet proof (the in-process
protocol and invariant tests live in ``tests/test_queue.py``): three
actual ``python -m repro.experiments grid --queue`` workers share one
queue directory, one is SIGKILLed the moment it holds a lease, the
orphaned lease expires and a survivor steals it, and the merged result
set ends complete with every task committed exactly once — byte-identical
to a serial reference run under ``scripts/compare_results.py``'s
canonical form.  The CI ``grid-queue`` job runs the same scenario via
``scripts/run_queue_fleet.py``; this test asserts the protocol-level
evidence (leases, steals, event streams) that the job's exit codes imply.
"""

from __future__ import annotations

import importlib.util
import json
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.engine import merge_event_logs, queue_status
from repro.engine.resilience import (
    AttemptLedger,
    attempt_records,
    handoff_records,
)
from repro.experiments.runner import main

REPO_ROOT = Path(__file__).resolve().parents[1]

LEASE_TTL = 1.5
"""Short enough that a steal happens within the test budget."""


def _load_compare_results():
    spec = importlib.util.spec_from_file_location(
        "compare_results", REPO_ROOT / "scripts" / "compare_results.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _spawn_worker(
    queue_dir: Path, worker_id: str, cwd: Path,
    extra_env: dict[str, str] | None = None,
    extra_args: tuple[str, ...] = (),
) -> subprocess.Popen:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_QUEUE_WORKER"] = worker_id
    env.update(extra_env or {})
    command = [
        sys.executable, "-m", "repro.experiments", "grid",
        "--profile", "micro",
        "--queue", str(queue_dir),
        "--cache-dir", str(queue_dir / "cache"),
        "--lease-ttl", str(LEASE_TTL),
        *extra_args,
    ]
    return subprocess.Popen(
        command, env=env, cwd=cwd,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )


def _wait_for_lease(
    grid_dir: Path,
    workers: dict[str, subprocess.Popen],
    timeout: float = 120.0,
    held_for: float = 0.0,
) -> tuple[int, str]:
    """Poll until some worker holds a parseable lease; return (task, owner).

    The kill must target whichever worker actually holds a lease — the
    first-spawned worker may still be importing numpy while a faster
    sibling claims the first task.  ``held_for`` requires the same claim
    (owner and acquisition time) to survive that many seconds, filtering
    out the millisecond-lived leases of chaos-failed first attempts so
    graceful retirement interrupts a worker genuinely inside its phase.

    Fails at once when every worker has exited without a lease in sight,
    with each worker's exit code and the tail of its output.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        # Checked before the scan: a lease a worker wrote before exiting
        # is still found below.
        exited = all(process.poll() is not None for process in workers.values())
        for path in sorted(grid_dir.glob("lease_*.json")):
            try:
                payload = json.loads(path.read_text())
            except (OSError, ValueError):
                continue  # claim in flight; re-poll
            owner = str(payload.get("owner", ""))
            if not owner:
                continue
            if held_for:
                time.sleep(held_for)
                try:
                    check = json.loads(path.read_text())
                except (OSError, ValueError):
                    continue  # released already: a transient claim
                if (str(check.get("owner", "")) != owner
                        or check.get("acquired") != payload.get("acquired")):
                    continue
            return int(path.stem.removeprefix("lease_")), owner
        if exited:
            pytest.fail(
                "every worker exited without holding a lease:\n"
                + "\n".join(_exit_report(worker_id, process)
                            for worker_id, process in workers.items())
            )
        time.sleep(0.02)
    pytest.fail("no worker ever claimed a lease")


def _exit_report(worker_id: str, process: subprocess.Popen, lines: int = 20) -> str:
    """A worker's exit code and the last ``lines`` lines of its output."""
    out, _ = process.communicate()
    tail = "\n".join((out or "").splitlines()[-lines:])
    return f"--- {worker_id} exited {process.returncode}:\n{tail}"


def _drain(workers: dict[str, subprocess.Popen], timeout: float = 240.0) -> None:
    deadline = time.monotonic() + timeout
    for worker_id, process in workers.items():
        remaining = max(1.0, deadline - time.monotonic())
        out, _ = process.communicate(timeout=remaining)
        assert process.returncode == 0, (
            f"surviving worker {worker_id} exited "
            f"{process.returncode}:\n{out}"
        )


@pytest.fixture()
def compare_results():
    return _load_compare_results()


class TestSigkillMidLease:
    def test_fleet_survives_a_killed_worker(self, tmp_path, compare_results):
        queue_dir = tmp_path / "fleet-q"
        grid_dir = queue_dir / "grid"
        worker_ids = [f"fault-{index}" for index in range(3)]
        workers = {
            worker_id: _spawn_worker(queue_dir, worker_id, cwd=tmp_path)
            for worker_id in worker_ids
        }
        try:
            orphan_task, victim_id = _wait_for_lease(grid_dir, workers)
            victim = workers.pop(victim_id, None)
            assert victim is not None, f"lease owner {victim_id!r} is not ours"
            victim.kill()  # SIGKILL: no release, no heartbeat, no goodbye
            victim.wait()
            _drain(workers)
        finally:
            for process in workers.values():
                if process.poll() is None:
                    process.kill()
                    process.wait()

        # The queue drained completely despite the death.
        manifest = json.loads((grid_dir / "queue.json").read_text())
        task_count = manifest["task_count"]
        status = queue_status(grid_dir)
        assert status["complete"], status
        assert status["done"] == task_count
        done = sorted(
            int(path.stem.removeprefix("done_"))
            for path in grid_dir.glob("done_*.json")
        )
        assert done == list(range(task_count))

        # Exactly once: across every worker's event stream, each task has
        # one commit — later finishers of a stolen task would only ever
        # show up as harmless `duplicate` events.
        events = merge_event_logs(grid_dir)
        commits = Counter(
            event["task"] for event in events
            if event["event"] in ("commit", "cached")
        )
        assert commits == Counter({index: 1 for index in range(task_count)})

        # The orphaned lease was stolen from the victim — unless the
        # victim won the tiny race and committed before the signal landed,
        # in which case its own commit marker is the proof of life.
        steals = [event for event in events if event["event"] == "steal"]
        orphan_marker = json.loads(
            (grid_dir / f"done_{orphan_task}.json").read_text()
        )
        assert (
            any(event.get("victim") == victim_id for event in steals)
            or orphan_marker["worker"] == victim_id
        ), (steals, orphan_marker)
        # Whoever committed the orphan, the victim did not finish the
        # grid alone: survivors contributed commits.
        committers = {
            event["worker"] for event in events
            if event["event"] in ("commit", "cached")
        }
        assert committers & set(workers)

        # The shared cache is certified and the coordinator view agrees.
        assert main(["cache", "watch", "--queue", str(queue_dir)]) == 0
        assert main(["cache", "verify", "--cache-dir",
                     str(queue_dir / "cache")]) == 0

        # Byte-identical to the serial reference: render from the fleet's
        # cache and from scratch, then compare canonical forms — the same
        # gate scripts/compare_results.py applies in CI.
        fleet_out = tmp_path / "fleet-out"
        reference_out = tmp_path / "reference-out"
        assert main(["grid", "--profile", "micro", "--resume",
                     "--cache-dir", str(queue_dir / "cache"),
                     "--out", str(fleet_out)]) == 0
        assert main(["grid", "--profile", "micro", "--no-cache",
                     "--out", str(reference_out)]) == 0
        fleet = json.loads((fleet_out / "grid_micro.json").read_text())
        reference = json.loads((reference_out / "grid_micro.json").read_text())
        assert compare_results.canonicalize(fleet) == \
            compare_results.canonicalize(reference)
        assert compare_results.main([
            str(reference_out / "grid_micro.json"),
            str(fleet_out / "grid_micro.json"),
        ]) == 0


class TestSigtermRetirement:
    # Seed 9 is CI's chaos seed, pinned by a unit test: at fail rate 0.3
    # the draws strike tasks 0, 1 and 3 on their first attempt.  Those
    # three never reach a first-attempt checkpoint write, so the corrupt
    # rate of 1.0 truncates exactly one write — task 2's — and the
    # read-back sha256 must turn it into the fourth retry.  Every injected
    # fault is transient by construction: zero quarantines allowed.
    CHAOS = {
        "REPRO_CHAOS_FAIL_RATE": "0.3",
        "REPRO_CHAOS_CORRUPT_RATE": "1.0",
        "REPRO_CHAOS_SEED": "9",
    }

    def test_retiring_worker_hands_off_and_chaos_is_absorbed(self, tmp_path):
        queue_dir = tmp_path / "chaos-q"
        grid_dir = queue_dir / "grid"
        worker_ids = [f"retire-{index}" for index in range(3)]
        workers = {
            worker_id: _spawn_worker(
                queue_dir, worker_id, cwd=tmp_path, extra_env=self.CHAOS
            )
            for worker_id in worker_ids
        }
        try:
            # Interrupt a worker that is genuinely inside a phase (a lease
            # held >= 0.35s outlives any chaos-failed claim), so the drain
            # handler fires mid-task and must hand the lease off.
            _, victim_id = _wait_for_lease(grid_dir, workers, held_for=0.35)
            victim = workers.pop(victim_id, None)
            assert victim is not None, f"lease owner {victim_id!r} is not ours"
            victim.send_signal(signal.SIGTERM)
            out, _ = victim.communicate(timeout=240.0)
            # Graceful retirement is part of the contract: handoff written,
            # metrics flushed, manifest certified, exit 0.
            assert victim.returncode == 0, (
                f"retiring worker exited {victim.returncode}:\n{out}"
            )
            _drain(workers)
        finally:
            for process in workers.values():
                if process.poll() is None:
                    process.kill()
                    process.wait()

        manifest = json.loads((grid_dir / "queue.json").read_text())
        task_count = manifest["task_count"]
        status = queue_status(grid_dir)
        assert status["complete"], status
        assert status["done"] == task_count
        assert status["quarantined"] == []

        # The retirement left at least one handoff tombstone, and the
        # handed-off tasks were finished by the survivors.
        handoffs = handoff_records(grid_dir)
        assert handoffs, "SIGTERM mid-task must write a handoff record"
        for index, record in handoffs.items():
            assert record["worker"] == victim_id
            assert record["signal"] == "SIGTERM"
            marker = json.loads((grid_dir / f"done_{index}.json").read_text())
            assert marker["worker"] != victim_id

        # Every injected fault was absorbed by exactly one retry: the
        # three seeded transient crashes plus the one caught corruption.
        events = merge_event_logs(grid_dir)
        kinds = Counter(event["event"] for event in events)
        assert kinds["retry"] == task_count
        assert kinds.get("quarantine", 0) == 0
        assert kinds["handoff"] == len(handoffs)
        history = attempt_records(grid_dir)
        assert {
            index: [record["kind"] for record in records]
            for index, records in history.items()
        } == {0: ["failure"], 1: ["failure"], 2: ["corrupt"], 3: ["failure"]}

        # Exactly-once cover despite retries, corruption and retirement.
        commits = Counter(
            event["task"] for event in events
            if event["event"] in ("commit", "cached")
        )
        assert commits == Counter({index: 1 for index in range(task_count)})

        # The coordinator view and the cache certification agree.
        assert main(["cache", "watch", "--queue", str(queue_dir)]) == 0
        assert main(["cache", "verify", "--cache-dir",
                     str(queue_dir / "cache")]) == 0


class TestPoisonQuarantine:
    def test_poisoned_cell_quarantines_and_the_rest_completes(
        self, tmp_path, capsys, monkeypatch
    ):
        # A task that fails on every attempt must not stall the grid: the
        # worker burns its --max-attempts budget, writes the quarantine
        # marker, finishes every other cell, and exits with the distinct
        # quarantine code so supervisors notice.
        monkeypatch.setenv("REPRO_CHAOS_POISON_TASKS", "2")
        for name in ("REPRO_CHAOS_FAIL_RATE", "REPRO_CHAOS_CORRUPT_RATE"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("REPRO_QUEUE_WORKER", "poison-solo")
        queue_dir = tmp_path / "poison-q"
        code = main([
            "grid", "--profile", "micro",
            "--queue", str(queue_dir),
            "--cache-dir", str(queue_dir / "cache"),
            "--max-attempts", "2",
            "--lease-ttl", "30",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 3  # QUARANTINE_EXIT_CODE, not a generic failure

        grid_dir = queue_dir / "grid"
        done = sorted(
            int(path.stem.removeprefix("done_"))
            for path in grid_dir.glob("done_*.json")
        )
        assert done == [0, 1, 3]  # the rest of the grid completed
        marker = AttemptLedger(grid_dir).quarantine_record(2)
        assert marker is not None
        assert len(marker["attempts"]) == 2
        assert "poisoned" in marker["error"]
        assert [record["kind"] for record in marker["attempts"]] == \
            ["failure", "failure"]
        events = merge_event_logs(grid_dir)
        kinds = Counter(event["event"] for event in events)
        assert kinds["retry"] == 1  # attempt 1; attempt 2 quarantines
        assert kinds["quarantine"] == 1
        assert queue_status(grid_dir)["complete"]

        # `cache watch --json` surfaces the poisoned cell with its full
        # attempt history and exits 3 itself.
        capsys.readouterr()  # drop the run's own progress output
        assert main(["cache", "watch", "--queue", str(queue_dir),
                     "--json"]) == 3
        payload = json.loads(capsys.readouterr().out)
        status = payload if isinstance(payload, dict) else payload[0]
        assert status["complete"] is True
        [entry] = status["quarantined"]
        assert entry["task"] == 2
        assert entry["attempts"] == 2
        assert "poisoned" in entry["error"]


class TestRaggedFleet:
    def test_late_joiner_shares_the_queue(self, tmp_path):
        # Two real workers, the second joining only once the first is
        # already mid-drain: a ragged fleet must still partition the grid
        # without overlap and both must exit clean.
        queue_dir = tmp_path / "ragged-q"
        grid_dir = queue_dir / "grid"
        early = _spawn_worker(queue_dir, "ragged-early", cwd=tmp_path)
        workers = {"ragged-early": early}
        try:
            _wait_for_lease(grid_dir, workers)  # the early worker is committed now
            workers["ragged-late"] = _spawn_worker(
                queue_dir, "ragged-late", cwd=tmp_path
            )
            _drain(workers)
        finally:
            for process in workers.values():
                if process.poll() is None:
                    process.kill()
                    process.wait()

        manifest = json.loads((grid_dir / "queue.json").read_text())
        status = queue_status(grid_dir)
        assert status["complete"]
        events = merge_event_logs(grid_dir)
        commits = Counter(
            event["task"] for event in events
            if event["event"] in ("commit", "cached")
        )
        assert commits == Counter(
            {index: 1 for index in range(manifest["task_count"])}
        )
        # No worker committed a task someone else also committed.
        owners: dict[int, str] = {}
        for event in events:
            if event["event"] in ("commit", "cached"):
                assert event["task"] not in owners
                owners[event["task"]] = event["worker"]
        # The late worker exited 0 whether or not it won any tasks; if it
        # did, its commits are disjoint from the early worker's by the
        # exactly-once check above.
        assert set(owners.values()) <= {"ragged-early", "ragged-late"}
