"""The metrics store and its engine instrumentation.

Four layers of proof:

* the store — golden ``.json``/``.prom`` bytes for a fixed recording
  sequence through every helper, inclusive bucket bounds and the
  ``+Inf`` bucket, one sample per label combination, snapshots as
  copies, and thread-safety under concurrent recording;
* the exposition pipeline — a golden Prometheus text rendering, label
  escaping, snapshot round-trips, and merge semantics (sum / sum / max)
  including associativity;
* the engine recording sites — scheduler task counts and phase
  histograms, cache hit/miss/put traffic, queue lifecycle events
  (commits equal the task count, a steal is counted per kill), fork-pool
  workers that never re-flush the parent's counts, and the cardinal
  invariant: metrics on vs off changes **no** result bytes;
* the surface — ``cache metrics`` CLI exit codes and output modes, and
  the ``scripts/check_metrics.py`` CI gate.
"""

from __future__ import annotations

import copy
import json
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro import nn
from repro.data import ArrayDataset
from repro.engine import (
    CellCache,
    WorkQueue,
    context_fingerprint,
    run_tasks,
)
from repro.engine.job import run_cell_task
from repro.engine.metrics import (
    ATTEMPT_BUCKETS,
    CATALOG,
    LATENCY_BUCKETS_MS,
    configure_metrics,
    flush_metrics,
    load_snapshot,
    merge_snapshots,
    metrics_enabled,
    read_metrics_dir,
    record_cache,
    record_queue_event,
    record_search_promotion,
    record_search_rung,
    record_search_warm_start,
    record_task,
    record_task_attempts,
    render_snapshot_text,
    reset_metrics,
    set_queue_depth,
    snapshot,
    snapshot_worker_id,
)
from repro.experiments.runner import main
from repro.robustness import ExplorationConfig, RobustnessExplorer
from repro.training import TrainingConfig

FINGERPRINT = "f" * 64
GOLDEN_DIR = Path(__file__).resolve().parent / "data"


@pytest.fixture(autouse=True)
def isolated_metrics():
    """Every test starts and ends with metrics disabled and empty."""
    reset_metrics()
    yield
    reset_metrics()


def _tiny_sets() -> tuple[ArrayDataset, ArrayDataset]:
    rng = np.random.default_rng(42)
    train = ArrayDataset(rng.random((24, 1, 6, 6)).astype(np.float32), rng.integers(0, 4, 24))
    test = ArrayDataset(rng.random((12, 1, 6, 6)).astype(np.float32), rng.integers(0, 4, 12))
    return train, test


def _factory(v_th: float, time_window: int, seed: int) -> nn.Module:
    return nn.Sequential(nn.Flatten(), nn.Linear(36, 4, rng=seed))


@pytest.fixture()
def explorer() -> RobustnessExplorer:
    train, test = _tiny_sets()
    config = ExplorationConfig(
        v_thresholds=(0.5, 1.0),
        time_windows=(2,),
        epsilons=(0.1,),
        accuracy_threshold=0.0,
        attack="fgsm",
        attack_steps=1,
        training=TrainingConfig(epochs=1, batch_size=8, learning_rate=0.01),
        seed=7,
    )
    return RobustnessExplorer(_factory, train, test, config)


def _sample(snapshot: dict, name: str, **labels):
    """The sample value (or histogram sample dict) for one label combo."""
    family = snapshot["metrics"][name]
    for sample in family["samples"]:
        if sample["labels"] == labels:
            return sample if family["type"] == "histogram" else sample["value"]
    return None


def _record_fixed_sequence() -> None:
    """One pass through every helper, touching all nine catalogue metrics."""
    SweepResult = type("SweepResult", (), {})
    cell = SimpleNamespace(phase_seconds={
        "train_s": 0.25,        # 250 ms: exactly on a latency bound
        "attack_s": 0.0123,     # a fractional sum
        "eval_s": 700.0,        # past the last bound: +Inf
        "note": "skipped",      # not a number: never observed
    })
    record_task(cell, cached=False)
    record_task(cell, cached=True)
    sweep = SweepResult()
    sweep.phase_seconds = {"train_s": 1.5, "attack_s": 0.004}
    record_task(sweep, cached=False)
    record_task(SimpleNamespace(stack_size=4, phase_seconds={"train_s": 3.0}),
                cached=False)
    for kind, op in (("cell", "miss"), ("cell", "put"), ("cell", "hit"),
                     ("weights", "hit"), ("sweep", "miss"), ("cell", "hit")):
        record_cache(kind, op)
    for event in ("claim", "steal", "commit", "claim", "failed", "retry",
                  "commit", "cached", "quarantine"):
        record_queue_event(event)
    record_task_attempts("committed", 1)
    record_task_attempts("committed", 3)       # exactly on a bound: le=3
    record_task_attempts("quarantined", 9)     # past the last bound: +Inf
    set_queue_depth(7)
    set_queue_depth(2)                         # a gauge keeps the last value
    record_search_rung()
    record_search_rung()
    record_search_promotion("promoted", 3)
    record_search_promotion("pruned", 2)
    record_search_promotion("pruned", 0)       # no-op
    record_search_warm_start("self")
    record_search_warm_start("neighbor")
    record_search_warm_start("self")


class TestGoldenBytes:
    def test_flush_writes_the_golden_snapshot_pair(self, tmp_path, monkeypatch):
        # The golden files pin the bytes `cache metrics`, check_metrics.py
        # and the bench overhead gate read: key order of the indent-2
        # JSON, float counter/gauge values, integer histogram counts.
        monkeypatch.setenv("REPRO_QUEUE_WORKER", "golden")
        configure_metrics(tmp_path)
        _record_fixed_sequence()
        assert flush_metrics() == str(tmp_path / "metrics_golden.prom")
        assert {e["name"] for e in CATALOG} == set(snapshot()["metrics"])
        for suffix in ("json", "prom"):
            written = (tmp_path / f"metrics_golden.{suffix}").read_bytes()
            assert written == (GOLDEN_DIR / f"metrics_golden.{suffix}").read_bytes()


class TestPrimitives:
    def test_histogram_bucket_boundaries_are_inclusive(self, tmp_path):
        configure_metrics(tmp_path)
        for seconds in (0.25, 0.250001, 0.5, 1e6):
            # 250 ms is exactly on a bound (le=250), 250.001 ms just over
            # (le=500), 500 ms on the next bound, 1e9 ms past the last: +Inf.
            record_task(SimpleNamespace(phase_seconds={"train_s": seconds}), cached=False)
        snap = snapshot()
        train = _sample(snap, "repro_task_phase_duration_ms", job="cell", phase="train")
        expected = [0] * (len(LATENCY_BUCKETS_MS) + 1)
        expected[LATENCY_BUCKETS_MS.index(250.0)] = 1
        expected[LATENCY_BUCKETS_MS.index(500.0)] = 2
        expected[-1] = 1
        assert train["counts"] == expected
        assert train["count"] == 4
        assert train["sum"] == pytest.approx(250.0 + 250.001 + 500.0 + 1e9)
        text = render_snapshot_text(snap)
        assert 'job="cell",phase="train",le="250"} 1\n' in text
        assert 'job="cell",phase="train",le="500"} 3\n' in text
        assert 'job="cell",phase="train",le="600000"} 3\n' in text
        assert 'job="cell",phase="train",le="+Inf"} 4\n' in text

    def test_default_buckets_are_the_latency_ladder(self, tmp_path):
        configure_metrics(tmp_path)
        record_task(SimpleNamespace(phase_seconds={"train_s": 1.0}), cached=False)
        record_task_attempts("committed", 1)
        snap = snapshot()
        phases = snap["metrics"]["repro_task_phase_duration_ms"]
        assert phases["buckets"] == list(LATENCY_BUCKETS_MS)
        assert len(phases["samples"][0]["counts"]) == len(LATENCY_BUCKETS_MS) + 1
        attempts = snap["metrics"]["repro_task_attempts"]
        assert attempts["buckets"] == list(ATTEMPT_BUCKETS)
        assert len(attempts["samples"][0]["counts"]) == len(ATTEMPT_BUCKETS) + 1

    def test_same_labels_return_the_same_child(self, tmp_path):
        configure_metrics(tmp_path)
        record_cache("cell", "hit")
        record_cache("cell", "hit")
        samples = snapshot()["metrics"]["repro_cache_requests_total"]["samples"]
        assert samples == [{"labels": {"cache": "cell", "op": "hit"}, "value": 2.0}]

    def test_computed_task_without_phases_lists_the_phase_family(self, tmp_path):
        configure_metrics(tmp_path)
        record_task(SimpleNamespace(phase_seconds={}), cached=False)
        assert snapshot()["metrics"]["repro_task_phase_duration_ms"]["samples"] == []

    def test_snapshot_is_a_copy(self, tmp_path):
        configure_metrics(tmp_path)
        record_cache("cell", "hit")
        record_task_attempts("committed", 2)
        snap = snapshot()
        snap["metrics"]["repro_cache_requests_total"]["samples"][0]["value"] = 99.0
        snap["metrics"]["repro_task_attempts"]["samples"][0]["counts"][0] = 99
        assert snapshot()["metrics"] != snap["metrics"]
        assert _sample(snapshot(), "repro_cache_requests_total", cache="cell", op="hit") == 1.0

    def test_concurrent_recording_loses_nothing(self, tmp_path):
        configure_metrics(tmp_path)
        rounds, threads = 500, 8

        def hammer(worker: int) -> None:
            for i in range(rounds):
                record_cache("cell", ("hit", "miss")[worker % 2])
                record_task_attempts("committed", i % 10)

        pool = [threading.Thread(target=hammer, args=(t,)) for t in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        snap = snapshot()
        for op in ("hit", "miss"):
            assert _sample(snap, "repro_cache_requests_total", cache="cell", op=op) == (
                rounds * threads / 2
            )
        attempts = _sample(snap, "repro_task_attempts", outcome="committed")
        assert attempts["count"] == rounds * threads
        assert sum(attempts["counts"]) == rounds * threads


def _demo_snapshot() -> dict:
    return {
        "version": 1,
        "worker": "w0",
        "metrics": {
            "demo_depth": {
                "type": "gauge", "help": "Queue depth.", "labelnames": [],
                "samples": [{"labels": {}, "value": 3.0}],
            },
            "demo_ms": {
                "type": "histogram", "help": "Latency.", "labelnames": ["op"],
                "samples": [
                    {"labels": {"op": "x"}, "counts": [1, 1, 1], "sum": 11.25, "count": 3},
                ],
                "buckets": [1.0, 2.0],
            },
            "demo_total": {
                "type": "counter", "help": "Things counted.", "labelnames": ["kind"],
                "samples": [
                    {"labels": {"kind": "a"}, "value": 1.0},
                    {"labels": {"kind": "b"}, "value": 2.0},
                ],
            },
        },
    }


class TestExposition:
    def test_golden_text(self):
        expected = (
            "# HELP demo_depth Queue depth.\n"
            "# TYPE demo_depth gauge\n"
            "demo_depth 3\n"
            "# HELP demo_ms Latency.\n"
            "# TYPE demo_ms histogram\n"
            'demo_ms_bucket{op="x",le="1"} 1\n'
            'demo_ms_bucket{op="x",le="2"} 2\n'
            'demo_ms_bucket{op="x",le="+Inf"} 3\n'
            'demo_ms_sum{op="x"} 11.25\n'
            'demo_ms_count{op="x"} 3\n'
            "# HELP demo_total Things counted.\n"
            "# TYPE demo_total counter\n"
            'demo_total{kind="a"} 1\n'
            'demo_total{kind="b"} 2\n'
        )
        assert render_snapshot_text(_demo_snapshot()) == expected

    def test_label_values_are_escaped(self, tmp_path):
        configure_metrics(tmp_path)
        record_queue_event('a"b\\c\nd')
        text = render_snapshot_text(snapshot())
        assert 'repro_queue_events_total{event="a\\"b\\\\c\\nd"} 1' in text

    def test_empty_registry_renders_empty(self):
        assert snapshot()["metrics"] == {}
        assert render_snapshot_text(snapshot()) == ""

    def test_snapshot_roundtrips_through_render(self, tmp_path):
        configure_metrics(tmp_path)
        _record_fixed_sequence()
        snap = snapshot(worker="w0")
        assert snap["worker"] == "w0"
        # The snapshot is JSON-serializable as-is (the .json twin) and
        # renders the same after the round trip.
        loaded = json.loads(json.dumps(snap))
        assert loaded == snap
        assert render_snapshot_text(loaded) == render_snapshot_text(snap)


def _snap(tmp_path, commits: int, depth: int, attempts: tuple[int, ...]) -> dict:
    """One worker's snapshot, recorded through the helpers."""
    configure_metrics(tmp_path)
    for _ in range(commits):
        record_queue_event("commit")
    set_queue_depth(depth)
    for count in attempts:
        record_task_attempts("committed", count)
    snap = snapshot(worker="w")
    reset_metrics()
    return snap


class TestMerge:
    def test_counters_sum_gauges_max_histograms_add(self, tmp_path):
        a = _snap(tmp_path, 2, 5, (1, 9))
        b = _snap(tmp_path, 3, 1, (2,))
        merged = merge_snapshots([a, b])
        assert _sample(merged, "repro_queue_events_total", event="commit") == 5.0
        assert _sample(merged, "repro_queue_depth") == 5.0
        histogram = _sample(merged, "repro_task_attempts", outcome="committed")
        assert histogram["counts"] == [1, 1, 0, 0, 0, 1]
        assert histogram["sum"] == pytest.approx(12.0)
        assert histogram["count"] == 3

    def test_merge_is_associative(self, tmp_path):
        a = _snap(tmp_path, 1, 3, (1,))
        b = _snap(tmp_path, 2, 9, (4, 4))
        c = _snap(tmp_path, 4, 1, (99,))
        left = merge_snapshots([merge_snapshots([a, b]), c])
        right = merge_snapshots([a, merge_snapshots([b, c])])
        assert left == right
        assert left == merge_snapshots([a, b, c])

    def test_disjoint_label_sets_union(self, tmp_path):
        configure_metrics(tmp_path)
        record_cache("cell", "hit")
        hit = snapshot(worker="w")
        reset_metrics(keep_dir=True)
        record_cache("cell", "miss")
        record_cache("cell", "miss")
        merged = merge_snapshots([hit, snapshot(worker="w")])
        assert _sample(merged, "repro_cache_requests_total", cache="cell", op="hit") == 1.0
        assert _sample(merged, "repro_cache_requests_total", cache="cell", op="miss") == 2.0

    def test_conflicting_types_refuse_to_merge(self, tmp_path):
        as_counter = _snap(tmp_path, 1, 0, ())
        as_gauge = copy.deepcopy(as_counter)
        as_gauge["metrics"]["repro_queue_events_total"]["type"] = "gauge"
        with pytest.raises(ValueError, match="conflicting"):
            merge_snapshots([as_counter, as_gauge])

    def test_conflicting_buckets_refuse_to_merge(self, tmp_path):
        narrow = _snap(tmp_path, 0, 0, (1,))
        wide = copy.deepcopy(narrow)
        wide["metrics"]["repro_task_attempts"]["buckets"].append(13.0)
        with pytest.raises(ValueError, match="bucket"):
            merge_snapshots([narrow, wide])

    def test_merged_worker_names_concatenate(self):
        merged = merge_snapshots([snapshot(worker="a"), snapshot(worker="b")])
        assert merged["worker"] == "a,b"


class TestSnapshotFiles:
    def test_flush_writes_an_atomic_pair(self, tmp_path):
        configure_metrics(tmp_path)
        assert metrics_enabled()
        record_cache("cell", "hit")
        prom_path = flush_metrics()
        worker = snapshot_worker_id()
        assert prom_path == str(tmp_path / f"metrics_{worker}.prom")
        prom = (tmp_path / f"metrics_{worker}.prom").read_text()
        assert "# TYPE repro_cache_requests_total counter" in prom
        assert 'repro_cache_requests_total{cache="cell",op="hit"} 1' in prom
        snap = load_snapshot(tmp_path / f"metrics_{worker}.json")
        assert snap["worker"] == worker
        assert render_snapshot_text(snap) == prom
        # Exactly the pair: no temp file is left behind.
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            f"metrics_{worker}.json", f"metrics_{worker}.prom",
        ]

    def test_flush_replaces_the_previous_snapshot(self, tmp_path):
        configure_metrics(tmp_path)
        record_cache("cell", "hit")
        flush_metrics()
        record_cache("cell", "hit")
        flush_metrics()
        snapshots = read_metrics_dir(tmp_path)
        assert len(snapshots) == 1
        assert _sample(snapshots[0], "repro_cache_requests_total", cache="cell", op="hit") == 2.0

    def test_flush_disabled_is_a_noop(self, tmp_path):
        assert flush_metrics() is None
        assert list(tmp_path.iterdir()) == []

    def test_worker_id_honors_the_queue_pin(self, monkeypatch):
        monkeypatch.setenv("REPRO_QUEUE_WORKER", "fleet worker/3")
        assert snapshot_worker_id() == "fleet-worker-3"  # sanitized
        monkeypatch.delenv("REPRO_QUEUE_WORKER")
        assert "-" in snapshot_worker_id()  # hostname-pid fallback

    def test_load_snapshot_rejects_non_snapshots(self, tmp_path):
        path = tmp_path / "metrics_bogus.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError):
            load_snapshot(path)

    def test_reset_keep_dir_clears_counts_but_stays_enabled(self, tmp_path):
        configure_metrics(tmp_path)
        record_cache("cell", "hit")
        reset_metrics(keep_dir=True)
        assert metrics_enabled()  # a forked worker still flushes its own
        assert snapshot()["metrics"] == {}
        reset_metrics()
        assert not metrics_enabled()


class TestRecordingHelpers:
    def test_helpers_are_noops_when_disabled(self):
        record_task(SimpleNamespace(phase_seconds={"train_s": 1.0}), cached=False)
        record_cache("cell", "hit")
        assert snapshot()["metrics"] == {}

    def test_record_task_counts_and_observes_phases(self, tmp_path):
        configure_metrics(tmp_path)
        result = SimpleNamespace(phase_seconds={"train_s": 0.5, "attack_s": 0.02})
        record_task(result, cached=False)
        snap = snapshot()
        assert _sample(snap, "repro_tasks_total", job="cell", status="computed") == 1.0
        train = _sample(snap, "repro_task_phase_duration_ms", job="cell", phase="train")
        assert train["count"] == 1 and train["sum"] == pytest.approx(500.0)
        attack = _sample(snap, "repro_task_phase_duration_ms", job="cell", phase="attack")
        assert attack["sum"] == pytest.approx(20.0)

    def test_cached_tasks_skip_the_phase_histograms(self, tmp_path):
        configure_metrics(tmp_path)
        record_task(SimpleNamespace(phase_seconds={"train_s": 9.0}), cached=True)
        snap = snapshot()
        assert _sample(snap, "repro_tasks_total", job="cell", status="cached") == 1.0
        assert "repro_task_phase_duration_ms" not in snap["metrics"]

    def test_job_kind_inference(self, tmp_path):
        configure_metrics(tmp_path)
        record_task(SimpleNamespace(stack_size=3, phase_seconds={}), cached=False)
        SweepResult = type("SweepResult", (), {"phase_seconds": {}})
        record_task(SweepResult(), cached=False)
        snap = snapshot()
        assert _sample(snap, "repro_tasks_total", job="stacked", status="computed") == 1.0
        assert _sample(snap, "repro_tasks_total", job="sweep", status="computed") == 1.0

    def test_catalog_labels_cover_everything_the_helpers_emit(self):
        by_name = {entry["name"]: entry for entry in CATALOG}
        assert by_name["repro_tasks_total"]["labels"]["job"] == ("cell", "sweep", "stacked")
        assert by_name["repro_queue_events_total"]["labels"]["event"] == (
            "claim", "steal", "commit", "cached", "duplicate", "failed",
            "retry", "quarantine", "handoff", "timeout", "cache_write_retry",
        )
        assert by_name["repro_task_attempts"]["labels"]["outcome"] == (
            "committed", "quarantined",
        )
        for entry in CATALOG:
            assert entry["type"] in {"counter", "gauge", "histogram"}
            assert entry["name"].startswith("repro_")


class TestEngineIntegration:
    def test_results_are_identical_with_metrics_on_and_off(self, explorer, tmp_path):
        tasks = explorer.tasks()
        baseline, _ = run_tasks(explorer.context, tasks, run_cell_task, jobs=1)
        configure_metrics(tmp_path / "m")
        instrumented, _ = run_tasks(explorer.context, tasks, run_cell_task, jobs=1)
        # CellResult equality covers every science field (timing telemetry
        # is compare=False): instrumentation must not perturb a single one.
        assert instrumented == baseline

    def test_scheduler_counts_tasks_and_cache_traffic(self, explorer, tmp_path):
        configure_metrics(tmp_path / "m")
        tasks = explorer.tasks()
        cache = CellCache(tmp_path / "cache", context_fingerprint(explorer.context))
        run_tasks(explorer.context, tasks, run_cell_task, jobs=1, cache=cache)
        snap = snapshot()
        assert _sample(snap, "repro_tasks_total", job="cell", status="computed") == len(tasks)
        assert _sample(snap, "repro_cache_requests_total", cache="cell", op="put") == len(tasks)
        train = _sample(snap, "repro_task_phase_duration_ms", job="cell", phase="train")
        assert train["count"] == len(tasks)

        reset_metrics(keep_dir=True)
        run_tasks(explorer.context, tasks, run_cell_task, jobs=1, cache=cache, resume=True)
        snap = snapshot()
        assert _sample(snap, "repro_tasks_total", job="cell", status="cached") == len(tasks)
        assert _sample(snap, "repro_cache_requests_total", cache="cell", op="hit") == len(tasks)
        assert "repro_task_phase_duration_ms" not in snap["metrics"]

    def test_fork_pool_workers_do_not_double_count(self, explorer, tmp_path, monkeypatch):
        # Unpinned, so each pool worker flushes under its own hostname-pid.
        monkeypatch.delenv("REPRO_QUEUE_WORKER", raising=False)
        metrics_dir = tmp_path / "m"
        configure_metrics(metrics_dir)
        record_search_rung()  # a parent-side record every forked worker inherits
        tasks = explorer.tasks()
        _, stats = run_tasks(explorer.context, tasks, run_cell_task, jobs=2)
        assert stats.start_method == "fork"
        snapshots = read_metrics_dir(metrics_dir)
        assert len(snapshots) > 1  # the parent's and the workers'
        merged = merge_snapshots(snapshots)
        assert _sample(merged, "repro_search_rungs_total") == 1.0
        tasks_family = merged["metrics"]["repro_tasks_total"]
        assert sum(sample["value"] for sample in tasks_family["samples"]) == len(tasks)

    def test_queue_drain_commits_once_per_task(self, explorer, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_QUEUE_WORKER", "solo")
        metrics_dir = tmp_path / "m"
        configure_metrics(metrics_dir)
        tasks = explorer.tasks()
        cache = CellCache(tmp_path / "cache", context_fingerprint(explorer.context))
        result, _ = run_tasks(
            explorer.context, tasks, run_cell_task, cache=cache,
            queue_dir=tmp_path / "q", experiment="grid",
            cache_dir=tmp_path / "cache", lease_ttl=30.0,
        )
        assert result.complete
        merged = merge_snapshots(read_metrics_dir(metrics_dir))
        assert merged["worker"] == "solo"
        assert _sample(merged, "repro_queue_events_total", event="commit") == len(tasks)
        assert _sample(merged, "repro_queue_events_total", event="claim") == len(tasks)
        assert _sample(merged, "repro_queue_events_total", event="failed") is None
        assert _sample(merged, "repro_queue_depth") == 0.0
        assert _sample(merged, "repro_tasks_total", job="cell", status="computed") == len(tasks)

    def test_steals_are_counted_one_per_dead_worker(self, tmp_path):
        configure_metrics(tmp_path / "m")
        clock = SimpleNamespace(now=1000.0)
        def make(worker):
            return WorkQueue(
                tmp_path / "q", experiment="grid", fingerprint=FINGERPRINT,
                task_count=2, lease_ttl=5.0, worker=worker,
                clock=lambda: clock.now,
            )
        dead, live = make("dead"), make("live")
        acquired, stolen = dead.acquire(0)
        assert acquired and not stolen  # then the worker is SIGKILLed...
        clock.now += 10.0               # ...and its lease expires
        acquired, stolen = live.acquire(0)
        assert acquired and stolen
        live.commit(0)
        acquired, stolen = live.acquire(1)
        assert acquired and not stolen
        live.commit(1)
        snap = snapshot()
        kills = 1
        assert _sample(snap, "repro_queue_events_total", event="steal") == kills
        assert _sample(snap, "repro_queue_events_total", event="commit") == 2.0
        assert _sample(snap, "repro_queue_events_total", event="claim") == 2.0


class TestCacheMetricsCLI:
    def _write_snapshots(self, directory) -> int:
        configure_metrics(directory)
        record_cache("cell", "hit")
        record_cache("weights", "put")
        flush_metrics()
        reset_metrics()
        return 2  # samples written

    def test_merge_and_print(self, tmp_path, capsys):
        self._write_snapshots(tmp_path / "m")
        assert main(["cache", "metrics", str(tmp_path / "m")]) == 0
        out = capsys.readouterr().out
        assert 'repro_cache_requests_total{cache="cell",op="hit"} 1' in out
        assert out.startswith("# HELP")

    def test_json_output(self, tmp_path, capsys):
        self._write_snapshots(tmp_path / "m")
        assert main(["cache", "metrics", str(tmp_path / "m"), "--json"]) == 0
        merged = json.loads(capsys.readouterr().out)
        assert _sample(merged, "repro_cache_requests_total", cache="weights", op="put") == 1.0

    def test_no_sources_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["cache", "metrics"])
        assert exited.value.code == 2

    def test_missing_directory_is_a_usage_error(self, tmp_path, capsys):
        assert main(["cache", "metrics", str(tmp_path / "nope")]) == 2

    def test_empty_directory_exits_one(self, tmp_path, capsys):
        empty = tmp_path / "m"
        empty.mkdir()
        assert main(["cache", "metrics", str(empty)]) == 1

    def test_into_is_rejected(self, tmp_path, capsys):
        (tmp_path / "m").mkdir()
        with pytest.raises(SystemExit) as exited:
            main(["cache", "metrics", str(tmp_path / "m"), "--into", str(tmp_path / "x")])
        assert exited.value.code == 2

    def _grid_with_metrics(self, tmp_path, jobs: str) -> None:
        metrics = tmp_path / "m"
        code = main([
            "grid", "--profile", "micro", "--out", str(tmp_path / "out"),
            "--metrics-dir", str(metrics), "--jobs", jobs,
        ])
        assert code == 0
        snapshots = read_metrics_dir(metrics)
        assert snapshots, "an engine run with --metrics-dir must leave snapshots"
        merged = merge_snapshots(snapshots)
        tasks_family = merged["metrics"]["repro_tasks_total"]
        total = sum(sample["value"] for sample in tasks_family["samples"])
        assert total == 4  # the micro grid is 2x2
        assert main(["cache", "metrics", str(metrics)]) == 0

    def test_metrics_dir_flag_enables_collection(self, tmp_path, capsys):
        self._grid_with_metrics(tmp_path, jobs="1")

    def test_metrics_dir_flag_enables_collection_on_a_fork_pool(self, tmp_path, capsys):
        self._grid_with_metrics(tmp_path, jobs="2")


class TestCheckMetricsScript:
    def _gate(self, argv):
        import importlib.util
        from pathlib import Path

        spec = importlib.util.spec_from_file_location(
            "check_metrics",
            Path(__file__).resolve().parents[1] / "scripts" / "check_metrics.py",
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.main(argv)

    def _fleet_dir(self, tmp_path, *, commits=3, cached=0, failed=0, steals=0):
        configure_metrics(tmp_path / "m")
        for event, count in (
            ("commit", commits), ("cached", cached),
            ("failed", failed), ("steal", steals),
        ):
            for _ in range(count):
                record_queue_event(event)
        flush_metrics()
        reset_metrics()
        return tmp_path / "m"

    def test_passes_on_a_healthy_fleet(self, tmp_path, capsys):
        directory = self._fleet_dir(tmp_path, commits=2, cached=1, steals=1)
        assert self._gate([str(directory), "--tasks", "3", "--min-steals", "1"]) == 0
        assert "metrics ok" in capsys.readouterr().out

    def test_fails_on_a_missing_commit(self, tmp_path, capsys):
        directory = self._fleet_dir(tmp_path, commits=2)
        assert self._gate([str(directory), "--tasks", "3"]) == 1
        assert "commit" in capsys.readouterr().err

    def test_fails_on_failures(self, tmp_path, capsys):
        directory = self._fleet_dir(tmp_path, commits=3, failed=1)
        assert self._gate([str(directory), "--tasks", "3"]) == 1
        assert "failed" in capsys.readouterr().err

    def test_fails_when_the_kill_produced_no_steal(self, tmp_path, capsys):
        directory = self._fleet_dir(tmp_path, commits=3, steals=0)
        assert self._gate([str(directory), "--tasks", "3", "--min-steals", "1"]) == 1
        assert "steal" in capsys.readouterr().err

    def test_fails_on_an_empty_metrics_dir(self, tmp_path, capsys):
        empty = tmp_path / "m"
        empty.mkdir()
        assert self._gate([str(empty), "--tasks", "1"]) == 1
