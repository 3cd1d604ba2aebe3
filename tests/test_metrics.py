"""The metrics registry and its engine instrumentation.

Four layers of proof:

* the registry primitives — counter/gauge/histogram semantics, label
  validation, bucket boundaries, thread-safety under concurrent
  recording;
* the exposition pipeline — a golden Prometheus text rendering, label
  escaping, snapshot round-trips, and merge semantics (sum / sum / max)
  including associativity;
* the engine recording sites — scheduler task counts and phase
  histograms, cache hit/miss/put traffic, queue lifecycle events
  (commits equal the task count, a steal is counted per kill), and the
  cardinal invariant: metrics on vs off changes **no** result bytes;
* the surface — ``cache metrics`` CLI exit codes and output modes, and
  the ``scripts/check_metrics.py`` CI gate.
"""

from __future__ import annotations

import json
import threading
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
    CATALOG,
    LATENCY_BUCKETS_MS,
    MetricsRegistry,
    configure_metrics,
    flush_metrics,
    get_registry,
    load_snapshot,
    merge_snapshots,
    metrics_enabled,
    read_metrics_dir,
    record_cache,
    record_queue_event,
    record_task,
    render_snapshot_text,
    reset_metrics,
    snapshot_worker_id,
)
from repro.experiments.runner import main
from repro.robustness import ExplorationConfig, RobustnessExplorer
from repro.training import TrainingConfig

FINGERPRINT = "f" * 64


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


class TestPrimitives:
    def test_counter_counts_and_rejects_negative(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g", "help")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec()
        assert gauge.value == 6.0

    def test_histogram_bucket_boundaries_are_inclusive(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h_ms", "help", buckets=(10.0, 50.0))
        histogram.observe(10.0)   # exactly on a bound -> that bucket (le=10)
        histogram.observe(10.001)  # just over -> next bucket (le=50)
        histogram.observe(50.0)
        histogram.observe(1e9)     # beyond the last bound -> +Inf
        assert histogram.raw_counts == [1, 2, 1]
        assert histogram.cumulative_counts == [1, 3, 4]
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(10.0 + 10.001 + 50.0 + 1e9)

    def test_default_buckets_are_the_latency_ladder(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h_ms", "help")
        assert histogram.buckets == LATENCY_BUCKETS_MS
        assert len(histogram.raw_counts) == len(LATENCY_BUCKETS_MS) + 1

    def test_family_getters_are_idempotent_but_reject_redefinition(self):
        registry = MetricsRegistry()
        family = registry.counter("c_total", "help", ("op",))
        assert registry.counter("c_total", "help", ("op",)) is family
        with pytest.raises(ValueError):
            registry.gauge("c_total", "help", ("op",))
        with pytest.raises(ValueError):
            registry.counter("c_total", "help", ("other",))

    def test_labels_must_match_the_declared_names(self):
        registry = MetricsRegistry()
        family = registry.counter("c_total", "help", ("op",))
        family.labels(op="hit").inc()
        with pytest.raises(ValueError):
            family.labels(kind="hit")
        with pytest.raises(ValueError):
            family.labels(op="hit", extra="x")

    def test_same_labels_return_the_same_child(self):
        registry = MetricsRegistry()
        family = registry.counter("c_total", "help", ("op",))
        family.labels(op="hit").inc()
        family.labels(op="hit").inc()
        assert family.labels(op="hit").value == 2.0

    def test_concurrent_recording_loses_nothing(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help", ("worker",))
        histogram = registry.histogram("h_ms", "help", buckets=(10.0,))
        rounds, threads = 500, 8

        def hammer(worker: int) -> None:
            for i in range(rounds):
                counter.labels(worker=str(worker % 2)).inc()
                histogram.observe(float(i % 20))

        pool = [threading.Thread(target=hammer, args=(t,)) for t in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert counter.labels(worker="0").value == rounds * threads / 2
        assert counter.labels(worker="1").value == rounds * threads / 2
        assert histogram.count == rounds * threads
        assert sum(histogram.raw_counts) == rounds * threads


class TestExposition:
    def _demo_registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        counter = registry.counter("demo_total", "Things counted.", ("kind",))
        counter.labels(kind="a").inc()
        counter.labels(kind="b").inc(2)
        registry.gauge("demo_depth", "Queue depth.").set(3)
        histogram = registry.histogram("demo_ms", "Latency.", ("op",), buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 9.25):
            histogram.labels(op="x").observe(value)
        return registry

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
        assert self._demo_registry().render_text() == expected

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "help", ("k",)).labels(k='a"b\\c\nd').inc()
        text = registry.render_text()
        assert 'c_total{k="a\\"b\\\\c\\nd"} 1' in text

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_text() == ""

    def test_snapshot_roundtrips_through_render(self):
        registry = self._demo_registry()
        snap = registry.snapshot(worker="w0")
        assert snap["worker"] == "w0"
        assert registry.render_text() == render_snapshot_text(snap)
        # The snapshot is JSON-serializable as-is (the .json twin).
        assert json.loads(json.dumps(snap)) == snap


def _snap(fill) -> dict:
    registry = MetricsRegistry()
    fill(registry)
    return registry.snapshot(worker="w")


def _fill(tasks: float, depth: float, observations: tuple[float, ...]):
    def fill(registry: MetricsRegistry) -> None:
        registry.counter("t_total", "h", ("job",)).labels(job="cell").inc(tasks)
        registry.gauge("depth", "h").set(depth)
        histogram = registry.histogram("lat_ms", "h", buckets=(10.0, 50.0))
        for value in observations:
            histogram.observe(value)
    return fill


class TestMerge:
    def test_counters_sum_gauges_max_histograms_add(self):
        a = _snap(_fill(2, 5, (5.0, 500.0)))
        b = _snap(_fill(3, 1, (40.0,)))
        merged = merge_snapshots([a, b])
        assert _sample(merged, "t_total", job="cell") == 5.0
        assert _sample(merged, "depth") == 5.0
        histogram = _sample(merged, "lat_ms")
        assert histogram["counts"] == [1, 1, 1]
        assert histogram["sum"] == pytest.approx(545.0)
        assert histogram["count"] == 3

    def test_merge_is_associative(self):
        a = _snap(_fill(1, 3, (5.0,)))
        b = _snap(_fill(2, 9, (40.0, 40.0)))
        c = _snap(_fill(4, 1, (999.0,)))
        left = merge_snapshots([merge_snapshots([a, b]), c])
        right = merge_snapshots([a, merge_snapshots([b, c])])
        assert left == right
        assert left == merge_snapshots([a, b, c])

    def test_disjoint_label_sets_union(self):
        def fill_hit(registry):
            registry.counter("c_total", "h", ("op",)).labels(op="hit").inc()

        def fill_miss(registry):
            registry.counter("c_total", "h", ("op",)).labels(op="miss").inc(2)

        merged = merge_snapshots([_snap(fill_hit), _snap(fill_miss)])
        assert _sample(merged, "c_total", op="hit") == 1.0
        assert _sample(merged, "c_total", op="miss") == 2.0

    def test_conflicting_types_refuse_to_merge(self):
        def as_counter(registry):
            registry.counter("x", "h").inc()

        def as_gauge(registry):
            registry.gauge("x", "h").set(1)

        with pytest.raises(ValueError, match="conflicting"):
            merge_snapshots([_snap(as_counter), _snap(as_gauge)])

    def test_conflicting_buckets_refuse_to_merge(self):
        def narrow(registry):
            registry.histogram("h_ms", "h", buckets=(1.0,)).observe(0.5)

        def wide(registry):
            registry.histogram("h_ms", "h", buckets=(1.0, 2.0)).observe(0.5)

        with pytest.raises(ValueError, match="bucket"):
            merge_snapshots([_snap(narrow), _snap(wide)])

    def test_merged_worker_names_concatenate(self):
        registry = MetricsRegistry()
        merged = merge_snapshots(
            [registry.snapshot(worker="a"), registry.snapshot(worker="b")]
        )
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
        assert not list(tmp_path.glob("*.tmp.*"))

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
        assert get_registry().snapshot()["metrics"] == {}
        reset_metrics()
        assert not metrics_enabled()


class TestRecordingHelpers:
    def test_helpers_are_noops_when_disabled(self):
        record_task(SimpleNamespace(phase_seconds={"train_s": 1.0}), cached=False)
        record_cache("cell", "hit")
        assert get_registry().snapshot()["metrics"] == {}

    def test_record_task_counts_and_observes_phases(self, tmp_path):
        configure_metrics(tmp_path)
        result = SimpleNamespace(phase_seconds={"train_s": 0.5, "attack_s": 0.02})
        record_task(result, cached=False)
        snap = get_registry().snapshot()
        assert _sample(snap, "repro_tasks_total", job="cell", status="computed") == 1.0
        train = _sample(snap, "repro_task_phase_duration_ms", job="cell", phase="train")
        assert train["count"] == 1 and train["sum"] == pytest.approx(500.0)
        attack = _sample(snap, "repro_task_phase_duration_ms", job="cell", phase="attack")
        assert attack["sum"] == pytest.approx(20.0)

    def test_cached_tasks_skip_the_phase_histograms(self, tmp_path):
        configure_metrics(tmp_path)
        record_task(SimpleNamespace(phase_seconds={"train_s": 9.0}), cached=True)
        snap = get_registry().snapshot()
        assert _sample(snap, "repro_tasks_total", job="cell", status="cached") == 1.0
        assert "repro_task_phase_duration_ms" not in snap["metrics"]

    def test_job_kind_inference(self, tmp_path):
        configure_metrics(tmp_path)
        record_task(SimpleNamespace(stack_size=3, phase_seconds={}), cached=False)
        SweepResult = type("SweepResult", (), {"phase_seconds": {}})
        record_task(SweepResult(), cached=False)
        snap = get_registry().snapshot()
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
        snap = get_registry().snapshot()
        assert _sample(snap, "repro_tasks_total", job="cell", status="computed") == len(tasks)
        assert _sample(snap, "repro_cache_requests_total", cache="cell", op="put") == len(tasks)
        train = _sample(snap, "repro_task_phase_duration_ms", job="cell", phase="train")
        assert train["count"] == len(tasks)

        reset_metrics(keep_dir=True)
        run_tasks(explorer.context, tasks, run_cell_task, jobs=1, cache=cache, resume=True)
        snap = get_registry().snapshot()
        assert _sample(snap, "repro_tasks_total", job="cell", status="cached") == len(tasks)
        assert _sample(snap, "repro_cache_requests_total", cache="cell", op="hit") == len(tasks)
        assert "repro_task_phase_duration_ms" not in snap["metrics"]

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
        snap = get_registry().snapshot()
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

    def test_metrics_dir_flag_enables_collection(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        metrics = tmp_path / "m"
        code = main([
            "grid", "--profile", "micro", "--out", str(out_dir),
            "--metrics-dir", str(metrics),
        ])
        assert code == 0
        snapshots = read_metrics_dir(metrics)
        assert snapshots, "an engine run with --metrics-dir must leave snapshots"
        merged = merge_snapshots(snapshots)
        tasks_family = merged["metrics"]["repro_tasks_total"]
        total = sum(sample["value"] for sample in tasks_family["samples"])
        assert total == 4  # the micro grid is 2x2
        assert main(["cache", "metrics", str(metrics)]) == 0


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
