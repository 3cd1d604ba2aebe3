"""The cell-job engine: jobs, scheduler, cache, and the CLI knobs.

Uses a deliberately tiny workload (linear probe on random data, FGSM,
one epoch) so serial-vs-parallel and cache semantics are exercised in
well under a second per run.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro import nn
from repro.data import ArrayDataset
from repro.engine import (
    CellCache,
    JobContext,
    ResilienceConfig,
    build_cell_tasks,
    context_fingerprint,
    run_cell_task,
    run_cell_tasks,
)
from repro.experiments import runner as runner_module
from repro.experiments.runner import main
from repro.robustness import CellResult, ExplorationConfig, ExplorationResult
from repro.training.trainer import TrainingConfig

REPO_ROOT = Path(__file__).resolve().parents[1]


def _tiny_sets() -> tuple[ArrayDataset, ArrayDataset]:
    rng = np.random.default_rng(42)
    train = ArrayDataset(rng.random((24, 1, 6, 6)).astype(np.float32), rng.integers(0, 4, 24))
    test = ArrayDataset(rng.random((12, 1, 6, 6)).astype(np.float32), rng.integers(0, 4, 12))
    return train, test


def _factory(v_th: float, time_window: int, seed: int) -> nn.Module:
    return nn.Sequential(nn.Flatten(), nn.Linear(36, 4, rng=seed))


def _tiny_config(**overrides) -> ExplorationConfig:
    settings = dict(
        v_thresholds=(0.5, 1.0),
        time_windows=(2,),
        epsilons=(0.1,),
        accuracy_threshold=0.0,
        attack="fgsm",
        attack_steps=1,
        training=TrainingConfig(epochs=1, batch_size=8, learning_rate=0.01),
        seed=7,
    )
    settings.update(overrides)
    return ExplorationConfig(**settings)


def _context(**overrides) -> JobContext:
    train, test = _tiny_sets()
    return JobContext.for_grid(_tiny_config(**overrides), _factory, train, test)


def _tasks(**overrides):
    return build_cell_tasks(_tiny_config(**overrides))


@pytest.fixture()
def context() -> JobContext:
    return _context()


class TestTasks:
    def test_tasks_cover_grid_with_unique_seeds(self):
        tasks = _tasks()
        assert len(tasks) == 2
        assert [t.index for t in tasks] == [0, 1]
        assert len({t.train_seed for t in tasks}) == 2
        assert len({t.attack_seed for t in tasks}) == 2
        assert {t.train_seed for t in tasks}.isdisjoint({t.attack_seed for t in tasks})

    def test_explore_cell_matches_grid_run(self, context):
        # One cell run alone and the scheduled grid must agree exactly.
        cells, _ = run_cell_tasks(context, _tasks())
        assert run_cell_task(_context(), _tasks()[0]) == cells[0]

    def test_run_cell_task_records_timing_and_worker(self, context):
        task = _tasks()[0]
        cell = run_cell_task(context, task)
        assert cell.elapsed_seconds > 0.0
        assert cell.worker == "MainProcess"


class TestSerialParallelEquivalence:
    def test_parallel_results_identical_to_serial(self, context):
        serial, _ = run_cell_tasks(context, _tasks(), jobs=1)
        parallel, stats = run_cell_tasks(context, _tasks(), jobs=2)
        assert serial == parallel
        for cell_s, cell_p in zip(serial, parallel):
            assert cell_s.clean_accuracy == cell_p.clean_accuracy
            assert cell_s.robustness == cell_p.robustness
        assert stats.jobs == 2
        assert stats.workers and all(w != "MainProcess" for w in stats.workers)

    def test_jobs_capped_by_pending_cells(self, context):
        _, stats = run_cell_tasks(context, _tasks(), jobs=16)
        assert stats.jobs <= 2

    def test_invalid_jobs_rejected(self, context):
        with pytest.raises(ValueError):
            run_cell_tasks(context, _tasks(), jobs=0)


class TestCellCache:
    def test_put_get_roundtrip(self, context, tmp_path):
        cache = CellCache(tmp_path, context_fingerprint(context))
        task = _tasks()[0]
        assert cache.get(task) is None
        cell = run_cell_task(context, task)
        cache.put(task, cell)
        assert cache.get(task) == cell
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss(self, context, tmp_path):
        cache = CellCache(tmp_path, context_fingerprint(context))
        task = _tasks()[0]
        cache.put(task, run_cell_task(context, task))
        cache.path_for(task).write_text("{not json")
        assert cache.get(task) is None

    def test_fingerprint_sensitive_to_config_and_tags(self, context):
        base = context_fingerprint(context)
        assert context_fingerprint(_context(accuracy_threshold=0.5)) != base
        assert context_fingerprint(context, tags={"model": "x"}) != base
        # The ε list is per-task key material: same context, other checkpoint.
        assert context_fingerprint(_context(epsilons=(0.2,))) == base
        cache = CellCache("unused", base)
        assert cache.path_for(_tasks(epsilons=(0.2,))[0]) != cache.path_for(_tasks()[0])

    def test_clear_removes_entries(self, context, tmp_path):
        cache = CellCache(tmp_path, context_fingerprint(context))
        for task in _tasks():
            cache.put(task, run_cell_task(context, task))
        assert cache.clear() == 2
        assert len(cache) == 0


class TestResume:
    def _cache(self, context, tmp_path) -> CellCache:
        return CellCache(tmp_path, context_fingerprint(context))

    def test_full_resume_skips_all_cells(self, context, tmp_path):
        cache = self._cache(context, tmp_path)
        first, stats = run_cell_tasks(context, _tasks(), cache=cache)
        assert stats.cached_cells == 0
        resumed, stats = run_cell_tasks(context, _tasks(), cache=cache, resume=True)
        assert stats.cached_cells == 2
        assert stats.computed_cells == 0
        assert resumed == first

    def test_partial_resume_recomputes_only_missing(self, context, tmp_path):
        cache = self._cache(context, tmp_path)
        first, _ = run_cell_tasks(context, _tasks(), cache=cache)
        # Simulate an interrupt that lost one checkpoint.
        cache.path_for(_tasks()[1]).unlink()
        resumed, stats = run_cell_tasks(context, _tasks(), cache=cache, resume=True)
        assert stats.cached_cells == 1
        assert stats.computed_cells == 1
        assert resumed == first

    def test_without_resume_cache_is_write_only(self, context, tmp_path):
        cache = self._cache(context, tmp_path)
        run_cell_tasks(context, _tasks(), cache=cache)
        _, stats = run_cell_tasks(context, _tasks(), cache=cache)
        assert stats.cached_cells == 0
        assert stats.computed_cells == 2

    def test_resume_without_cache_rejected(self, context):
        with pytest.raises(ValueError, match="resume"):
            run_cell_tasks(context, _tasks(), resume=True)

    def test_workers_reflect_only_this_invocation(self, context, tmp_path):
        cache = self._cache(context, tmp_path)
        run_cell_tasks(context, _tasks(), cache=cache, jobs=2)
        resumed, stats = run_cell_tasks(context, _tasks(), cache=cache, resume=True)
        # All cells came from checkpoints: the old pool workers must not
        # be credited with work in this run.
        assert stats.workers == []
        # ...but per-cell provenance is preserved.
        assert all(c.worker and c.worker != "MainProcess" for c in resumed)


class TestSchedulerUnits:
    def test_duplicate_task_indices_rejected(self, context):
        task = _tasks()[0]
        with pytest.raises(ValueError):
            run_cell_tasks(context, [task, task])

    @pytest.mark.parametrize("jobs,stack", [(1, 0)])
    def test_invalid_stack_rejected(self, context, jobs, stack):
        # stack < 1 is meaningless.
        with pytest.raises(ValueError, match="stack"):
            run_cell_tasks(context, _tasks(), jobs=jobs, stack=stack)

    def test_build_cell_tasks_is_deterministic(self):
        config = _tiny_config()
        assert build_cell_tasks(config) == build_cell_tasks(config)


def _stub_result() -> ExplorationResult:
    cell = CellResult(
        v_th=1.0,
        time_window=8,
        clean_accuracy=0.9,
        learnable=True,
        curves={"pgd": {1.0: 0.5}},
    )
    return ExplorationResult(
        v_thresholds=(1.0,), time_windows=(8,), cells=[cell], metadata={}
    )


class TestRunnerCLIFlags:
    def test_grid_flags_threaded_and_json_written(self, monkeypatch, tmp_path, capsys):
        captured = {}

        def fake_grid(profile, verbose=False, jobs=1, cache_dir=None, resume=False,
                      start_method="auto", shard=None, stack=1, queue_dir=None,
                      lease_ttl=60.0, resilience=None):
            captured.update(
                profile=profile.name,
                jobs=jobs,
                cache_dir=cache_dir,
                resume=resume,
                start_method=start_method,
                shard=shard,
                stack=stack,
                queue_dir=queue_dir,
                lease_ttl=lease_ttl,
                resilience=resilience,
            )
            return _stub_result()

        monkeypatch.setattr(runner_module, "run_grid_exploration", fake_grid)
        code = main(
            ["grid", "--profile", "micro", "--out", str(tmp_path), "--jobs", "3",
             "--resume", "--start-method", "fork"]
        )
        assert code == 0
        assert captured == {
            "profile": "micro",
            "jobs": 3,
            "cache_dir": tmp_path / "cell_cache",
            "resume": True,
            "start_method": "fork",
            "shard": None,
            "stack": 1,
            "queue_dir": None,
            "lease_ttl": 60.0,
            # The CLI threads its default supervision bundle everywhere.
            "resilience": ResilienceConfig(),
        }
        saved = tmp_path / "grid_micro.json"
        assert saved.exists()
        payload = json.loads(saved.read_text())
        assert payload["cells"][0]["v_th"] == 1.0

    def test_no_cache_disables_checkpoint_dir(self, monkeypatch, tmp_path, capsys):
        captured = {}

        def fake_grid(profile, verbose=False, **kwargs):
            captured["cache_dir"] = kwargs["cache_dir"]
            return _stub_result()

        monkeypatch.setattr(runner_module, "run_grid_exploration", fake_grid)
        assert main(["grid", "--profile", "micro", "--out", str(tmp_path), "--no-cache"]) == 0
        assert captured["cache_dir"] is None

    def test_explicit_cache_dir_wins(self, monkeypatch, tmp_path, capsys):
        captured = {}

        def fake_grid(profile, verbose=False, **kwargs):
            captured["cache_dir"] = kwargs["cache_dir"]
            return _stub_result()

        monkeypatch.setattr(runner_module, "run_grid_exploration", fake_grid)
        custom = tmp_path / "ckpt"
        code = main(
            ["grid", "--profile", "micro", "--out", str(tmp_path), "--cache-dir", str(custom)]
        )
        assert code == 0
        assert captured["cache_dir"] == custom

    def test_resume_with_no_cache_rejected(self):
        with pytest.raises(SystemExit):
            main(["grid", "--profile", "micro", "--resume", "--no-cache"])

    def test_cache_dir_with_no_cache_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                ["grid", "--profile", "micro", "--no-cache", "--cache-dir", str(tmp_path)]
            )

    def test_engine_flags_rejected_for_fig1(self):
        # fig1 stays serial; engine knobs are not part of its subcommand.
        for argv in (
            ["fig1", "--profile", "micro", "--resume"],
            ["fig1", "--profile", "micro", "--jobs", "2"],
            ["fig1", "--profile", "micro", "--start-method", "spawn"],
        ):
            with pytest.raises(SystemExit):
                main(argv)

    def test_epsilons_flag_parsed_and_threaded(self, monkeypatch, capsys):
        captured = {}

        def fake_fig9(profile, verbose=False, epsilons=None, **kwargs):
            captured["epsilons"] = epsilons

            class Stub:
                metadata = {}

                def render(self):
                    return "Figure 9 stub"

                def as_dict(self):
                    return {}

            return Stub()

        monkeypatch.setattr(runner_module, "run_fig9", fake_fig9)
        assert main(["fig9", "--profile", "micro", "--epsilons", "0.5,1.0"]) == 0
        assert captured["epsilons"] == (0.5, 1.0)

    def test_bad_epsilons_rejected(self):
        for bad in ("abc", "", "-1.0"):
            with pytest.raises(SystemExit):
                main(["fig9", "--profile", "micro", "--epsilons", bad])

    def test_invalid_jobs_rejected(self):
        with pytest.raises(SystemExit):
            main(["grid", "--profile", "micro", "--jobs", "0"])

    def test_stack_composes_with_jobs(self, tmp_path):
        # The pool runs whole stacked units: --stack 2 --jobs 2 renders
        # the grid --stack 1 renders, under the CI comparison gate.
        pooled, reference = tmp_path / "pooled", tmp_path / "reference"
        assert main(["grid", "--profile", "micro", "--stack", "2", "--jobs", "2",
                     "--no-cache", "--out", str(pooled)]) == 0
        assert main(["grid", "--profile", "micro", "--stack", "1",
                     "--no-cache", "--out", str(reference)]) == 0
        engine = json.loads((pooled / "grid_micro.json").read_text())["metadata"]["engine"]
        assert (engine["jobs"], engine["start_method"]) == (2, "fork")
        spec = importlib.util.spec_from_file_location(
            "compare_results", REPO_ROOT / "scripts" / "compare_results.py"
        )
        compare_results = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(compare_results)
        assert compare_results.main([
            str(reference / "grid_micro.json"), str(pooled / "grid_micro.json"),
        ]) == 0

    def test_unknown_ablation_factor_rejected(self):
        with pytest.raises(SystemExit):
            main(["ablation", "--profile", "micro", "--factor", "banana"])

    def test_help_of_every_subcommand(self, capsys):
        for argv in (
            ["--help"],
            ["fig1", "--help"],
            ["grid", "--help"],
            ["fig9", "--help"],
            ["ablation", "--help"],
            ["all", "--help"],
            ["cache", "--help"],
            ["cache", "-h"],
            *(["cache", action, "--help"] for action in CACHE_ACTIONS),
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 0
            capsys.readouterr()


CACHE_ACTIONS = ("stats", "inspect", "clear", "gc", "merge", "verify", "watch", "metrics")

# Every invocation the CLI rejects, including flags it once accepted and
# ignored (fig9/ablation --stack, clear/gc --json, --cache-dir on
# merge/metrics/watch) and NaN bounds.  {out}, {cache}, {queue}, {src}
# and {blocker} (a regular file) are per-test paths; every experiment
# command also gets --profile micro --out {out}.
REJECTED = (
    "grid --jobs 0",
    "fig9 --jobs 0",
    "grid --stack 0",
    # Without --queue a queue-only flag is itself the error, whatever its
    # value; with it, each bad value trips its own check.
    "grid --lease-ttl 30",
    "grid --max-attempts 2",
    "grid --watchdog-mult 4",
    "fig9 --watchdog-floor 60",
    "grid --lease-ttl 0",
    "grid --lease-ttl nan",
    "grid --max-attempts 0",
    "grid --watchdog-mult -1",
    "grid --watchdog-mult nan",
    "grid --watchdog-floor -1",
    "grid --watchdog-floor nan",
    "grid --queue {queue} --lease-ttl 0",
    "grid --queue {queue} --lease-ttl nan",
    "grid --queue {queue} --max-attempts 0",
    "grid --queue {queue} --watchdog-mult -1",
    "grid --queue {queue} --watchdog-mult nan",
    "grid --queue {queue} --watchdog-floor -1",
    "grid --queue {queue} --watchdog-floor nan",
    "grid --metrics-dir {blocker}/m",
    "grid --queue {queue} --shard 0/2",
    "grid --queue {queue} --jobs 2",
    "all --queue {queue} --jobs 2",
    "grid --no-cache --cache-dir {cache}",
    "grid --no-cache --resume",
    "ablation --no-cache --resume",
    "grid --no-cache --shard 0/2",
    "grid --no-cache --queue {queue}",
    "grid --budget-schedule 1,2",
    "grid --halving-eta 2",
    "grid --no-warm-start",
    "grid --bias-tolerance 0.1",
    "grid --search halving --no-cache",
    "grid --search halving --shard 0/2",
    "grid --search halving --start-method spawn --jobs 2",
    "grid --search halving --halving-eta 1",
    "grid --search halving --halving-eta nan",
    "grid --search halving --bias-tolerance -1",
    "grid --search halving --bias-tolerance nan",
    "grid --search halving --budget-schedule 2,1",
    "fig9 --stack 2",
    "ablation --stack 2",
    "fig1 --jobs 2",
    "cache stats --cache-dir {cache} --queue {queue}",
    "cache gc --cache-dir {cache} --fingerprint ab --follow",
    "cache stats --cache-dir {cache} {src}",
    "cache inspect --cache-dir {cache} --into {out}",
    "cache verify --cache-dir {cache} --into {out}",
    "cache stats --cache-dir {cache} --max-age-days 1",
    "cache clear --cache-dir {cache} --max-age-days 1",
    "cache clear --cache-dir {cache} --json",
    "cache gc --cache-dir {cache} --fingerprint ab --json",
    "cache gc --cache-dir {cache}",
    "cache gc --cache-dir {cache} --max-age-days -1",
    "cache gc --cache-dir {cache} --max-age-days nan",
    "cache merge --into {out}",
    "cache merge {src}",
    "cache merge {src} --into {out} --fingerprint ab",
    "cache merge {src} --into {out} --cache-dir {cache}",
    "cache merge {src} {src}/missing --into {out}",
    "cache verify --cache-dir {cache} --fingerprint ab",
    "cache metrics",
    "cache metrics {src} --into {out}",
    "cache metrics {src} --fingerprint ab",
    "cache metrics {src} --cache-dir {cache}",
    "cache watch",
    "cache watch --queue {queue} --fingerprint ab",
    "cache watch --queue {queue} --max-age-days 1",
    "cache watch --queue {queue} {src}",
    "cache watch --queue {queue} --cache-dir {cache}",
    "cache --cache-dir {cache} stats",
)


class TestRejectedInvocations:
    @pytest.mark.parametrize("command", REJECTED)
    def test_exits_2_before_any_work(self, command, tmp_path, monkeypatch, capsys):
        def unreachable(*args, **kwargs):
            raise AssertionError(f"{command!r} reached an experiment runner")

        for name in ("run_fig1", "run_grid_exploration", "run_grid_search",
                     "run_fig9", "run_ablation_suite"):
            monkeypatch.setattr(runner_module, name, unreachable)
        monkeypatch.chdir(tmp_path)
        paths = {
            name: tmp_path / name for name in ("out", "cache", "queue", "src", "blocker")
        }
        paths["src"].mkdir()
        paths["blocker"].write_text("a file, not a directory")
        argv = command.format(**paths).split()
        if argv[0] != "cache":
            argv += ["--profile", "micro", "--out", str(paths["out"])]
        try:
            code = main(argv)
        except SystemExit as exited:
            code = exited.code
        assert code == 2, capsys.readouterr()
        for name in ("out", "cache", "queue"):
            assert not paths[name].exists(), f"{command!r} created {name}"

    def test_errors_print_the_subcommand_usage(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["grid", "--profile", "micro", "--queue", str(tmp_path / "q"),
                  "--shard", "0/2"])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro-experiments grid ")
        assert "repro-experiments grid: error: queue_dir" in err


class TestRunnerAllMode:
    def _stub_everything(self, monkeypatch, ran, boom=()):
        def make(name):
            def step(*args, **kwargs):
                if name in boom:
                    raise RuntimeError(f"{name} exploded")
                ran.append(name)

            return step

        monkeypatch.setattr(runner_module, "_run_fig1", make("fig1"))
        monkeypatch.setattr(runner_module, "_run_grid", make("grid"))
        monkeypatch.setattr(runner_module, "_run_fig9", make("fig9"))
        monkeypatch.setattr(runner_module, "_run_ablation", make("ablation"))

    def test_one_failure_does_not_abort_the_rest(self, monkeypatch, capsys):
        ran: list[str] = []
        self._stub_everything(monkeypatch, ran, boom=("fig1",))
        code = main(["all", "--profile", "micro"])
        assert code == 1
        assert ran == ["grid", "fig9", "ablation"]
        err = capsys.readouterr().err
        assert "[failed] fig1" in err and "fig1 exploded" in err

    def test_all_green_returns_zero(self, monkeypatch, capsys):
        ran: list[str] = []
        self._stub_everything(monkeypatch, ran)
        assert main(["all", "--profile", "micro"]) == 0
        assert ran == ["fig1", "grid", "fig9", "ablation"]

    def test_single_experiment_failure_still_raises(self, monkeypatch):
        ran: list[str] = []
        self._stub_everything(monkeypatch, ran, boom=("fig1",))
        with pytest.raises(RuntimeError):
            main(["fig1", "--profile", "micro"])


class TestSharedCacheDirectory:
    def test_len_and_clear_scoped_to_fingerprint(self, context, tmp_path):
        cache_a = CellCache(tmp_path, context_fingerprint(context))
        cache_b = CellCache(tmp_path, "f" * 64)
        task = _tasks()[0]
        cell = run_cell_task(context, task)
        cache_a.put(task, cell)
        cache_b.put(task, cell)
        assert len(cache_a) == 1 and len(cache_b) == 1
        assert cache_a.clear() == 1
        # The sibling cache's checkpoint survived.
        assert len(cache_b) == 1
        assert cache_b.get(task) == cell


class TestResumeDiagnostics:
    def test_empty_cache_resume_is_not_a_warning(self, context, tmp_path, caplog):
        import logging

        cache = CellCache(tmp_path, context_fingerprint(context))
        with caplog.at_level(logging.INFO, logger="repro.engine"):
            run_cell_tasks(context, _tasks(), cache=cache, resume=True)
        warnings = [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert warnings == []

    def test_mismatched_checkpoints_warn(self, context, tmp_path, caplog):
        import logging

        # A sibling cache under a different fingerprint leaves entries the
        # resuming run cannot use — that's worth a warning.
        foreign = CellCache(tmp_path, "f" * 64)
        task = _tasks()[0]
        foreign.put(task, run_cell_task(context, task))
        cache = CellCache(tmp_path, context_fingerprint(context))
        with caplog.at_level(logging.INFO, logger="repro.engine"):
            run_cell_tasks(context, _tasks(), cache=cache, resume=True)
        assert any(
            r.levelno == logging.WARNING and "match this configuration" in r.message
            for r in caplog.records
        )


class TestCacheRobustness:
    def test_non_dict_json_checkpoint_is_a_miss(self, context, tmp_path):
        cache = CellCache(tmp_path, context_fingerprint(context))
        task = _tasks()[0]
        cache.put(task, run_cell_task(context, task))
        for content in ("null", "[1, 2]", '"text"', '{"version": 1, "cell": null}'):
            cache.path_for(task).write_text(content)
            assert cache.get(task) is None

    @pytest.mark.parametrize("stack", [1, 2])
    def test_unwritable_cache_does_not_abort_the_run(
        self, context, tmp_path, caplog, stack
    ):
        import logging

        class BrokenCache(CellCache):
            def put(self, task, cell):
                raise OSError("disk full")

        cache = BrokenCache(tmp_path, context_fingerprint(context))
        with caplog.at_level(logging.WARNING, logger="repro.engine"):
            cells, stats = run_cell_tasks(context, _tasks(), cache=cache, stack=stack)
        assert len(cells) == 2
        assert stats.computed_cells == 2
        assert sum(
            "checkpointing disabled" in r.message for r in caplog.records
        ) == 1  # warned once, not per cell

    @pytest.mark.parametrize("stack", [1, 2])
    def test_transient_cache_write_failure_is_retried(
        self, context, tmp_path, caplog, stack
    ):
        import logging

        class FlakyCache(CellCache):
            failures = 1

            def put(self, task, cell):
                if FlakyCache.failures:
                    FlakyCache.failures -= 1
                    raise OSError("transient")
                return super().put(task, cell)

        cache = FlakyCache(tmp_path, context_fingerprint(context))
        with caplog.at_level(logging.WARNING, logger="repro.engine"):
            run_cell_tasks(context, _tasks(), cache=cache, stack=stack)
        assert all(cache.get(task) is not None for task in _tasks())
        messages = [r.message for r in caplog.records]
        assert sum("retrying once" in m for m in messages) == 1
        assert not any("checkpointing disabled" in m for m in messages)
