"""Engine sweep paths (fig1/fig9/ablation): sweep jobs, spawn backend, weight cache.

Everything runs at micro scale (or smaller) so the whole file stays in
the tens of seconds: spawn-vs-serial equivalence, resume-after-interrupt
for fig1, fig9 and the ablation suite, a short-lease fig1 fleet, weight-cache
hits on security-only re-sweeps (retraining is *forbidden* via a
poisoned Trainer), and the ``cache`` subcommand's
stats/inspect/clear/gc actions.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.engine import (
    CellCache,
    ContextSpec,
    ShardSpec,
    WeightCache,
    context_fingerprint,
    merge_event_logs,
    run_cell_task,
    run_tasks,
    training_fingerprint,
)
from repro.experiments import (
    get_profile,
    run_ablation_suite,
    run_fig1,
    run_fig9,
    run_grid_exploration,
)
from repro.experiments.runner import main
from repro.experiments.sweeps import (
    _model_tags,
    build_ablation_context,
    build_ablation_tasks,
    build_fig1_context,
    build_fig1_tasks,
    build_fig9_context,
    build_fig9_tasks,
)
from repro.training.trainer import Trainer


def _forbid_training(monkeypatch):
    """Any Train() call after this explodes — proves weight-cache reuse."""

    def boom(self, *args, **kwargs):
        raise AssertionError("training ran although cached weights exist")

    monkeypatch.setattr(Trainer, "fit", boom)


class TestSweepTasks:
    def test_task_seeds_unique_and_stable(self):
        profile = get_profile("micro")
        tasks = build_fig9_tasks(profile)
        again = build_fig9_tasks(profile)
        assert tasks == again
        seeds = [t.train_seed for t in tasks] + [t.attack_seed for t in tasks]
        assert len(set(seeds)) == len(seeds)

    def test_epsilon_override_keeps_train_seeds(self):
        # The security-only re-sweep contract: new ε lists address the
        # same trained weights.
        profile = get_profile("micro")
        base = build_fig9_tasks(profile)
        swept = build_fig9_tasks(profile, epsilons=(0.125, 0.25))
        assert [t.train_seed for t in base] == [t.train_seed for t in swept]
        assert swept[0].epsilons == (0.125, 0.25)

    def test_unknown_ablation_factor_rejected(self):
        profile = get_profile("micro")
        with pytest.raises(ValueError, match="unknown ablation factors"):
            build_ablation_tasks(profile, factors=("banana",))

    @pytest.mark.parametrize("experiment", ["ablation", "fig1", "fig9"])
    def test_snn_tasks_carry_the_time_steps_their_model_runs(self, experiment):
        # The cost model prices a sweep task by its time_steps; a task
        # reporting 0 would be scheduled last with the bare watchdog floor.
        profile = get_profile("micro")
        build_context, build_tasks = {
            "ablation": (build_ablation_context, build_ablation_tasks),
            "fig1": (build_fig1_context, build_fig1_tasks),
            "fig9": (build_fig9_context, build_fig9_tasks),
        }[experiment]
        builder = build_context(profile).model_builder
        snn_tasks = [t for t in build_tasks(profile) if not t.kind.endswith("_cnn")]
        assert snn_tasks
        for task in snn_tasks:
            assert [name for name, _ in task.params] == sorted(name for name, _ in task.params)
            assert task.time_steps > 0
            assert task.time_steps == builder(task).time_steps

    def test_run_cell_task_shape_for_an_ungated_variant(self):
        profile = get_profile("micro")
        context = build_ablation_context(profile)
        task = build_ablation_tasks(profile, factors=("attack",))[0]
        result = run_cell_task(context, task)
        assert set(result.curves) == set(task.attacks)
        assert 0.0 <= result.clean_accuracy <= 1.0
        for curve in result.curves.values():
            assert set(curve) == set(task.epsilons)
        assert not result.weights_from_cache
        assert result.elapsed_seconds > 0.0
        # Per-phase breakdown: trained fresh (the clean score is part of
        # the train phase), so both phases ran and roughly account for
        # the elapsed wall time.
        assert set(result.phase_seconds) == {"train_s", "attack_s"}
        assert all(value >= 0.0 for value in result.phase_seconds.values())
        assert sum(result.phase_seconds.values()) <= result.elapsed_seconds

    def test_phase_seconds_roundtrip_and_equality(self):
        from repro.robustness.results import CellResult

        result = CellResult(
            None, 0, clean_accuracy=0.5, learnable=True,
            curves={"pgd": {0.5: 0.4}, "fgsm": {0.5: 0.3}},
            phase_seconds={"train_s": 1.5, "attack_s": 0.25},
        )
        clone = CellResult.from_dict(result.as_dict())
        assert clone == result
        assert clone.phase_seconds == result.phase_seconds
        # Provenance: two scientifically identical results compare equal
        # regardless of their timings.
        other = CellResult(
            None, 0, clean_accuracy=0.5, learnable=True,
            curves={"pgd": {0.5: 0.4}, "fgsm": {0.5: 0.3}},
            phase_seconds={"train_s": 99.0},
        )
        assert result == other


class TestSpawnBackend:
    def test_spawn_results_identical_to_serial(self):
        profile = get_profile("micro")
        context = build_ablation_context(profile)
        tasks = build_ablation_tasks(profile, factors=("reset",))
        serial, serial_stats = run_tasks(context, tasks, run_cell_task)
        spec = ContextSpec(
            "repro.experiments.sweeps:build_ablation_context", {"profile": "micro"}
        )
        spawned, stats = run_tasks(
            context,
            tasks,
            run_cell_task,
            jobs=2,
            start_method="spawn",
            context_spec=spec,
        )
        assert stats.start_method == "spawn"
        assert serial_stats.start_method == "serial"
        assert spawned == serial
        assert all(w.startswith("SpawnProcess") for w in stats.workers)

    def test_spawn_without_spec_rejected(self):
        profile = get_profile("micro")
        context = build_ablation_context(profile)
        tasks = build_ablation_tasks(profile, factors=("reset",))
        with pytest.raises(ValueError, match="context_spec"):
            run_tasks(context, tasks, run_cell_task, jobs=2, start_method="spawn")

    def test_spawn_without_spec_rejected_even_with_nothing_pending(self):
        # The programming error must not pass or fail with cache warmth:
        # even a schedule with no pending work rejects spawn-without-spec.
        profile = get_profile("micro")
        context = build_ablation_context(profile)
        with pytest.raises(ValueError, match="context_spec"):
            run_tasks(context, [], run_cell_task, jobs=4, start_method="spawn")

    def test_bad_start_method_rejected(self):
        profile = get_profile("micro")
        context = build_ablation_context(profile)
        tasks = build_ablation_tasks(profile, factors=("reset",))
        with pytest.raises(ValueError, match="start_method"):
            run_tasks(context, tasks, run_cell_task, start_method="threads")

    def test_context_spec_validates_target(self):
        with pytest.raises(ValueError, match="package.module:function"):
            ContextSpec("not-a-target").resolve()


class TestRunnerFlagConflicts:
    """The engine checks the mode flags once, for every runner."""

    @pytest.mark.parametrize(
        "options,message",
        [
            ({"resume": True}, "cache_dir"),
            ({"queue_dir": "q"}, "requires a cache"),
            (
                {"queue_dir": "q", "cache_dir": "c", "shard": ShardSpec(0, 2)},
                "conflicts with shard",
            ),
            ({"queue_dir": "q", "cache_dir": "c", "jobs": 3}, "single-process"),
            ({"queue_dir": "q", "cache_dir": "c", "lease_ttl": 0.0}, "lease_ttl"),
            ({"lease_ttl": float("nan")}, "lease_ttl"),
            (
                {"queue_dir": "q", "cache_dir": "c", "start_method": "bogus"},
                "unknown start_method",
            ),
        ],
        ids=[
            "resume_without_cache_dir",
            "queue_without_cache_dir",
            "queue_with_shard",
            "queue_with_jobs",
            "queue_with_zero_lease_ttl",
            "nan_lease_ttl",
            "queue_with_unknown_start_method",
        ],
    )
    @pytest.mark.parametrize(
        "runner",
        [run_grid_exploration, run_fig9, run_ablation_suite],
        ids=["grid", "fig9", "ablation"],
    )
    def test_rejected(self, runner, options, message, tmp_path):
        options = {
            key: tmp_path / value if key.endswith("_dir") else value
            for key, value in options.items()
        }
        with pytest.raises(ValueError, match=message):
            runner("micro", **options)
        assert not (tmp_path / "q").exists()


def _fig1_science(result) -> dict:
    payload = result.as_dict()
    payload.pop("metadata")
    return payload


class TestFig1Engine:
    def test_parallel_and_resumed_identical_to_serial(self, tmp_path):
        serial = run_fig1("micro")
        assert run_fig1("micro", jobs=2).as_dict()["cnn"] == serial.as_dict()["cnn"]
        first = run_fig1("micro", cache_dir=tmp_path)
        assert _fig1_science(first) == _fig1_science(serial)
        profile = get_profile("micro")
        context = build_fig1_context(profile, cache_dir=tmp_path)
        cache = CellCache(
            tmp_path, context_fingerprint(context, tags=_model_tags(profile, "fig1"))
        )
        tasks = build_fig1_tasks(profile)
        cache.path_for(tasks[1]).unlink()
        resumed = run_fig1("micro", cache_dir=tmp_path, resume=True)
        assert resumed.metadata["engine"]["cached_cells"] == 1
        assert resumed.metadata["weights_reused"] == 1
        assert _fig1_science(resumed) == _fig1_science(serial)

    def test_result_cache_pins_fig1_models(self):
        profile = get_profile("micro")
        tags = _model_tags(profile, "fig1")
        assert tags["cnn_model"] == profile.fig1_cnn_model
        assert tags["snn_model"] == profile.fig1_snn_model
        other = dataclasses.replace(profile, fig1_snn_model="snn_lenet_mini")
        assert _model_tags(other, "fig1") != tags
        # fig9's tags do not see the fig1 models.
        assert _model_tags(other, "fig9") == _model_tags(profile, "fig9")

    def test_short_lease_fleet_computes_each_task_once(self, tmp_path):
        # A late worker joining while the first one is mid-task must wait
        # for the heartbeating lease, not steal it and recompute fig1.
        # Every task is padded to >= 4 lease TTLs, so only the heartbeat
        # keeps a lease alive.
        lease_ttl = 0.25
        script = (
            "import sys, time\n"
            "from repro.experiments import run_fig1\n"
            "from repro.engine import scheduler\n"
            "inner = scheduler.run_cell_task\n"
            "def padded(context, task):\n"
            "    time.sleep(4 * float(sys.argv[2]))\n"
            "    return inner(context, task)\n"
            "scheduler.run_cell_task = padded\n"
            "root = sys.argv[1]\n"
            "run_fig1('micro', cache_dir=root + '/cache', queue_dir=root,"
            " lease_ttl=float(sys.argv[2]))\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        workers = []
        for index in range(2):
            env["REPRO_QUEUE_WORKER"] = f"fig1-{index}"
            workers.append(subprocess.Popen(
                [sys.executable, "-c", script, str(tmp_path), str(lease_ttl)],
                env=dict(env), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True,
            ))
            if index == 0:
                deadline = time.monotonic() + 120.0
                while not list((tmp_path / "fig1").glob("lease_*.json")):
                    assert workers[0].poll() is None, workers[0].communicate()[0]
                    assert time.monotonic() < deadline, "no fig1 lease taken"
                    time.sleep(0.02)
                time.sleep(2 * lease_ttl)
        for process in workers:
            out, _ = process.communicate(timeout=240)
            assert process.returncode == 0, out
        events = merge_event_logs(tmp_path / "fig1")
        commits = {e["task"]: e for e in events if e["event"] == "commit"}
        assert Counter(e["task"] for e in events if e["event"] == "commit") == (
            Counter({0: 1, 1: 1})
        )
        assert [e for e in events if e["event"] == "steal"] == []
        for claim in (e for e in events if e["event"] == "claim"):
            held = commits[claim["task"]]["time"] - claim["time"]
            assert held > 4 * lease_ttl  # the lease outlived several TTLs


class TestFig9Engine:
    def test_parallel_identical_to_serial(self):
        serial = run_fig9("micro")
        parallel = run_fig9("micro", jobs=2)
        assert serial.as_dict()["snn"] == parallel.as_dict()["snn"]
        assert serial.as_dict()["cnn"] == parallel.as_dict()["cnn"]
        assert serial.clean_accuracies == parallel.clean_accuracies
        assert parallel.metadata["engine"]["jobs"] == 2

    def test_resume_after_interrupt(self, tmp_path):
        first = run_fig9("micro", cache_dir=tmp_path)
        profile = get_profile("micro")
        context = build_fig9_context(profile, cache_dir=tmp_path)
        cache = CellCache(
            tmp_path, context_fingerprint(context, tags=_model_tags(profile, "fig9"))
        )
        tasks = build_fig9_tasks(profile)
        assert len(cache) == len(tasks)
        # Simulate an interrupt that lost one checkpoint.
        cache.path_for(tasks[1]).unlink()
        resumed = run_fig9("micro", cache_dir=tmp_path, resume=True)
        engine = resumed.metadata["engine"]
        assert engine["cached_cells"] == len(tasks) - 1
        assert engine["computed_cells"] == 1
        assert resumed.as_dict()["snn"] == first.as_dict()["snn"]
        assert resumed.as_dict()["cnn"] == first.as_dict()["cnn"]

    def test_security_only_resweep_skips_training(
        self, tmp_path, monkeypatch, caplog
    ):
        baseline = run_fig9("micro", cache_dir=tmp_path)
        _forbid_training(monkeypatch)
        with caplog.at_level(logging.WARNING, logger="repro.engine"):
            resweep = run_fig9(
                "micro", cache_dir=tmp_path, resume=True, epsilons=(0.0, 0.5)
            )
        # The cell checkpoints are recomputed; the weights are not retrained.
        assert [r.getMessage() for r in caplog.records] == [
            "resume requested but none of the existing checkpoints match this "
            "configuration; recomputing all 3 task checkpoints (trained weights "
            "that still match are reused from the weight cache)"
        ]
        assert resweep.epsilons == (0.0, 0.5)
        assert resweep.metadata["weights_reused"] == 3
        assert resweep.metadata["engine"]["computed_cells"] == 3
        # Clean accuracies come from the archives, not from retraining.
        assert resweep.clean_accuracies == baseline.clean_accuracies

    def test_result_cache_pins_model_identity(self, tmp_path):
        # Same datasets + training but a different model registry name
        # must not hit the other model's sweep checkpoints.
        import dataclasses

        profile = get_profile("micro")
        other = dataclasses.replace(profile, snn_model="snn_cnn5")
        context = build_fig9_context(profile)
        fp_a = context_fingerprint(context, tags=_model_tags(profile, "fig9"))
        fp_b = context_fingerprint(context, tags=_model_tags(other, "fig9"))
        assert fp_a != fp_b
        # ...and run_fig9 really keys its checkpoints with the model tags.
        run_fig9("micro", cache_dir=tmp_path)
        assert len(CellCache(tmp_path, fp_a)) == 3
        assert len(CellCache(tmp_path, fp_b)) == 0

    def test_weights_reused_counts_this_run_only(self, tmp_path):
        run_fig9("micro", cache_dir=tmp_path)
        resweep = run_fig9(
            "micro", cache_dir=tmp_path, resume=True, epsilons=(0.0, 0.5)
        )
        assert resweep.metadata["weights_reused"] == 3
        # Same epsilons again: everything comes from the result cache, so
        # no weight-cache hit happened *this* run despite the persisted
        # weights_from_cache flags inside the checkpoints.
        replay = run_fig9(
            "micro", cache_dir=tmp_path, resume=True, epsilons=(0.0, 0.5)
        )
        assert replay.metadata["engine"]["cached_cells"] == 3
        assert replay.metadata["weights_reused"] == 0


class TestAblationEngine:
    def test_parallel_identical_to_serial(self):
        serial = run_ablation_suite("micro", factors=("reset", "attack"))
        parallel = run_ablation_suite("micro", factors=("reset", "attack"), jobs=2)
        for factor in ("reset", "attack"):
            assert serial[factor].variants == parallel[factor].variants
            assert serial[factor].clean_accuracies == parallel[factor].clean_accuracies

    def test_resume_after_interrupt(self, tmp_path):
        factors = ("reset",)
        first = run_ablation_suite("micro", factors=factors, cache_dir=tmp_path)
        profile = get_profile("micro")
        context = build_ablation_context(profile, cache_dir=tmp_path)
        cache = CellCache(
            tmp_path, context_fingerprint(context, tags=_model_tags(profile, "ablation"))
        )
        tasks = build_ablation_tasks(profile, factors=factors)
        cache.path_for(tasks[0]).unlink()
        resumed = run_ablation_suite(
            "micro", factors=factors, cache_dir=tmp_path, resume=True
        )
        engine = resumed["reset"].metadata["engine"]
        assert engine["cached_cells"] == len(tasks) - 1
        assert engine["computed_cells"] == 1
        assert resumed["reset"].variants == first["reset"].variants

    def test_repeated_factors_deduplicated(self):
        suite = run_ablation_suite("micro", factors=("reset", "reset"))
        assert set(suite) == {"reset"}
        # Two variants, not four: the duplicate factor scheduled nothing.
        assert suite["reset"].metadata["engine"]["total_cells"] == 2

    def test_poisson_resweep_equals_fresh_run(self, tmp_path, monkeypatch):
        # The stateful Poisson encoder is reseeded before every sweep, so
        # a weight-cached re-sweep must reproduce the fresh run exactly.
        first = run_ablation_suite("micro", factors=("encoding",), cache_dir=tmp_path)
        for checkpoint in tmp_path.glob("sweep_*.json"):
            checkpoint.unlink()
        _forbid_training(monkeypatch)
        resumed = run_ablation_suite(
            "micro", factors=("encoding",), cache_dir=tmp_path, resume=True
        )
        assert resumed["encoding"].metadata["weights_reused"] == 2
        assert resumed["encoding"].variants == first["encoding"].variants
        assert resumed["encoding"].clean_accuracies == first["encoding"].clean_accuracies

    def test_security_only_resweep_skips_training(self, tmp_path, monkeypatch):
        run_ablation_suite("micro", factors=("attack",), cache_dir=tmp_path)
        _forbid_training(monkeypatch)
        resweep = run_ablation_suite(
            "micro",
            factors=("attack",),
            cache_dir=tmp_path,
            resume=True,
            epsilons=(0.25,),
        )["attack"]
        assert resweep.epsilons == (0.25,)
        assert resweep.metadata["weights_reused"] == 1
        assert set(resweep.variants) == {
            "pgd", "bim", "fgsm", "sign_noise", "uniform_noise"
        }


class TestGridWeightCache:
    def test_resume_from_weights_after_losing_checkpoints(
        self, tmp_path, monkeypatch
    ):
        first = run_grid_exploration("micro", cache_dir=tmp_path)
        # Drop the result checkpoints but keep the trained weights: the
        # resumed run must redo the security sweeps without retraining.
        removed = [p for p in tmp_path.glob("cell_*.json")]
        assert removed
        for path in removed:
            path.unlink()
        assert list(tmp_path.glob("weights_*.npz"))
        _forbid_training(monkeypatch)
        resumed = run_grid_exploration("micro", cache_dir=tmp_path, resume=True)
        engine = resumed.metadata["engine"]
        assert engine["cached_cells"] == 0
        assert engine["computed_cells"] == len(first.cells)
        for cell, fresh in zip(first.cells, resumed.cells):
            assert cell.clean_accuracy == fresh.clean_accuracy
            assert cell.robustness == fresh.robustness


class TestWeightCacheUnit:
    def test_roundtrip_and_metadata(self, tmp_path):
        import numpy as np

        cache = WeightCache(tmp_path, "f" * 64)
        state = {"lin.weight": np.arange(6, dtype=np.float32).reshape(2, 3)}
        cache.put("variant", 7, state, {"clean_accuracy": 0.5})
        loaded = cache.get("variant", 7)
        assert loaded is not None
        arrays, metadata = loaded
        np.testing.assert_array_equal(arrays["lin.weight"], state["lin.weight"])
        assert metadata["clean_accuracy"] == 0.5
        assert metadata["key"] == "variant"
        assert cache.get("variant", 8) is None
        assert len(cache) == 1
        assert cache.clear() == 1

    def test_metadata_must_record_clean_accuracy(self, tmp_path):
        import numpy as np

        cache = WeightCache(tmp_path, "f" * 64)
        with pytest.raises(ValueError, match="clean_accuracy"):
            cache.put("variant", 7, {"w": np.ones(1)}, {})

    def test_corrupt_archive_is_a_miss(self, tmp_path):
        import numpy as np

        cache = WeightCache(tmp_path, "f" * 64)
        path = cache.put("variant", 7, {"w": np.ones(1)}, {"clean_accuracy": 1.0})
        path.write_bytes(b"not a zip archive")
        assert cache.get("variant", 7) is None

    def test_training_fingerprint_ignores_attack_settings(self):
        profile = get_profile("micro")
        context_a = build_fig9_context(profile)
        fp = training_fingerprint(
            context_a.train_set, context_a.training, eval_sets=(context_a.clean_eval_set,)
        )
        again = training_fingerprint(
            context_a.train_set, context_a.training, eval_sets=(context_a.clean_eval_set,)
        )
        assert fp == again
        tagged = training_fingerprint(
            context_a.train_set,
            context_a.training,
            eval_sets=(context_a.clean_eval_set,),
            tags={"experiment": "other"},
        )
        assert tagged != fp


class TestCacheFailureTolerance:
    def test_unwritable_weight_cache_does_not_abort_the_run(
        self, tmp_path, monkeypatch, caplog
    ):
        import logging

        from repro.engine.cache import WeightCache

        def refuse(self, *args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(WeightCache, "put", refuse)
        with caplog.at_level(logging.WARNING, logger="repro.engine"):
            result = run_fig9("micro", cache_dir=tmp_path)
        assert result.metadata["engine"]["computed_cells"] == 3
        assert any("weight archiving failed" in r.message for r in caplog.records)

    def test_orphaned_temp_files_uncounted_but_prunable(self, tmp_path):
        from repro.engine.cache import cache_stats, clear_cache_dir, gc_cache_dir

        # A run killed between write and rename leaves temp files behind.
        # Stats must not count an archive mid-write, but the pruning
        # commands must sweep strays or they accumulate forever: both
        # today's ``.<name>.<pid>.<thread>.tmp`` and the pid-only names
        # that caches written before that rule still hold.
        npz_orphans = [
            tmp_path / (".weights_" + "a" * 12 + "_deadbeef.1234.tmp.npz"),
            tmp_path / (".weights_" + "c" * 12 + "_deadbeef.npz.1234.5678.tmp"),
        ]
        json_orphans = [
            tmp_path / ("cell_" + "b" * 12 + "_deadbeef.json.1234.tmp"),
            tmp_path / ("sweep_" + "b" * 12 + "_deadbeef.json.1234.merge.tmp"),
            tmp_path / (".cell_" + "d" * 12 + "_deadbeef.json.1234.5678.tmp"),
        ]
        for orphan in npz_orphans + json_orphans:
            orphan.write_bytes(b"{partial")
        unrelated = [tmp_path / "notes.txt", tmp_path / ".notes.txt.1234.5678.tmp"]
        for path in unrelated:
            path.write_text("keep me")
        assert cache_stats(tmp_path)["entries"] == 0
        # gc with an age bound skips fresh (possibly in-flight) temps...
        assert gc_cache_dir(tmp_path, max_age_seconds=3600) == 0
        for orphan in npz_orphans:
            os.utime(orphan, (1_000_000, 1_000_000))
        assert gc_cache_dir(tmp_path, max_age_seconds=3600) == 2
        assert not any(orphan.exists() for orphan in npz_orphans)
        # ...while clear sweeps the rest unconditionally.
        assert clear_cache_dir(tmp_path) == 3
        assert not any(orphan.exists() for orphan in json_orphans)
        assert all(path.exists() for path in unrelated)

    @pytest.mark.parametrize("max_age", [-1.0, float("nan")], ids=["negative", "nan"])
    def test_gc_rejects_an_age_bound_below_zero(self, tmp_path, max_age):
        from repro.engine.cache import gc_cache_dir

        # Every age exceeds a negative bound and none compares with NaN,
        # so either would delete a fresh entry and an in-flight temp.
        entry = tmp_path / ("cell_" + "a" * 12 + "_" + "2" * 32 + ".json")
        entry.write_text("{}")
        temp = tmp_path / ("cell_" + "b" * 12 + "_deadbeef.json.1234.tmp")
        temp.write_text("{partial")
        with pytest.raises(ValueError, match="max_age_seconds"):
            gc_cache_dir(tmp_path, max_age_seconds=max_age)
        assert entry.exists() and temp.exists()


class TestCacheCLI:
    @pytest.fixture()
    def warm_cache(self, tmp_path):
        run_fig9("micro", cache_dir=tmp_path)
        return tmp_path

    def _stats(self, capsys, directory) -> dict:
        assert main(["cache", "stats", "--cache-dir", str(directory), "--json"]) == 0
        return json.loads(capsys.readouterr().out)

    def test_stats_reports_sweeps_and_weights(self, warm_cache, capsys):
        stats = self._stats(capsys, warm_cache)
        assert stats["entries"] == 6
        assert stats["by_kind"]["sweep"]["entries"] == 3
        assert stats["by_kind"]["weights"]["entries"] == 3
        assert stats["total_bytes"] > 0

    def test_inspect_lists_entries(self, warm_cache, capsys):
        assert main(
            ["cache", "inspect", "--cache-dir", str(warm_cache), "--json"]
        ) == 0
        entries = json.loads(capsys.readouterr().out)
        assert len(entries) == 6
        assert {e["kind"] for e in entries} == {"sweep", "weights"}

    def test_inspect_surfaces_phase_timings(self, warm_cache, capsys):
        assert main(
            ["cache", "inspect", "--cache-dir", str(warm_cache), "--json"]
        ) == 0
        entries = json.loads(capsys.readouterr().out)
        sweeps = [e for e in entries if e["kind"] == "sweep"]
        for entry in sweeps:
            timings = entry["timings"]
            assert {"elapsed_s", "train_s", "attack_s"} <= set(timings)
        # Weight archives carry no result payload, hence no timings.
        assert all(
            e["timings"] is None for e in entries if e["kind"] == "weights"
        )
        # The human-readable listing carries the same breakdown.
        capsys.readouterr()
        assert main(["cache", "inspect", "--cache-dir", str(warm_cache)]) == 0
        text = capsys.readouterr().out
        assert "train=" in text and "attack=" in text

    def test_inspect_tolerates_malformed_timing_payload(self, warm_cache, capsys):
        # One hand-edited/corrupted checkpoint must not abort the listing.
        sweep = next(warm_cache.glob("sweep_*.json"))
        payload = json.loads(sweep.read_text())
        payload["result"]["phase_seconds"] = {"train_s": "1.2s"}
        sweep.write_text(json.dumps(payload))
        assert main(
            ["cache", "inspect", "--cache-dir", str(warm_cache), "--json"]
        ) == 0
        entries = json.loads(capsys.readouterr().out)
        broken = [e for e in entries if e["path"].endswith(sweep.name)]
        assert broken and broken[0]["timings"] is None

    def test_clear_removes_everything(self, warm_cache, capsys):
        assert main(["cache", "clear", "--cache-dir", str(warm_cache)]) == 0
        capsys.readouterr()
        assert self._stats(capsys, warm_cache)["entries"] == 0

    def test_stats_fingerprint_filter_scopes_totals(self, warm_cache, capsys):
        full = self._stats(capsys, warm_cache)
        fingerprint = sorted(full["by_fingerprint"])[0]
        assert main(
            ["cache", "stats", "--cache-dir", str(warm_cache),
             "--fingerprint", fingerprint, "--json"]
        ) == 0
        scoped = json.loads(capsys.readouterr().out)
        # Headline totals cover only the selected fingerprint's entries.
        assert scoped["entries"] == 3
        assert scoped["total_bytes"] < full["total_bytes"]
        assert list(scoped["by_fingerprint"]) == [fingerprint]
        assert len(scoped["by_kind"]) == 1

    def test_clear_by_fingerprint_is_scoped(self, warm_cache, capsys):
        stats = self._stats(capsys, warm_cache)
        fingerprint = sorted(stats["by_fingerprint"])[0]
        assert main(
            ["cache", "clear", "--cache-dir", str(warm_cache),
             "--fingerprint", fingerprint]
        ) == 0
        capsys.readouterr()
        remaining = self._stats(capsys, warm_cache)
        assert remaining["entries"] == 3
        assert fingerprint not in remaining["by_fingerprint"]

    def test_gc_by_age(self, warm_cache, capsys):
        # Backdate half the entries far into the past; gc must take only
        # those.  (The shard manifest is not an entry — gc's "removed"
        # count never includes it, however it may be invalidated.)
        entries = sorted(p for p in warm_cache.iterdir() if p.name != "shard.json")
        old = entries[: len(entries) // 2]
        for path in old:
            os.utime(path, (1_000_000, 1_000_000))
        assert main(
            ["cache", "gc", "--cache-dir", str(warm_cache), "--max-age-days", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert f"removed {len(old)}" in out
        assert self._stats(capsys, warm_cache)["entries"] == 6 - len(old)

    @pytest.mark.parametrize("days", ["-1", "nan"])
    def test_gc_rejects_an_age_bound_below_zero(self, tmp_path, capsys, days):
        entry = tmp_path / ("cell_" + "a" * 12 + "_" + "2" * 32 + ".json")
        entry.write_text("{}")
        assert main(
            ["cache", "gc", "--cache-dir", str(tmp_path), "--max-age-days", days]
        ) == 2
        assert "max_age_seconds must be >= 0" in capsys.readouterr().err
        assert entry.exists()

    @pytest.mark.parametrize("flags", [["--cache-dir", "X"], ["--json"]])
    def test_flags_before_the_action_are_a_usage_error(self, flags, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["cache", *flags, "stats"])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "flags follow the action" in err
        assert "cache stats --cache-dir DIR" in err

    def test_gc_without_criteria_fails(self, tmp_path, capsys):
        assert main(["cache", "gc", "--cache-dir", str(tmp_path)]) == 2
        assert "max-age-days" in capsys.readouterr().err

    def test_max_age_rejected_outside_gc(self, warm_cache, capsys):
        # Silently ignoring an age bound would mislead on stats/inspect
        # and delete everything on clear; the user meant `gc`.
        for action in ("stats", "inspect", "clear"):
            with pytest.raises(SystemExit) as exited:
                main(
                    ["cache", action, "--cache-dir", str(warm_cache),
                     "--max-age-days", "7"]
                )
            assert exited.value.code == 2
            assert "unrecognized arguments: --max-age-days" in capsys.readouterr().err
        assert self._stats(capsys, warm_cache)["entries"] == 6

    def test_stats_on_missing_directory(self, tmp_path, capsys):
        stats = self._stats(capsys, tmp_path / "nope")
        assert stats["entries"] == 0


# -- one job family -----------------------------------------------------------


def _diverging_context(weight_cache, accuracy_threshold):
    """A context whose model's loss is non-finite from the first batch."""
    import numpy as np

    from repro import nn
    from repro.data import ArrayDataset
    from repro.engine import JobContext
    from repro.training import TrainingConfig

    rng = np.random.default_rng(0)
    data = ArrayDataset(
        rng.random((16, 1, 4, 4)).astype(np.float32), rng.integers(0, 4, 16)
    )

    def build(task):
        model = nn.Sequential(nn.Flatten(), nn.Linear(16, 4, rng=task.train_seed))
        model.layers[1].weight.data[...] = np.inf
        return model

    return JobContext(
        model_builder=build,
        train_set=data,
        clean_eval_set=data,
        attack_set=data,
        training=TrainingConfig(epochs=1, batch_size=8),
        accuracy_threshold=accuracy_threshold,
        weight_cache=weight_cache,
    )


class TestDivergence:
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("gated", [True, False], ids=["grid-cell", "variant"])
    def test_diverged_training_outcome_per_task_shape(self, tmp_path, monkeypatch, gated):
        from repro.engine import job, make_cell_task, make_variant_task
        from repro.errors import TrainingError
        from repro.utils.seeding import SeedSequence

        def no_attack(*args, **kwargs):
            raise AssertionError("a diverged model was attacked")

        monkeypatch.setattr(job, "robustness_curve", no_attack)
        weights = WeightCache(tmp_path, "f" * 64)
        seeds = SeedSequence(3)
        if gated:
            # A grid cell: recorded as diverged, gated out, never attacked
            # and never archived.
            context = _diverging_context(weights, 0.5)
            cell = run_cell_task(context, make_cell_task(seeds, 0, 1.0, 4, (0.5,)))
            assert cell.diverged and not cell.learnable
            assert cell.clean_accuracy == 0.0
            assert cell.curves == {} and cell.robustness == {}
            assert set(cell.phase_seconds) == {"train_s"}
        else:
            # An ungated variant has no gate to fail, so divergence raises.
            context = _diverging_context(weights, None)
            task = make_variant_task(seeds, 0, "snn", "ablation", epsilons=(0.5,))
            with pytest.raises(TrainingError):
                run_cell_task(context, task)
        assert len(weights) == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("stack", [1, 2], ids=["unstacked", "stacked"])
    def test_diverged_cell_fails_an_open_gate(self, stack):
        # At gate 0.0 a diverged cell's score of 0 meets the threshold, but
        # its weights are non-finite: the one learnability rule rejects it
        # on both paths, and it is never attacked.
        import numpy as np

        from repro.data import ArrayDataset
        from repro.engine import JobContext, build_cell_tasks, run_cell_tasks
        from repro.models import build_spiking_lenet_mini
        from repro.robustness import ExplorationConfig
        from repro.snn import LIFParameters
        from repro.training import TrainingConfig

        rng = np.random.default_rng(0)
        data = ArrayDataset(rng.random((16, 1, 8, 8), dtype=np.float32), rng.integers(0, 4, 16))

        def factory(v_th, time_window, seed):
            model = build_spiking_lenet_mini(
                input_size=8, num_classes=4, time_steps=time_window,
                lif_params=LIFParameters(v_th=v_th), rng=seed,
            )
            if v_th == 1.0:
                model.readout.transform.weight.data[...] = np.inf
            return model

        config = ExplorationConfig(
            v_thresholds=(0.5, 1.0), time_windows=(4,), epsilons=(0.5,),
            accuracy_threshold=0.0, attack_steps=2,
            training=TrainingConfig(epochs=1, batch_size=8), seed=7,
        )
        context = JobContext.for_grid(config, factory, data, data.take(8))
        cells, stats = run_cell_tasks(context, build_cell_tasks(config), stack=stack)
        assert stats.start_method == ("stacked" if stack > 1 else "serial")
        healthy, diverged = cells
        assert diverged.diverged and not diverged.learnable
        assert diverged.clean_accuracy == 0.0
        assert diverged.curves == {} and "attack_s" not in diverged.phase_seconds
        assert not healthy.diverged and healthy.learnable and healthy.curves


def _parent_payload(task, result) -> dict:
    """A checkpoint in the format-1 payload shape: grid cells and other
    variants were two stores with two task and result shapes."""
    if task.kind == "cell":
        return {
            "version": 1,
            "task": {
                "index": task.index, "v_th": task.v_th,
                "time_window": task.time_window, "cell_seed": task.train_seed,
                "attack_seed": task.attack_seed,
            },
            "cell": result.as_dict(),
        }
    return {
        "version": 1,
        "task": {
            "index": task.index, "key": task.key, "kind": task.kind,
            "params": [list(pair) for pair in task.params],
            "attacks": list(task.attacks), "epsilons": list(task.epsilons),
            "train_seed": task.train_seed, "attack_seed": task.attack_seed,
        },
        "result": {
            "key": task.key, "clean_accuracy": result.clean_accuracy,
            "curves": {
                attack: {repr(eps): value for eps, value in curve.items()}
                for attack, curve in result.curves.items()
            },
            "weights_from_cache": False,
            "elapsed_seconds": result.elapsed_seconds,
            "phase_seconds": {"train_s": 0.5, "eval_s": 0.1, "attack_s": 0.2},
            "worker": "MainProcess",
        },
    }


class TestFormatOneCheckpoints:
    def test_resume_misses_old_checkpoints_and_reuses_their_weights(self, tmp_path, capsys):
        # A checkpoint written before the format bump, sitting where the
        # store looks: it is a miss (never an error), the trained weights
        # still hit, and the maintenance commands still count and prune it.
        from repro.engine import build_cell_tasks
        from repro.experiments.fig678_grid import grid_search_tags
        from repro.experiments.sweeps import build_grid_context, grid_config

        profile = get_profile("micro")
        grid = run_grid_exploration(profile, cache_dir=tmp_path)
        fig9 = run_fig9(profile, cache_dir=tmp_path)
        cell_task = build_cell_tasks(grid_config(profile))[0]
        cell_store = CellCache(
            tmp_path,
            context_fingerprint(build_grid_context(profile), tags=grid_search_tags(profile)),
        )
        sweep_task = build_fig9_tasks(profile)[1]
        sweep_store = CellCache(
            tmp_path,
            context_fingerprint(build_fig9_context(profile), tags=_model_tags(profile, "fig9")),
        )
        old = {}
        for store, task in ((cell_store, cell_task), (sweep_store, sweep_task)):
            path = store.path_for(task)
            payload = _parent_payload(task, store.get(task))
            path.write_text(json.dumps(payload, indent=2, sort_keys=True))
            old[task.family] = path
        assert sorted(old) == ["cell", "sweep"]
        assert cell_store.get(cell_task) is None
        assert sweep_store.get(sweep_task) is None

        regrid = run_grid_exploration(profile, cache_dir=tmp_path, resume=True)
        refig9 = run_fig9(profile, cache_dir=tmp_path, resume=True)
        assert regrid.cells == grid.cells
        assert regrid.metadata["engine"]["computed_cells"] == 1
        assert (refig9.snn_curves, refig9.cnn_curve) == (fig9.snn_curves, fig9.cnn_curve)
        assert refig9.metadata["weights_reused"] == 1
        assert refig9.metadata["engine"]["computed_cells"] == 1

        # The re-run replaced both files; put the old shape back for the
        # maintenance commands.
        for family, path in old.items():
            task = cell_task if family == "cell" else sweep_task
            store = cell_store if family == "cell" else sweep_store
            path.write_text(json.dumps(_parent_payload(task, store.get(task))))
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(tmp_path), "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["by_kind"]["cell"]["entries"] == len(grid.cells)
        assert stats["by_kind"]["sweep"]["entries"] == 3
        assert main(["cache", "inspect", "--cache-dir", str(tmp_path), "--json"]) == 0
        capsys.readouterr()
        for path in old.values():
            os.utime(path, (0, 0))
        assert main(["cache", "gc", "--cache-dir", str(tmp_path), "--max-age-days", "1"]) == 0
        assert not any(path.exists() for path in old.values())
        assert sorted(tmp_path.glob("cell_*.json")) and sorted(tmp_path.glob("sweep_*.json"))
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert not sorted(tmp_path.glob("*_*.json"))
