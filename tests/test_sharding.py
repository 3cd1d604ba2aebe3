"""Multi-host sharding: partition, manifests, cache merge, and the CLI.

Mirrors the CI fleet workflow at test scale: several shards of one tiny
grid run into separate cache directories, `cache merge` federates them,
the manifest proves completeness, and an unsharded resume run serves the
full result set — identical to a single-process run.
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
    CacheMergeError,
    CellCache,
    CellTask,
    JobContext,
    ShardManifest,
    ShardSpec,
    build_cell_tasks,
    context_fingerprint,
    load_manifests,
    merge_cache_dirs,
    run_cell_task,
    run_cell_tasks,
    update_manifest,
    verify_cache_dir,
)
from repro.experiments import runner as runner_module
from repro.experiments.runner import main
from repro.robustness import ExplorationConfig
from repro.training.trainer import TrainingConfig


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


class TestShardSpec:
    def test_parse_and_str_roundtrip(self):
        spec = ShardSpec.parse("1/3")
        assert spec == ShardSpec(index=1, count=3)
        assert str(spec) == "1/3"
        assert ShardSpec.parse(str(spec)) == spec

    @pytest.mark.parametrize("bad", ["", "3", "a/b", "1/", "/3", "1/0", "3/3", "-1/3"])
    def test_invalid_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            ShardSpec.parse(bad)

    @pytest.mark.parametrize("count", [1, 2, 3, 5, 7])
    def test_partition_is_an_exact_cover(self, count, tasks):
        # Every task id lands in exactly one shard — no duplicates, no
        # gaps, regardless of the shard count.
        seen: list[int] = []
        for index in range(count):
            shard = ShardSpec(index, count)
            owned = shard.partition(tasks)
            assert all(shard.owns(t.index) for t in owned)
            seen.extend(t.index for t in owned)
        assert sorted(seen) == [t.index for t in tasks]
        assert len(seen) == len(set(seen))

    def test_partition_is_stable(self, tasks):
        # The partition depends only on task indices (assigned at build
        # time), so rebuilding the task list cannot reassign work.
        shard = ShardSpec(1, 3)
        first = [t.index for t in shard.partition(tasks)]
        second = [t.index for t in shard.partition(tasks)]
        assert first == second

    def test_more_shards_than_tasks(self, tasks):
        shard = ShardSpec(len(tasks), len(tasks) + 2)
        assert shard.partition(tasks) == []


class TestShardedScheduling:
    def _cache(self, context, tmp_path) -> CellCache:
        return CellCache(tmp_path, context_fingerprint(context))

    def test_shard_serves_only_owned_tasks(self, context, tasks):
        shard = ShardSpec(1, 2)
        results, stats = run_cell_tasks(context, tasks, shard=shard)
        owned = shard.partition(tasks)
        assert len(results) == len(owned)
        assert stats.total_cells == len(owned)
        assert stats.shard == "1/2"
        # The results match a direct evaluation of the owned tasks.
        for task, cell in zip(owned, results):
            assert cell == run_cell_task(context, task)

    def test_shards_union_to_the_full_run(self, context, tasks):
        full, _ = run_cell_tasks(context, tasks)
        pieces: dict[int, object] = {}
        for index in range(3):
            shard = ShardSpec(index, 3)
            results, _ = run_cell_tasks(context, tasks, shard=shard)
            for task, cell in zip(shard.partition(tasks), results):
                pieces[task.index] = cell
        assert [pieces[t.index] for t in tasks] == full

    def test_shard_resume_replays_only_that_shards_incomplete(
        self, context, tasks, tmp_path
    ):
        shard = ShardSpec(0, 2)
        cache = self._cache(context, tmp_path)
        run_cell_tasks(context, tasks, cache=cache, shard=shard)
        owned = shard.partition(tasks)
        assert len(cache) == len(owned)
        # Lose one of the shard's checkpoints; resume recomputes exactly
        # that task and never touches the other shard's work.
        cache.path_for(owned[1]).unlink()
        _, stats = run_cell_tasks(
            context, tasks, cache=cache, resume=True, shard=shard
        )
        assert stats.cached_cells == len(owned) - 1
        assert stats.computed_cells == 1
        other = ShardSpec(1, 2)
        assert all(cache.get(t) is None for t in other.partition(tasks))

    def test_unsharded_resume_consumes_all_shard_caches(self, context, tasks, tmp_path):
        # The coordinator path: both shards into one directory (same as a
        # merge of two single-shard dirs), then a full resume run.
        cache = self._cache(context, tmp_path)
        for index in range(2):
            run_cell_tasks(
                context, tasks, cache=cache, shard=ShardSpec(index, 2)
            )
        results, stats = run_cell_tasks(
            context, tasks, cache=cache, resume=True
        )
        assert stats.cached_cells == len(tasks)
        assert stats.computed_cells == 0
        full, _ = run_cell_tasks(context, tasks)
        assert results == full


class TestCacheMerge:
    def _populate_shard(self, context, tasks, directory, shard) -> CellCache:
        cache = CellCache(directory, context_fingerprint(context))
        run_cell_tasks(context, tasks, cache=cache, shard=shard)
        return cache

    def test_merge_unions_disjoint_shards(self, context, tasks, tmp_path):
        for index in range(3):
            self._populate_shard(
                context, tasks, tmp_path / str(index), ShardSpec(index, 3)
            )
        report = merge_cache_dirs(
            [tmp_path / "0", tmp_path / "1", tmp_path / "2"], tmp_path / "merged"
        )
        assert report.copied == len(tasks)
        assert report.skipped_identical == 0
        merged = CellCache(tmp_path / "merged", context_fingerprint(context))
        for task in tasks:
            assert merged.get(task) == run_cell_task(context, task)

    def test_merge_is_idempotent(self, context, tasks, tmp_path):
        self._populate_shard(context, tasks, tmp_path / "0", ShardSpec(0, 2))
        merge_cache_dirs([tmp_path / "0"], tmp_path / "merged")
        report = merge_cache_dirs([tmp_path / "0"], tmp_path / "merged")
        assert report.copied == 0
        assert report.skipped_identical > 0

    def test_conflicting_entries_rejected_before_any_copy(self, context, tasks, tmp_path):
        cache_a = self._populate_shard(context, tasks, tmp_path / "a", ShardSpec(0, 2))
        self._populate_shard(context, tasks, tmp_path / "b", ShardSpec(1, 2))
        # Corrupt one of a's checkpoints into a *different* valid payload
        # under the same name, then offer both a and a copy of the
        # original via b's directory... simplest: clone a into b's dir
        # names and tamper.
        task = ShardSpec(0, 2).partition(tasks)[0]
        clone = tmp_path / "b" / cache_a.path_for(task).name
        payload = json.loads(cache_a.path_for(task).read_text())
        payload["result"]["clean_accuracy"] = 0.123456
        clone.write_text(json.dumps(payload))
        destination = tmp_path / "merged"
        with pytest.raises(CacheMergeError, match="conflict"):
            merge_cache_dirs([tmp_path / "a", tmp_path / "b"], destination)
        # Nothing was copied: the plan failed before execution.
        assert not destination.exists() or not any(destination.iterdir())

    def test_weights_dedupe_by_filename(self, tmp_path):
        # Same archive name = same training fingerprint + key + seed; the
        # bytes may differ (zip timestamps), so the first archive wins.
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        name = "weights_" + "a" * 12 + "_" + "1" * 32 + ".npz"
        (tmp_path / "a" / name).write_bytes(b"archive-one")
        (tmp_path / "b" / name).write_bytes(b"archive-two")
        report = merge_cache_dirs([tmp_path / "a", tmp_path / "b"], tmp_path / "m")
        assert report.copied == 1
        assert report.skipped_identical == 1
        assert (tmp_path / "m" / name).read_bytes() == b"archive-one"

    def test_merge_rejects_destination_as_source(self, tmp_path):
        (tmp_path / "a").mkdir()
        with pytest.raises(ValueError, match="also a source"):
            merge_cache_dirs([tmp_path / "a"], tmp_path / "a")

    def test_merge_rejects_missing_source(self, tmp_path):
        with pytest.raises(ValueError, match="not a directory"):
            merge_cache_dirs([tmp_path / "nope"], tmp_path / "merged")

    def test_manifest_identity_conflict_copies_nothing(self, context, tasks, tmp_path):
        # Manifest disagreements are part of the plan: two sources whose
        # shard.json records share a key but disagree on the task count
        # must fail before a single checkpoint lands in the destination.
        self._populate_shard(context, tasks, tmp_path / "a", ShardSpec(0, 2))
        self._populate_shard(context, tasks, tmp_path / "b", ShardSpec(1, 2))
        fingerprint = "e" * 64
        update_manifest(tmp_path / "a", "grid", fingerprint, 4, ShardSpec(0, 2), [0])
        update_manifest(tmp_path / "b", "grid", fingerprint, 5, ShardSpec(1, 2), [1])
        destination = tmp_path / "merged"
        with pytest.raises(CacheMergeError, match="task count"):
            merge_cache_dirs([tmp_path / "a", tmp_path / "b"], destination)
        assert not destination.exists() or not any(destination.iterdir())


class TestManifests:
    def test_update_and_completeness(self, tmp_path):
        fingerprint = "c" * 64
        update_manifest(tmp_path, "grid", fingerprint, 6, ShardSpec(0, 2), [0, 2, 4])
        ok, summaries = verify_cache_dir(tmp_path)
        assert not ok
        assert summaries[0]["missing"] == [1, 3, 5]
        update_manifest(tmp_path, "grid", fingerprint, 6, ShardSpec(1, 2), [1, 3, 5])
        ok, summaries = verify_cache_dir(tmp_path)
        assert ok
        assert summaries[0]["complete"]
        assert summaries[0]["missing"] == []

    def test_interrupted_shard_records_partial_completion(self, tmp_path):
        fingerprint = "d" * 64
        update_manifest(tmp_path, "grid", fingerprint, 4, ShardSpec(0, 2), [0])
        # The resumed run of the same shard unions, not duplicates.
        manifest = update_manifest(
            tmp_path, "grid", fingerprint, 4, ShardSpec(0, 2), [0, 2]
        )
        assert len(manifest.shards) == 1
        assert manifest.completed_ids() == {0, 2}

    def test_failed_ids_block_completeness(self):
        manifest = ShardManifest(experiment="grid", fingerprint="e" * 64, task_count=2)
        manifest.record(ShardSpec(0, 1), completed=[0], failed=[1])
        assert not manifest.is_complete()
        assert manifest.failed_ids() == {1}
        # A later success clears the failure.
        manifest.record(ShardSpec(0, 1), completed=[0, 1])
        assert manifest.is_complete()

    def test_merge_rejects_mismatched_grids(self):
        left = ShardManifest(experiment="grid", fingerprint="f" * 64, task_count=4)
        right = ShardManifest(experiment="fig9", fingerprint="f" * 64, task_count=4)
        with pytest.raises(ValueError, match="different grids"):
            left.merge(right)
        sized = ShardManifest(experiment="grid", fingerprint="f" * 64, task_count=5)
        with pytest.raises(ValueError, match="task count"):
            left.merge(sized)

    def test_manifests_keyed_per_experiment_in_one_directory(self, tmp_path):
        fingerprint = "a" * 64
        update_manifest(tmp_path, "fig9", fingerprint, 3, ShardSpec(0, 1), [0, 1, 2])
        update_manifest(tmp_path, "ablation", fingerprint, 2, ShardSpec(0, 1), [0])
        manifests = load_manifests(tmp_path)
        assert len(manifests) == 2
        ok, summaries = verify_cache_dir(tmp_path)
        assert not ok  # the ablation manifest is incomplete
        assert [s["experiment"] for s in summaries] == ["ablation", "fig9"]

    def test_corrupt_manifest_is_a_miss(self, tmp_path):
        (tmp_path / "shard.json").write_text("{not json")
        assert load_manifests(tmp_path) == {}
        ok, summaries = verify_cache_dir(tmp_path)
        assert not ok and summaries == []

    def test_merge_federates_manifests(self, tmp_path):
        fingerprint = "b" * 64
        (tmp_path / "0").mkdir()
        (tmp_path / "1").mkdir()
        update_manifest(tmp_path / "0", "grid", fingerprint, 4, ShardSpec(0, 2), [0, 2])
        update_manifest(tmp_path / "1", "grid", fingerprint, 4, ShardSpec(1, 2), [1, 3])
        merge_cache_dirs([tmp_path / "0", tmp_path / "1"], tmp_path / "merged")
        ok, summaries = verify_cache_dir(tmp_path / "merged")
        assert ok
        assert summaries[0]["completed"] == 4


class TestManifestInvalidation:
    def test_clear_drops_the_matching_manifest(self, tmp_path):
        from repro.engine import clear_cache_dir
        from repro.experiments import run_fig9

        run_fig9("micro", cache_dir=tmp_path)
        ok, _ = verify_cache_dir(tmp_path)
        assert ok
        clear_cache_dir(tmp_path)
        # verify must not vouch for checkpoints that no longer exist.
        ok, summaries = verify_cache_dir(tmp_path)
        assert not ok and summaries == []

    def test_gc_preserves_manifests_of_untouched_fingerprints(self, tmp_path):
        import os

        from repro.engine import gc_cache_dir
        from repro.experiments import run_fig9

        run_fig9("micro", cache_dir=tmp_path)
        # Age out only the weight archives: result checkpoints survive,
        # so the completeness claim still holds.
        for path in tmp_path.glob("weights_*.npz"):
            os.utime(path, (1_000_000, 1_000_000))
        gc_cache_dir(tmp_path, max_age_seconds=3600)
        ok, _ = verify_cache_dir(tmp_path)
        assert ok
        # Aging out the sweep checkpoints kills the manifest with them.
        for path in tmp_path.glob("sweep_*.json"):
            os.utime(path, (1_000_000, 1_000_000))
        gc_cache_dir(tmp_path, max_age_seconds=3600)
        ok, summaries = verify_cache_dir(tmp_path)
        assert not ok and summaries == []

    def test_sweeping_stray_temps_keeps_the_manifest(self, tmp_path):
        import os

        from repro.experiments import run_fig9

        run_fig9("micro", cache_dir=tmp_path)
        # An interrupted write of this experiment's fingerprint left a
        # temp behind; pruning it must not revoke the (still accurate)
        # completeness claim of the real checkpoints.
        from repro.engine import gc_cache_dir

        fp12 = verify_cache_dir(tmp_path)[1][0]["fingerprint"][:12]
        stray = tmp_path / f"sweep_{fp12}_{'0' * 32}.json.999.tmp"
        stray.write_text("{partial")
        os.utime(stray, (1_000_000, 1_000_000))
        assert gc_cache_dir(tmp_path, max_age_seconds=3600) == 1
        assert not stray.exists()
        ok, _ = verify_cache_dir(tmp_path)
        assert ok

    def test_failed_checkpoint_writes_are_not_certified(
        self, tmp_path, monkeypatch
    ):
        from repro.engine.cache import CellCache
        from repro.experiments import run_fig9

        def refuse(self, task, value):
            raise OSError("disk full")

        monkeypatch.setattr(CellCache, "put", refuse)
        result = run_fig9("micro", cache_dir=tmp_path)
        # The run itself succeeds (checkpointing is a convenience)...
        assert result.metadata["engine"]["computed_cells"] == 3
        # ...but the manifest must not vouch for checkpoints that never
        # reached the disk.
        ok, summaries = verify_cache_dir(tmp_path)
        assert not ok
        assert summaries[0]["completed"] == 0


class TestShardedExperimentRunners:
    def test_grid_shards_merge_to_the_single_process_result(self, tmp_path):
        from repro.experiments import run_grid_exploration

        reference = run_grid_exploration("micro")
        for index in range(3):
            summary = run_grid_exploration(
                "micro",
                cache_dir=tmp_path / f"shard-{index}",
                shard=ShardSpec(index, 3),
            )
            assert summary.experiment == "grid"
            assert summary.manifest_path is not None
        sources = [tmp_path / f"shard-{i}" for i in range(3)]
        merge_cache_dirs(sources, tmp_path / "merged")
        ok, _ = verify_cache_dir(tmp_path / "merged")
        assert ok
        replayed = run_grid_exploration(
            "micro", cache_dir=tmp_path / "merged", resume=True
        )
        assert replayed.metadata["engine"]["computed_cells"] == 0
        assert replayed.cells == reference.cells

    def test_interrupted_unsharded_grid_certifies_its_durable_cell(
        self, tmp_path, monkeypatch
    ):
        from repro.engine import scheduler
        from repro.experiments import run_grid_exploration

        ran: list[int] = []
        real_run_cell_task = scheduler.run_cell_task

        def crash_on_second_cell(context, task):
            ran.append(task.index)
            if len(ran) == 2:
                raise RuntimeError("interrupted")
            return real_run_cell_task(context, task)

        monkeypatch.setattr(scheduler, "run_cell_task", crash_on_second_cell)
        with pytest.raises(RuntimeError, match="interrupted"):
            run_grid_exploration("micro", cache_dir=tmp_path)
        ok, summaries = verify_cache_dir(tmp_path)
        assert not ok
        assert summaries[0]["experiment"] == "grid"
        assert summaries[0]["completed"] == 1
        assert summaries[0]["shards"][0]["completed"] == [ran[0]]

    def test_fig9_shard_returns_summary_and_manifest(self, tmp_path):
        from repro.engine import ShardRunResult
        from repro.experiments import run_fig9

        summary = run_fig9("micro", cache_dir=tmp_path, shard=ShardSpec(0, 3))
        assert isinstance(summary, ShardRunResult)
        assert summary.task_count == 3
        assert summary.completed == (0,)
        ok, summaries = verify_cache_dir(tmp_path)
        assert not ok
        assert summaries[0]["experiment"] == "fig9"
        assert sorted(summaries[0]["missing"]) == [1, 2]

    def test_unsharded_cached_run_records_a_complete_manifest(self, tmp_path):
        from repro.experiments import run_fig9

        run_fig9("micro", cache_dir=tmp_path)
        ok, summaries = verify_cache_dir(tmp_path)
        assert ok
        assert summaries[0]["shards"] == [
            {"index": 0, "count": 1, "completed": [0, 1, 2], "failed": []}
        ]


class TestShardCLI:
    def test_shard_flag_threaded_to_every_engine_runner(self, monkeypatch, tmp_path):
        # The `all` audit: every engine-backed experiment must receive
        # the same engine kwargs — a runner ignoring them would break
        # sharded invocations silently.
        from repro.engine import ShardRunResult

        captured: dict[str, dict] = {}

        def fake(name):
            def run(profile, verbose=False, **kwargs):
                captured[name] = kwargs
                # Sharded runners return a ShardRunResult summary.
                return ShardRunResult(
                    experiment=name,
                    shard=kwargs["shard"],
                    task_count=3,
                    completed=(1,),
                    manifest_path=None,
                )

            return run

        monkeypatch.setattr(runner_module, "run_grid_exploration", fake("grid"))
        monkeypatch.setattr(runner_module, "run_fig9", fake("fig9"))
        monkeypatch.setattr(runner_module, "run_ablation_suite", fake("ablation"))
        code = main(
            ["all", "--profile", "micro", "--jobs", "2", "--cache-dir",
             str(tmp_path), "--start-method", "fork", "--shard", "1/3"]
        )
        assert code == 0
        assert set(captured) == {"grid", "fig9", "ablation"}
        for kwargs in captured.values():
            assert kwargs["jobs"] == 2
            assert kwargs["cache_dir"] == tmp_path
            assert kwargs["start_method"] == "fork"
            assert kwargs["shard"] == ShardSpec(1, 3)

    def test_sharded_all_serves_fig1_on_every_shard(self, monkeypatch, tmp_path, capsys):
        from repro.engine import ShardRunResult

        shards: list[ShardSpec] = []

        def fake_fig1(profile, verbose=False, **kwargs):
            shards.append(kwargs["shard"])
            return ShardRunResult(
                experiment="fig1",
                shard=kwargs["shard"],
                task_count=2,
                completed=tuple(i for i in range(2) if kwargs["shard"].owns(i)),
                manifest_path=None,
            )

        monkeypatch.setattr(runner_module, "run_fig1", fake_fig1)
        for name in ("_run_grid", "_run_fig9", "_run_ablation"):
            monkeypatch.setattr(runner_module, name, lambda *a, **k: None)
        for index in range(3):
            assert main(["all", "--profile", "micro", "--cache-dir",
                         str(tmp_path), "--shard", f"{index}/3"]) == 0
        assert shards == [ShardSpec(0, 3), ShardSpec(1, 3), ShardSpec(2, 3)]
        out = capsys.readouterr().out
        assert "skipping fig1" not in out
        assert "shard 2/3 of experiment 'fig1': 0/0 owned tasks" in out

    def test_sharded_fig1_merges_to_the_unsharded_figure(self, monkeypatch, tmp_path):
        for name in ("_run_grid", "_run_fig9", "_run_ablation"):
            monkeypatch.setattr(runner_module, name, lambda *a, **k: None)
        assert main(["fig1", "--profile", "micro", "--out", str(tmp_path / "ref")]) == 0
        for index in range(2):
            assert main(["all", "--profile", "micro", "--shard", f"{index}/2",
                         "--cache-dir", str(tmp_path / f"c{index}"),
                         "--out", str(tmp_path / "shards")]) == 0
            assert (tmp_path / "shards" / f"fig1_micro_shard{index}of2.json").is_file()
        assert main(["cache", "merge", str(tmp_path / "c0"), str(tmp_path / "c1"),
                     "--into", str(tmp_path / "merged")]) == 0
        assert main(["cache", "verify", "--cache-dir", str(tmp_path / "merged")]) == 0
        assert main(["all", "--profile", "micro", "--resume", "--cache-dir",
                     str(tmp_path / "merged"), "--out", str(tmp_path / "out")]) == 0
        replay = json.loads((tmp_path / "out" / "fig1_micro.json").read_text())
        assert replay["metadata"]["engine"]["cached_cells"] == 2
        script = Path(__file__).resolve().parents[1] / "scripts" / "compare_results.py"
        spec = importlib.util.spec_from_file_location("compare_results", script)
        compare = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(compare)
        assert compare.main([str(tmp_path / "ref" / "fig1_micro.json"),
                             str(tmp_path / "out" / "fig1_micro.json")]) == 0

    def test_bad_shard_specs_rejected(self):
        for bad in ("3/3", "x/2", "1", "1/0"):
            with pytest.raises(SystemExit):
                main(["grid", "--profile", "micro", "--shard", bad])

    def test_shard_with_no_cache_rejected(self):
        with pytest.raises(SystemExit):
            main(["grid", "--profile", "micro", "--shard", "0/2", "--no-cache"])

    def test_cache_merge_cli_roundtrip(self, tmp_path, capsys):
        fingerprint = "a" * 64
        for index in range(2):
            source = tmp_path / str(index)
            update_manifest(
                source, "grid", fingerprint, 2, ShardSpec(index, 2), [index]
            )
        merged = tmp_path / "merged"
        code = main([
            "cache", "merge", str(tmp_path / "0"), str(tmp_path / "1"),
            "--into", str(merged), "--json",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["manifests_merged"] == 2
        assert main(["cache", "verify", "--cache-dir", str(merged)]) == 0
        assert "complete" in capsys.readouterr().out

    def test_cache_merge_requires_sources_and_into(self, tmp_path, capsys):
        (tmp_path / "src").mkdir()
        for argv, missing in (
            (["cache", "merge", "--into", str(tmp_path / "x")], "SRC"),
            (["cache", "merge", str(tmp_path / "src")], "--into"),
        ):
            with pytest.raises(SystemExit) as exited:
                main(argv)
            assert exited.value.code == 2
            assert missing in capsys.readouterr().err
        # A nonexistent source is a usage error (2), not a conflict (1).
        assert main(["cache", "merge", str(tmp_path / "nope"),
                     "--into", str(tmp_path / "x")]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_cache_merge_conflict_exits_nonzero(self, tmp_path, capsys):
        name = "cell_" + "a" * 12 + "_" + "2" * 32 + ".json"
        for directory, text in ((tmp_path / "a", "{}"), (tmp_path / "b", "{ }")):
            directory.mkdir()
            (directory / name).write_text(text)
        code = main([
            "cache", "merge", str(tmp_path / "a"), str(tmp_path / "b"),
            "--into", str(tmp_path / "m"),
        ])
        assert code == 1
        assert "conflict" in capsys.readouterr().err

    def test_sources_rejected_outside_merge(self, tmp_path, capsys):
        for argv in (
            ["cache", "stats", str(tmp_path)],
            ["cache", "verify", "--cache-dir", str(tmp_path), "--into", str(tmp_path)],
        ):
            with pytest.raises(SystemExit) as exited:
                main(argv)
            assert exited.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_verify_empty_directory_fails(self, tmp_path, capsys):
        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 1
        assert "no shard manifest" in capsys.readouterr().err

    def test_fingerprint_rejected_for_merge_and_verify(self, tmp_path, capsys):
        (tmp_path / "src").mkdir()
        for argv in (
            ["cache", "verify", "--cache-dir", str(tmp_path),
             "--fingerprint", "abc"],
            ["cache", "merge", str(tmp_path / "src"), "--into",
             str(tmp_path / "dst"), "--fingerprint", "abc"],
        ):
            with pytest.raises(SystemExit) as exited:
                main(argv)
            assert exited.value.code == 2
            assert "--fingerprint" in capsys.readouterr().err
