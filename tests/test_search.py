"""Guided grid search: schedules, warm-start substrate, determinism, CLI.

Four layers, mirroring docs/search.md:

* schedule plumbing — ``derive_schedule`` / ``parse_budget_schedule`` /
  ``SearchConfig.validate`` reject every malformed budget ladder;
* the warm-start substrate — ``WeightCache.scan``/``nearest`` neighbour
  lookups, optimizer-state bundling (``__opt__`` arrays), bitwise-exact
  promotion resume, graceful degradation on legacy archives, and the GC
  shield for warm-start ancestor archives;
* the scheduler — rung composition, promotions and the sweet spot are
  identical across serial, ``--jobs``, ``--stack`` and queue execution
  (the test_queue.py parity pattern), the search finds the exhaustive
  top-1, and the bias gate keeps/disables warm-start correctly;
* the CLI — flag conflicts around ``--search halving``.
"""

from __future__ import annotations

import logging
import os

import numpy as np
import pytest

from repro import nn
from repro.data import ArrayDataset
from repro.engine import (
    WeightCache,
    gc_cache_dir,
    nearest_weight_entry,
    run_cell_task,
    run_cell_tasks,
)
from repro.engine.cache import split_optimizer_arrays
from repro.engine.resilience import QUARANTINE_EXIT_CODE, ResilienceConfig
from repro.engine.job import JobContext, WarmStartRef, build_cell_tasks
from repro.engine.search import (
    SearchConfig,
    SearchResult,
    derive_schedule,
    parse_budget_schedule,
    run_halving_search,
)
from repro.errors import ExplorationError
from repro.experiments.runner import main
from repro.robustness import ExplorationConfig
from repro.training.trainer import TrainingConfig

FINGERPRINT = "a" * 64


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


def _config(epochs: int = 2) -> ExplorationConfig:
    return ExplorationConfig(
        v_thresholds=(0.5, 1.0, 1.5),
        time_windows=(2, 4),
        epsilons=(0.1,),
        accuracy_threshold=0.0,
        attack="fgsm",
        attack_steps=1,
        training=TrainingConfig(epochs=epochs, batch_size=8, learning_rate=0.01),
        seed=7,
    )


def _context(epochs: int = 2) -> JobContext:
    train, test = _tiny_sets()
    return JobContext.for_grid(_config(epochs), _factory, train, test)


def _tasks():
    return build_cell_tasks(_config())


class TestSchedules:
    def test_derive_schedule_geometric(self):
        assert derive_schedule(8) == (2, 4, 8)
        assert derive_schedule(6) == (1, 3, 6)
        assert derive_schedule(2) == (1, 2)
        assert derive_schedule(1) == (1,)

    def test_derive_schedule_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="full_epochs"):
            derive_schedule(0)
        with pytest.raises(ValueError, match="rungs"):
            derive_schedule(4, rungs=0)

    def test_parse_budget_schedule(self):
        assert parse_budget_schedule("1,2,6") == (1, 2, 6)
        assert parse_budget_schedule("4") == (4,)
        with pytest.raises(ValueError, match="comma-separated"):
            parse_budget_schedule("1,x")
        with pytest.raises(ValueError, match="at least one"):
            parse_budget_schedule(",")

    @pytest.mark.parametrize(
        "schedule, message",
        [
            ((), "at least one rung"),
            ((0, 2), ">= 1"),
            ((2, 1), "strictly increasing"),
            ((1, 1, 2), "strictly increasing"),
            ((1, 3), "full"),
        ],
    )
    def test_validate_rejects_bad_schedules(self, schedule, message):
        with pytest.raises(ValueError, match=message):
            SearchConfig(schedule=schedule).validate(full_epochs=2)

    def test_validate_rejects_bad_eta_and_tolerance(self):
        with pytest.raises(ValueError, match="eta"):
            SearchConfig(schedule=(1, 2), eta=1.0).validate(2)
        with pytest.raises(ValueError, match="bias_tolerance"):
            SearchConfig(schedule=(1, 2), bias_tolerance=-0.1).validate(2)

    @pytest.mark.parametrize("field", ["eta", "bias_tolerance"])
    def test_validate_rejects_nan(self, field):
        # NaN compares false with every bound; eta=nan used to pass and
        # die in math.ceil(n / nan) after rung 0 had trained.
        with pytest.raises(ValueError, match=field):
            SearchConfig(schedule=(1, 2), **{field: float("nan")}).validate(2)


class TestNeighbourIndex:
    def _state(self) -> dict[str, np.ndarray]:
        return {"w": np.ones((2, 2), dtype=np.float32)}

    def _put(self, cache, key, seed, params, epochs, **extra):
        cache.put(
            key,
            seed,
            self._state(),
            {"clean_accuracy": 0.5, "params": params, "epochs": epochs, **extra},
        )

    def test_scan_recovers_identity_and_params(self, tmp_path):
        cache = WeightCache(tmp_path, FINGERPRINT)
        self._put(cache, "cell_vth1_T4", 3, {"v_th": 1.0, "time_window": 4.0}, 2)
        (entry,) = cache.scan()
        assert entry.key == "cell_vth1_T4"
        assert entry.train_seed == 3
        assert entry.params == {"v_th": 1.0, "time_window": 4.0}
        assert entry.epochs == 2

    def test_nearest_normalises_axes_and_breaks_ties_by_budget(self, tmp_path):
        cache = WeightCache(tmp_path, FINGERPRINT)
        # Equidistant in normalised space: the longer-trained one wins.
        self._put(cache, "a", 1, {"v_th": 0.5, "time_window": 8.0}, 1)
        self._put(cache, "b", 2, {"v_th": 1.5, "time_window": 8.0}, 3)
        found = cache.nearest({"v_th": 1.0, "time_window": 8.0})
        assert found is not None
        entry, distance = found
        assert entry.key == "b"
        assert distance == pytest.approx(0.5)

    def test_nearest_skips_partial_matches_and_excluded(self, tmp_path):
        cache = WeightCache(tmp_path, FINGERPRINT)
        self._put(cache, "partial", 1, {"v_th": 1.0}, 2)  # lacks time_window
        assert cache.nearest({"v_th": 1.0, "time_window": 8.0}) is None
        self._put(cache, "own", 2, {"v_th": 1.0, "time_window": 8.0}, 2)
        assert cache.nearest(
            {"v_th": 1.0, "time_window": 8.0}, exclude_keys=("own",)
        ) is None

    def test_nearest_weight_entry_empty(self):
        assert nearest_weight_entry([], {"v_th": 1.0}) is None


class TestOptimizerStateArchives:
    def test_get_strips_opt_arrays_round_trip(self, tmp_path):
        from repro.engine.cache import archive_weights

        cache = WeightCache(tmp_path, FINGERPRINT)
        state = {"w": np.arange(4.0)}
        opt = {"step_count": np.asarray(6), "m0": np.ones(4), "v0": np.ones(4)}
        archive_weights(
            cache, "k", 1, state, {"clean_accuracy": 0.5}, optimizer_state=opt
        )
        loaded, _meta = cache.get("k", 1)
        assert set(loaded) == {"w"}
        from repro.utils.serialization import load_npz

        raw, _ = load_npz(cache.path_for("k", 1))
        model, restored = split_optimizer_arrays(raw)
        assert set(model) == {"w"}
        assert set(restored) == {"step_count", "m0", "v0"}
        assert int(restored["step_count"]) == 6

    def test_legacy_archive_has_no_optimizer_half(self, tmp_path):
        cache = WeightCache(tmp_path, FINGERPRINT)
        cache.put("k", 1, {"w": np.ones(3)}, {"clean_accuracy": 0.5})
        from repro.utils.serialization import load_npz

        model, opt = split_optimizer_arrays(load_npz(cache.path_for("k", 1))[0])
        assert set(model) == {"w"} and opt is None

    def test_warm_resume_is_bitwise_identical_to_cold_full_run(self, tmp_path):
        # The property the bias gate measures as divergence 0: training 1
        # epoch, archiving (weights + Adam moments), then resuming to the
        # full budget must equal one uninterrupted full-budget run.
        full = _context(epochs=2)
        task = _tasks()[0]
        cold = run_cell_task(full, task)

        short = _context(epochs=1)
        cache = WeightCache(tmp_path, FINGERPRINT)
        short.weight_cache = cache
        run_cell_task(short, task)
        path = cache.path_for(task.key, task.train_seed)
        assert path.is_file()

        warm = _context(epochs=2)
        warm.warm_start = {
            task.index: WarmStartRef(
                path=str(path),
                source_key=task.key,
                source_epochs=1,
                distance=0.0,
            )
        }
        resumed = run_cell_task(warm, task)
        assert resumed.clean_accuracy == cold.clean_accuracy
        assert resumed.robustness == cold.robustness
        assert resumed.warm_start == {
            "source_file": path.name,
            "source_key": task.key,
            "source_epochs": 1,
            "start_epoch": 1,
            "distance": 0.0,
        }

    def test_legacy_archive_resumes_as_re_anneal(self, tmp_path):
        # Archives without bundled moments still warm-start — with fresh
        # Adam state (the historical behaviour), not an error.
        task = build_cell_tasks(_config(2))[0]
        short = _context(epochs=1)
        short.weight_cache = WeightCache(tmp_path / "tmp", FINGERPRINT)
        run_cell_task(short, task)
        from repro.utils.serialization import load_npz

        raw, meta = load_npz(
            short.weight_cache.path_for(task.key, task.train_seed)
        )
        legacy_state, _opt = split_optimizer_arrays(raw)
        cache = WeightCache(tmp_path, FINGERPRINT)
        cache.put(task.key, task.train_seed, legacy_state, meta)

        warm = _context(epochs=2)
        warm.warm_start = {
            task.index: WarmStartRef(
                path=str(cache.path_for(task.key, task.train_seed)),
                source_key=task.key,
                source_epochs=1,
                distance=0.0,
            )
        }
        resumed = run_cell_task(warm, task)
        assert resumed.warm_start is not None
        assert not resumed.diverged

    def test_unreadable_source_degrades_to_cold(self, tmp_path):
        full = _context(epochs=2)
        task = _tasks()[0]
        cold = run_cell_task(full, task)
        warm = _context(epochs=2)
        warm.warm_start = {
            task.index: WarmStartRef(
                path=str(tmp_path / "vanished.npz"),
                source_key=task.key,
                source_epochs=1,
                distance=0.0,
            )
        }
        resumed = run_cell_task(warm, task)
        assert resumed.warm_start is None
        assert resumed == cold


class TestGcAncestorProtection:
    def _archive(self, cache, key, *, source: str | None = None):
        metadata = {"clean_accuracy": 0.5, "params": {"v_th": 1.0}, "epochs": 1}
        if source is not None:
            metadata["warm_start"] = {"source_file": source, "source_epochs": 1}
        return cache.put(key, 1, {"w": np.ones(2)}, metadata)

    def test_gc_shields_transitive_warm_start_ancestors(self, tmp_path):
        cache = WeightCache(tmp_path, FINGERPRINT)
        grandparent = self._archive(cache, "grandparent")
        parent = self._archive(cache, "parent", source=grandparent.name)
        unrelated = self._archive(cache, "unrelated")
        live = self._archive(cache, "live", source=parent.name)

        old = 1_000.0
        for path in (grandparent, parent, unrelated):
            os.utime(path, (old, old))
        os.utime(live, (2_000_000.0, 2_000_000.0))

        removed = gc_cache_dir(tmp_path, max_age_seconds=100.0, now=2_000_010.0)
        # Only the unrelated stale archive goes: parent is referenced by
        # the live descendant, and the grandparent transitively through it.
        assert removed == 1
        assert not unrelated.exists()
        assert grandparent.exists() and parent.exists() and live.exists()


def _search_config(schedule=(1, 2), **overrides) -> SearchConfig:
    overrides.setdefault("eta", 2.0)
    return SearchConfig(schedule=schedule, **overrides)


class TestHalvingSearch:
    def test_search_finds_the_exhaustive_top1(self, tmp_path):
        context = _context()
        exhaustive, _ = run_cell_tasks(context, _tasks())
        epsilon = max(_config().epsilons)
        best = max(
            (c for c in exhaustive if c.learnable),
            key=lambda c: (c.robustness.get(epsilon, -1.0), c.clean_accuracy),
        )
        # eta=1.5 keeps 4 of 6 after rung 0 — on this random-noise fixture
        # the true top-1 ranks 4th at 1 epoch, so gentler pruning is the
        # price of a deterministic agreement assertion (the realistic
        # micro-search profile agrees at eta=4 in CI's check_search gate).
        result = run_halving_search(
            _context(),
            _tasks(), _search_config(eta=1.5), tmp_path / "cache"
        )
        spot = result.sweet_spot()
        assert spot is not None
        assert (spot.v_th, spot.time_window) == (best.v_th, best.time_window)
        # The surviving full-budget cells are bitwise-identical to the
        # exhaustive run's — warm resume with optimizer state is a
        # continuation, not an approximation.
        by_cell = {(c.v_th, c.time_window): c for c in exhaustive}
        for cell in result.final_cells:
            reference = by_cell[(cell.v_th, cell.time_window)]
            assert cell.clean_accuracy == reference.clean_accuracy
            assert cell.robustness == reference.robustness

    def test_rung_composition_follows_eta(self, tmp_path):
        result = run_halving_search(
            _context(),
            _tasks(), _search_config(eta=3.0), tmp_path / "cache"
        )
        assert [r.budget for r in result.rungs] == [1, 2]
        assert len(result.rungs[0].cells) == 6
        assert len(result.rungs[0].survivors) == 2  # ceil(6 / 3)
        assert len(result.rungs[0].pruned) == 4
        assert len(result.rungs[1].cells) == 2
        assert result.rungs[1].survivors == ()
        assert result.rungs[1].warm_started == 2
        assert result.warm_start_active

    def test_bias_gate_passes_with_zero_divergence(self, tmp_path):
        result = run_halving_search(
            _context(),
            _tasks(), _search_config(), tmp_path / "cache"
        )
        gate = result.bias_gate
        assert gate is not None and gate["passed"]
        assert gate["divergence"] == 0.0
        assert gate["warm"] == gate["cold"]
        assert result.train_seconds_total > sum(
            r.train_seconds for r in result.rungs
        )  # the audit's cost is accounted

    def test_failed_bias_gate_disables_warm_start(self, tmp_path, monkeypatch):
        from repro.engine import search as search_module

        def biased_study(context, probe_task, probe_ref, tolerance):
            return {
                "probe": {"v_th": probe_task.v_th, "time_window": probe_task.time_window},
                "source_epochs": 1,
                "warm": {},
                "cold": {},
                "divergence": 0.9,
                "tolerance": tolerance,
                "passed": False,
                "train_seconds": 0.0,
            }

        monkeypatch.setattr(search_module, "_bias_study", biased_study)
        result = run_halving_search(
            _context(),
            _tasks(), _search_config(), tmp_path / "cache"
        )
        assert not result.warm_start_active
        assert result.warm_start  # it was requested
        assert result.bias_gate["passed"] is False
        assert result.rungs[1].warm_started == 0  # promotion rung went cold

    def test_no_warm_start_runs_cold_without_gate(self, tmp_path):
        result = run_halving_search(
            _context(),
            _tasks(), _search_config(warm_start=False), tmp_path / "cache"
        )
        assert result.bias_gate is None
        assert all(r.warm_started == 0 for r in result.rungs)
        assert not result.warm_start_active

    def test_cache_dir_is_mandatory(self):
        with pytest.raises(ValueError, match="cache directory"):
            run_halving_search(_context(), _tasks(), _search_config(), None)

    def test_spawn_without_queue_is_rejected_before_rung_0(self, tmp_path, caplog):
        cache = tmp_path / "cache"
        with caplog.at_level(logging.INFO, logger="repro"):
            with pytest.raises(ValueError) as raised:
                run_halving_search(
                    _context(), _tasks(), _search_config(), cache,
                    jobs=2, start_method="spawn",
                )
        assert "spawn workers cannot rebuild a rung's context; use fork or auto" in str(
            raised.value
        )
        assert not any("rung" in record.getMessage() for record in caplog.records)
        assert not cache.exists()

    def test_parity_serial_jobs_stack_queue(self, tmp_path):
        """Same seed + same (fresh) cache state => identical search."""

        def canonical(result: SearchResult) -> dict:
            spot = result.sweet_spot()
            return {
                "rungs": [
                    {
                        "budget": r.budget,
                        "cells": [
                            (c.v_th, c.time_window, c.clean_accuracy,
                             c.learnable, tuple(sorted(c.robustness.items())),
                             c.warm_start is not None)
                            for c in r.cells
                        ],
                        "survivors": r.survivors,
                        "pruned": r.pruned,
                        "warm_started": r.warm_started,
                    }
                    for r in result.rungs
                ],
                "gate": None
                if result.bias_gate is None
                else (
                    result.bias_gate["divergence"],
                    result.bias_gate["passed"],
                    result.bias_gate["warm"],
                    result.bias_gate["cold"],
                ),
                "spot": None if spot is None else (spot.v_th, spot.time_window),
                "warm_active": result.warm_start_active,
            }

        serial = run_halving_search(
            _context(),
            _tasks(), _search_config(), tmp_path / "c-serial"
        )
        jobs = run_halving_search(
            _context(),
            _tasks(), _search_config(), tmp_path / "c-jobs", jobs=2
        )
        stacked = run_halving_search(
            _context(),
            _tasks(), _search_config(), tmp_path / "c-stack", stack=2
        )
        queued = run_halving_search(
            _context(),
            _tasks(),
            _search_config(),
            tmp_path / "c-queue",
            queue_dir=tmp_path / "q",
            lease_ttl=30.0,
        )
        reference = canonical(serial)
        assert canonical(jobs) == reference
        assert canonical(stacked) == reference
        assert canonical(queued) == reference

    @pytest.mark.parametrize("queued", [False, True], ids=["local", "queue"])
    def test_complete_search_cache_verifies(self, tmp_path, queued, capsys):
        # The promotion rung's candidates keep their grid indices; the
        # manifest must expect exactly those ids, not range(candidates).
        queue = {"queue_dir": tmp_path / "q", "lease_ttl": 30.0} if queued else {}
        result = run_halving_search(
            _context(),
            _tasks(), _search_config(), tmp_path / "cache", **queue
        )
        promoted = [(c.v_th, c.time_window) for c in result.rungs[1].cells]
        assert promoted == [(0.5, 2), (0.5, 4), (1.0, 4)]  # grid ids 0, 1, 3
        assert main(["cache", "verify", "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "INCOMPLETE" not in out and "3/3 tasks — complete" in out

    def test_queued_rung_honours_the_attempt_budget(self, tmp_path, monkeypatch):
        # Task 0 fails on every attempt; with a one-attempt budget the
        # rung quarantines it after its first failure and the search
        # refuses to promote without it.
        monkeypatch.setenv("REPRO_CHAOS_POISON_TASKS", "0")
        with pytest.raises(ExplorationError, match="quarantined"):
            run_halving_search(
                _context(),
                _tasks(),
                _search_config(),
                tmp_path / "cache",
                queue_dir=tmp_path / "q",
                lease_ttl=30.0,
                resilience=ResilienceConfig(max_attempts=1),
            )
        attempts = [path.name for path in (tmp_path / "q").rglob("attempt_0_*.json")]
        assert attempts == ["attempt_0_1.json"]

    def test_resume_replays_rungs_from_checkpoints(self, tmp_path):
        first = run_halving_search(
            _context(),
            _tasks(), _search_config(), tmp_path / "cache"
        )
        replay = run_halving_search(
            _context(),
            _tasks(), _search_config(), tmp_path / "cache", resume=True
        )
        assert [r.survivors for r in replay.rungs] == [
            r.survivors for r in first.rungs
        ]
        # Every rung was served from checkpoints: nothing recomputed.
        for rung in replay.rungs:
            assert rung.engine.get("computed_cells") == 0

    def test_json_round_trip(self, tmp_path):
        result = run_halving_search(
            _context(),
            _tasks(), _search_config(), tmp_path / "cache"
        )
        path = tmp_path / "out" / "search.json"
        result.to_json(path)
        loaded = SearchResult.from_json(path)
        assert loaded.schedule == result.schedule
        assert loaded.epsilon == result.epsilon
        assert loaded.bias_gate == result.bias_gate
        assert [r.as_dict() for r in loaded.rungs] == [
            r.as_dict() for r in result.rungs
        ]
        spot, loaded_spot = result.sweet_spot(), loaded.sweet_spot()
        assert (spot.v_th, spot.time_window) == (
            loaded_spot.v_th,
            loaded_spot.time_window,
        )
        assert loaded.render() == result.render()


class TestSearchCLI:
    def test_stray_search_flags_require_halving(self, capsys):
        with pytest.raises(SystemExit):
            main(["grid", "--profile", "micro", "--budget-schedule", "1,2"])
        assert "requires --search halving" in capsys.readouterr().err

    def test_halving_conflicts_with_no_cache(self, capsys):
        with pytest.raises(SystemExit):
            main(["grid", "--profile", "micro", "--search", "halving",
                  "--no-cache"])
        assert "drop --no-cache" in capsys.readouterr().err

    def test_halving_conflicts_with_shard(self, capsys):
        with pytest.raises(SystemExit):
            main(["grid", "--profile", "micro", "--search", "halving",
                  "--shard", "0/2"])
        assert "use --queue" in capsys.readouterr().err

    def test_halving_conflicts_with_spawn(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        with pytest.raises(SystemExit) as exited:
            main(["grid", "--profile", "micro", "--search", "halving",
                  "--jobs", "2", "--start-method", "spawn",
                  "--cache-dir", str(cache)])
        assert exited.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert "conflicts with --start-method spawn" in err[-1]
        assert not cache.exists()

    def test_bad_eta_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["grid", "--profile", "micro", "--search", "halving",
                  "--halving-eta", "1.0"])
        assert "eta must be > 1" in capsys.readouterr().err

    def test_bad_budget_schedule_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["grid", "--profile", "micro", "--search", "halving",
                  "--budget-schedule", "2,1"])
        assert "strictly increasing" in capsys.readouterr().err

    def test_bad_tolerance_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["grid", "--profile", "micro", "--search", "halving",
                  "--bias-tolerance", "-1"])
        assert "bias_tolerance must be >= 0" in capsys.readouterr().err

    def test_queued_search_quarantine_exits_with_quarantine_code(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_CHAOS_POISON_TASKS", "0")
        code = main(["grid", "--profile", "micro", "--search", "halving",
                     "--queue", str(tmp_path / "q"), "--max-attempts", "1"])
        assert code == QUARANTINE_EXIT_CODE
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "quarantined" in err[0]
