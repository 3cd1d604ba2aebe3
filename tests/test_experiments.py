"""Experiment harness: profiles, runners (micro scale) and the CLI."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    available_profiles,
    fig6_table,
    fig7_table,
    fig8_table,
    get_profile,
    load_profile_data,
    run_fig1,
    run_fig9,
    run_grid_exploration,
)
from repro.experiments.runner import main
from repro.experiments.workloads import build_grid_model_factory
from repro.data import normalized_bounds


class TestProfiles:
    def test_available(self):
        assert set(available_profiles()) >= {"micro", "smoke", "paper"}

    def test_lookup_and_validate(self):
        for name in available_profiles():
            profile = get_profile(name)
            assert profile.name == name

    def test_unknown_raises(self):
        with pytest.raises(ConfigurationError):
            get_profile("galactic")

    def test_paper_profile_matches_paper_grid(self):
        paper = get_profile("paper")
        assert paper.v_thresholds == (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25)
        assert paper.time_windows == (8, 16, 24, 32, 40, 48, 56, 64, 72)
        assert paper.accuracy_threshold == 0.70
        assert (1.0, 48) in paper.sweet_spots
        assert (2.25, 56) in paper.sweet_spots
        assert (1.0, 32) in paper.sweet_spots

    def test_training_config_derivation(self):
        profile = get_profile("micro")
        config = profile.training_config()
        assert config.epochs == profile.epochs
        assert config.batch_size == profile.batch_size


class TestWorkloads:
    def test_load_profile_data_normalized(self):
        profile = get_profile("micro")
        train, test, bounds = load_profile_data(profile)
        assert len(train) == profile.num_train
        assert len(test) == profile.num_test
        assert bounds == normalized_bounds()
        # normalized data extends below zero (background pixels)
        assert train.images.min() < 0.0

    def test_model_factory_sets_structural_parameters(self):
        profile = get_profile("micro")
        factory = build_grid_model_factory(profile)
        model = factory(1.25, 5, seed=0)
        assert model.v_th == 1.25
        assert model.time_steps == 5


@pytest.fixture(scope="module")
def micro_grid_result():
    return run_grid_exploration("micro")


@pytest.fixture(scope="module")
def micro_fig1_result():
    return run_fig1("micro")


class TestGridExperiment:
    def test_grid_covers_all_cells(self, micro_grid_result):
        profile = get_profile("micro")
        expected = len(profile.v_thresholds) * len(profile.time_windows)
        assert len(micro_grid_result.cells) == expected

    def test_grid_metadata(self, micro_grid_result):
        assert micro_grid_result.metadata["profile"] == "micro"
        assert micro_grid_result.metadata["attack"] == "pgd"

    def test_tables_render(self, micro_grid_result):
        assert "Figure 6" in fig6_table(micro_grid_result)
        assert "Figure 7" in fig7_table(micro_grid_result, 1.0)
        assert "Figure 8" in fig8_table(micro_grid_result, 1.0)

    def test_grid_json_roundtrip(self, micro_grid_result, tmp_path):
        from repro.robustness import ExplorationResult

        path = tmp_path / "grid.json"
        micro_grid_result.to_json(path)
        loaded = ExplorationResult.from_json(path)
        np.testing.assert_allclose(
            loaded.accuracy_grid(), micro_grid_result.accuracy_grid(), equal_nan=True
        )


class TestFig1Experiment:
    def test_result_shape(self, micro_fig1_result):
        profile = get_profile("micro")
        assert micro_fig1_result.epsilons == tuple(profile.curve_epsilons)
        assert len(micro_fig1_result.cnn_curve.robustness) == len(profile.curve_epsilons)

    def test_render_contains_series(self, micro_fig1_result):
        text = micro_fig1_result.render()
        assert "CNN" in text and "SNN" in text

    def test_as_dict_serialisable(self, micro_fig1_result):
        json.dumps(micro_fig1_result.as_dict())

    def test_robustness_values_in_unit_interval(self, micro_fig1_result):
        for value in micro_fig1_result.cnn_curve.robustness:
            assert 0.0 <= value <= 1.0
        for value in micro_fig1_result.snn_curve.robustness:
            assert 0.0 <= value <= 1.0

    def test_micro_numbers_pinned(self, micro_fig1_result):
        # Exact values of the serial two-model driver, kept bitwise by
        # the engine port: seeds, training and PGD must not move.
        assert micro_fig1_result.cnn_curve.robustness == (0.25, 0.05)
        assert micro_fig1_result.snn_curve.robustness == (0.15, 0.15)
        assert micro_fig1_result.cnn_clean_accuracy == 0.275
        assert micro_fig1_result.snn_clean_accuracy == 0.1
        assert micro_fig1_result.turnaround_epsilon == 1.0


class TestFig9Experiment:
    def test_runs_and_renders(self):
        result = run_fig9("micro")
        profile = get_profile("micro")
        assert set(result.snn_curves) == {
            (float(v), int(t)) for v, t in profile.sweet_spots
        }
        text = result.render()
        assert "Figure 9" in text
        json.dumps(result.as_dict())
        gaps = result.gap_vs_cnn(*profile.sweet_spots[0])
        assert len(gaps) == len(profile.curve_epsilons)


class TestRunnerCLI:
    def test_fig1_command_writes_json(self, tmp_path, capsys):
        code = main(["fig1", "--profile", "micro", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        saved = tmp_path / "fig1_micro.json"
        assert saved.exists()
        json.loads(saved.read_text())

    def test_grid_command(self, tmp_path, capsys):
        code = main(["grid", "--profile", "micro", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out and "Figure 7" in out and "Figure 8" in out
        assert (tmp_path / "grid_micro.json").exists()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig42"])
