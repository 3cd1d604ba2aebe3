"""Algorithm 1 machinery: config, results, learnability, security, the grid."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import nn
from repro.attacks import PGD, FGSM
from repro.data import ArrayDataset
from repro.errors import ConfigurationError, ExplorationError
from repro.engine import JobContext, build_cell_tasks, run_cell_task, run_cell_tasks
from repro.robustness import (
    CellResult,
    ExplorationConfig,
    ExplorationResult,
    make_attack,
    render_curve_table,
    render_heatmap,
    robustness_curve,
    train_and_score,
)
from repro.training import TrainingConfig


def _blob_dataset(n=80, seed=0) -> ArrayDataset:
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    images = rng.normal(0.3, 0.1, size=(n, 1, 4, 4)).astype(np.float32)
    images[labels == 1] += 0.4
    return ArrayDataset(np.clip(images, 0, 1), labels)


def _mlp_factory(v_th: float, time_window: int, seed: int) -> nn.Module:
    """A non-spiking stand-in model factory for fast grid tests."""
    return nn.Sequential(
        nn.Flatten(), nn.Linear(16, 8, rng=seed), nn.Tanh(), nn.Linear(8, 2, rng=seed + 1)
    )


class TestExplorationConfig:
    def test_defaults_match_paper_grid(self):
        config = ExplorationConfig()
        config.validate()
        assert len(config.v_thresholds) == 9
        assert len(config.time_windows) == 9
        assert config.accuracy_threshold == 0.70

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"v_thresholds": ()},
            {"time_windows": ()},
            {"v_thresholds": (0.0,)},
            {"time_windows": (0,)},
            {"epsilons": ()},
            {"epsilons": (-1.0,)},
            {"accuracy_threshold": 1.5},
            {"attack": "warp"},
            {"attack_batch_size": 0},
            {"clip_min": 2.0, "clip_max": 1.0},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ConfigurationError):
            ExplorationConfig(**kwargs).validate()

    def test_build_attack_uses_bounds(self):
        config = ExplorationConfig(clip_min=-0.5, clip_max=2.5)
        data = _blob_dataset(4)
        context = JobContext.for_grid(config, _mlp_factory, data, data)
        attack = context.build_attack(config.attack, 1.0, seed=0)
        assert isinstance(attack, PGD)
        assert attack.clip_min == -0.5
        assert attack.clip_max == 2.5
        assert attack.epsilon == 1.0


class TestMakeAttack:
    def test_all_families(self):
        for name in ("pgd", "fgsm", "bim", "uniform_noise", "gaussian_noise", "sign_noise"):
            attack = make_attack(name, 0.2)
            assert attack.epsilon == 0.2

    def test_unknown_raises(self):
        with pytest.raises(ConfigurationError):
            make_attack("deepfool", 0.1)

    def test_fgsm_type(self):
        assert isinstance(make_attack("fgsm", 0.1), FGSM)


def _gate(accuracy_threshold: float) -> JobContext:
    """A grid context whose learnability gate is ``accuracy_threshold``."""
    data = _blob_dataset(4)
    context = JobContext.for_grid(ExplorationConfig(), _mlp_factory, data, data)
    return dataclasses.replace(context, accuracy_threshold=accuracy_threshold)


class TestLearnability:
    def test_learnable_when_above_threshold(self):
        data = _blob_dataset()
        model = _mlp_factory(1.0, 8, seed=0)
        config = TrainingConfig(epochs=20, batch_size=16, learning_rate=1e-2)
        result = train_and_score(model, data, data, config)
        assert result.clean_accuracy > 0.7
        assert _gate(0.7).passes_gate(result.clean_accuracy, result.diverged)
        assert not result.diverged

    def test_not_learnable_when_gate_unreachable(self):
        data = _blob_dataset()
        model = _mlp_factory(1.0, 8, seed=0)
        result = train_and_score(model, data, data, TrainingConfig(epochs=1))
        assert not _gate(1.01).passes_gate(result.clean_accuracy, result.diverged)

    def test_divergence_counts_as_not_learnable(self):
        images = np.full((16, 1, 4, 4), np.nan, dtype=np.float32)
        data = ArrayDataset(images, np.zeros(16, dtype=np.int64))
        model = _mlp_factory(1.0, 8, seed=0)
        result = train_and_score(model, data, data, TrainingConfig(epochs=1))
        assert result.diverged
        assert result.clean_accuracy == 0.0
        # Even an open gate rejects it: a score of 0 meets 0, the weights don't.
        for accuracy_threshold in (0.5, 0.0):
            gate = _gate(accuracy_threshold)
            assert not gate.passes_gate(result.clean_accuracy, result.diverged)


class TestRobustnessCurve:
    def test_curve_monotone_epsilon_zero_first(self, trained_cnn, tiny_digits):
        _train, test = tiny_digits
        subset = test.take(20)
        curve = robustness_curve(
            trained_cnn,
            subset,
            [0.0, 0.3],
            lambda eps: PGD(eps, steps=3, rng=0),
            label="cnn",
        )
        assert curve.epsilons == (0.0, 0.3)
        assert curve.robustness[0] >= curve.robustness[1]

    def test_robustness_at(self, trained_cnn, tiny_digits):
        _train, test = tiny_digits
        curve = robustness_curve(
            trained_cnn, test.take(10), [0.1], lambda eps: FGSM(eps), label="x"
        )
        assert curve.robustness_at(0.1) == curve.robustness[0]
        with pytest.raises(KeyError):
            curve.robustness_at(0.7)

    def test_as_dict(self, trained_cnn, tiny_digits):
        _train, test = tiny_digits
        curve = robustness_curve(
            trained_cnn, test.take(10), [0.1], lambda eps: FGSM(eps), label="x"
        )
        payload = curve.as_dict()
        assert payload["label"] == "x"
        assert len(payload["evaluations"]) == 1


class TestResults:
    def _cells(self):
        return [
            CellResult(0.5, 8, 0.9, True, curves={"pgd": {1.0: 0.6}}),
            CellResult(0.5, 16, 0.8, True, curves={"pgd": {1.0: 0.7}}),
            CellResult(1.0, 8, 0.4, False),
            CellResult(1.0, 16, 0.95, True, curves={"pgd": {1.0: 0.2}}),
        ]

    def _result(self):
        return ExplorationResult((0.5, 1.0), (8, 16), self._cells(), {"note": "t"})

    def test_accuracy_grid_orientation(self):
        grid = self._result().accuracy_grid()
        # rows: T descending -> first row is T=16
        np.testing.assert_allclose(grid[0], [0.8, 0.95])
        np.testing.assert_allclose(grid[1], [0.9, 0.4])

    def test_robustness_grid_masks_unlearnable(self):
        grid = self._result().robustness_grid(1.0)
        assert np.isnan(grid[1, 1])  # (Vth=1.0, T=8) failed the gate
        assert grid[0, 1] == pytest.approx(0.2)

    def test_best_and_worst(self):
        result = self._result()
        assert result.best_cell(1.0).robustness[1.0] == pytest.approx(0.7)
        assert result.worst_cell(1.0).robustness[1.0] == pytest.approx(0.2)

    def test_best_cell_no_candidates_raises(self):
        result = ExplorationResult((1.0,), (8,), [CellResult(1.0, 8, 0.2, False)])
        with pytest.raises(ValueError):
            result.best_cell(1.0)

    def test_learnable_fraction(self):
        assert self._result().learnable_fraction() == pytest.approx(0.75)

    def test_json_roundtrip(self, tmp_path):
        result = self._result()
        path = tmp_path / "result.json"
        result.to_json(path)
        loaded = ExplorationResult.from_json(path)
        assert loaded.v_thresholds == result.v_thresholds
        assert loaded.time_windows == result.time_windows
        assert loaded.metadata["note"] == "t"
        np.testing.assert_allclose(loaded.accuracy_grid(), result.accuracy_grid())
        np.testing.assert_allclose(
            loaded.robustness_grid(1.0), result.robustness_grid(1.0), equal_nan=True
        )

    def test_json_roundtrip_from_text(self):
        result = self._result()
        loaded = ExplorationResult.from_json(result.to_json())
        assert loaded.cell(0.5, 8).robustness[1.0] == pytest.approx(0.6)

    def test_cell_lookup(self):
        result = self._result()
        assert result.cell(0.5, 16).clean_accuracy == pytest.approx(0.8)
        with pytest.raises(KeyError):
            result.cell(9.0, 8)


class TestExplorer:
    """The grid as the CLI runs it: a gated context over the cell tasks."""

    def test_micro_grid_end_to_end(self):
        data = _blob_dataset(60)
        config = ExplorationConfig(
            v_thresholds=(0.5, 1.0),
            time_windows=(4,),
            epsilons=(0.2,),
            accuracy_threshold=0.5,
            attack_steps=2,
            training=TrainingConfig(epochs=4, batch_size=16),
            seed=3,
        )
        context = JobContext.for_grid(config, _mlp_factory, data, data)
        cells, _ = run_cell_tasks(context, build_cell_tasks(config))
        assert len(cells) == 2
        for cell in cells:
            assert 0.0 <= cell.clean_accuracy <= 1.0
            if cell.learnable:
                assert 0.2 in cell.robustness
                assert 0.0 <= cell.robustness[0.2] <= 1.0

    def test_cells_independent_of_order(self):
        data = _blob_dataset(60)
        config = ExplorationConfig(
            v_thresholds=(0.5, 1.0),
            time_windows=(4,),
            epsilons=(0.2,),
            accuracy_threshold=0.0,
            attack_steps=2,
            training=TrainingConfig(epochs=2, batch_size=16),
            seed=3,
        )
        tasks = build_cell_tasks(config)
        full, _ = run_cell_tasks(JobContext.for_grid(config, _mlp_factory, data, data), tasks)
        # The (1.0, 4) cell run alone, in a fresh context, without its sibling.
        single = run_cell_task(JobContext.for_grid(config, _mlp_factory, data, data), tasks[1])
        assert (single.v_th, single.time_window) == (1.0, 4)
        assert single.clean_accuracy == pytest.approx(full[1].clean_accuracy)
        assert single.robustness == pytest.approx(full[1].robustness)

    def test_empty_dataset_raises(self):
        data = _blob_dataset(10)
        empty = ArrayDataset(np.zeros((0, 1, 4, 4), dtype=np.float32), np.zeros(0, dtype=int))
        with pytest.raises(ExplorationError):
            JobContext.for_grid(ExplorationConfig(), _mlp_factory, empty, data)
        with pytest.raises(ExplorationError):
            JobContext.for_grid(ExplorationConfig(), _mlp_factory, data, empty)

    def test_invalid_config_raises(self):
        data = _blob_dataset(10)
        with pytest.raises(ConfigurationError):
            JobContext.for_grid(ExplorationConfig(epsilons=()), _mlp_factory, data, data)


class TestReport:
    def test_heatmap_renders_values_and_nan(self):
        grid = np.array([[0.9, np.nan], [0.5, 0.1]])
        text = render_heatmap(grid, ["16", "8"], ["0.5", "1"], title="demo")
        assert "demo" in text
        assert "--" in text
        assert "90" in text

    def test_heatmap_shape_mismatch(self):
        with pytest.raises(ValueError):
            render_heatmap(np.zeros((2, 2)), ["a"], ["b", "c"])

    def test_heatmap_requires_2d(self):
        with pytest.raises(ValueError):
            render_heatmap(np.zeros(3), ["a", "b", "c"], ["x"])

    def test_curve_table(self):
        text = render_curve_table([0.0, 1.0], {"cnn": [0.9, 0.1], "snn": [0.9, 0.6]})
        assert "cnn" in text and "snn" in text
        assert "90.0" in text

    def test_curve_table_length_mismatch(self):
        with pytest.raises(ValueError):
            render_curve_table([0.0], {"cnn": [0.9, 0.1]})
