"""Trainer and classification metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.data import ArrayDataset
from repro.errors import TrainingError
from repro.training import Trainer, TrainingConfig, accuracy


def _separable_dataset(n=120, seed=0) -> ArrayDataset:
    """Two trivially separable blobs rendered as 1x4x4 'images'."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    images = rng.normal(0, 0.2, size=(n, 1, 4, 4)).astype(np.float32)
    images[labels == 1] += 1.0
    return ArrayDataset(images, labels)


def _tiny_model(rng=0) -> nn.Module:
    return nn.Sequential(nn.Flatten(), nn.Linear(16, 8, rng=rng), nn.Tanh(), nn.Linear(8, 2, rng=rng))


class TestTrainingConfig:
    def test_defaults_valid(self):
        TrainingConfig().validate()

    @pytest.mark.parametrize(
        "kwargs", [{"epochs": 0}, {"batch_size": 0}, {"learning_rate": 0.0}, {"max_grad_norm": 0.0}]
    )
    def test_invalid_fields(self, kwargs):
        with pytest.raises(ValueError):
            TrainingConfig(**kwargs).validate()


class TestTrainer:
    def test_converges_on_separable_data(self):
        data = _separable_dataset()
        trainer = Trainer(_tiny_model(), TrainingConfig(epochs=10, batch_size=16))
        trainer.fit(data)
        assert trainer.evaluate(data) > 0.95

    def test_history_recorded(self):
        data = _separable_dataset()
        trainer = Trainer(_tiny_model(), TrainingConfig(epochs=3, batch_size=16))
        history = trainer.fit(data, eval_set=data)
        assert len(history.train_loss) == 3
        assert len(history.train_accuracy) == 3
        assert len(history.eval_accuracy) == 3
        assert history.final_eval_accuracy == history.eval_accuracy[-1]

    def test_loss_decreases(self):
        data = _separable_dataset()
        trainer = Trainer(_tiny_model(), TrainingConfig(epochs=6, batch_size=16))
        history = trainer.fit(data)
        assert history.train_loss[-1] < history.train_loss[0]

    def test_no_eval_set_leaves_eval_history_empty(self):
        data = _separable_dataset(40)
        trainer = Trainer(_tiny_model(), TrainingConfig(epochs=1))
        history = trainer.fit(data)
        assert history.eval_accuracy == []
        assert np.isnan(history.final_eval_accuracy)

    def test_divergence_raises_training_error(self):
        # NaN input propagates to a non-finite loss on the first batch,
        # which must trip the divergence guard instead of training on.
        images = np.full((16, 1, 4, 4), np.nan, dtype=np.float32)
        data = ArrayDataset(images, np.zeros(16, dtype=np.int64))
        trainer = Trainer(_tiny_model(), TrainingConfig(epochs=1, batch_size=8))
        with pytest.raises(TrainingError):
            trainer.fit(data)

    def test_gradient_clipping_runs(self):
        data = _separable_dataset(40)
        trainer = Trainer(
            _tiny_model(), TrainingConfig(epochs=2, max_grad_norm=0.5, batch_size=16)
        )
        trainer.fit(data)  # should not raise
        assert len(trainer.history.train_loss) == 2

    def test_deterministic_given_seed(self):
        data = _separable_dataset()
        h1 = Trainer(_tiny_model(rng=3), TrainingConfig(epochs=2, seed=5)).fit(data)
        h2 = Trainer(_tiny_model(rng=3), TrainingConfig(epochs=2, seed=5)).fit(data)
        np.testing.assert_allclose(h1.train_loss, h2.train_loss, rtol=1e-6)

    def test_model_left_in_eval_after_evaluate(self):
        data = _separable_dataset(40)
        model = _tiny_model()
        trainer = Trainer(model, TrainingConfig(epochs=1))
        trainer.fit(data)
        trainer.evaluate(data)
        assert not model.training


class TestMetrics:
    def test_accuracy(self):
        assert accuracy(np.array([1, 2, 3]), np.array([1, 2, 0])) == pytest.approx(2 / 3)

    def test_accuracy_empty(self):
        assert accuracy(np.array([]), np.array([])) == 0.0

    def test_accuracy_shape_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(np.array([1]), np.array([1, 2]))
