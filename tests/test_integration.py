"""Cross-module integration tests: the full paper pipeline at micro scale."""

from __future__ import annotations

import numpy as np

from repro.attacks import PGD, evaluate_attack, evaluate_clean_accuracy
from repro.models import build_model
from repro.robustness import ExplorationConfig, RobustnessExplorer
from repro.snn import LIFParameters, spike_activity
from repro.tensor import Tensor
from repro.training import Trainer, TrainingConfig
from repro.utils import load_npz, save_npz


class TestTrainAttackPipeline:
    def test_cnn_learns_digits(self, trained_cnn, tiny_digits):
        _train, test = tiny_digits
        assert evaluate_clean_accuracy(trained_cnn, test) > 0.4  # 2 epochs, tiny data

    def test_snn_beats_chance(self, trained_snn, tiny_digits):
        _train, test = tiny_digits
        assert evaluate_clean_accuracy(trained_snn, test) > 0.15

    def test_pgd_on_snn_produces_bounded_perturbation(self, trained_snn, tiny_digits):
        _train, test = tiny_digits
        attack = PGD(0.2, steps=2, rng=0)
        adv = attack.generate(trained_snn, test.images[:4], test.labels[:4])
        assert np.abs(adv - test.images[:4]).max() <= 0.2 + 1e-6

    def test_attack_evaluation_on_both_model_families(
        self, trained_cnn, trained_snn, tiny_digits
    ):
        _train, test = tiny_digits
        subset = test.take(10)
        for model in (trained_cnn, trained_snn):
            result = evaluate_attack(model, PGD(0.1, steps=2, rng=0), subset)
            assert 0.0 <= result.robustness <= 1.0
            assert result.mean_linf <= 0.1 + 1e-6


class TestStructuralParameterPipeline:
    def test_explorer_with_real_snn_factory(self, tiny_digits):
        train, test = tiny_digits
        small_train = train.take(60)
        subset = test.take(12)

        def factory(v_th, time_window, seed):
            return build_model(
                "snn_lenet_mini",
                input_size=12,
                time_steps=int(time_window),
                lif_params=LIFParameters(v_th=float(v_th)),
                rng=seed,
            )

        config = ExplorationConfig(
            v_thresholds=(0.5, 2.0),
            time_windows=(4,),
            epsilons=(0.3,),
            accuracy_threshold=0.0,  # keep all cells so security always runs
            attack_steps=2,
            training=TrainingConfig(epochs=1, batch_size=16),
            seed=1,
        )
        result = RobustnessExplorer(factory, small_train, subset, config).run()
        assert len(result.cells) == 2
        grid = result.accuracy_grid()
        assert grid.shape == (1, 2)
        for cell in result.cells:
            assert 0.3 in cell.robustness

    def test_vth_changes_model_behaviour(self, tiny_digits):
        train, _test = tiny_digits
        x = Tensor(train.images[:4])
        low = build_model(
            "snn_lenet_mini", input_size=12, time_steps=8,
            lif_params=LIFParameters(v_th=0.25), rng=0,
        )
        high = build_model(
            "snn_lenet_mini", input_size=12, time_steps=8,
            lif_params=LIFParameters(v_th=2.25), rng=0,
        )
        low_spikes = spike_activity(low, x).spikes_per_layer[0]
        high_spikes = spike_activity(high, x).spikes_per_layer[0]
        assert low_spikes > high_spikes


class TestPersistenceRoundTrip:
    def test_train_save_load_attack(self, tmp_path, tiny_digits):
        train, test = tiny_digits
        model = build_model("snn_lenet_mini", input_size=12, time_steps=4, rng=0)
        Trainer(model, TrainingConfig(epochs=1, batch_size=16)).fit(train.take(40))
        save_npz(tmp_path / "snn.npz", model.state_dict(), {"time_steps": 4})

        arrays, meta = load_npz(tmp_path / "snn.npz")
        clone = build_model("snn_lenet_mini", input_size=12, time_steps=meta["time_steps"], rng=9)
        clone.load_state_dict(arrays)

        x = Tensor(test.images[:4])
        np.testing.assert_allclose(model(x).data, clone(x).data, rtol=1e-5)

        # attacks on the clone behave identically given the same seed
        a = PGD(0.1, steps=2, rng=3).generate(model, test.images[:4], test.labels[:4])
        b = PGD(0.1, steps=2, rng=3).generate(clone, test.images[:4], test.labels[:4])
        np.testing.assert_allclose(a, b, rtol=1e-5)


class TestSecondDataset:
    def test_patterns_trainable(self):
        from repro.data import make_patterns

        train = make_patterns(80, seed=0, split="train")
        test = make_patterns(40, seed=0, split="test")
        model = build_model("lenet_mini", input_size=16, num_classes=4, rng=0)
        Trainer(model, TrainingConfig(epochs=4, batch_size=16)).fit(train)
        assert evaluate_clean_accuracy(model, test) > 0.6
