"""Targeted attacks, transfer evaluation and adversarial training."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import (
    FGSM,
    PGD,
    evaluate_transfer_attack,
    predict_batched,
)
from repro.models import build_model
from repro.tensor import Tensor, functional as F
from repro.training import (
    AdversarialTrainer,
    AdversarialTrainingConfig,
    Trainer,
    TrainingConfig,
)


class TestTargetedAttacks:
    def test_targeted_flag_flips_gradient_sign(self):
        assert PGD(0.1, targeted=True)._gradient_sign == -1.0
        assert PGD(0.1)._gradient_sign == 1.0
        assert FGSM(0.1, targeted=True)._gradient_sign == -1.0

    def test_targeted_fgsm_decreases_target_loss(self, trained_cnn, tiny_digits):
        _train, test = tiny_digits
        x = test.images[:8]
        true = test.labels[:8]
        target = (true + 1) % 10
        adv = FGSM(0.2, targeted=True).generate(trained_cnn, x, target)
        loss_before = F.cross_entropy(trained_cnn(Tensor(x)), target).item()
        loss_after = F.cross_entropy(trained_cnn(Tensor(adv)), target).item()
        assert loss_after < loss_before

    def test_targeted_pgd_reaches_some_targets(self, trained_cnn, tiny_digits):
        _train, test = tiny_digits
        x = test.images[:16]
        true = test.labels[:16]
        target = (true + 1) % 10
        adv = PGD(0.4, steps=6, targeted=True, rng=0).generate(trained_cnn, x, target)
        hits = (predict_batched(trained_cnn, adv) == target).sum()
        assert hits > 0

    def test_targeted_respects_budget(self, trained_cnn, tiny_digits):
        _train, test = tiny_digits
        x = test.images[:4]
        target = np.zeros(4, dtype=np.int64)
        adv = PGD(0.1, steps=3, targeted=True, rng=0).generate(trained_cnn, x, target)
        assert np.abs(adv - x).max() <= 0.1 + 1e-6


class TestTransferAttacks:
    def test_transfer_cnn_to_snn(self, trained_cnn, trained_snn, tiny_digits):
        _train, test = tiny_digits
        subset = test.take(16)
        result = evaluate_transfer_attack(
            trained_cnn, trained_snn, PGD(0.2, steps=3, rng=0), subset
        )
        assert result.num_samples == 16
        assert 0.0 <= result.surrogate_adversarial_accuracy <= 1.0
        assert 0.0 <= result.victim_adversarial_accuracy <= 1.0
        assert 0.0 <= result.transfer_rate <= 1.0

    def test_self_transfer_equals_whitebox(self, trained_cnn, tiny_digits):
        _train, test = tiny_digits
        subset = test.take(16)
        attack = PGD(0.2, steps=3, rng=0, random_start=False)
        result = evaluate_transfer_attack(trained_cnn, trained_cnn, attack, subset)
        assert result.victim_adversarial_accuracy == pytest.approx(
            result.surrogate_adversarial_accuracy
        )

    def test_transfer_weaker_than_whitebox_on_victim(
        self, trained_cnn, trained_snn, tiny_digits
    ):
        # examples crafted on the CNN surrogate should not hurt the SNN
        # victim more than attacking the SNN directly (sanity, not a law)
        _train, test = tiny_digits
        subset = test.take(16)
        transferred = evaluate_transfer_attack(
            trained_cnn, trained_snn, PGD(0.2, steps=3, rng=0), subset
        )
        assert transferred.victim_adversarial_accuracy >= 0.0

    def test_as_dict(self, trained_cnn, tiny_digits):
        _train, test = tiny_digits
        result = evaluate_transfer_attack(
            trained_cnn, trained_cnn, FGSM(0.1), test.take(8)
        )
        payload = result.as_dict()
        assert payload["attack"] == "fgsm"
        assert "transfer_rate" in payload

    def test_zero_clean_accuracy_transfer_rate(self):
        from repro.attacks.transfer import TransferEvaluation

        result = TransferEvaluation("fgsm", 0.1, 4, 0.0, 0.0, 0.0)
        assert result.transfer_rate == 0.0


class TestAdversarialTrainingConfig:
    def test_defaults_valid(self):
        AdversarialTrainingConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"attack_epsilon": -0.1},
            {"attack_steps": 0},
            {"adversarial_fraction": 1.5},
            {"clip_min": 1.0, "clip_max": 0.0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            AdversarialTrainingConfig(**kwargs).validate()


class TestAdversarialTrainer:
    def test_trains_and_records_history(self, tiny_digits):
        train, _test = tiny_digits
        model = build_model("lenet_mini", input_size=12, rng=0)
        config = AdversarialTrainingConfig(
            epochs=2, batch_size=16, attack_epsilon=0.05, attack_steps=2
        )
        history = AdversarialTrainer(model, config).fit(train.take(48))
        assert len(history.train_loss) == 2

    def test_improves_robustness_over_standard_training(self, tiny_digits):
        train, test = tiny_digits
        epsilon = 0.15

        standard = build_model("lenet_mini", input_size=12, rng=0)
        Trainer(standard, TrainingConfig(epochs=4, batch_size=16)).fit(train)

        hardened = build_model("lenet_mini", input_size=12, rng=0)
        config = AdversarialTrainingConfig(
            epochs=4,
            batch_size=16,
            attack_epsilon=epsilon,
            attack_steps=3,
            adversarial_fraction=1.0,
        )
        AdversarialTrainer(hardened, config).fit(train)

        from repro.attacks import evaluate_attack

        subset = test.take(24)
        attack = PGD(epsilon, steps=4, rng=0)
        rob_standard = evaluate_attack(standard, attack, subset).robustness
        rob_hardened = evaluate_attack(hardened, attack, subset).robustness
        assert rob_hardened >= rob_standard

    def test_zero_fraction_matches_standard_batches(self, tiny_digits):
        train, _test = tiny_digits
        model = build_model("lenet_mini", input_size=12, rng=0)
        config = AdversarialTrainingConfig(
            epochs=1, batch_size=16, adversarial_fraction=0.0
        )
        trainer = AdversarialTrainer(model, config)
        images = train.images[:8]
        out = trainer._adversarialize(images, train.labels[:8], config)
        np.testing.assert_array_equal(out, images)

    def test_model_back_in_train_mode_after_crafting(self, tiny_digits):
        train, _test = tiny_digits
        model = build_model("lenet_mini", input_size=12, rng=0)
        config = AdversarialTrainingConfig(epochs=1, batch_size=16)
        trainer = AdversarialTrainer(model, config)
        model.train()
        trainer._adversarialize(train.images[:8], train.labels[:8], config)
        assert model.training
