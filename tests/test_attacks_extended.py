"""Targeted attacks and transfer evaluation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import (
    FGSM,
    PGD,
    evaluate_transfer_attack,
    predict_batched,
)
from repro.tensor import Tensor, functional as F


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

