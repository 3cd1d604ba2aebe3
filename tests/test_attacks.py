"""Attacks: ball/box invariants, strength ordering, metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import (
    BIM,
    FGSM,
    PGD,
    AttackEvaluation,
    GaussianNoise,
    SignNoise,
    UniformNoise,
    evaluate_attack,
    evaluate_clean_accuracy,
    input_gradient,
    perturbation_norms,
    predict_batched,
)
from repro.tensor import Tensor, functional as F


ALL_ATTACKS = [
    lambda eps: FGSM(eps),
    lambda eps: BIM(eps, steps=3),
    lambda eps: PGD(eps, steps=3, rng=0),
    lambda eps: UniformNoise(eps, rng=0),
    lambda eps: GaussianNoise(eps, rng=0),
    lambda eps: SignNoise(eps, rng=0),
]


class TestInvariants:
    @pytest.mark.parametrize("make", ALL_ATTACKS)
    def test_linf_ball_and_box(self, make, trained_cnn, tiny_digits):
        _train, test = tiny_digits
        attack = make(0.1)
        adv = attack.generate(trained_cnn, test.images[:8], test.labels[:8])
        assert np.abs(adv - test.images[:8]).max() <= 0.1 + 1e-6
        assert adv.min() >= 0.0 and adv.max() <= 1.0
        assert adv.shape == test.images[:8].shape
        assert adv.dtype == test.images.dtype

    @pytest.mark.parametrize("make", ALL_ATTACKS)
    def test_epsilon_zero_is_identity(self, make, trained_cnn, tiny_digits):
        _train, test = tiny_digits
        adv = make(0.0).generate(trained_cnn, test.images[:4], test.labels[:4])
        np.testing.assert_array_equal(adv, test.images[:4])

    def test_custom_clip_box(self, trained_cnn, tiny_digits):
        _train, test = tiny_digits
        attack = PGD(0.5, steps=2, clip_min=-0.4, clip_max=2.8, rng=0)
        shifted = test.images[:4] * 3.2 - 0.4
        adv = attack.generate(trained_cnn, shifted.astype(np.float32), test.labels[:4])
        assert adv.min() >= -0.4 - 1e-6
        assert adv.max() <= 2.8 + 1e-6

    def test_batch_mismatch_raises(self, trained_cnn, tiny_digits):
        _train, test = tiny_digits
        with pytest.raises(ValueError):
            FGSM(0.1).generate(trained_cnn, test.images[:4], test.labels[:3])

    def test_negative_epsilon_raises(self):
        with pytest.raises(ValueError):
            FGSM(-0.1)

    def test_invalid_steps_raise(self):
        with pytest.raises(ValueError):
            PGD(0.1, steps=0)
        with pytest.raises(ValueError):
            BIM(0.1, steps=0)

    def test_invalid_clip_raises(self):
        with pytest.raises(ValueError):
            FGSM(0.1, clip_min=1.0, clip_max=0.0)


class TestGradients:
    def test_input_gradient_shape(self, trained_cnn, tiny_digits):
        _train, test = tiny_digits
        g = input_gradient(trained_cnn, test.images[:4], test.labels[:4])
        assert g.shape == test.images[:4].shape

    def test_fgsm_step_increases_loss(self, trained_cnn, tiny_digits):
        _train, test = tiny_digits
        x, y = test.images[:8], test.labels[:8]
        adv = FGSM(0.1).generate(trained_cnn, x, y)
        loss_clean = F.cross_entropy(trained_cnn(Tensor(x)), y).item()
        loss_adv = F.cross_entropy(trained_cnn(Tensor(adv)), y).item()
        assert loss_adv > loss_clean

    def test_gradient_flows_through_snn(self, trained_snn, tiny_digits):
        _train, test = tiny_digits
        g = input_gradient(trained_snn, test.images[:2], test.labels[:2])
        assert g.shape == test.images[:2].shape
        assert np.all(np.isfinite(g))


class TestStrengthOrdering:
    def test_pgd_at_least_as_strong_as_noise(self, trained_cnn, tiny_digits):
        _train, test = tiny_digits
        subset = test.take(30)
        pgd = evaluate_attack(trained_cnn, PGD(0.15, steps=5, rng=0), subset)
        noise = evaluate_attack(trained_cnn, UniformNoise(0.15, rng=0), subset)
        assert pgd.adversarial_accuracy <= noise.adversarial_accuracy

    def test_larger_epsilon_weakly_stronger(self, trained_cnn, tiny_digits):
        _train, test = tiny_digits
        subset = test.take(30)
        small = evaluate_attack(trained_cnn, PGD(0.05, steps=5, rng=0), subset)
        large = evaluate_attack(trained_cnn, PGD(0.4, steps=5, rng=0), subset)
        assert large.adversarial_accuracy <= small.adversarial_accuracy + 0.05

    def test_pgd_damages_trained_cnn(self, trained_cnn, tiny_digits):
        _train, test = tiny_digits
        subset = test.take(30)
        clean = evaluate_clean_accuracy(trained_cnn, subset)
        attacked = evaluate_attack(trained_cnn, PGD(0.3, steps=5, rng=0), subset)
        assert attacked.adversarial_accuracy < clean


class TestDeterminism:
    def test_pgd_reproducible_with_seed(self, trained_cnn, tiny_digits):
        _train, test = tiny_digits
        x, y = test.images[:6], test.labels[:6]
        a = PGD(0.1, steps=3, rng=42).generate(trained_cnn, x, y)
        b = PGD(0.1, steps=3, rng=42).generate(trained_cnn, x, y)
        np.testing.assert_array_equal(a, b)

    def test_bim_deterministic(self, trained_cnn, tiny_digits):
        _train, test = tiny_digits
        x, y = test.images[:6], test.labels[:6]
        a = BIM(0.1, steps=3).generate(trained_cnn, x, y)
        b = BIM(0.1, steps=3).generate(trained_cnn, x, y)
        np.testing.assert_array_equal(a, b)

    def test_pgd_without_random_start_deterministic(self, trained_cnn, tiny_digits):
        _train, test = tiny_digits
        x, y = test.images[:4], test.labels[:4]
        a = PGD(0.1, steps=2, random_start=False).generate(trained_cnn, x, y)
        b = PGD(0.1, steps=2, random_start=False).generate(trained_cnn, x, y)
        np.testing.assert_array_equal(a, b)


class TestMetrics:
    def test_perturbation_norms(self):
        clean = np.zeros((2, 1, 2, 2), dtype=np.float32)
        adv = clean.copy()
        adv[0, 0, 0, 0] = 0.5
        linf, l2 = perturbation_norms(clean, adv)
        assert linf == pytest.approx(0.25)  # mean over samples: (0.5 + 0)/2
        assert l2 == pytest.approx(0.25)

    def test_evaluation_dataclass_consistency(self, trained_cnn, tiny_digits):
        _train, test = tiny_digits
        subset = test.take(16)
        result = evaluate_attack(trained_cnn, FGSM(0.1), subset)
        assert isinstance(result, AttackEvaluation)
        assert result.robustness == result.adversarial_accuracy
        assert result.attack_success_rate == pytest.approx(1.0 - result.robustness)
        assert result.num_samples == 16
        assert 0.0 <= result.mean_linf <= 0.1 + 1e-6
        payload = result.as_dict()
        assert payload["attack"] == "fgsm"
        assert payload["epsilon"] == 0.1

    def test_robustness_at_zero_epsilon_equals_clean_accuracy(
        self, trained_cnn, tiny_digits
    ):
        _train, test = tiny_digits
        subset = test.take(20)
        clean = evaluate_clean_accuracy(trained_cnn, subset)
        result = evaluate_attack(trained_cnn, PGD(0.0, steps=2, rng=0), subset)
        assert result.robustness == pytest.approx(clean)

    def test_predict_batched_matches_full(self, trained_cnn, tiny_digits):
        _train, test = tiny_digits
        full = predict_batched(trained_cnn, test.images, batch_size=1000)
        chunked = predict_batched(trained_cnn, test.images, batch_size=7)
        np.testing.assert_array_equal(full, chunked)

    def test_predict_batched_empty(self, trained_cnn):
        out = predict_batched(trained_cnn, np.zeros((0, 1, 12, 12), dtype=np.float32))
        assert out.shape == (0,)
