"""Non-adversarial noise baselines.

These quantify how much of an attack's damage is due to *adversarial
direction* rather than perturbation magnitude alone — a PGD that barely
beats uniform noise indicates masked/useless gradients.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import Attack
from repro.nn.module import Module
from repro.utils.seeding import new_rng

__all__ = ["GaussianNoise", "SignNoise", "UniformNoise"]


class _SeededNoise(Attack):
    """A gradient-free perturbation drawn from a seeded generator."""

    def __init__(
        self,
        epsilon: float,
        clip_min: float = 0.0,
        clip_max: float = 1.0,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__(epsilon, clip_min, clip_max)
        self._rng = new_rng(rng)

    def _perturb(
        self,
        model: Module,
        images: np.ndarray,
        labels: np.ndarray,
        clean_gradient: np.ndarray | None,
    ) -> np.ndarray:
        return images + self._noise(images.shape).astype(images.dtype)

    def _noise(self, shape: tuple[int, ...]) -> np.ndarray:
        raise NotImplementedError


class UniformNoise(_SeededNoise):
    """Uniform perturbation ``U(-ε, ε)`` per pixel."""

    name = "uniform_noise"

    def _noise(self, shape: tuple[int, ...]) -> np.ndarray:
        return self._rng.uniform(-self.epsilon, self.epsilon, size=shape)


class GaussianNoise(_SeededNoise):
    """Gaussian perturbation ``N(0, (ε/2)²)``, clipped into the ε-ball."""

    name = "gaussian_noise"

    def _noise(self, shape: tuple[int, ...]) -> np.ndarray:
        return self._rng.normal(0.0, self.epsilon / 2.0, size=shape)


class SignNoise(_SeededNoise):
    """Random-sign perturbation ``ε · s`` with ``s ∈ {-1, +1}`` uniform.

    Matches FGSM's perturbation *magnitude* exactly while removing its
    gradient information — the tightest magnitude-matched control.
    """

    name = "sign_noise"

    def _noise(self, shape: tuple[int, ...]) -> np.ndarray:
        signs = self._rng.integers(0, 2, size=shape) * 2 - 1
        return self.epsilon * signs
