"""Fast Gradient Sign Method and its basic iterative variant."""

from __future__ import annotations

import numpy as np

from repro.attacks.base import Attack, input_gradient
from repro.attacks.pgd import PGD
from repro.nn.module import Module

__all__ = ["BIM", "FGSM"]


class FGSM(Attack):
    """Single-step L-infinity attack (Goodfellow et al., 2015).

    ``x* = clip(x + ε · sign(∇_x L(x, y)))``; with ``targeted=True`` the
    sign flips and ``y`` is interpreted as the attacker's target class.
    """

    name = "fgsm"

    @property
    def reuses_clean_gradient(self) -> bool:
        return self.epsilon > 0

    def _perturb(
        self,
        model: Module,
        images: np.ndarray,
        labels: np.ndarray,
        clean_gradient: np.ndarray | None,
    ) -> np.ndarray:
        if clean_gradient is None:
            clean_gradient = input_gradient(model, images, labels)
        return images + self._gradient_sign * self.epsilon * np.sign(clean_gradient)


class BIM(PGD):
    """Basic Iterative Method (Kurakin et al., 2017): iterated FGSM.

    PGD without random start, with step ``alpha`` defaulting to
    ``epsilon / steps``; kept distinct from :class:`~repro.attacks.pgd.PGD`
    for the attack-family ablation.
    """

    name = "bim"

    def __init__(
        self,
        epsilon: float,
        steps: int = 10,
        alpha: float | None = None,
        clip_min: float = 0.0,
        clip_max: float = 1.0,
        targeted: bool = False,
    ) -> None:
        super().__init__(
            epsilon, steps, alpha, random_start=False,
            clip_min=clip_min, clip_max=clip_max, targeted=targeted,
        )
        if alpha is None:
            self.alpha = epsilon / steps

    def __repr__(self) -> str:
        return f"BIM(epsilon={self.epsilon}, steps={self.steps}, alpha={self.alpha})"
