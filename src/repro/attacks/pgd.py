"""Projected Gradient Descent (Madry et al., 2018) — the paper's attack.

Implements Eq. (3) of the paper:

.. math::

    x_{t+1} = P_{S_x}\\big(x_t + \\alpha \\cdot
        \\mathrm{sign}(\\nabla_x L_\\theta(x_t, y))\\big)

with :math:`P_{S_x}` the projection onto the intersection of the
L-infinity ε-ball around the clean input and the valid pixel box.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.attacks.base import Attack, input_gradient
from repro.nn.module import Module
from repro.utils.seeding import new_rng

__all__ = ["PGD"]


class PGD(Attack):
    """Multi-step L-infinity PGD with optional random start.

    Parameters
    ----------
    epsilon:
        Noise budget ``ε``.
    steps:
        Number of gradient iterations (paper-strength default: 10).
    alpha:
        Per-step size; defaults to ``2.5 * epsilon / steps`` (the Madry
        heuristic), so the attack can traverse the ball and still project.
    random_start:
        Start from a uniform point inside the ε-ball (default ``True``).
    rng:
        Seed/generator for the random start (reproducible attacks).
    """

    name = "pgd"

    def __init__(
        self,
        epsilon: float,
        steps: int = 10,
        alpha: float | None = None,
        random_start: bool = True,
        clip_min: float = 0.0,
        clip_max: float = 1.0,
        targeted: bool = False,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__(epsilon, clip_min, clip_max, targeted)
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        self.steps = steps
        self.alpha = float(alpha) if alpha is not None else 2.5 * epsilon / steps
        self.random_start = random_start
        self._rng = new_rng(rng)

    @property
    def reuses_clean_gradient(self) -> bool:
        # A random start moves the first gradient off the clean input, so
        # only deterministic PGD can share it across an ε sweep.
        return self.epsilon > 0 and not self.random_start

    def start_point(self, images: np.ndarray) -> np.ndarray:
        """Where the iteration starts: a uniform draw in the ε-ball
        (random start, one draw from this attack's rng) or the clean input."""
        if not self.random_start:
            return images.copy()
        noise = self._rng.uniform(-self.epsilon, self.epsilon, size=images.shape)
        return self.project(images, images + noise.astype(images.dtype))

    def descend(
        self,
        reference: np.ndarray,
        current: np.ndarray,
        gradient_at: Callable[[np.ndarray], np.ndarray],
        first_gradient: np.ndarray | None,
    ) -> np.ndarray:
        """``steps`` iterations of Eq. 3 from ``current``, projected onto
        the ε-ball around ``reference``.

        ``gradient_at(x)`` is the loss gradient at ``x``; the first
        iteration uses ``first_gradient`` instead when it is not ``None``
        (the clean-input gradient, valid only when ``current`` is the
        clean input).  The arithmetic is elementwise, so a lane-folded batch
        iterates bitwise as each lane would on its own.
        """
        for step in range(self.steps):
            if step == 0 and first_gradient is not None:
                gradient = first_gradient
            else:
                gradient = gradient_at(current)
            current = current + self._gradient_sign * self.alpha * np.sign(gradient)
            current = self.project(reference, current)
        return current

    def _perturb(
        self,
        model: Module,
        images: np.ndarray,
        labels: np.ndarray,
        clean_gradient: np.ndarray | None,
    ) -> np.ndarray:
        return self.descend(
            images,
            self.start_point(images),
            lambda point: input_gradient(model, point, labels),
            clean_gradient,
        )

    def __repr__(self) -> str:
        return (
            f"PGD(epsilon={self.epsilon}, steps={self.steps}, alpha={self.alpha:.4g}, "
            f"random_start={self.random_start})"
        )
