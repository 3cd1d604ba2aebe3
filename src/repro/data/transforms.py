"""Pixel normalisation: the paper's MNIST constants and the box they imply.

:class:`Normalize` is a callable ``(images: np.ndarray) -> np.ndarray``
operating on batches ``(N, C, H, W)``.
"""

from __future__ import annotations

import numpy as np

MNIST_MEAN = 0.1307
"""Canonical MNIST pixel mean — the paper's pipeline (Norse tutorial)
normalizes with these constants, so the adversarial budgets ε of the paper
live in this normalized space (ε = 1 is ≈ 0.31 in raw pixel units)."""

MNIST_STD = 0.3081
"""Canonical MNIST pixel standard deviation (see :data:`MNIST_MEAN`)."""


def normalized_bounds(mean: float = MNIST_MEAN, std: float = MNIST_STD) -> tuple[float, float]:
    """Valid pixel range after normalisation of [0, 1] images.

    Attacks crafted in normalized space must clip into this box (the
    projection set ``S_x``) instead of [0, 1].
    """
    return (0.0 - mean) / std, (1.0 - mean) / std


class Normalize:
    """Channel-wise standardisation ``(x - mean) / std``."""

    def __init__(self, mean: float, std: float) -> None:
        if std <= 0:
            raise ValueError(f"std must be positive, got {std}")
        self.mean = mean
        self.std = std

    def __call__(self, images: np.ndarray) -> np.ndarray:
        return (images - self.mean) / self.std

