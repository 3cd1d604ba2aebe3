"""Weight-initialisation schemes.

All initialisers are *functional*: they take a shape and an explicit
:class:`numpy.random.Generator` and return a new array, keeping every
layer's initialisation reproducible from its seed.
"""

from __future__ import annotations

import math

import numpy as np

from repro.config import DEFAULT_DTYPE

__all__ = ["calculate_fans", "kaiming_uniform"]


def calculate_fans(shape: tuple[int, ...]) -> tuple[int, int]:
    """Return ``(fan_in, fan_out)`` for linear or convolutional weights.

    For a linear weight ``(out, in)`` the fans are ``in`` and ``out``; for a
    convolution weight ``(out, in, kh, kw)`` the kernel area multiplies both.
    """
    if len(shape) < 2:
        raise ValueError(f"fan calculation needs >= 2 dimensions, got {shape}")
    receptive = 1
    for dim in shape[2:]:
        receptive *= dim
    fan_in = shape[1] * receptive
    fan_out = shape[0] * receptive
    return fan_in, fan_out


def kaiming_uniform(
    shape: tuple[int, ...],
    rng: np.random.Generator,
    gain: float = math.sqrt(2.0),
    dtype: np.dtype | None = None,
) -> np.ndarray:
    """He/Kaiming uniform init: ``U(-bound, bound)``, bound = gain·√(3/fan_in)."""
    fan_in, _ = calculate_fans(shape)
    bound = gain * math.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype or DEFAULT_DTYPE)

