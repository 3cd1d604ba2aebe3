"""Surrogate gradients for the non-differentiable spike function.

The forward pass of a spiking neuron thresholds the membrane potential:
``z = H(v - v_th)`` with ``H`` the Heaviside step.  Its true derivative is
zero almost everywhere, which kills backpropagation; surrogate-gradient
training (Neftci et al., 2019) replaces the backward pass with a smooth
pseudo-derivative ``h(v - v_th)`` while keeping the binary forward pass.

This module registers several standard families; ``superspike`` (Zenke &
Ganguli, 2018 — also Norse's default) is the library default:

==============  ==========================================================
name            pseudo-derivative ``h(x)``, ``x = v - v_th``
==============  ==========================================================
superspike      ``1 / (1 + alpha * |x|)^2``
triangle        ``max(0, 1 - alpha * |x|)``
arctan          ``1 / (1 + (pi/2 * alpha * x)^2)``
sigmoid         ``alpha * s * (1 - s)`` with ``s = sigmoid(alpha * x)``
straight        box: ``1`` for ``|x| <= 1/(2*alpha)``, else ``0``
==============  ==========================================================
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

__all__ = ["available_surrogates", "surrogate_derivative"]

SurrogateFn = Callable[[np.ndarray, float], np.ndarray]


def _superspike(x: np.ndarray, alpha: float) -> np.ndarray:
    # 1 / (1 + alpha * |x|)^2, staged through one reused buffer.
    out = np.abs(x)
    out *= alpha
    out += 1.0
    np.square(out, out=out)
    np.divide(1.0, out, out=out)
    return out


def _triangle(x: np.ndarray, alpha: float) -> np.ndarray:
    return np.maximum(0.0, 1.0 - alpha * np.abs(x))


def _arctan(x: np.ndarray, alpha: float) -> np.ndarray:
    scaled = 0.5 * np.pi * alpha * x
    return 1.0 / (1.0 + scaled * scaled)


def _sigmoid(x: np.ndarray, alpha: float) -> np.ndarray:
    s = 1.0 / (1.0 + np.exp(-np.clip(alpha * x, -60.0, 60.0)))
    return alpha * s * (1.0 - s)


def _straight(x: np.ndarray, alpha: float) -> np.ndarray:
    return (np.abs(x) <= 0.5 / alpha).astype(x.dtype)


_SURROGATES: dict[str, SurrogateFn] = {
    "superspike": _superspike,
    "triangle": _triangle,
    "arctan": _arctan,
    "sigmoid": _sigmoid,
    "straight": _straight,
}


def available_surrogates() -> tuple[str, ...]:
    """Names of the registered surrogate-gradient families."""
    return tuple(sorted(_SURROGATES))


def surrogate_derivative(x: np.ndarray, method: str = "superspike", alpha: float = 100.0) -> np.ndarray:
    """Evaluate the pseudo-derivative ``h(x)`` of family ``method``."""
    try:
        fn = _SURROGATES[method]
    except KeyError:
        raise ValueError(
            f"unknown surrogate {method!r}; available: {available_surrogates()}"
        ) from None
    if alpha <= 0:
        raise ValueError(f"surrogate alpha must be positive, got {alpha}")
    return fn(np.asarray(x), alpha)

