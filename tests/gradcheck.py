"""Numerical gradient checking for the autograd engine (a test helper).

:func:`gradcheck` compares analytic reverse-mode gradients with float64
central differences.  The engine's unit tests call it for every primitive
and composite operation; any new custom op (e.g. a different surrogate
gradient) should ship with a gradcheck-based test.  Nothing under
``src/`` imports this module.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.tensor.tensor import Tensor

__all__ = ["gradcheck", "numerical_gradient"]


def numerical_gradient(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    index: int,
    projection: np.ndarray,
    eps: float = 1e-5,
) -> np.ndarray:
    """Central-difference gradient of ``sum(fn(*inputs) * projection)``.

    ``index`` selects which input to differentiate with respect to; all
    inputs should be float64 for the differences to be meaningful.
    """
    target = inputs[index]
    grad = np.zeros_like(target.data)
    flat = target.data.reshape(-1)
    grad_flat = grad.reshape(-1)
    for position in range(flat.size):
        original = flat[position]
        flat[position] = original + eps
        plus = float((fn(*inputs).data * projection).sum())
        flat[position] = original - eps
        minus = float((fn(*inputs).data * projection).sum())
        flat[position] = original
        grad_flat[position] = (plus - minus) / (2.0 * eps)
    return grad


def gradcheck(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    eps: float = 1e-5,
    atol: float = 1e-6,
    rtol: float = 1e-4,
    seed: int = 0,
) -> bool:
    """Verify analytic gradients of ``fn`` against central differences.

    Parameters
    ----------
    fn:
        Callable mapping the input tensors to an output tensor (any shape;
        the output is contracted against a fixed random projection to form
        a scalar, so non-scalar ops are checked in full).
    inputs:
        Tensors, ideally float64.  Only those with ``requires_grad=True``
        are checked.
    eps, atol, rtol:
        Central-difference step and comparison tolerances.
    seed:
        Seed for the random projection vector.

    Returns ``True`` on success and raises ``AssertionError`` with a
    diagnostic message on the first mismatch.
    """
    inputs = list(inputs)
    output = fn(*inputs)
    rng = np.random.default_rng(seed)
    projection = rng.standard_normal(output.shape).astype(np.float64)
    if not output.requires_grad:
        raise AssertionError(
            "gradcheck: output does not require grad; did every input have "
            "requires_grad=False?"
        )
    for tensor in inputs:
        tensor.zero_grad()
    output.backward(projection.astype(output.dtype))

    ok = True
    messages: list[str] = []
    for index, tensor in enumerate(inputs):
        if not tensor.requires_grad:
            continue
        analytic = tensor.grad
        if analytic is None:
            messages.append(f"input {index}: no gradient accumulated")
            ok = False
            continue
        numeric = numerical_gradient(fn, inputs, index, projection, eps=eps)
        close = np.allclose(analytic, numeric, atol=atol, rtol=rtol)
        if not close:
            diff = np.abs(analytic - numeric)
            worst = np.unravel_index(int(diff.argmax()), diff.shape)
            messages.append(
                f"input {index}: max |analytic - numeric| = {diff.max():.3e} at "
                f"{worst}; analytic={analytic[worst]:.6e} numeric={numeric[worst]:.6e}"
            )
            ok = False
    if not ok:
        raise AssertionError("gradcheck failed:\n" + "\n".join(messages))
    return True
