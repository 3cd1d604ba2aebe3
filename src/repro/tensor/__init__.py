"""Reverse-mode automatic differentiation over numpy arrays.

This package is the reproduction's substitute for PyTorch's autograd: a
:class:`~repro.tensor.tensor.Tensor` wraps a numpy array and records the
operations applied to it; calling :meth:`Tensor.backward` walks the recorded
graph in reverse topological order and accumulates gradients into every
tensor created with ``requires_grad=True``.

Design notes
------------
* Gradients are exact reverse-mode derivatives; each primitive op registers
  a closure that maps the output gradient to input gradients.  Broadcasting
  is supported everywhere and un-broadcast on the way back.
* Non-differentiable forward decisions (spike thresholding) are implemented
  as *custom ops* via :func:`~repro.tensor.tensor.apply_op`, which is how
  the SNN surrogate gradients plug in.
"""

from repro.tensor import functional
from repro.tensor.tensor import Tensor, apply_op, is_grad_enabled, no_grad, stack

__all__ = ["Tensor", "apply_op", "functional", "is_grad_enabled", "no_grad", "stack"]
