"""Stateless activation layers."""

from __future__ import annotations

from repro.nn.module import Module
from repro.tensor.tensor import Tensor


class ReLU(Module):
    """Rectified linear unit."""

    def forward(self, x: Tensor) -> Tensor:
        return self._as_tensor(x).relu()


class Tanh(Module):
    """Hyperbolic tangent."""

    def forward(self, x: Tensor) -> Tensor:
        return self._as_tensor(x).tanh()

