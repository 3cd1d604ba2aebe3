"""Flatten layer."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.tensor.tensor import Tensor


class Flatten(Module):
    """Flatten all dimensions from ``start_dim`` onward (default: keep batch)."""

    def __init__(self, start_dim: int = 1) -> None:
        super().__init__()
        self.start_dim = start_dim

    def forward(self, x: Tensor) -> Tensor:
        return self._as_tensor(x).flatten(self.start_dim)

    def forward_numpy(self, x: np.ndarray) -> np.ndarray:
        """Graph-free twin of :meth:`forward` (may return a view of ``x``)."""
        return x.reshape(x.shape[: self.start_dim] + (-1,))

    def forward_record_numpy(self, x: np.ndarray) -> tuple[np.ndarray, object]:
        """:meth:`forward_numpy` plus the context :meth:`backward_numpy` needs."""
        return self.forward_numpy(x), x.shape

    def backward_numpy(
        self,
        g: np.ndarray,
        ctx: object,
        param_sink: list | None = None,
        *,
        want_input_grad: bool = True,
    ) -> np.ndarray | None:
        """Graph-free backward twin (reshape back to the recorded shape)."""
        return g.reshape(ctx) if want_input_grad else None

    def __repr__(self) -> str:
        return f"Flatten(start_dim={self.start_dim})"
