"""Pooling layers."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor


class MaxPool2d(Module):
    """Max pooling; stride defaults to the kernel size."""

    def __init__(
        self,
        kernel_size: int | tuple[int, int],
        stride: int | tuple[int, int] | None = None,
    ) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride
        self._plans: dict[tuple[int, ...], F.MaxPool2dPlan] = {}

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(self._as_tensor(x), self.kernel_size, self.stride)

    def forward_numpy(self, x: np.ndarray) -> np.ndarray:
        """Graph-free twin of :meth:`forward` on raw arrays (plan-cached)."""
        plan = self._plan_for(x)
        return plan(x) if x.any() else plan.silent(x)[0]

    def _plan_for(self, x: np.ndarray) -> F.MaxPool2dPlan:
        plan = self._plans.get(x.shape)
        if plan is None:
            plan = F.MaxPool2dPlan(x.shape, self.kernel_size, self.stride)
            self._plans[x.shape] = plan
        return plan

    def forward_record_numpy(self, x: np.ndarray) -> tuple[np.ndarray, object]:
        """:meth:`forward_numpy` plus the context :meth:`backward_numpy` needs.

        The context holds the plan's max routing instead of the input:
        for non-overlapping windows a one-byte offset code per output
        (see :meth:`~repro.tensor.functional.MaxPool2dPlan.route`).
        """
        plan = self._plan_for(x)
        if x.any():
            out = plan(x)
            return out, (plan, plan.route(x, out), x.dtype)
        out, route = plan.silent(x)
        return out, (plan, route, x.dtype)

    def backward_numpy(
        self,
        g: np.ndarray,
        ctx: object,
        param_sink: list | None = None,
        *,
        want_input_grad: bool = True,
    ) -> np.ndarray | None:
        """Graph-free backward twin (first-claim max routing)."""
        if not want_input_grad:
            return None
        plan, route, dtype = ctx
        return plan.backward(g, route, dtype)

    def __repr__(self) -> str:
        return f"MaxPool2d(kernel={self.kernel_size}, stride={self.stride})"


class AvgPool2d(Module):
    """Average pooling; stride defaults to the kernel size."""

    def __init__(
        self,
        kernel_size: int | tuple[int, int],
        stride: int | tuple[int, int] | None = None,
    ) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride
        self._plans: dict[tuple[int, ...], F.AvgPool2dPlan] = {}

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(self._as_tensor(x), self.kernel_size, self.stride)

    def forward_numpy(self, x: np.ndarray) -> np.ndarray:
        """Graph-free twin of :meth:`forward` on raw arrays (plan-cached)."""
        return self._plan_for(x)(x)

    def _plan_for(self, x: np.ndarray) -> F.AvgPool2dPlan:
        plan = self._plans.get(x.shape)
        if plan is None:
            plan = F.AvgPool2dPlan(x.shape, self.kernel_size, self.stride)
            self._plans[x.shape] = plan
        return plan

    def forward_record_numpy(self, x: np.ndarray) -> tuple[np.ndarray, object]:
        """:meth:`forward_numpy` plus the context :meth:`backward_numpy` needs."""
        plan = self._plan_for(x)
        return plan(x), (plan, x.dtype)

    def backward_numpy(
        self,
        g: np.ndarray,
        ctx: object,
        param_sink: list | None = None,
        *,
        want_input_grad: bool = True,
    ) -> np.ndarray | None:
        """Graph-free backward twin (uniform window spread)."""
        if not want_input_grad:
            return None
        plan, dtype = ctx
        return plan.backward(g, dtype)

    def __repr__(self) -> str:
        return f"AvgPool2d(kernel={self.kernel_size}, stride={self.stride})"
