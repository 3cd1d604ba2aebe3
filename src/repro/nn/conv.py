"""2-D convolution layer."""

from __future__ import annotations

import math

import numpy as np

from repro.nn import init
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor
from repro.utils.seeding import new_rng


class Conv2d(Module):
    """2-D cross-correlation with learnable filters.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts.
    kernel_size, stride, padding:
        Int or ``(h, w)`` pairs; semantics match
        :func:`repro.tensor.functional.conv2d`.
    bias:
        Whether to learn per-output-channel biases.
    rng:
        Seed or generator for Kaiming-uniform weight init.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int | tuple[int, int],
        stride: int | tuple[int, int] = 1,
        padding: int | tuple[int, int] = 0,
        bias: bool = True,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError("channel counts must be positive")
        kh, kw = (kernel_size, kernel_size) if isinstance(kernel_size, int) else kernel_size
        generator = new_rng(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = (kh, kw)
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            init.kaiming_uniform((out_channels, in_channels, kh, kw), generator, gain=1.0)
        )
        if bias:
            fan_in = in_channels * kh * kw
            bound = 1.0 / math.sqrt(fan_in)
            # Cast like the weight init does: a raw float64 draw would
            # silently promote every downstream op to float64, doubling
            # the memory traffic of the whole network.
            self.bias: Parameter | None = Parameter(
                generator.uniform(-bound, bound, size=out_channels).astype(
                    self.weight.dtype
                )
            )
        else:
            self.bias = None
        self._plans: dict[tuple, F.Conv2dPlan] = {}

    def forward(self, x: Tensor) -> Tensor:
        x = self._as_tensor(x)
        return F.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)

    def forward_numpy(self, x: np.ndarray) -> np.ndarray:
        """Graph-free twin of :meth:`forward` on raw arrays.

        Backed by a :class:`~repro.tensor.functional.Conv2dPlan` compiled
        once per ``(shape, dtype)`` — bitwise-identical output, no Tensor
        or autograd overhead.  Weights are read at call time, so training
        or ``load_state_dict`` never invalidates a plan.  A silent (all-zero)
        input skips im2col and GEMM (``Conv2dPlan.silent``).
        """
        return self.forward_record_numpy(x)[0]

    def _plan_for(self, x: np.ndarray) -> F.Conv2dPlan:
        key = (x.shape, x.dtype.str)
        plan = self._plans.get(key)
        if plan is None:
            plan = F.Conv2dPlan(
                x.shape, x.dtype, self.weight.shape, self.stride, self.padding
            )
            self._plans[key] = plan
        return plan

    def forward_record_numpy(self, x: np.ndarray) -> tuple[np.ndarray, object]:
        """:meth:`forward_numpy` plus the context ``(x, plan)``; a silent
        step records ``None`` for ``x``."""
        plan = self._plan_for(x)
        bias = self.bias.data if self.bias is not None else None
        if not x.any():
            return plan.silent(self.weight.data, bias), (None, plan)
        return plan(x, self.weight.data, bias), (x, plan)

    def backward_numpy(
        self,
        g: np.ndarray,
        ctx: object,
        param_sink: list | None = None,
        *,
        want_input_grad: bool = True,
    ) -> np.ndarray | None:
        """Graph-free backward twin: plan-backed col2im input gradient.

        Mirrors :func:`repro.tensor.functional.conv2d`'s backward closure
        exactly, both GEMMs sharing one :meth:`~repro.tensor.functional.
        Conv2dPlan.grad_matrix` layout of ``g``.  Weight/bias gradients
        (recomputed-im2col matmul, channel sum) are only paid for when
        ``param_sink`` is given — attack crafting needs input gradients
        alone, which skips both parameter GEMMs per time step; the sink
        lets the caller fold contributions in the autograd path's
        accumulation order.  ``want_input_grad=False`` (a first layer in
        training, whose input is the encoder's spikes) skips the input
        GEMM and col2im and returns ``None``.
        """
        x, plan = ctx
        g_mat = plan.grad_matrix(g)
        if param_sink is not None:
            if x is None:  # a silent step: no im2col refill, no GEMM
                grad_w = plan.silent_backward_weight(g_mat, self.weight.shape)
            else:
                grad_w = plan.backward_weight(g_mat, x, self.weight.shape)
            param_sink.append((self.weight, grad_w))
            if self.bias is not None:
                param_sink.append((self.bias, plan.backward_bias(g)))
        if not want_input_grad:
            return None
        return plan.backward_input(g_mat, self.weight.data)

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}->{self.out_channels}, "
            f"kernel={self.kernel_size}, stride={self.stride}, "
            f"padding={self.padding}, bias={self.bias is not None})"
        )
