"""Fully connected layer."""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ShapeError
from repro.nn import init
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor
from repro.utils.seeding import new_rng


class Linear(Module):
    """Affine transform ``y = x @ W.T + b``.

    Parameters
    ----------
    in_features, out_features:
        Input and output widths.
    bias:
        Whether to learn an additive bias (default ``True``).
    rng:
        Seed or generator for weight initialisation (Kaiming uniform, the
        PyTorch default for linear layers).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature counts must be positive")
        generator = new_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.kaiming_uniform((out_features, in_features), generator, gain=1.0)
        )
        if bias:
            bound = 1.0 / math.sqrt(in_features)
            # Cast like the weight init does: a raw float64 draw would
            # silently promote every downstream op to float64, doubling
            # the memory traffic of the whole network.
            self.bias: Parameter | None = Parameter(
                generator.uniform(-bound, bound, size=out_features).astype(
                    self.weight.dtype
                )
            )
        else:
            self.bias = None
        self._checked_shapes: set[tuple[int, ...]] = set()

    def forward(self, x: Tensor) -> Tensor:
        x = self._as_tensor(x)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(
                f"Linear({self.in_features}->{self.out_features}) got input "
                f"shape {x.shape}"
            )
        out = x @ self.weight.transpose()
        if self.bias is not None:
            out = out + self.bias
        return out

    def forward_numpy(self, x: np.ndarray) -> np.ndarray:
        """Graph-free twin of :meth:`forward` on raw arrays.

        The affine map needs no precomputed plan (the transposed weight is
        a view), so this only skips the shape check after the first call
        per input shape and the Tensor machinery — output stays bitwise
        identical to the autograd path.  An all-zero (silent) input skips
        the GEMM (:func:`~repro.tensor.functional.spike_matmul`).
        """
        if x.shape not in self._checked_shapes:
            if x.ndim != 2 or x.shape[1] != self.in_features:
                raise ShapeError(
                    f"Linear({self.in_features}->{self.out_features}) got input "
                    f"shape {x.shape}"
                )
            self._checked_shapes.add(x.shape)
        out = F.spike_matmul(x, self.weight.data.T)
        if self.bias is not None:
            out = out + self.bias.data
        return out

    def forward_record_numpy(self, x: np.ndarray) -> tuple[np.ndarray, object]:
        """:meth:`forward_numpy` plus the context ``(x, dtype)``; a silent
        step records ``None`` for ``x``."""
        return self.forward_numpy(x), (x if x.any() else None, x.dtype)

    def backward_numpy(
        self,
        g: np.ndarray,
        ctx: object,
        param_sink: list | None = None,
        *,
        want_input_grad: bool = True,
    ) -> np.ndarray | None:
        """Graph-free backward twin: input (and optionally weight) gradients.

        Performs the exact arithmetic the autograd path's matmul/add
        closures perform (``g @ W`` against the same contiguous weight
        layout the double-transposed view restores), so gradients stay
        bitwise identical.  With ``param_sink``, ``(param, grad)`` pairs
        are appended for the caller to fold in the autograd path's
        accumulation order (see :mod:`repro.snn.backward`); without it the
        weight-gradient GEMM is skipped entirely.  ``want_input_grad=False``
        skips the input GEMM and returns ``None``.
        """
        x, dtype = ctx
        if param_sink is not None:
            if x is None:  # a silent step
                x_t_g = F.silent_matmul((self.in_features, g.shape[0]), dtype, g)
            else:
                x_t_g = x.T @ g
            param_sink.append((self.weight, x_t_g.transpose()))
            if self.bias is not None:
                param_sink.append((self.bias, g.sum(axis=0)))
        if not want_input_grad:
            return None
        return g @ self.weight.data

    def __repr__(self) -> str:
        return (
            f"Linear(in={self.in_features}, out={self.out_features}, "
            f"bias={self.bias is not None})"
        )
