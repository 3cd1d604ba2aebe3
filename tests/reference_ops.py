"""Independent parity oracle for the convolution and pooling Tensor ops.

``repro.tensor.functional.conv2d``, ``max_pool2d`` and ``avg_pool2d`` run
on the compiled plans (``Conv2dPlan``, ``MaxPool2dPlan``,
``AvgPool2dPlan``), so comparing a plan with them compares the plan with
itself.  This module keeps the ops' earlier window-materialising
arithmetic — ``sliding_window_view`` im2col with one 6-D transpose copy,
argmax/``take_along_axis`` max pooling with a ``bincount`` backward —
forward and backward closures alike, as the reference the parity tests
hold every plan entry point and every Tensor op to, bit for bit.

:func:`unrolled_graph` does the same for whole spiking networks: a
grad-mode forward runs the fused BPTT by default, so a reference leg must
pin the network to its unrolled autograd loop.

Test-only: nothing under ``src/`` imports it.
"""

from __future__ import annotations

import contextlib
from collections.abc import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import ShapeError
from repro.tensor.tensor import Tensor, apply_op


def _pair(value: int | tuple[int, int]) -> tuple[int, int]:
    if isinstance(value, tuple):
        if len(value) != 2:
            raise ValueError(f"expected a pair, got {value!r}")
        return int(value[0]), int(value[1])
    return int(value), int(value)


def _conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ShapeError(
            f"convolution/pooling output size is {out} for input {size}, "
            f"kernel {kernel}, stride {stride}, padding {padding}"
        )
    return out


def _strided_windows(
    padded: np.ndarray, kh: int, kw: int, sh: int, sw: int
) -> np.ndarray:
    """All (kh, kw) windows of ``padded`` at stride (sh, sw).

    Returns a view of shape ``(N, C, OH, OW, kh, kw)``.
    """
    windows = sliding_window_view(padded, (kh, kw), axis=(2, 3))
    return windows[:, :, ::sh, ::sw]


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int | tuple[int, int] = 1,
    padding: int | tuple[int, int] = 0,
) -> Tensor:
    """2-D cross-correlation: im2col + BLAS matmul, col2im scatter backward."""
    if x.ndim != 4:
        raise ShapeError(f"conv2d expects (N, C, H, W) input, got {x.shape}")
    if weight.ndim != 4:
        raise ShapeError(f"conv2d expects (O, I, KH, KW) weight, got {weight.shape}")
    if x.shape[1] != weight.shape[1]:
        raise ShapeError(
            f"input channels {x.shape[1]} do not match weight channels {weight.shape[1]}"
        )
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = weight.shape
    oh = _conv_output_size(h, kh, sh, ph)
    ow = _conv_output_size(w, kw, sw, pw)

    padded = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    windows = _strided_windows(padded, kh, kw, sh, sw)  # (N, C, OH, OW, kh, kw)
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c_in * kh * kw)
    w_mat = weight.data.reshape(c_out, -1)
    out_data = cols @ w_mat.T
    if bias is not None:
        out_data = out_data + bias.data
    out_data = out_data.reshape(n, oh, ow, c_out).transpose(0, 3, 1, 2)

    parents: tuple[Tensor, ...] = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
        g_mat = g.transpose(0, 2, 3, 1).reshape(n * oh * ow, c_out)
        grad_w = (g_mat.T @ cols).reshape(weight.shape)
        grad_cols = g_mat @ w_mat  # (N*OH*OW, C*kh*kw)
        grad_windows = grad_cols.reshape(n, oh, ow, c_in, kh, kw).transpose(0, 3, 1, 2, 4, 5)
        grad_padded = np.zeros_like(padded)
        for i in range(kh):
            for j in range(kw):
                grad_padded[:, :, i : i + oh * sh : sh, j : j + ow * sw : sw] += grad_windows[
                    :, :, :, :, i, j
                ]
        grad_x = grad_padded[:, :, ph : ph + h, pw : pw + w]
        if bias is None:
            return grad_x, grad_w
        return grad_x, grad_w, g.sum(axis=(0, 2, 3))

    return apply_op(np.ascontiguousarray(out_data), parents, backward, "conv2d")


def max_pool2d(
    x: Tensor,
    kernel_size: int | tuple[int, int],
    stride: int | tuple[int, int] | None = None,
) -> Tensor:
    """Max pooling by window argmax; first index wins ties."""
    kh, kw = _pair(kernel_size)
    sh, sw = _pair(stride) if stride is not None else (kh, kw)
    if x.ndim != 4:
        raise ShapeError(f"max_pool2d expects (N, C, H, W) input, got {x.shape}")
    n, c, h, w = x.shape
    oh = _conv_output_size(h, kh, sh, 0)
    ow = _conv_output_size(w, kw, sw, 0)

    windows = _strided_windows(x.data, kh, kw, sh, sw)  # (N, C, OH, OW, kh, kw)
    flat = windows.reshape(n, c, oh, ow, kh * kw)
    arg = flat.argmax(axis=-1)
    out_data = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]

    def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
        # Flat bincount scatter: overlapping windows can route several
        # contributions to one pixel; bincount sums them in float64 before
        # the single cast back to the input dtype.
        ki, kj = np.divmod(arg, kw)  # (N, C, OH, OW) window-local coordinates
        rows = np.arange(oh).reshape(1, 1, oh, 1) * sh + ki
        cols = np.arange(ow).reshape(1, 1, 1, ow) * sw + kj
        plane = (
            np.arange(n).reshape(n, 1, 1, 1) * c + np.arange(c).reshape(1, c, 1, 1)
        ) * (h * w)
        flat = plane + rows * w + cols
        grad_x = np.bincount(
            flat.ravel(), weights=g.ravel(), minlength=n * c * h * w
        )
        return (grad_x.reshape(n, c, h, w).astype(x.dtype, copy=False),)

    return apply_op(np.ascontiguousarray(out_data), (x,), backward, "max_pool2d")


def avg_pool2d(
    x: Tensor,
    kernel_size: int | tuple[int, int],
    stride: int | tuple[int, int] | None = None,
) -> Tensor:
    """Average pooling by window mean; uniform spread backward."""
    kh, kw = _pair(kernel_size)
    sh, sw = _pair(stride) if stride is not None else (kh, kw)
    if x.ndim != 4:
        raise ShapeError(f"avg_pool2d expects (N, C, H, W) input, got {x.shape}")
    n, c, h, w = x.shape
    oh = _conv_output_size(h, kh, sh, 0)
    ow = _conv_output_size(w, kw, sw, 0)

    windows = _strided_windows(x.data, kh, kw, sh, sw)
    out_data = windows.mean(axis=(-2, -1))
    scale = 1.0 / (kh * kw)

    def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
        grad_x = np.zeros_like(x.data)
        contribution = g * scale
        for i in range(kh):
            for j in range(kw):
                grad_x[:, :, i : i + oh * sh : sh, j : j + ow * sw : sw] += contribution
        return (grad_x,)

    return apply_op(np.ascontiguousarray(out_data), (x,), backward, "avg_pool2d")


@contextlib.contextmanager
def unrolled_graph(*models) -> Iterator[None]:
    """Run grad-mode forwards of ``models`` on the unrolled autograd loop.

    Sets ``use_fused_backward = False`` for the ``with`` block and then
    restores each model's own setting.
    """
    saved = [model.use_fused_backward for model in models]
    for model in models:
        model.use_fused_backward = False
    try:
        yield
    finally:
        for model, flag in zip(models, saved):
            model.use_fused_backward = flag
