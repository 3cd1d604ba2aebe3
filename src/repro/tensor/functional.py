"""Composite and structured differentiable operations.

Everything here is built either from :class:`~repro.tensor.tensor.Tensor`
primitives or registered as a custom op via
:func:`~repro.tensor.tensor.apply_op` when a fused implementation is needed
for numerical stability (softmax family) or speed (im2col convolution).

Shapes follow the PyTorch convention:

* images: ``(N, C, H, W)``
* convolution weights: ``(C_out, C_in, KH, KW)``
* class scores: ``(N, num_classes)``
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import ShapeError
from repro.tensor.tensor import Tensor, apply_op

__all__ = [
    "AvgPool2dPlan",
    "Conv2dPlan",
    "MaxPool2dPlan",
    "avg_pool2d",
    "conv2d",
    "cross_entropy",
    "log_softmax",
    "max_pool2d",
    "mse_loss",
    "nll_loss",
    "one_hot",
    "silent_matmul",
    "softmax",
    "spike_matmul",
]


# --------------------------------------------------------------------------
# Softmax family (fused for numerical stability)
# --------------------------------------------------------------------------


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable ``log(softmax(x))`` along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_norm
    softmax_data = np.exp(out_data)

    def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
        return (g - softmax_data * g.sum(axis=axis, keepdims=True),)

    return apply_op(out_data, (x,), backward, "log_softmax")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=axis, keepdims=True)

    def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        return (out_data * (g - inner),)

    return apply_op(out_data, (x,), backward, "softmax")


# --------------------------------------------------------------------------
# Losses
# --------------------------------------------------------------------------


def nll_loss(
    log_probs: Tensor,
    targets: np.ndarray,
    reduction: str = "mean",
) -> Tensor:
    """Negative log-likelihood of integer ``targets`` under ``log_probs``.

    Parameters
    ----------
    log_probs:
        ``(N, C)`` log-probabilities (e.g. from :func:`log_softmax`).
    targets:
        ``(N,)`` integer class labels.
    reduction:
        ``"mean"``, ``"sum"`` or ``"none"``.
    """
    targets = np.asarray(targets)
    if log_probs.ndim != 2:
        raise ShapeError(f"nll_loss expects (N, C) log-probs, got {log_probs.shape}")
    if targets.shape != (log_probs.shape[0],):
        raise ShapeError(
            f"targets shape {targets.shape} does not match batch {log_probs.shape[0]}"
        )
    _check_reduction(reduction)
    n = log_probs.shape[0]
    rows = np.arange(n)
    picked = log_probs.data[rows, targets]
    if reduction == "none":
        out_data = -picked
    elif reduction == "sum":
        out_data = -picked.sum()
    else:
        out_data = -picked.mean()

    def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
        grad = np.zeros_like(log_probs.data)
        if reduction == "none":
            grad[rows, targets] = -g
        elif reduction == "sum":
            grad[rows, targets] = -g
        else:
            grad[rows, targets] = -g / n
        return (grad,)

    return apply_op(np.asarray(out_data, dtype=log_probs.dtype), (log_probs,), backward, "nll")


def cross_entropy(logits: Tensor, targets: np.ndarray, reduction: str = "mean") -> Tensor:
    """Softmax cross-entropy between ``logits`` ``(N, C)`` and int labels."""
    return nll_loss(log_softmax(logits, axis=-1), targets, reduction=reduction)


def mse_loss(prediction: Tensor, target: Tensor | np.ndarray, reduction: str = "mean") -> Tensor:
    """Mean/sum/elementwise squared error."""
    _check_reduction(reduction)
    target_t = target if isinstance(target, Tensor) else Tensor(target)
    diff = prediction - target_t
    squared = diff * diff
    if reduction == "none":
        return squared
    if reduction == "sum":
        return squared.sum()
    return squared.mean()


def _check_reduction(reduction: str) -> None:
    if reduction not in ("mean", "sum", "none"):
        raise ValueError(f"unknown reduction {reduction!r}")


# --------------------------------------------------------------------------
# Misc
# --------------------------------------------------------------------------


def one_hot(labels: np.ndarray, num_classes: int, dtype: np.dtype | None = None) -> np.ndarray:
    """Return a dense ``(N, num_classes)`` one-hot numpy encoding."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ShapeError(f"one_hot expects a 1-d label array, got {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("labels out of range for one_hot")
    out = np.zeros((labels.shape[0], num_classes), dtype=dtype or np.float32)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


# --------------------------------------------------------------------------
# Convolution / pooling
# --------------------------------------------------------------------------


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


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int | tuple[int, int] = 1,
    padding: int | tuple[int, int] = 0,
) -> Tensor:
    """2-D cross-correlation (the deep-learning "convolution").

    A one-shot :class:`Conv2dPlan`: im2col + BLAS matmul forward; the
    backward closure runs the plan's col2im input gradient, the weight
    GEMM on the columns the forward filled, and the bias channel-sum.
    Gradients of parents that do not require grad are skipped.

    Parameters
    ----------
    x: ``(N, C_in, H, W)`` input images or feature maps.
    weight: ``(C_out, C_in, KH, KW)`` filters.
    bias: optional ``(C_out,)``.
    stride, padding: int or (height, width) pairs.
    """
    # A fresh plan per call: the closure keeps its column scratch for the
    # weight gradient, which a plan shared by unrolled steps would overwrite.
    plan = Conv2dPlan(x.shape, x.dtype, weight.shape, stride, padding)
    w_data = weight.data
    out_data = plan(x.data, w_data, None if bias is None else bias.data)
    parents: tuple[Tensor, ...] = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
        grad_x = grad_w = None
        g_mat = plan.grad_matrix(g)
        if x.requires_grad:
            grad_x = plan.backward_input(g_mat, w_data)
        if weight.requires_grad:
            grad_w = plan.backward_weight(g_mat, None, w_data.shape)
        if bias is None:
            return grad_x, grad_w
        return grad_x, grad_w, plan.backward_bias(g)

    return apply_op(out_data, parents, backward, "conv2d")


def max_pool2d(
    x: Tensor,
    kernel_size: int | tuple[int, int],
    stride: int | tuple[int, int] | None = None,
) -> Tensor:
    """Max pooling over ``(kh, kw)`` windows (stride defaults to kernel).

    A one-shot :class:`MaxPool2dPlan` (pairwise maximum over the window
    offsets).  Gradient flows to the argmax element of each window (first
    index wins ties, matching PyTorch), routed by the plan's
    :meth:`~MaxPool2dPlan.route` and :meth:`~MaxPool2dPlan.backward`.
    """
    plan = MaxPool2dPlan(x.shape, kernel_size, stride)
    x_data = x.data
    out_data = plan(x_data)

    def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
        return (plan.backward(g, plan.route(x_data, out_data), x_data.dtype),)

    return apply_op(out_data, (x,), backward, "max_pool2d")


def avg_pool2d(
    x: Tensor,
    kernel_size: int | tuple[int, int],
    stride: int | tuple[int, int] | None = None,
) -> Tensor:
    """Average pooling over ``(kh, kw)`` windows (stride defaults to kernel).

    A one-shot :class:`AvgPool2dPlan`.
    """
    plan = AvgPool2dPlan(x.shape, kernel_size, stride)
    dtype = x.dtype

    def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
        return (plan.backward(g, dtype),)

    return apply_op(plan(x.data), (x,), backward, "avg_pool2d")


# --------------------------------------------------------------------------
# Compiled synapse plans (graph-free forward and backward twins)
# --------------------------------------------------------------------------
#
# A *plan* freezes everything about conv2d/pooling that depends only on the
# input shape — output geometry, kernel-offset slices, padded and column
# scratch buffers — and carries both halves of its op: the forward and the
# backward twin, on raw arrays.  It is the only implementation of that
# arithmetic:
#
# * the Tensor ops above build a fresh plan per call and wrap it in an
#   autograd node (the closure keeps the plan, and with it the forward's
#   columns, alive until the backward sweep passes the node);
# * the fused SNN inference and BPTT paths (repro.snn.backward) cache one
#   plan per input shape on the module and reuse it at every time step;
# * a variant stack (repro.snn.stack) runs the K-lane methods below.
#
# tests/reference_ops.py keeps an independent copy of the original
# window-materialising Tensor ops; tests/test_fused_plans.py and
# tests/test_fused_backward.py hold every entry point bitwise equal to it.
#
# Plans return freshly allocated outputs (safe to retain) unless handed an
# ``out``, but their scratch buffers are reused across calls — one plan
# instance must not be shared between concurrently running forwards (or
# backwards), nor between autograd nodes still waiting for their backward.


def _window_columns(
    padded: np.ndarray, kh: int, kw: int, sh: int, sw: int
) -> np.ndarray:
    """The column matrix as a reshape of the padded NCHW input's windows.

    A view wherever numpy can express one (a 1x1 kernel, or windows that
    span the whole padded row), possibly with strides no BLAS call
    accepts; numpy's matmul then runs its own loop, with its own
    summation order.  Elsewhere the reshape copies into the row-major
    layout the slab fill of :class:`Conv2dPlan` produces.
    """
    windows = sliding_window_view(padded, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
    return windows.transpose(0, 2, 3, 1, 4, 5).reshape(-1, padded.shape[1] * kh * kw)


@lru_cache(maxsize=256)
def _columns_alias_input(
    c_in: int, hp: int, wp: int, kh: int, kw: int, sh: int, sw: int
) -> bool:
    """Whether one image's :func:`_window_columns` are a view of its input.

    If one image's columns need a copy, so do a batch's.
    """
    padded = np.zeros((1, c_in, hp, wp), dtype=np.float32)
    return np.may_share_memory(_window_columns(padded, kh, kw, sh, sw), padded)


def silent_matmul(shape: tuple[int, int], dtype: np.dtype, mat: np.ndarray) -> np.ndarray:
    """``np.zeros(shape, dtype) @ mat`` for a *silent* (all-zero) input: every
    row is the same sum of ``0 * m`` products, so one row's product, repeated,
    is the full product bit for bit (a NaN from a non-finite ``m`` included)."""
    row = np.zeros((1, shape[1]), dtype=dtype) @ mat
    return np.repeat(row, shape[0], axis=0)


def spike_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b``, without the GEMM when ``a`` is all zero (:func:`silent_matmul`)."""
    return a @ b if a.any() else silent_matmul(a.shape, a.dtype, b)


class Conv2dPlan:
    """im2col geometry + scratch buffers for one (input shape, conv spec).

    ``__call__(x, weight, bias)`` is the cross-correlation behind
    :func:`conv2d`; called directly it skips Tensor construction and, when
    the plan is cached, the per-call scratch allocations.

    The column matrix is row-major — one row per output pixel,
    ``(C_in, kh, kw)`` along a row — the operand layout the GEMMs have
    always been issued on (a channel-major layout changes which BLAS
    kernel runs, and with it the summation order).  The input is staged
    channels-last in an ``(N, Hp, Wp, C_in)`` padded scratch and each
    kernel offset (i, j) is copied as one ``(N, OH, OW, C_in)`` slab.
    Geometries whose columns are a view of the input (a 1x1 kernel, or
    windows spanning the padded width) gather no window: their columns
    are that view of the staged NCHW input (see :meth:`_columns`).
    Scratch is allocated on first use, so a plan that only runs the K-lane
    methods (a folded plan) holds geometry alone.
    """

    def __init__(
        self,
        shape: tuple[int, ...],
        dtype: np.dtype,
        weight_shape: tuple[int, ...],
        stride: int | tuple[int, int],
        padding: int | tuple[int, int],
    ) -> None:
        if len(shape) != 4:
            raise ShapeError(f"conv2d expects (N, C, H, W) input, got {shape}")
        if len(weight_shape) != 4:
            raise ShapeError(f"conv2d expects (O, I, KH, KW) weight, got {weight_shape}")
        if shape[1] != weight_shape[1]:
            raise ShapeError(
                f"input channels {shape[1]} do not match weight channels {weight_shape[1]}"
            )
        self.shape = shape
        self.dtype = dtype
        self.weight_shape = weight_shape
        _n, c_in, h, w = shape
        _c_out, _, kh, kw = weight_shape
        self.sh, self.sw = _pair(stride)
        self.ph, self.pw = _pair(padding)
        self.kh, self.kw = kh, kw
        self.oh = _conv_output_size(h, kh, self.sh, self.ph)
        self.ow = _conv_output_size(w, kw, self.sw, self.pw)
        self.hp, self.wp = h + 2 * self.ph, w + 2 * self.pw
        self._windowed = _columns_alias_input(c_in, self.hp, self.wp, kh, kw, self.sh, self.sw)
        # Scratch, allocated by the first im2col (see _im2col) or col2im.
        self._padded: np.ndarray | None = None
        self._cols6d: np.ndarray | None = None
        self._grad_padded: np.ndarray | None = None
        # One variant's plan per lane count K (see _lanes).
        self._lane_plans: dict[int, Conv2dPlan] = {}
        # Input rows/columns under kernel offset (i, j), in the (i, j)
        # order of the col2im scatter.
        self._offsets = [
            (
                i, j,
                slice(i, i + self.oh * self.sh, self.sh),
                slice(j, j + self.ow * self.sw, self.sw),
            )
            for i in range(kh)
            for j in range(kw)
        ]

    def _im2col(self, x: np.ndarray) -> None:
        """Stage ``x`` and fill the column scratch, one slab per offset."""
        n, c_in, h, w = self.shape
        if self._padded is None:
            # Padded input, staged channels-last for the slab fill
            # (windowed geometries keep conv2d's NCHW padding instead);
            # the border is zeroed here and never written again.  The
            # columns are written as (N, OH, OW, C, kh, kw) and fed to the
            # matmul as their flat (N*OH*OW, C*kh*kw) alias.
            self._padded = np.zeros(
                (n, c_in, self.hp, self.wp) if self._windowed
                else (n, self.hp, self.wp, c_in),
                dtype=self.dtype,
            )
            if not self._windowed:
                self._cols6d = np.empty(
                    (n, self.oh, self.ow, c_in, self.kh, self.kw), dtype=self.dtype
                )
        if self._windowed:
            self._padded[:, :, self.ph : self.ph + h, self.pw : self.pw + w] = x
            return
        self._padded[:, self.ph : self.ph + h, self.pw : self.pw + w] = x.transpose(
            0, 2, 3, 1
        )
        for i, j, rows, cols in self._offsets:
            self._cols6d[:, :, :, :, i, j] = self._padded[:, rows, cols]

    def _columns(self) -> np.ndarray:
        """The column matrix (after :meth:`_im2col`).

        Windowed geometries reshape the padded NCHW input's windows (see
        :func:`_window_columns`): a view wherever one exists, possibly
        transposed, strided or with overlapping rows.  BLAS (or numpy's
        own matmul loop) then sees the operand layout of the original
        window-copy op, which a contiguous copy would not reproduce.
        """
        if self._windowed:
            return _window_columns(self._padded, self.kh, self.kw, self.sh, self.sw)
        return self._cols6d.reshape(-1, self.shape[1] * self.kh * self.kw)

    def _col2im(self, grad_cols: np.ndarray, out=None) -> np.ndarray:
        """Scatter grad columns ``(N*OH*OW, C*kh*kw)`` onto an NCHW input grad.

        Accumulates the kernel offsets in (i, j) order into a zeroed
        channels-last padded scratch anchored to the *input* dtype — the
        strided ``+=`` downcasts each contribution to it.  The cropped
        result is copied into ``out``, or else into a fresh array (safe to
        retain across reverse time steps).
        """
        n, c_in, h, w = self.shape
        grad_cols = grad_cols.reshape(n, self.oh, self.ow, c_in, self.kh, self.kw)
        scratch = self._grad_padded
        if scratch is None:
            scratch = np.zeros((n, self.hp, self.wp, c_in), dtype=self.dtype)
            self._grad_padded = scratch
        else:
            scratch.fill(0.0)
        for i, j, rows, cols in self._offsets:
            scratch[:, rows, cols] += grad_cols[:, :, :, :, i, j]
        crop = scratch[:, self.ph : self.ph + h, self.pw : self.pw + w].transpose(0, 3, 1, 2)
        if out is None:
            return np.ascontiguousarray(crop)
        out[...] = crop
        return out

    def _to_nchw(self, gemm: np.ndarray, bias: np.ndarray | None, out=None) -> np.ndarray:
        """``(N*OH*OW, C_out)`` GEMM output (plus ``bias``) in NCHW layout.

        Written into ``out`` if given, else into a fresh array.  Adding
        the bias after the transpose is the same elementwise sum as
        ``gemm + bias`` on the GEMM rows, but runs along whole channel
        planes instead of ``C_out``-long rows.
        """
        nchw = gemm.reshape(self.shape[0], self.oh, self.ow, -1).transpose(0, 3, 1, 2)
        if out is None:
            out = np.ascontiguousarray(nchw)
            if bias is not None and np.result_type(out, bias) != out.dtype:
                return out + bias.reshape(-1, 1, 1)  # a wider bias promotes, as in conv2d
        else:
            out[...] = nchw
        if bias is not None:
            out += bias.reshape(-1, 1, 1)
        return out

    @staticmethod
    def grad_matrix(g: np.ndarray) -> np.ndarray:
        """Output gradient ``(N, C_out, OH, OW)`` as the matmul layout.

        A copy for N > 1: laid out once per backward, it is the ``g_mat``
        operand of both :meth:`backward_input` and :meth:`backward_weight`.
        """
        return g.transpose(0, 2, 3, 1).reshape(-1, g.shape[1])

    def __call__(
        self, x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None, out=None
    ) -> np.ndarray:
        self._im2col(x)
        return self._to_nchw(self._columns() @ weight.reshape(weight.shape[0], -1).T, bias, out)

    def silent(self, weight: np.ndarray, bias: np.ndarray | None, out=None) -> np.ndarray:
        """:meth:`__call__` of an all-zero input, without im2col (see
        :func:`silent_matmul`); the module twins take it, :func:`conv2d` never."""
        w_mat = weight.reshape(weight.shape[0], -1)
        rows = self.shape[0] * self.oh * self.ow
        gemm = silent_matmul((rows, w_mat.shape[1]), self.dtype, w_mat.T)
        return self._to_nchw(gemm, bias, out)

    def silent_backward_weight(self, g_mat: np.ndarray, weight_shape: tuple) -> np.ndarray:
        """:meth:`backward_weight` of an all-zero input, without im2col."""
        taps = int(np.prod(weight_shape[1:]))
        grad_t = silent_matmul((taps, g_mat.shape[0]), self.dtype, g_mat)
        return grad_t.T.reshape(weight_shape)  # g_mat.T @ cols, cols all zero

    def backward_input(self, g_mat: np.ndarray, weight: np.ndarray, out=None) -> np.ndarray:
        """Gradient w.r.t. the input: grad-column matmul, col2im scatter.

        ``g_mat`` is the output gradient as :meth:`grad_matrix` lays it
        out.  Runs the per-offset strided accumulation and padding crop in
        a zeroed padded scratch that a cached plan reuses across calls.
        """
        w_mat = weight.reshape(weight.shape[0], -1)
        return self._col2im(g_mat @ w_mat, out)

    def backward_weight(
        self, g_mat: np.ndarray, x: np.ndarray | None, weight_shape: tuple[int, ...]
    ) -> np.ndarray:
        """Gradient w.r.t. the filters: ``g_mat.T @ cols``.

        ``x`` refills the column scratch first (a cached plan has since
        run other steps' forwards); the im2col pass is pure data movement,
        so the recomputed columns equal the forward's bit for bit.
        ``x=None`` uses the columns still in the scratch from this plan's
        last forward — the one-shot plan of :func:`conv2d` skips the refill.
        """
        if x is not None:
            self._im2col(x)
        return (g_mat.T @ self._columns()).reshape(weight_shape)

    @staticmethod
    def backward_bias(g: np.ndarray) -> np.ndarray:
        """Gradient w.r.t. the bias (the channel-sum of ``g``)."""
        return g.sum(axis=(0, 2, 3))

    # -- K-stacked execution ---------------------------------------------------
    #
    # A variant stack (repro.snn.stack) folds K same-architecture models on
    # the batch axis.  A plan built for the folded shape ``(K*N, C, H, W)``
    # keeps only its geometry: every live variant runs through one *lane
    # plan* — the plan an unstacked member with a batch of N builds, cached
    # per K — on its own batch slice, and writes straight into that
    # variant's rows of the folded result.  Each variant's output gradient
    # is laid out from its own batch slice too, exactly as the unstacked
    # plan lays out a batch of N (for N == 1 that layout is a transposed
    # view, not a copy).  A lane therefore runs the unstacked plan's exact
    # operations — silent test, im2col, GEMMs, col2im, bias — on the same
    # operand layouts, which keeps stacked results bitwise identical per
    # variant, and its scratch stays one variant's batch large.

    def lane_rows(self, lanes: int) -> int:
        """Column-matrix rows per variant when the batch folds ``lanes`` ways."""
        n = self.shape[0]
        if lanes < 1 or n % lanes:
            raise ShapeError(
                f"folded batch {n} does not divide into {lanes} variant lanes"
            )
        return (n // lanes) * self.oh * self.ow

    def _lanes(self, lanes: int) -> tuple[Conv2dPlan, list[slice]]:
        """The lane plan and each variant's batch slice, ``lanes`` variants folded."""
        n = self.lane_rows(lanes) // (self.oh * self.ow)
        if lanes not in self._lane_plans:
            self._lane_plans[lanes] = Conv2dPlan(
                (n, *self.shape[1:]), self.dtype, self.weight_shape,
                (self.sh, self.sw), (self.ph, self.pw),
            )
        return self._lane_plans[lanes], [slice(i * n, (i + 1) * n) for i in range(lanes)]

    def lane_grad_matrices(
        self, g: np.ndarray, needed: list[bool]
    ) -> list[np.ndarray | None]:
        """Per-variant :meth:`grad_matrix` of a lane-folded output gradient.

        Each lane's matrix is laid out from its own batch slice (``None``
        where ``needed`` is false) and serves both of that lane's GEMMs in
        :meth:`stacked_backward_input` and :meth:`stacked_backward_weights`.
        """
        return [
            self.grad_matrix(g[batch]) if wanted else None
            for batch, wanted in zip(self._lanes(len(needed))[1], needed)
        ]

    def stacked(
        self,
        x: np.ndarray,
        weights: list[np.ndarray],
        biases: list[np.ndarray | None],
        alive: list[bool] | None = None,
    ) -> np.ndarray:
        """Forward for K weight sets over a lane-folded batch.

        ``alive`` masks the dead wavefront of a ragged-T stack: a dead
        variant's rows are zero-filled (the values are structurally
        unused, but must stay finite so they cannot leak NaNs into the
        folded elementwise stages).  A live lane takes the lane plan's
        :meth:`silent` when its input is all zero, :meth:`__call__`
        otherwise.
        """
        plan, batches = self._lanes(len(weights))
        out = np.empty((self.shape[0], weights[0].shape[0], self.oh, self.ow), self.dtype)
        for lane, batch in enumerate(batches):
            if alive is not None and not alive[lane]:
                out[batch] = 0.0
            elif x[batch].any():
                plan(x[batch], weights[lane], biases[lane], out[batch])
            else:
                plan.silent(weights[lane], biases[lane], out[batch])
        return out

    def stacked_backward_input(
        self,
        g_mats: list[np.ndarray | None],
        weights: list[np.ndarray],
        alive: list[bool] | None = None,
    ) -> np.ndarray:
        """Input gradient for K weight sets over a lane-folded batch.

        ``g_mats`` are the :meth:`lane_grad_matrices` of the output
        gradient.  Each live lane runs the lane plan's
        :meth:`backward_input` into its rows; dead lanes are zero-filled.
        """
        plan, batches = self._lanes(len(weights))
        grad = np.empty(self.shape, dtype=self.dtype)
        for lane, batch in enumerate(batches):
            if alive is not None and not alive[lane]:
                grad[batch] = 0.0
            else:
                plan.backward_input(g_mats[lane], weights[lane], grad[batch])
        return grad

    def stacked_backward_weights(
        self,
        g_mats: list[np.ndarray | None],
        x: np.ndarray,
        weight_shape: tuple[int, ...],
        wanted: list[bool],
    ) -> list[np.ndarray | None]:
        """Per-variant filter gradients over a lane-folded batch.

        Each wanted lane runs the lane plan's :meth:`backward_weight`,
        which refills its columns from the lane's slice of the recorded
        folded input, or :meth:`silent_backward_weight` when that slice is
        all zero.  ``wanted[lane]`` gates lanes whose parameters are
        structurally dead at this step (``None`` entries keep the autograd
        path's grad-never-touched semantics).
        """
        plan, batches = self._lanes(len(wanted))
        grads: list[np.ndarray | None] = []
        for g_mat, batch, want in zip(g_mats, batches, wanted):
            if not want:
                grads.append(None)
            elif x[batch].any():
                grads.append(plan.backward_weight(g_mat, x[batch], weight_shape))
            else:
                grads.append(plan.silent_backward_weight(g_mat, weight_shape))
        return grads


class _Pool2dPlan:
    """Shared window geometry of the pooling plans (``_op`` names the op)."""

    def __init__(
        self,
        shape: tuple[int, ...],
        kernel_size: int | tuple[int, int],
        stride: int | tuple[int, int] | None,
    ) -> None:
        if len(shape) != 4:
            raise ShapeError(f"{self._op} expects (N, C, H, W) input, got {shape}")
        self.shape = shape
        self.kh, self.kw = _pair(kernel_size)
        self.sh, self.sw = (
            _pair(stride) if stride is not None else (self.kh, self.kw)
        )
        self.oh = _conv_output_size(shape[2], self.kh, self.sh, 0)
        self.ow = _conv_output_size(shape[3], self.kw, self.sw, 0)

    def _windows(self, x: np.ndarray) -> np.ndarray:
        """All windows of ``x`` as a ``(N, C, OH, OW, kh, kw)`` view."""
        windows = sliding_window_view(x, (self.kh, self.kw), axis=(2, 3))
        return windows[:, :, :: self.sh, :: self.sw]


class MaxPool2dPlan(_Pool2dPlan):
    """Max pooling behind :func:`max_pool2d`, forward and backward.

    Computes the window maximum as a pairwise :func:`numpy.maximum` over
    the ``kh * kw`` strided offset slices — far cheaper than materialising
    the window copy an argmax needs.  The maximum of a window is
    order-independent, so values match an argmax gather exactly (NaNs
    propagate identically; only the sign bit of a ±0.0 tie may differ,
    which value comparisons ignore).

    The backward routes each output gradient to the first window offset
    holding the maximum (PyTorch's argmax convention).  :meth:`route`
    returns that routing in the form :meth:`backward` consumes:

    * non-overlapping windows (stride >= kernel) — a per-output *code*,
      the first offset ``k`` whose element equals the output, as the
      smallest unsigned dtype that also holds the sentinel ``kh * kw``
      (no offset claims a NaN window, as no element compares equal to
      it): ``uint8`` up to 255 offsets;
    * overlapping windows — the input itself, for an argmax and a float64
      bincount in the backward.
    """

    _op = "max_pool2d"

    def __init__(
        self,
        shape: tuple[int, ...],
        kernel_size: int | tuple[int, int],
        stride: int | tuple[int, int] | None,
    ) -> None:
        super().__init__(shape, kernel_size, stride)
        self._slices = [
            (
                slice(i, i + self.oh * self.sh, self.sh),
                slice(j, j + self.ow * self.sw, self.sw),
            )
            for i in range(self.kh)
            for j in range(self.kw)
        ]
        # Every input pixel lies in at most one window.
        self._disjoint = self.sh >= self.kh and self.sw >= self.kw
        self._code_dtype = np.min_scalar_type(len(self._slices))
        # Every silent step's route: code 0 broadcast to every window.
        self._silent_code = np.broadcast_to(
            np.zeros((), self._code_dtype), (*self.shape[:2], self.oh, self.ow)
        )

    def __call__(self, x: np.ndarray) -> np.ndarray:
        first, *rest = self._slices
        if not rest:
            return x[:, :, first[0], first[1]].copy()
        out = np.maximum(x[:, :, first[0], first[1]], x[:, :, rest[0][0], rest[0][1]])
        for rows, cols in rest[1:]:
            np.maximum(out, x[:, :, rows, cols], out=out)
        return out

    def route(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The routing :meth:`backward` needs, from the input and the output.

        For non-overlapping windows, the first-claim code: the number of
        leading offsets whose element differs from the maximum, counted
        in one pass per offset.
        """
        if not self._disjoint:
            return x
        (rows, cols), *rest = self._slices
        unclaimed = x[:, :, rows, cols] != out
        code = unclaimed.astype(self._code_dtype)
        for rows, cols in rest:
            unclaimed &= x[:, :, rows, cols] != out
            code += unclaimed
        return code

    def silent(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`__call__` and :meth:`route` of an all-zero ``x``: all ties, so
        every window routes to offset 0 (a ``-0.0`` in ``x`` is pooled as
        usual: which zero a tie keeps is numpy's choice).  For non-overlapping
        windows the route is the plan's *silent code*, a read-only code 0
        broadcast to every window, which :meth:`backward` sends down
        :meth:`_silent_backward`."""
        shape = (*self.shape[:2], self.oh, self.ow)
        out = self(x) if np.signbit(x).any() else np.zeros(shape, x.dtype)
        return out, self._silent_code if self._disjoint else x

    def backward(
        self, g: np.ndarray, route: np.ndarray, dtype: np.dtype
    ) -> np.ndarray:
        """Gradient w.r.t. the input (of ``dtype``), routed by :meth:`route`.

        Non-overlapping windows give each input pixel at most one
        contribution, the output gradient masked by its offset's claim
        (``g * (code == k)``); values are those of the argmax route (a
        pixel's single contribution survives the float64 bincount
        round-trip bit for bit).  Overlapping windows route by argmax and
        sum with a float64 bincount, cast once to ``dtype``.  As with the
        forward, NaN inputs are outside the parity contract.
        """
        n, c, h, w = self.shape
        if self._disjoint:
            if self.oh * self.sh == h and self.ow * self.sw == w and (
                self.sh == self.kh and self.sw == self.kw
            ):
                # Every input pixel belongs to exactly one window, so each
                # is written exactly once below — no zero-fill needed.
                grad_x = np.empty(self.shape, dtype=dtype)
            else:
                grad_x = np.zeros(self.shape, dtype=dtype)
            if route is self._silent_code:
                return self._silent_backward(g, grad_x)
            for k, (rows, cols) in enumerate(self._slices):
                np.multiply(g, route == k, out=grad_x[:, :, rows, cols])
            return grad_x
        windows = self._windows(route)
        arg = windows.reshape(n, c, self.oh, self.ow, self.kh * self.kw).argmax(axis=-1)
        ki, kj = np.divmod(arg, self.kw)
        rows = np.arange(self.oh).reshape(1, 1, self.oh, 1) * self.sh + ki
        cols = np.arange(self.ow).reshape(1, 1, 1, self.ow) * self.sw + kj
        plane = (
            np.arange(n).reshape(n, 1, 1, 1) * c + np.arange(c).reshape(1, c, 1, 1)
        ) * (h * w)
        flat = plane + rows * w + cols
        grad_x = np.bincount(flat.ravel(), weights=g.ravel(), minlength=n * c * h * w)
        return grad_x.reshape(n, c, h, w).astype(dtype, copy=False)

    def _silent_backward(self, g: np.ndarray, grad_x: np.ndarray) -> np.ndarray:
        """:meth:`backward` of the silent code, no compares: offset 0 takes
        ``g``, the others ``g * 0`` (the full route's ``g * False``, keeping
        its ``-0.0`` and NaNs)."""
        (rows, cols), *rest = self._slices
        grad_x[:, :, rows, cols] = g
        for rows, cols in rest:
            np.multiply(g, 0, out=grad_x[:, :, rows, cols])
        return grad_x


class AvgPool2dPlan(_Pool2dPlan):
    """Average pooling behind :func:`avg_pool2d`, forward and backward."""

    _op = "avg_pool2d"

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self._windows(x).mean(axis=(-2, -1))

    def backward(self, g: np.ndarray, dtype: np.dtype) -> np.ndarray:
        """Gradient w.r.t. the input (a uniform spread over each window)."""
        grad_x = np.zeros(self.shape, dtype=dtype)
        contribution = g * (1.0 / (self.kh * self.kw))
        for i in range(self.kh):
            for j in range(self.kw):
                grad_x[
                    :, :, i : i + self.oh * self.sh : self.sh,
                    j : j + self.ow * self.sw : self.sw,
                ] += contribution
        return grad_x
