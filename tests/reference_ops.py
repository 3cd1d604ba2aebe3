"""Independent parity oracles: the Tensor conv/pool ops and the unrolled SNN.

``repro.tensor.functional.conv2d``, ``max_pool2d`` and ``avg_pool2d`` run
on the compiled plans (``Conv2dPlan``, ``MaxPool2dPlan``,
``AvgPool2dPlan``), so comparing a plan with them compares the plan with
itself.  This module keeps the ops' earlier window-materialising
arithmetic — ``sliding_window_view`` im2col with one 6-D transpose copy,
argmax/``take_along_axis`` max pooling with a ``bincount`` backward —
forward and backward closures alike, as the reference the parity tests
hold every plan entry point and every Tensor op to, bit for bit.

:func:`unrolled_forward` does the same for whole spiking networks.  A
:class:`~repro.snn.network.SpikingNetwork` runs only on the numpy twins of
its cells, encoder and transforms; this module keeps the autograd
transcription of those dynamics — the Tensor steps of the LIF and LI
populations (with :func:`spike_function`, the Heaviside forward /
surrogate backward), of both encoders, of a spiking layer and of the
readout — and the unrolled time loop over them, whose graph the autograd
engine differentiates.  :func:`unroll` and :func:`unrolled_graph` route a
network's gradients through that loop, so Trainer runs and attacks can
serve as reference legs too.

Nothing under ``src/`` imports this module; the benchmark scripts import
it for the loop side of their fused-vs-loop ratios.
"""

from __future__ import annotations

import contextlib
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import ShapeError
from repro.snn import backward as bptt
from repro.snn.encoding import ConstantCurrentLIFEncoder, PoissonEncoder
from repro.snn.network import NetworkLanes
from repro.snn.surrogate import surrogate_derivative
from repro.tensor.tensor import Tensor, apply_op, is_grad_enabled, no_grad


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


# -- the unrolled spiking network ----------------------------------------------


def spike_function(
    v_minus_th: Tensor,
    method: str = "superspike",
    alpha: float = 100.0,
) -> Tensor:
    """Heaviside forward / surrogate backward spike non-linearity.

    Returns the binary spike tensor ``(v_minus_th > 0)`` whose backward
    pass multiplies incoming gradients by the surrogate ``h(v - v_th)``
    of family ``method`` with sharpness ``alpha``.
    """
    x = v_minus_th.data
    spikes = (x > 0).astype(x.dtype)
    derivative = surrogate_derivative(x, method=method, alpha=alpha)

    def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
        return (g * derivative,)

    return apply_op(spikes, (v_minus_th,), backward, f"spike[{method}]")


@dataclass
class LIFState:
    """Recurrent state of a LIF population (synaptic current, membrane)."""

    i: Tensor
    v: Tensor


@dataclass
class LIState:
    """Recurrent state of the readout integrator."""

    i: Tensor
    v: Tensor


def _zero_state(state_cls, reference: Tensor):
    return state_cls(
        i=Tensor(np.zeros_like(reference.data)), v=Tensor(np.zeros_like(reference.data))
    )


def lif_step(cell, input_current: Tensor, state: LIFState | None = None):
    """One autograd step of a ``LIFCell``; returns ``(spikes, new_state)``."""
    p = cell.params
    if state is None:
        state = _zero_state(LIFState, input_current)
    dv = (p.dt * p.tau_mem_inv) * ((p.v_leak - state.v) + state.i)
    v_decayed = state.v + dv
    i_decayed = state.i * p.synaptic_decay
    spikes = spike_function(
        v_decayed - p.v_th, method=p.surrogate, alpha=p.surrogate_alpha
    )
    if p.reset_mode == "hard":
        v_new = v_decayed * (1.0 - spikes) + p.v_reset * spikes
    else:
        v_new = v_decayed - spikes * (p.v_th - p.v_reset)
    i_new = i_decayed + input_current
    return spikes, LIFState(i=i_new, v=v_new)


def li_step(cell, input_current: Tensor, state: LIState | None = None):
    """One autograd step of a ``LICell``; returns ``(membrane, new_state)``."""
    p = cell.params
    if state is None:
        state = _zero_state(LIState, input_current)
    dv = (p.dt * p.tau_mem_inv) * ((p.v_leak - state.v) + state.i)
    v_new = state.v + dv
    i_new = state.i * p.synaptic_decay + input_current
    return v_new, LIState(i=i_new, v=v_new)


def encoder_step(encoder, image: Tensor, state=None):
    """One autograd step of an encoder; returns ``(spikes, new_state)``.

    A Poisson encoder draws from its own generator exactly as its numpy
    twins do (one ``random`` frame per step).
    """
    if isinstance(encoder, ConstantCurrentLIFEncoder):
        return lif_step(encoder.cell, image * encoder.input_scale, state)
    if isinstance(encoder, PoissonEncoder):
        probability = np.clip(encoder.scale * image.data, 0.0, 1.0)
        sample = (encoder._rng.random(image.shape) < probability).astype(image.dtype)
        # Straight-through: forward is the random sample, backward is the
        # derivative of the expectation (scale inside the clip's active region).
        scaled = encoder.scale * image.data
        derivative = encoder.scale * ((scaled > 0.0) & (scaled < 1.0)).astype(image.dtype)

        def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
            return (g * derivative,)

        return apply_op(sample, (image,), backward, "poisson_encode"), None
    raise TypeError(f"no reference step for {type(encoder).__name__}")


def encode(encoder, image: Tensor, time_steps: int) -> list[Tensor]:
    """Unroll :func:`encoder_step` for ``time_steps`` and collect the frames."""
    state = None
    frames: list[Tensor] = []
    for _ in range(time_steps):
        spikes, state = encoder_step(encoder, image, state)
        frames.append(spikes)
    return frames


def unrolled_forward(network, image: Tensor) -> Tensor:
    """The unrolled autograd loop of a ``SpikingNetwork``: decoded logits.

    Under ``no_grad()`` it builds no graph, just runs slower than the
    fused loop.
    """
    image = image if isinstance(image, Tensor) else Tensor(image)
    encoder_state = None
    layer_states: list = [None] * len(network.layers)
    readout_state = None
    trace: list[Tensor] = []
    for _ in range(network.time_steps):
        spikes, encoder_state = encoder_step(network.encoder, image, encoder_state)
        for index, layer in enumerate(network.layers):
            spikes, layer_states[index] = lif_step(
                layer.cell, layer.transform(spikes), layer_states[index]
            )
        membrane, readout_state = li_step(
            network.readout.cell, network.readout.transform(spikes), readout_state
        )
        trace.append(membrane)
    return network.decoder(trace)


def unrolled_spike_counts(network, image: Tensor) -> list[float]:
    """Per-population spike totals of one unrolled pass (encoder first)."""
    image = image if isinstance(image, Tensor) else Tensor(image)
    encoder_state = None
    layer_states: list = [None] * len(network.layers)
    totals = [0.0] * (1 + len(network.layers))
    with no_grad():
        for _ in range(network.time_steps):
            spikes, encoder_state = encoder_step(network.encoder, image, encoder_state)
            totals[0] += float(spikes.data.sum())
            for index, layer in enumerate(network.layers):
                spikes, layer_states[index] = lif_step(
                    layer.cell, layer.transform(spikes), layer_states[index]
                )
                totals[index + 1] += float(spikes.data.sum())
    return totals


def unroll(network):
    """Differentiate ``network`` through :func:`unrolled_forward`; returns it.

    A grad-mode call runs the unrolled loop, and
    :func:`repro.attacks.base.input_gradient` differentiates that graph
    instead of calling ``fused_input_gradient``, so Trainer runs and
    attack crafting take the reference gradients.  No-grad calls keep the
    fused inference, whose logits the parity suites check against
    :func:`unrolled_forward` directly.
    """
    fused_forward = network.forward

    def forward(image):
        if is_grad_enabled():
            return unrolled_forward(network, image)
        return fused_forward(image)

    network.forward = forward
    network.fused_input_gradient = None
    return network


@contextlib.contextmanager
def unrolled_graph(*networks) -> Iterator[None]:
    """:func:`unroll` ``networks`` for the ``with`` block, then restore them."""
    for network in networks:
        unroll(network)
    try:
        yield
    finally:
        for network in networks:
            del network.forward, network.fused_input_gradient


class _TensorTransformStage:
    """A synaptic transform applied through its Tensor ``forward``."""

    def __init__(self, transform) -> None:
        self.transform = transform

    def forward(self, x: np.ndarray, alive) -> np.ndarray:
        return self.transform(Tensor(x)).data


def unplanned_logits(network, image: np.ndarray) -> np.ndarray:
    """No-grad fused loop with per-step Tensor transforms; logits ``(N, C)``.

    The cells run their numpy twins, but every synaptic transform wraps
    its input in a Tensor and runs its Tensor op, which builds a one-shot
    conv or pooling plan per call — the loop before module-cached synapse
    plans, kept as the baseline of the plan-cache speedup.
    """
    lanes = NetworkLanes(network)
    lanes.layer_ops = [_TensorTransformStage(layer.transform) for layer in network.layers]
    lanes.readout_op = _TensorTransformStage(network.readout.transform)
    with no_grad():
        (logits,) = bptt.decode_logits(lanes, bptt.run_trace(lanes, image))
    return logits
