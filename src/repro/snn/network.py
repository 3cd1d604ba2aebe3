"""Time-unrolled spiking classifier.

:class:`SpikingNetwork` is the spiking counterpart of a feed-forward CNN:
an encoder turns the static image into a spike train, a stack of
:class:`SpikingLayer` stages (synaptic transform + LIF population)
propagates spikes, and a :class:`SpikingReadout` (affine transform + leaky
integrator) produces a membrane trace that a decoder reduces to logits.

The class exposes the paper's two structural parameters directly:

* ``network.time_steps`` — the time window ``T``;
* ``network.set_v_th(vth)`` — the firing threshold of every LIF
  population (encoder included unless it was constructed with
  ``vary_encoder_threshold=False``).
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cache

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.container import ModuleList, Sequential
from repro.nn.module import Module
from repro.snn import backward as bptt
from repro.snn.decoding import MaxMembraneDecoder
from repro.snn.encoding import ConstantCurrentLIFEncoder
from repro.snn.neuron import LICell, LIFCell
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor, apply_op, is_grad_enabled

__all__ = ["NetworkLanes", "SpikingLayer", "SpikingNetwork", "SpikingReadout"]

_SPIKING_TWINS = ("step_numpy", "step_record_numpy", "step_backward_numpy")
"""The interface of a LIF population and of an encoder."""

_READOUT_TWINS = ("step_numpy", "step_backward_numpy")
"""The interface of the readout integrator (linear, so it records nothing)."""

_TRANSFORM_TWINS = ("forward", "forward_numpy", "forward_record_numpy", "backward_numpy")
"""A synaptic transform's Tensor ``forward`` and the numpy twins that run it."""

_DECODER_TWINS = ("forward", "decode_numpy")
"""A decoder's Tensor ``forward`` (grad mode) and its no-grad numpy twin."""


@cache
def _twin_owner(cls: type, twins: tuple[str, ...]) -> type | None:
    """The class of ``cls``'s MRO that defines every name of ``twins``.

    ``None`` when a name is missing, or when the names resolve to
    different classes — a subclass that overrides one twin but not its
    partners would otherwise pair its own dynamics with inherited ones.
    Cached per class, because every pass checks every module: uncached,
    the check costs a few times the rest of building the lane set.
    """
    owners = {next((c for c in cls.__mro__ if name in vars(c)), None) for name in twins}
    return owners.pop() if len(owners) == 1 else None


def _require_twins(module: object, twins: tuple[str, ...], name: str) -> None:
    if _twin_owner(type(module), twins) is None:
        raise ConfigurationError(
            f"{name} ({type(module).__name__}) must define "
            f"{', '.join(twins)} in one class: a spiking network runs its "
            "modules only through these twins"
        )


def _require_transform(transform: Module, name: str) -> None:
    _require_twins(transform, _TRANSFORM_TWINS, name)
    if isinstance(transform, Sequential):
        for index, member in enumerate(transform):
            _require_transform(member, f"{name}.{index}")


class _EncoderStage:
    """A network's own encoder as the encoder stage of its one-lane set."""

    def __init__(self, encoder: Module) -> None:
        self.encoder = encoder

    def step_numpy(self, image, state, alive):
        return self.encoder.step_numpy(image, state)

    def step_record_numpy(self, image, state, alive):
        return self.encoder.step_record_numpy(image, state)

    def step_backward_numpy(self, g_spikes, g_state, ctx):
        return self.encoder.step_backward_numpy(g_spikes, g_state, ctx)


class _TransformStage:
    """A synaptic transform as a lane-set stage, run on its numpy twins.

    ``forward_numpy`` for inference, ``forward_record_numpy``/
    ``backward_numpy`` for BPTT.  A one-lane set hands the transform its
    one parameter sink; a stack uses this stage only for parameterless
    lane-local transforms (pooling, flatten), which serve the whole fold.
    """

    def __init__(self, transform: Module) -> None:
        self.transform = transform

    def forward(self, x: np.ndarray, alive) -> np.ndarray:
        return self.transform.forward_numpy(x)

    def record(self, x: np.ndarray, alive):
        return self.transform.forward_record_numpy(x)

    def backward(
        self, g: np.ndarray, ctx, sinks, alive, *, want_input_grad: bool = True
    ) -> np.ndarray | None:
        sink = None if sinks is None else sinks[0]
        return self.transform.backward_numpy(
            g, ctx, sink, want_input_grad=want_input_grad
        )


class NetworkLanes:
    """One network as the one-lane set the loops of :mod:`repro.snn.backward` run.

    Built from the network's own modules per pass, so a module swapped in
    after construction (an ablation's encoder) is run — and checked — like
    the original.  Every cell, encoder, synaptic transform and the
    decoder must carry its numpy twins, all defined by one class;
    anything else raises :class:`~repro.errors.ConfigurationError`
    naming the module, since there is no other way to run it.
    """

    k = 1

    def __init__(self, network: SpikingNetwork) -> None:
        encoder = network.encoder
        _require_twins(encoder, _SPIKING_TWINS, "encoder")
        # An encoder delegating to an inner population is only as sound
        # as that population.
        if isinstance(getattr(encoder, "cell", None), Module):
            _require_twins(encoder.cell, _SPIKING_TWINS, "encoder.cell")
        for index, layer in enumerate(network.layers):
            _require_transform(layer.transform, f"layers.{index}.transform")
            _require_twins(layer.cell, _SPIKING_TWINS, f"layers.{index}.cell")
        _require_transform(network.readout.transform, "readout.transform")
        _require_twins(network.readout.cell, _READOUT_TWINS, "readout.cell")
        _require_twins(network.decoder, _DECODER_TWINS, "decoder")
        self.members = [network]
        self.time_steps = (network.time_steps,)
        self.max_steps = network.time_steps
        self.encoder = _EncoderStage(encoder)
        self.layer_ops = [_TransformStage(layer.transform) for layer in network.layers]
        self.layer_cells = [layer.cell for layer in network.layers]
        self.readout_op = _TransformStage(network.readout.transform)
        self.readout_cell = network.readout.cell


class SpikingLayer(Module):
    """One stage of a spiking network: synaptic transform + LIF population.

    ``transform`` maps spikes to synaptic currents (``Conv2d``,
    ``Linear``, pooling, ``Flatten``, or a ``Sequential`` of those).  The
    layer only holds the pair; the time loops run their numpy twins.
    """

    def __init__(self, transform: Module, cell: LIFCell) -> None:
        super().__init__()
        self.transform = transform
        self.cell = cell


class SpikingReadout(Module):
    """Readout stage: affine transform into a non-spiking leaky integrator."""

    def __init__(self, transform: Module, cell: LICell) -> None:
        super().__init__()
        self.transform = transform
        self.cell = cell


class SpikingNetwork(Module):
    """Feed-forward SNN classifier unrolled over ``time_steps``.

    Parameters
    ----------
    encoder:
        Module with the ``step_numpy``/``step_record_numpy``/
        ``step_backward_numpy`` twins (e.g.
        :class:`~repro.snn.encoding.ConstantCurrentLIFEncoder`).
    layers:
        Sequence of :class:`SpikingLayer`.
    readout:
        Final :class:`SpikingReadout`.
    time_steps:
        The paper's time-window parameter ``T``.
    decoder:
        Trace decoder; defaults to max-over-time membrane.
    vary_encoder_threshold:
        Whether :meth:`set_v_th` also retunes the encoder population
        (default ``True`` — the white-box attacker knows all thresholds,
        and the paper varies the *inherent* structural parameters of the
        whole network).
    """

    def __init__(
        self,
        encoder: Module,
        layers: Sequence[SpikingLayer],
        readout: SpikingReadout,
        time_steps: int = 32,
        decoder: Module | None = None,
        vary_encoder_threshold: bool = True,
    ) -> None:
        super().__init__()
        if time_steps < 1:
            raise ValueError(f"time_steps must be >= 1, got {time_steps}")
        self.encoder = encoder
        self.layers = ModuleList(list(layers))
        self.readout = readout
        self.time_steps = int(time_steps)
        self.decoder = decoder or MaxMembraneDecoder()
        self.vary_encoder_threshold = vary_encoder_threshold
        NetworkLanes(self)  # reject modules without their twins up front
        self.fused_forward_count = 0
        """Number of forwards served by :meth:`_forward_inference` — the
        observability hook the fused-path smoke guards assert on."""
        self.fused_backward_count = 0
        """Number of backward passes served by the fused BPTT path — the
        observability hook of the gradient-path smoke guards."""

    # -- structural parameters ------------------------------------------------

    def set_time_steps(self, time_steps: int) -> "SpikingNetwork":
        """Set the time window ``T``; returns self."""
        if time_steps < 1:
            raise ValueError(f"time_steps must be >= 1, got {time_steps}")
        self.time_steps = int(time_steps)
        return self

    def set_v_th(self, v_th: float) -> "SpikingNetwork":
        """Set the firing threshold of every LIF population; returns self.

        Applies to hidden layers always, and to the encoder population when
        ``vary_encoder_threshold`` is set.  The readout integrator has no
        threshold.
        """
        for layer in self.layers:
            layer.cell.params = layer.cell.params.with_v_th(v_th)
        if self.vary_encoder_threshold and isinstance(self.encoder, ConstantCurrentLIFEncoder):
            self.encoder.cell.params = self.encoder.cell.params.with_v_th(v_th)
        return self

    @property
    def v_th(self) -> float:
        """Current firing threshold of the hidden LIF populations."""
        return self.layers[0].cell.params.v_th

    # -- simulation -----------------------------------------------------------

    def forward(self, image: Tensor) -> Tensor:
        """Simulate ``time_steps`` steps and decode logits ``(N, C)``.

        No grad (``with no_grad():``) runs :meth:`_forward_inference`, the
        fused time loop on raw arrays; grad mode runs :meth:`_forward_bptt`,
        the recorded loop whose backward is the graph-free BPTT sweep.
        Logits and gradients are bitwise those of the unrolled autograd
        loop that ``tests/reference_ops.py`` keeps as the oracle.
        """
        image = self._as_tensor(image)
        if not is_grad_enabled():
            return self._forward_inference(image.data)
        return self.decoder(self._forward_bptt(image))

    def _forward_inference(self, image: np.ndarray) -> Tensor:
        """Fused no-grad forward: the shared time loop on the one-lane set.

        LIF/LI state updates, the synaptic transforms' compiled numpy plans
        and the trace decode run directly on arrays
        (:func:`repro.snn.backward.run_trace`).
        """
        self.fused_forward_count += 1
        lanes = NetworkLanes(self)
        (logits,) = bptt.decode_logits(lanes, bptt.run_trace(lanes, image))
        return Tensor(logits)

    # -- fused backward (graph-free BPTT) -------------------------------------

    def _forward_bptt(self, image: Tensor) -> list[Tensor]:
        """Recorded fused forward; returns the readout trace as Tensors.

        The per-step membrane Tensors hang off a single autograd node, so
        the caller's decoder and loss stay a real autograd graph.  When
        ``backward()`` reaches the node it runs one
        :func:`repro.snn.backward.backward_pass` over the recorded tape:
        the step gradients the loss delivered (``None`` for steps it never
        reached, exactly as :func:`~repro.snn.backward.decode_heads`
        leaves them) seed the sweep, parameter gradients accumulate into
        ``param.grad`` and the input gradient flows on to ``image``.
        Frozen parameters (``requires_grad=False``) stay untouched, as on
        the unrolled graph.
        """
        lanes = NetworkLanes(self)
        tape = bptt.record_forward(lanes, image.data)
        params = [param for param in self.parameters() if param.requires_grad]
        g_trace: list[np.ndarray | None] = [None] * len(tape.trace)

        def backward(_g):
            t_head = max(
                (t for t, g in enumerate(g_trace) if g is not None), default=-1
            )
            gradient = bptt.backward_pass(
                lanes,
                tape,
                g_trace,
                [t_head],
                param_lanes=[bool(params)],
                want_input_grad=image.requires_grad,
            )
            self.fused_backward_count += 1
            return (gradient, *[None] * len(params))

        node = apply_op(np.zeros(()), (image, *params), backward, "snn.bptt")

        def step(t: int) -> Tensor:
            def collect(g):
                g_trace[t] = g
                return (np.zeros(()),)

            return apply_op(tape.trace[t], (node,), collect, "snn.bptt.step")

        return [step(t) for t in range(len(tape.trace))]

    def fused_input_gradient(self, images: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Gradient of the cross-entropy loss w.r.t. the input pixels,
        computed by the graph-free BPTT path.

        Bitwise identical to differentiating the unrolled autograd loop
        (the contract tests/test_fused_backward.py enforces), but the time
        loop never allocates a Tensor: the recording forward reuses the
        compiled synapse plans and the reverse sweep replays their
        backward twins.  Parameter gradients are *not* accumulated (attack
        crafting discards them), which additionally skips every
        weight-gradient GEMM.  :func:`repro.attacks.base.input_gradient`
        calls this for every model that has it.
        """
        images = np.asarray(images)
        lanes = NetworkLanes(self)
        tape = bptt.record_forward(lanes, images)
        _losses, _logits, g_trace, t_heads = bptt.decode_heads(lanes, tape, [labels])
        gradient = bptt.backward_pass(lanes, tape, g_trace, t_heads, param_lanes=None)
        self.fused_backward_count += 1
        return gradient if gradient is not None else np.zeros_like(images)

    def fused_loss_backward(
        self, images: np.ndarray, labels: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """One graph-free training backward: loss value, logits, param grads.

        A grad-mode :meth:`forward` on the fused path plus
        ``cross_entropy(...).backward()``: accumulates parameter gradients
        into ``param.grad`` (identically to ``loss.backward()`` on the
        unrolled graph) and returns ``(loss_value, logits)`` for
        bookkeeping.  The input-pixel gradient is skipped — optimizer
        updates never need it.
        """
        logits = self.decoder(self._forward_bptt(Tensor(np.asarray(images))))
        loss = F.cross_entropy(logits, labels)
        loss.backward()
        return float(loss.data), logits.data

    def __repr__(self) -> str:
        return (
            f"SpikingNetwork(T={self.time_steps}, v_th={self.v_th}, "
            f"layers={len(self.layers)})"
        )
