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
from functools import cached_property

import numpy as np

from repro.nn.container import ModuleList, Sequential
from repro.nn.module import Module
from repro.snn import backward as bptt
from repro.snn.decoding import MaxMembraneDecoder
from repro.snn.encoding import ConstantCurrentLIFEncoder
from repro.snn.neuron import LICell, LIFCell
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor, apply_op, is_grad_enabled
from repro.utils.dispatch import has_trusted_twin

__all__ = ["NetworkLanes", "SpikingLayer", "SpikingNetwork", "SpikingReadout"]


def _has_numpy_twin(obj: object, primary: str, twin: str) -> bool:
    """Whether ``obj`` can be trusted on the fused path for ``primary``.

    A subclass overriding ``primary`` (e.g. custom ``step`` dynamics)
    without a matching ``twin`` override must fall back to the Tensor path
    instead of silently inheriting a mismatched numpy implementation; see
    :func:`repro.utils.dispatch.has_trusted_twin` for the MRO rule.
    """
    return has_trusted_twin(obj, primary, twin)


def _transform_fused_ready(transform: Module) -> bool:
    """Whether a synaptic transform is trusted on the compiled-plan path.

    Applies the ``_has_numpy_twin`` contract to ``forward``/
    ``forward_numpy``, recursing into :class:`~repro.nn.container.
    Sequential` members — a pipeline is only as trustworthy as its least
    trustworthy stage.
    """
    if not _has_numpy_twin(transform, "forward", "forward_numpy"):
        return False
    if isinstance(transform, Sequential):
        return all(_transform_fused_ready(member) for member in transform)
    return True


class _EncoderStage:
    """A network's own encoder as the encoder stage of its one-lane set.

    No-grad steps run the trusted ``step_numpy`` twin, or else the Tensor
    ``step`` (graph-free under ``no_grad()``, just slower).  The BPTT
    twins are called directly: :meth:`SpikingNetwork.backward_ready` has
    already vetted them.
    """

    def __init__(self, encoder: Module) -> None:
        self.encoder = encoder
        self.fused = _has_numpy_twin(encoder, "step", "step_numpy")

    def step_numpy(self, image, state, alive):
        if self.fused:
            return self.encoder.step_numpy(image, state)
        spikes, state = self.encoder.step(Tensor(image), state)
        return spikes.data, state

    def step_record_numpy(self, image, state, alive):
        return self.encoder.step_record_numpy(image, state)

    def step_backward_numpy(self, g_spikes, g_state, ctx):
        return self.encoder.step_backward_numpy(g_spikes, g_state, ctx)


class _TransformStage:
    """A network's own synaptic transform as a stage of its one-lane set.

    Trusted transforms run their compiled-plan twins (``forward_numpy``
    for inference, ``forward_record_numpy``/``backward_numpy`` for BPTT).
    Anything else falls back per time step to the Tensor API: inference
    applies the transform to a Tensor (no graph under ``no_grad()``), and
    BPTT builds a one-transform graph on a fresh leaf and backpropagates
    it locally — exactly the closure the full autograd path would have
    recorded for that step, so input gradients match bitwise.  The
    fallback harvests parameter gradients out of the local graph into the
    caller's sink (and restores ``param.grad``), so the fused backward
    accumulates them in its controlled order and attack crafting stays
    free of parameter side effects.
    """

    def __init__(self, transform: Module, use_plans: bool) -> None:
        self.transform = transform
        self.use_plans = use_plans

    # Resolved on first use, once per pass: an inference pass never pays
    # for the BPTT trust checks, nor a BPTT pass for the inference ones.
    @cached_property
    def fused(self) -> bool:
        return self.use_plans and _transform_fused_ready(self.transform)

    @cached_property
    def bptt_twins(self) -> bool:
        return self.use_plans and bptt.transform_bptt_ready(self.transform)

    def forward(self, x: np.ndarray, alive) -> np.ndarray:
        if self.fused:
            return self.transform.forward_numpy(x)
        return self.transform(Tensor(x)).data

    def record(self, x: np.ndarray, alive):
        if self.bptt_twins:
            return self.transform.forward_record_numpy(x)
        leaf = Tensor(x, requires_grad=True)
        out = self.transform(leaf)
        return out.data, (leaf, out)

    def backward(
        self, g: np.ndarray, ctx, sinks, alive, *, want_input_grad: bool = True
    ) -> np.ndarray | None:
        sink = None if sinks is None else sinks[0]
        if self.bptt_twins:
            return self.transform.backward_numpy(
                g, ctx, sink, want_input_grad=want_input_grad
            )
        leaf, out = ctx
        parameters = list(self.transform.parameters())
        saved = [(parameter, parameter.grad) for parameter in parameters]
        for parameter in parameters:
            parameter.grad = None
        try:
            out.backward(g)
            if sink is not None:
                for parameter in parameters:
                    if parameter.grad is not None:
                        sink.append((parameter, parameter.grad))
        finally:
            for parameter, grad in saved:
                parameter.grad = grad
        grad = leaf.grad
        return grad if grad is not None else np.zeros_like(leaf.data)


class NetworkLanes:
    """One network as the one-lane set the loops of :mod:`repro.snn.backward` run.

    Built from the network's own modules per pass: the cells are the
    network's cells, and the encoder and transforms are wrapped in stages
    that keep each module's trusted-twin gate and Tensor fallback.
    """

    k = 1

    def __init__(self, network: SpikingNetwork) -> None:
        plans = network.use_synapse_plans
        self.members = [network]
        self.time_steps = (network.time_steps,)
        self.max_steps = network.time_steps
        self.encoder = _EncoderStage(network.encoder)
        self.layer_ops = [
            _TransformStage(layer.transform, plans) for layer in network.layers
        ]
        self.layer_cells = [layer.cell for layer in network.layers]
        self.readout_op = _TransformStage(network.readout.transform, plans)
        self.readout_cell = network.readout.cell


class SpikingLayer(Module):
    """One stage of a spiking network: synaptic transform + LIF population.

    ``transform`` is any differentiable module mapping spike tensors to
    synaptic currents (``Conv2d``, ``Linear``, pooling, ``Flatten``, or a
    ``Sequential`` of those).
    """

    def __init__(self, transform: Module, cell: LIFCell) -> None:
        super().__init__()
        self.transform = transform
        self.cell = cell

    def step(self, spikes: Tensor, state):
        """Advance one time step; returns ``(out_spikes, new_state)``."""
        current = self.transform(spikes)
        return self.cell.step(current, state)

    def forward(self, spikes: Tensor, state=None):
        return self.step(spikes, state)


class SpikingReadout(Module):
    """Readout stage: affine transform into a non-spiking leaky integrator."""

    def __init__(self, transform: Module, cell: LICell) -> None:
        super().__init__()
        self.transform = transform
        self.cell = cell

    def step(self, spikes: Tensor, state):
        """Advance one time step; returns ``(membrane, new_state)``."""
        current = self.transform(spikes)
        return self.cell.step(current, state)

    def forward(self, spikes: Tensor, state=None):
        return self.step(spikes, state)


class SpikingNetwork(Module):
    """Feed-forward SNN classifier unrolled over ``time_steps``.

    Parameters
    ----------
    encoder:
        Module with a ``step(image, state) -> (spikes, state)`` method
        (e.g. :class:`~repro.snn.encoding.ConstantCurrentLIFEncoder`).
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
        self.use_synapse_plans = True
        """Route trusted synaptic transforms through their module-cached
        numpy plans on the fused path.  Disabled, each layer runs its
        Tensor transform per step; the conv and pooling Tensor ops build a
        one-shot plan per call, so this measures plan caching plus Tensor
        wrapping.  Results are bitwise identical either way."""
        self.fused_forward_count = 0
        """Number of forwards served by :meth:`_forward_inference` — the
        observability hook the fused-path smoke guards assert on."""
        self.use_fused_backward = True
        """Run every gradient through the graph-free BPTT path when
        :meth:`backward_ready` holds: grad-mode :meth:`forward` (training)
        and :func:`repro.attacks.base.input_gradient` (attack crafting).
        Disabled, both differentiate the unrolled autograd graph — the
        fallback, and the independent oracle of the parity tests.
        Gradients, and thus trained weights, are identical either way."""
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

        The simulation takes one of three paths, all bitwise identical in
        logits and gradients:

        * no grad (``with no_grad():``) — :meth:`_forward_inference`, a
          fused time loop on raw numpy arrays, when :meth:`_fused_ready`;
        * grad mode — :meth:`_forward_bptt`, the recorded fused forward
          whose backward is the graph-free BPTT sweep, when
          ``use_fused_backward`` and :meth:`backward_ready` hold;
        * otherwise the unrolled autograd loop over the Tensor ``step``
          methods (graph-free under ``no_grad()``, just slower).
        """
        image = self._as_tensor(image)
        if not is_grad_enabled():
            if self._fused_ready():
                return self._forward_inference(image.data)
        elif self.use_fused_backward and self.backward_ready():
            return self.decoder(self._forward_bptt(image))
        encoder_state = None
        layer_states: list = [None] * len(self.layers)
        readout_state = None
        trace: list[Tensor] = []
        for _ in range(self.time_steps):
            spikes, encoder_state = self.encoder.step(image, encoder_state)
            for index, layer in enumerate(self.layers):
                spikes, layer_states[index] = layer.step(spikes, layer_states[index])
            membrane, readout_state = self.readout.step(spikes, readout_state)
            trace.append(membrane)
        return self.decoder(trace)

    def _fused_ready(self) -> bool:
        """Whether the whole stack honours the fused-inference contract.

        Stages that customise the Tensor-path dynamics (overridden
        ``SpikingLayer``/``SpikingReadout.step``, or cells overriding
        ``step`` without a matching ``step_numpy``) disqualify the fused
        path — the network then runs the ordinary loop, which is still
        graph-free under ``no_grad()``, just slower.
        """
        if any(type(layer).step is not SpikingLayer.step for layer in self.layers):
            return False
        if type(self.readout).step is not SpikingReadout.step:
            return False
        if not all(
            _has_numpy_twin(layer.cell, "step", "step_numpy") for layer in self.layers
        ):
            return False
        # Encoders delegating to an inner cell (ConstantCurrentLIFEncoder)
        # are only as trustworthy as that cell.
        encoder_cell = getattr(self.encoder, "cell", None)
        if encoder_cell is not None and not _has_numpy_twin(
            encoder_cell, "step", "step_numpy"
        ):
            return False
        return _has_numpy_twin(self.readout.cell, "step", "step_numpy")

    def synapse_plan_coverage(self) -> tuple[int, int]:
        """``(transforms on the plan path, total transforms)`` incl. readout.

        Used by the fused-path smoke guards: the standard registry models
        must report full coverage, or a refactor silently pushed the hot
        loop back onto the per-step Tensor path.  Read off the stages the
        fused loop itself runs, so it can never diverge from them.
        """
        lanes = NetworkLanes(self)
        stages = [*lanes.layer_ops, lanes.readout_op]
        return sum(1 for stage in stages if stage.fused), len(stages)

    def _forward_inference(self, image: np.ndarray) -> Tensor:
        """Fused no-grad forward: the shared time loop on the one-lane set.

        LIF/LI state updates and the trace decode run directly on arrays
        (:func:`repro.snn.backward.run_trace`).  Synaptic transforms
        resolve to their compiled numpy plans once per forward — not once
        per time step — with a per-transform fallback to the Tensor API
        for stages without a trustworthy twin.  Encoders or decoders
        without a twin fall back the same way.
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

    def backward_ready(self) -> bool:
        """Whether the stack honours the fused-BPTT contract.

        Mirrors :meth:`_fused_ready`, but for the record/backward twins:
        every neuron cell (encoder population included) must define
        ``step_record_numpy``/``step_backward_numpy`` at or below the
        class defining its ``step`` — recurrent state couples time steps,
        so an untrusted cell disqualifies the whole fused backward.
        Synaptic transforms are *not* gated here: untrusted ones fall back
        to per-step Tensor mini-graphs inside the BPTT loop.  The decoder
        and loss always run as a real (tiny) autograd head, so any
        decoder is compatible.
        """
        if any(type(layer).step is not SpikingLayer.step for layer in self.layers):
            return False
        if type(self.readout).step is not SpikingReadout.step:
            return False
        for layer in self.layers:
            if not (
                _has_numpy_twin(layer.cell, "step", "step_record_numpy")
                and _has_numpy_twin(layer.cell, "step", "step_backward_numpy")
            ):
                return False
        if not _has_numpy_twin(self.readout.cell, "step", "step_numpy"):
            return False
        if not _has_numpy_twin(self.readout.cell, "step", "step_backward_numpy"):
            return False
        # Encoders delegating to an inner cell (ConstantCurrentLIFEncoder)
        # are only as trustworthy as that cell.
        encoder_cell = getattr(self.encoder, "cell", None)
        if encoder_cell is not None and not (
            _has_numpy_twin(encoder_cell, "step", "step_record_numpy")
            and _has_numpy_twin(encoder_cell, "step", "step_backward_numpy")
        ):
            return False
        return _has_numpy_twin(self.encoder, "step", "step_record_numpy") and (
            _has_numpy_twin(self.encoder, "step", "step_backward_numpy")
        )

    def fused_input_gradient(self, images: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Gradient of the cross-entropy loss w.r.t. the input pixels,
        computed by the graph-free BPTT path.

        Bitwise identical to differentiating :meth:`forward` through the
        autograd engine (the contract tests/test_fused_backward.py
        enforces), but the unrolled time loop never allocates a Tensor:
        the recording forward reuses the compiled synapse plans and the
        reverse sweep replays their backward twins.  Parameter gradients
        are *not* accumulated (attack crafting discards them), which
        additionally skips every weight-gradient GEMM.

        Callers should check :meth:`backward_ready` first;
        :func:`repro.attacks.base.input_gradient` does and falls back to
        the autograd path otherwise.
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

    def spike_counts(self, image: Tensor) -> list[Tensor]:
        """Diagnostic: per-layer total spike counts for one forward pass.

        Returns one scalar tensor per spiking layer (encoder first).  Used
        by the activity analyses and tests; does not build gradients.
        """
        from repro.tensor.tensor import no_grad

        counts: list[Tensor] = []
        with no_grad():
            image = self._as_tensor(image)
            encoder_state = None
            layer_states: list = [None] * len(self.layers)
            totals = [0.0] * (1 + len(self.layers))
            for _ in range(self.time_steps):
                spikes, encoder_state = self.encoder.step(image, encoder_state)
                totals[0] += float(spikes.data.sum())
                for index, layer in enumerate(self.layers):
                    spikes, layer_states[index] = layer.step(spikes, layer_states[index])
                    totals[index + 1] += float(spikes.data.sum())
            counts = [Tensor(total) for total in totals]
        return counts

    def __repr__(self) -> str:
        return (
            f"SpikingNetwork(T={self.time_steps}, v_th={self.v_th}, "
            f"layers={len(self.layers)})"
        )
