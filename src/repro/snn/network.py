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

import numpy as np

from repro.nn.container import ModuleList, Sequential
from repro.nn.module import Module
from repro.snn import backward as bptt
from repro.snn.decoding import MaxMembraneDecoder
from repro.snn.encoding import ConstantCurrentLIFEncoder
from repro.snn.neuron import LICell, LIFCell, LIFParameters
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor, is_grad_enabled
from repro.utils.dispatch import has_trusted_twin

__all__ = ["SpikingLayer", "SpikingNetwork", "SpikingReadout"]


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
        """Route :func:`repro.attacks.base.input_gradient` through the
        graph-free BPTT path when :meth:`backward_ready` holds (disable to
        benchmark the autograd baseline; gradients are identical)."""
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

        When gradients are globally disabled (``with no_grad():``) the
        simulation switches to :meth:`_forward_inference` — a fused time
        loop on raw numpy arrays that produces bitwise-identical logits
        without Tensor/graph overhead.
        """
        image = self._as_tensor(image)
        if not is_grad_enabled() and self._fused_ready():
            return self._forward_inference(image.data)
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

    def _synapse_op(self, transform: Module):
        """Resolve one transform's fused-path callable (once per forward).

        Trusted transforms run their compiled-plan ``forward_numpy`` twin;
        anything else falls back to the Tensor API per time step, which
        records no graph under ``no_grad()`` — identical results, slower.
        """
        if self._plan_eligible(transform):
            return transform.forward_numpy

        def tensor_fallback(array: np.ndarray) -> np.ndarray:
            return transform(Tensor(array)).data

        return tensor_fallback

    def _plan_eligible(self, transform: Module) -> bool:
        """The single dispatch predicate of the compiled-plan path.

        Shared by :meth:`_synapse_op` (actual dispatch) and
        :meth:`synapse_plan_coverage` (the smoke-guard metric) so the
        reported coverage can never diverge from what the hot loop runs.
        """
        return self.use_synapse_plans and _transform_fused_ready(transform)

    def synapse_plan_coverage(self) -> tuple[int, int]:
        """``(transforms on the plan path, total transforms)`` incl. readout.

        Used by the fused-path smoke guards: the standard registry models
        must report full coverage, or a refactor silently pushed the hot
        loop back onto the per-step Tensor path.
        """
        transforms = [layer.transform for layer in self.layers]
        transforms.append(self.readout.transform)
        planned = sum(1 for transform in transforms if self._plan_eligible(transform))
        return planned, len(transforms)

    def _forward_inference(self, image: np.ndarray) -> Tensor:
        """Fused no-grad time loop over raw numpy arrays.

        LIF/LI state updates and the trace decode run directly on arrays
        (skipping surrogate-derivative evaluation and per-op Tensor
        bookkeeping).  Synaptic transforms resolve to their compiled
        numpy plans once per forward — not once per time step — with a
        per-transform fallback to the Tensor API for stages without a
        trustworthy twin.  Encoders or decoders without a twin fall back
        the same way.
        """
        self.fused_forward_count += 1
        encoder_step = (
            self.encoder.step_numpy
            if _has_numpy_twin(self.encoder, "step", "step_numpy")
            else None
        )
        decode = (
            self.decoder.decode_numpy
            if _has_numpy_twin(self.decoder, "forward", "decode_numpy")
            else None
        )
        layer_ops = [self._synapse_op(layer.transform) for layer in self.layers]
        cells = [layer.cell for layer in self.layers]
        readout_op = self._synapse_op(self.readout.transform)
        encoder_state = None
        layer_states: list = [None] * len(self.layers)
        readout_state = None
        trace: list[np.ndarray] = []
        for _ in range(self.time_steps):
            if encoder_step is not None:
                spikes, encoder_state = encoder_step(image, encoder_state)
            else:
                out, encoder_state = self.encoder.step(Tensor(image), encoder_state)
                spikes = out.data
            for index, op in enumerate(layer_ops):
                spikes, layer_states[index] = cells[index].step_numpy(
                    op(spikes), layer_states[index]
                )
            membrane, readout_state = self.readout.cell.step_numpy(
                readout_op(spikes), readout_state
            )
            trace.append(membrane)
        if decode is not None:
            return Tensor(decode(trace))
        return self.decoder([Tensor(step) for step in trace])

    # -- fused backward (graph-free BPTT) -------------------------------------

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

    def _decode_head(self, trace: list[np.ndarray], labels: np.ndarray):
        """Decode + loss as a (tiny) autograd graph over the recorded trace.

        Returns ``(loss, logits, g_trace)``.  Running the real decoder and
        :func:`repro.tensor.functional.cross_entropy` over leaf tensors
        reproduces the full graph's head exactly, so the per-step trace
        gradients match what ``loss.backward()`` would deliver to each
        readout membrane — for *any* decoder, with no twin required.
        """
        leaves = [Tensor(membrane, requires_grad=True) for membrane in trace]
        logits = self.decoder(leaves)
        loss = F.cross_entropy(logits, labels)
        loss.backward()
        # A leaf left without a gradient is *disconnected* from the loss in
        # the head (e.g. all but the last step under LastMembraneDecoder);
        # backward_pass uses that to reproduce the autograd path's
        # None-vs-zero gradient distinction for structurally dead stages.
        return loss, logits, [leaf.grad for leaf in leaves]

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
        tape = bptt.record_forward(self, images)
        _loss, _logits, g_trace = self._decode_head(tape.trace, labels)
        gradient = bptt.backward_pass(
            self, tape, g_trace, want_param_grads=False, want_input_grad=True
        )
        self.fused_backward_count += 1
        return gradient if gradient is not None else np.zeros_like(images)

    def fused_loss_backward(
        self, images: np.ndarray, labels: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """One graph-free training backward: loss value, logits, param grads.

        Accumulates parameter gradients into ``param.grad`` (identically
        to ``loss.backward()`` on the unrolled graph) and returns
        ``(loss_value, logits)`` for bookkeeping.  The input-pixel
        gradient is skipped — optimizer updates never need it.  Used by
        :class:`repro.training.trainer.Trainer` when its config opts in.
        """
        images = np.asarray(images)
        tape = bptt.record_forward(self, images)
        loss, logits, g_trace = self._decode_head(tape.trace, labels)
        bptt.backward_pass(
            self, tape, g_trace, want_param_grads=True, want_input_grad=False
        )
        self.fused_backward_count += 1
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


def default_lif_parameters(
    v_th: float = 1.0,
    surrogate: str = "superspike",
    surrogate_alpha: float = 100.0,
    reset_mode: str = "hard",
) -> LIFParameters:
    """LIF parameters used by the reproduction's standard models."""
    return LIFParameters(
        v_th=v_th,
        surrogate=surrogate,
        surrogate_alpha=surrogate_alpha,
        reset_mode=reset_mode,
    )
