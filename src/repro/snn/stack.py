"""K-stacked variant execution: one fused pass drives K grid cells.

Algorithm 1 sweeps ``(Vth, T)`` variants that share an architecture and
differ only in scalar structural parameters.  :class:`VariantStack` lifts
K such :class:`~repro.snn.network.SpikingNetwork` instances into a single
*lane-folded* execution: batches of the K variants are concatenated on
the batch axis (``(K*N, ...)``), elementwise neuron dynamics run fold-wide
with per-variant constants broadcast per lane, and every parameterised
GEMM runs per variant on the contiguous row block belonging to its lanes.

A stack is a K-lane set of :mod:`repro.snn.backward`: the time loops,
the decode/loss heads, ragged-``T`` padding and the per-lane
structural-aliveness windows are the ones every single network runs
(as a one-lane :class:`~repro.snn.network.NetworkLanes`).  This module
contributes only the stacked *stage objects* those loops drive.

Exactness contract
------------------
Per-variant results are bitwise identical to running each member through
the unstacked fused paths (and therefore to the autograd path, by the
fused paths' own contracts).  The loop is shared, so the contract rests
on the stages:

* elementwise ops and pooling are *lane-local*: folding batches changes
  neither the values nor the reduction association of any lane's
  elements;
* each conv lane runs, on its own batch slice, the plan an unstacked
  member builds (silent test, im2col, GEMMs, col2im, bias), and each
  linear lane's GEMM runs on a contiguous row slice with exactly the
  shapes, strides and contiguity of the unstacked problem, so the same
  BLAS kernel produces the same bits;
* the stacked cells run the LIF/LI functions of
  :mod:`repro.snn.neuron` that the unstacked cells run; constants that
  vary across variants (``v_th``, the leak scale, decay, surrogate alpha,
  encoder rate) broadcast as per-lane columns of the same promoted dtype,
  which is elementwise-identical to the unstacked scalar op; constants
  the arithmetic *branches* on (``reset_mode``, ``v_reset``) are required
  to agree across a stack;
* per-variant Poisson encoders draw only while their lane is alive, so
  each member's generator advances exactly as it would unstacked.

Variants that cannot honour this contract (custom cells or transforms,
unsupported encoders, mismatched reset semantics) are rejected by
:func:`stack_compatibility` — the engine then runs them unstacked.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ShapeError
from repro.nn.container import Sequential
from repro.nn.conv import Conv2d
from repro.nn.flatten import Flatten
from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.nn.pooling import AvgPool2d, MaxPool2d
from repro.snn import backward as bptt
from repro.snn.encoding import ConstantCurrentLIFEncoder, PoissonEncoder
from repro.snn.network import (
    _DECODER_TWINS,
    SpikingNetwork,
    _TransformStage,
    _twin_owner,
)
from repro.snn.neuron import (
    LICell,
    LIFCell,
    li_step,
    li_step_backward,
    lif_constants,
    lif_step_backward,
    lif_step_record,
)
from repro.snn.surrogate import surrogate_derivative
from repro.tensor.functional import spike_matmul
from repro.tensor.tensor import promote_scalar

__all__ = [
    "StackedLICell",
    "StackedLIFCell",
    "VariantStack",
    "stack_compatibility",
]


class _LaneConstants:
    """Per-variant constants, promoted for broadcasting over folded arrays.

    Built from one row of constants per lane.  A constant every variant
    shares degrades to the exact 0-d promoted scalar the unstacked twins
    use; one that varies becomes a ``(K*N, 1, ..., 1)`` column whose
    broadcast multiplies each lane by its own variant's value —
    elementwise-identical to the unstacked scalar op per lane.  The
    promoted tuple is cached per ``(N, ndim)``.
    """

    def __init__(self, rows: Sequence[Sequence[float]]) -> None:
        self.k = len(rows)
        self._columns = [tuple(float(v) for v in column) for column in zip(*rows)]
        self._cache: dict[tuple[int, int], tuple[np.ndarray, ...]] = {}

    def for_array(self, reference: np.ndarray) -> tuple[np.ndarray, ...]:
        """The constants shaped to broadcast over ``reference``'s lanes."""
        n = reference.shape[0] // self.k
        key = (n, reference.ndim)
        constants = self._cache.get(key)
        if constants is None:
            constants = tuple(
                self._promote(column, n, reference.ndim) for column in self._columns
            )
            self._cache[key] = constants
        return constants

    def _promote(self, column: tuple[float, ...], n: int, ndim: int) -> np.ndarray:
        scalar = promote_scalar(column[0])
        if all(value == column[0] for value in column):
            return scalar
        promoted = np.asarray(column, dtype=scalar.dtype)
        return np.repeat(promoted, n).reshape((self.k * n,) + (1,) * (ndim - 1))


class StackedLIFCell:
    """K-variant LIF population over a lane-folded batch.

    Runs :func:`~repro.snn.neuron.lif_step_record`/:func:`~repro.snn.
    neuron.lif_step_backward` — the functions behind
    :class:`~repro.snn.neuron.LIFCell`'s numpy twins — with per-lane
    constant columns.  ``reset_mode`` and ``v_reset`` must agree across
    the stack: the arithmetic *branches* on them, and a branch cannot
    broadcast.
    """

    def __init__(self, cells: Sequence[LIFCell]) -> None:
        params = [cell.params for cell in cells]
        first = params[0]
        if any(p.reset_mode != first.reset_mode for p in params):
            raise ValueError("stacked LIF populations must share reset_mode")
        if any(p.v_reset != first.v_reset for p in params):
            raise ValueError("stacked LIF populations must share v_reset")
        self.k = len(cells)
        self.reset_mode = first.reset_mode
        self.constants = _LaneConstants([lif_constants(p) for p in params])
        self.surrogates = [(p.surrogate, p.surrogate_alpha) for p in params]
        self._uniform_surrogate = all(
            pair == self.surrogates[0] for pair in self.surrogates
        )

    def _derivative(self, x: np.ndarray) -> np.ndarray:
        """Surrogate derivative, per lane when variants differ."""
        if self._uniform_surrogate:
            method, alpha = self.surrogates[0]
            return surrogate_derivative(x, method=method, alpha=alpha)
        n = x.shape[0] // self.k
        out = np.empty_like(x)
        for lane, (method, alpha) in enumerate(self.surrogates):
            rows = slice(lane * n, (lane + 1) * n)
            out[rows] = surrogate_derivative(x[rows], method=method, alpha=alpha)
        return out

    def step_numpy(self, input_current, state=None):
        """Stacked twin of :meth:`LIFCell.step_numpy`."""
        spikes, new_state, _ctx = self.step_record_numpy(input_current, state)
        return spikes, new_state

    def step_record_numpy(self, input_current, state=None):
        """Stacked twin of :meth:`LIFCell.step_record_numpy`."""
        constants = self.constants.for_array(input_current)
        return lif_step_record(input_current, state, constants, self.reset_mode)

    def step_backward_numpy(self, g_spikes, g_state, ctx):
        """Stacked twin of :meth:`LIFCell.step_backward_numpy`."""
        constants = self.constants.for_array(ctx)
        return lif_step_backward(
            g_spikes, g_state, ctx, constants, self.reset_mode, self._derivative
        )


class StackedLICell:
    """K-variant leaky-integrator readout over a lane-folded batch."""

    def __init__(self, cells: Sequence[LICell]) -> None:
        self.constants = _LaneConstants([lif_constants(cell.params) for cell in cells])

    def step_numpy(self, input_current, state=None):
        """Stacked twin of :meth:`LICell.step_numpy`."""
        return li_step(input_current, state, self.constants.for_array(input_current))

    def step_backward_numpy(self, g_membrane, g_i):
        """Stacked twin of :meth:`LICell.step_backward_numpy`."""
        return li_step_backward(g_membrane, g_i, self.constants.for_array(g_membrane))


# -- stacked synaptic transforms ----------------------------------------------


class _StackedConv:
    """K Conv2d modules; each lane runs its unstacked conv plan on its slice."""

    def __init__(self, convs: Sequence[Conv2d]) -> None:
        self.convs = list(convs)

    def _weights(self) -> list[np.ndarray]:
        return [conv.weight.data for conv in self.convs]

    def _biases(self) -> list[np.ndarray | None]:
        return [
            conv.bias.data if conv.bias is not None else None for conv in self.convs
        ]

    def forward(self, x, alive):
        plan = self.convs[0]._plan_for(x)
        return plan.stacked(x, self._weights(), self._biases(), alive)

    def record(self, x, alive):
        plan = self.convs[0]._plan_for(x)
        return plan.stacked(x, self._weights(), self._biases(), alive), (x, plan)

    def backward(self, g, ctx, sinks, alive, *, want_input_grad=True):
        x, plan = ctx
        # A lane collects parameter gradients only while alive (the sinks
        # are gated by the same window), so ``alive`` covers both GEMMs.
        g_mats = plan.lane_grad_matrices(g, alive)
        if sinks is not None and any(sink is not None for sink in sinks):
            wanted = [sink is not None for sink in sinks]
            grads = plan.stacked_backward_weights(
                g_mats, x, self.convs[0].weight.shape, wanted
            )
            n = g.shape[0] // len(self.convs)
            for lane, conv in enumerate(self.convs):
                sink = sinks[lane]
                if sink is None:
                    continue
                sink.append((conv.weight, grads[lane]))
                if conv.bias is not None:
                    block = g[lane * n : (lane + 1) * n]
                    sink.append((conv.bias, block.sum(axis=(0, 2, 3))))
        if not want_input_grad:
            return None
        return plan.stacked_backward_input(g_mats, self._weights(), alive)


class _StackedLinear:
    """K Linear modules, per-lane GEMMs on contiguous row blocks."""

    def __init__(self, linears: Sequence[Linear]) -> None:
        self.linears = list(linears)

    def forward(self, x, alive):
        k = len(self.linears)
        n = x.shape[0] // k
        out = np.empty(
            (x.shape[0], self.linears[0].weight.data.shape[0]), dtype=x.dtype
        )
        for lane, linear in enumerate(self.linears):
            rows = slice(lane * n, (lane + 1) * n)
            if alive is not None and not alive[lane]:
                out[rows] = 0.0
                continue
            lane_out = spike_matmul(x[rows], linear.weight.data.T)
            if linear.bias is not None:
                lane_out = lane_out + linear.bias.data
            out[rows] = lane_out
        return out

    def record(self, x, alive):
        return self.forward(x, alive), x

    def backward(self, g, ctx, sinks, alive, *, want_input_grad=True):
        x = ctx
        k = len(self.linears)
        n = g.shape[0] // k
        g_in = None
        if want_input_grad:
            g_in = np.empty(
                (g.shape[0], self.linears[0].weight.data.shape[1]), dtype=g.dtype
            )
        for lane, linear in enumerate(self.linears):
            rows = slice(lane * n, (lane + 1) * n)
            sink = sinks[lane] if sinks is not None else None
            if sink is not None:
                sink.append((linear.weight, spike_matmul(x[rows].T, g[rows]).transpose()))
                if linear.bias is not None:
                    sink.append((linear.bias, g[rows].sum(axis=0)))
            if g_in is None:
                continue
            if alive is not None and not alive[lane]:
                g_in[rows] = 0.0
                continue
            g_in[rows] = g[rows] @ linear.weight.data
        return g_in


class _StackedSequential:
    """Composition of stacked stages, chained like ``Sequential``'s twins."""

    def __init__(self, stages: list) -> None:
        self.stages = stages

    def forward(self, x, alive):
        for stage in self.stages:
            x = stage.forward(x, alive)
        return x

    def record(self, x, alive):
        contexts = []
        for stage in self.stages:
            x, ctx = stage.record(x, alive)
            contexts.append(ctx)
        return x, contexts

    def backward(self, g, ctx, sinks, alive, *, want_input_grad=True):
        for index in reversed(range(len(self.stages))):
            g = self.stages[index].backward(
                g, ctx[index], sinks, alive, want_input_grad=want_input_grad or index > 0
            )
        return g


def _build_stacked_transform(transforms: Sequence[Module]):
    """Lift K configuration-compatible transforms into one stacked stage.

    Matching is by exact type: a subclass may have changed the semantics
    its stacked mirror assumes, so anything
    but the known module types (or a ``Sequential`` of them) returns
    ``None`` and the variant set is rejected from stacking.
    """
    first = transforms[0]
    if any(type(t) is not type(first) for t in transforms[1:]):
        return None
    if type(first) is Sequential:
        members = [list(t) for t in transforms]
        if any(len(m) != len(members[0]) for m in members[1:]):
            return None
        stages = []
        for position in range(len(members[0])):
            stage = _build_stacked_transform([m[position] for m in members])
            if stage is None:
                return None
            stages.append(stage)
        return _StackedSequential(stages)
    if type(first) is Conv2d:
        if any(
            t.weight.data.shape != first.weight.data.shape
            or t.stride != first.stride
            or t.padding != first.padding
            or (t.bias is None) != (first.bias is None)
            for t in transforms[1:]
        ):
            return None
        return _StackedConv(transforms)
    if type(first) is Linear:
        if any(
            t.weight.data.shape != first.weight.data.shape
            or (t.bias is None) != (first.bias is None)
            for t in transforms[1:]
        ):
            return None
        return _StackedLinear(transforms)
    if type(first) in (MaxPool2d, AvgPool2d):
        if any(
            t.kernel_size != first.kernel_size or t.stride != first.stride
            for t in transforms[1:]
        ):
            return None
        return _TransformStage(first)
    if type(first) is Flatten:
        if any(t.start_dim != first.start_dim for t in transforms[1:]):
            return None
        return _TransformStage(first)
    return None


# -- stacked encoders ---------------------------------------------------------


class _StackedConstantCurrentEncoder:
    """K constant-current LIF encoders with per-variant injection scale."""

    def __init__(self, encoders: Sequence[ConstantCurrentLIFEncoder]) -> None:
        self.cell = StackedLIFCell([encoder.cell for encoder in encoders])
        self.scale = _LaneConstants([(encoder.input_scale,) for encoder in encoders])

    def step_numpy(self, image, state, alive):
        (scale,) = self.scale.for_array(image)
        return self.cell.step_numpy(image * scale, state)

    def step_record_numpy(self, image, state, alive):
        (scale,) = self.scale.for_array(image)
        return self.cell.step_record_numpy(image * scale, state)

    def step_backward_numpy(self, g_spikes, g_state, ctx):
        g_current, g_prev = self.cell.step_backward_numpy(g_spikes, g_state, ctx)
        (scale,) = self.scale.for_array(g_current)
        return g_current * scale, g_prev


class _StackedPoissonEncoder:
    """K Poisson encoders, each drawing from its own member's generator.

    Per-variant draws happen lane by lane in lane order, consuming each
    member's stream with exactly the unstacked call pattern — and *only*
    while that variant is alive, so a ragged stack never over-consumes a
    shorter variant's generator on padded steps.
    """

    def __init__(self, encoders: Sequence[PoissonEncoder]) -> None:
        self.encoders = list(encoders)

    def _draw(self, image, alive, with_derivative):
        k = len(self.encoders)
        n = image.shape[0] // k
        sample = np.zeros_like(image)
        derivative = np.zeros_like(image) if with_derivative else None
        for lane, encoder in enumerate(self.encoders):
            if alive is not None and not alive[lane]:
                continue
            rows = slice(lane * n, (lane + 1) * n)
            if with_derivative:
                sample[rows], _state, derivative[rows] = encoder.step_record_numpy(
                    image[rows]
                )
            else:
                sample[rows], _state = encoder.step_numpy(image[rows])
        return sample, None, derivative

    def step_numpy(self, image, state, alive):
        sample, new_state, _derivative = self._draw(image, alive, False)
        return sample, new_state

    def step_record_numpy(self, image, state, alive):
        return self._draw(image, alive, True)

    def step_backward_numpy(self, g_spikes, g_state, ctx):
        return g_spikes * ctx, None


_ENCODER_STACKS = {
    ConstantCurrentLIFEncoder: _StackedConstantCurrentEncoder,
    PoissonEncoder: _StackedPoissonEncoder,
}


# -- compatibility ------------------------------------------------------------


def stack_compatibility(members: Sequence[SpikingNetwork]) -> str | None:
    """Why ``members`` cannot run as one stack; ``None`` when they can.

    The constraints folding adds: equal depth, exact known
    cell/encoder/transform types (a subclass may have changed the
    semantics the stacked mirrors hard-code), matching transform
    configurations, reset semantics the twins branch on agreeing across
    the stack, and decoders whose ``decode_numpy`` twin matches their
    ``forward`` (the check a single network raises on).  Incompatible
    variants are not an error at the engine level — they simply run
    unstacked.
    """
    if not members:
        return "empty stack"
    first = members[0]
    for member in members:
        if not isinstance(member, SpikingNetwork):
            return f"not a SpikingNetwork: {type(member).__name__}"
        if len(member.layers) != len(first.layers):
            return "layer depth differs across members"
        if type(member.encoder) is not type(first.encoder):
            return "encoder types differ across members"
        if type(member.encoder) not in _ENCODER_STACKS:
            return f"unsupported encoder {type(member.encoder).__name__}"
        for layer in member.layers:
            if type(layer.cell) is not LIFCell:
                return f"custom LIF cell {type(layer.cell).__name__}"
        if type(member.readout.cell) is not LICell:
            return f"custom readout cell {type(member.readout.cell).__name__}"
        if isinstance(member.encoder, ConstantCurrentLIFEncoder) and (
            type(member.encoder.cell) is not LIFCell
        ):
            return f"custom encoder cell {type(member.encoder.cell).__name__}"
        if _twin_owner(type(member.decoder), _DECODER_TWINS) is None:
            return f"decoder {type(member.decoder).__name__} lacks a matching decode_numpy"
    groups = [
        [member.layers[index].cell.params for member in members]
        for index in range(len(first.layers))
    ]
    if isinstance(first.encoder, ConstantCurrentLIFEncoder):
        groups.append([member.encoder.cell.params for member in members])
    for params in groups:
        if any(p.reset_mode != params[0].reset_mode for p in params):
            return "reset_mode differs across members"
        if any(p.v_reset != params[0].v_reset for p in params):
            return "v_reset differs across members"
    for index in range(len(first.layers)):
        transforms = [member.layers[index].transform for member in members]
        if _build_stacked_transform(transforms) is None:
            return f"layer {index} transform is not stackable"
    if _build_stacked_transform([m.readout.transform for m in members]) is None:
        return "readout transform is not stackable"
    return None


# -- the stack ----------------------------------------------------------------


class VariantStack:
    """K same-architecture spiking networks executed as one folded pass.

    The stack is the K-lane set the loops of :mod:`repro.snn.backward`
    run: ``members``, per-lane ``time_steps`` and the stacked stages.

    Construction raises ``ValueError`` with the :func:`stack_compatibility`
    reason when the members cannot be stacked; the engine treats that as
    "run these unstacked" rather than a failure.

    Batches are *lane-folded*: member ``k``'s batch occupies rows
    ``[k*N, (k+1)*N)`` of every folded array, and per-member labels/
    results are lists indexed by lane.  Parameters are **not** copied —
    the stack reads each member's live ``Parameter`` objects at call
    time, and :meth:`fused_loss_backward` accumulates gradients straight
    into them, so per-member optimizers work unchanged.
    """

    def __init__(self, members: Sequence[SpikingNetwork]) -> None:
        reason = stack_compatibility(members)
        if reason is not None:
            raise ValueError(f"cannot stack variants: {reason}")
        self.members = list(members)
        self.k = len(self.members)
        self.time_steps = tuple(member.time_steps for member in self.members)
        self.max_steps = max(self.time_steps)
        layers = [list(member.layers) for member in self.members]
        encoder_stack = _ENCODER_STACKS[type(self.members[0].encoder)]
        self.encoder = encoder_stack([member.encoder for member in self.members])
        self.layer_ops = [
            _build_stacked_transform([layer.transform for layer in stage])
            for stage in zip(*layers)
        ]
        self.layer_cells = [
            StackedLIFCell([layer.cell for layer in stage]) for stage in zip(*layers)
        ]
        self.readout_op = _build_stacked_transform(
            [member.readout.transform for member in self.members]
        )
        self.readout_cell = StackedLICell(
            [member.readout.cell for member in self.members]
        )
        self.stacked_forward_count = 0
        """Folded forward passes served — observability hook for tests."""
        self.stacked_backward_count = 0
        """Folded backward passes served — observability hook for tests."""

    # -- folding helpers ------------------------------------------------------

    def _lane_batch(self, folded: np.ndarray) -> int:
        n, remainder = divmod(folded.shape[0], self.k)
        if remainder or n == 0:
            raise ShapeError(
                f"folded batch of {folded.shape[0]} does not split into "
                f"{self.k} equal variant lanes"
            )
        return n

    def fold(self, batches: Sequence[np.ndarray]) -> np.ndarray:
        """Concatenate per-variant batches (equal shapes) on the batch axis."""
        if len(batches) != self.k:
            raise ShapeError(f"expected {self.k} lane batches, got {len(batches)}")
        if any(batch.shape != batches[0].shape for batch in batches[1:]):
            raise ShapeError("lane batches must share a shape to fold")
        return np.concatenate(list(batches), axis=0)

    # -- the shared time loops of repro.snn.backward ----------------------------

    def forward_logits(self, image: np.ndarray) -> list[np.ndarray]:
        """Per-variant logits ``(N, C)`` for a lane-folded batch.

        Each variant decodes its own trace prefix (its first ``T_k``
        steps) through its own decoder, exactly like the unstacked fused
        inference path.
        """
        self.stacked_forward_count += 1
        self._lane_batch(image)
        return bptt.decode_logits(self, bptt.run_trace(self, image))

    def record_forward(self, image: np.ndarray) -> bptt.BPTTTape:
        """:func:`repro.snn.backward.record_forward` over the stack's lanes."""
        return bptt.record_forward(self, image)

    def backward_pass(
        self,
        tape: bptt.BPTTTape,
        g_trace: list[np.ndarray | None],
        t_heads: list[int],
        param_lanes: list[bool] | None = None,
        want_input_grad: bool = True,
    ) -> np.ndarray | None:
        """:func:`repro.snn.backward.backward_pass` over the stack's lanes.

        ``param_lanes`` selects the lanes whose parameter gradients are
        accumulated (``None`` for attack crafting, which skips every
        weight-gradient GEMM).
        """
        return bptt.backward_pass(
            self, tape, g_trace, t_heads, param_lanes, want_input_grad
        )

    # -- public fused entry points --------------------------------------------

    def fused_input_gradient(
        self, images: np.ndarray, labels: Sequence[np.ndarray]
    ) -> np.ndarray:
        """Folded input-pixel gradient; per-lane bitwise equal to the
        members' own :meth:`SpikingNetwork.fused_input_gradient`."""
        images = np.asarray(images)
        self._lane_batch(images)
        tape = self.record_forward(images)
        _losses, _logits, g_trace, t_heads = bptt.decode_heads(self, tape, labels)
        gradient = self.backward_pass(tape, g_trace, t_heads)
        self.stacked_backward_count += 1
        return gradient if gradient is not None else np.zeros_like(images)

    def fused_loss_backward(
        self,
        images: np.ndarray,
        labels: Sequence[np.ndarray],
        param_lanes: list[bool] | None = None,
    ) -> list[tuple[float, np.ndarray]]:
        """One folded training backward for every (selected) variant.

        Accumulates each selected lane's parameter gradients into its
        member's ``param.grad`` — identically to that member's own
        ``fused_loss_backward`` — and returns per-lane
        ``(loss_value, logits)`` pairs for bookkeeping.
        """
        images = np.asarray(images)
        self._lane_batch(images)
        if param_lanes is None:
            param_lanes = [True] * self.k
        tape = self.record_forward(images)
        losses, logits_list, g_trace, t_heads = bptt.decode_heads(self, tape, labels)
        self.backward_pass(
            tape, g_trace, t_heads, param_lanes=param_lanes, want_input_grad=False
        )
        self.stacked_backward_count += 1
        return [
            (float(loss.data), logits.data)
            for loss, logits in zip(losses, logits_list)
        ]
