"""The fused time loops of spiking networks: inference and BPTT.

Every graph-free execution of a :class:`~repro.snn.network.SpikingNetwork`
runs through the loops in this module: no-grad inference
(:func:`run_trace`, then :func:`decode_logits`), the recording forward of
backpropagation through time (:func:`record_forward`), the autograd
decode/loss heads (:func:`decode_heads`) and the reverse-time sweep
(:func:`backward_pass`).  A grad-mode forward (training) records the same
way but lets the caller's own decoder and loss graph play the head (see
:meth:`~repro.snn.network.SpikingNetwork.forward`).  Each loop is written
once, over a *lane set*: K
networks of one architecture whose batches are folded on the batch axis
(lane ``k`` owns rows ``[k*N, (k+1)*N)`` of every folded array).

* A single network is the one-lane set
  :class:`~repro.snn.network.NetworkLanes`, built from its own modules'
  numpy twins (a module without them is rejected there).
* A :class:`~repro.snn.stack.VariantStack` is a K-lane set of stacked
  stages: per-lane constant columns for the cells, per-lane GEMMs for
  the transforms.

The loops only sequence stages; the arithmetic lives in the stages (the
LIF/LI functions of :mod:`repro.snn.neuron`, the transform plans of
:mod:`repro.tensor.functional`).

Lane sets
---------
A lane set exposes ``members`` (the networks, read for their decoders and
``time_steps``), ``k``, per-lane ``time_steps``, ``max_steps`` and its
stages:

* ``encoder`` — ``step_numpy(image, state, alive)``,
  ``step_record_numpy(image, state, alive)`` (returning ``(spikes,
  state, ctx)``) and ``step_backward_numpy(g, g_state, ctx)``;
* ``layer_ops[i]`` and ``readout_op`` — synaptic transforms with
  ``forward(x, alive)``, ``record(x, alive)`` (returning ``(out, ctx)``)
  and ``backward(g, ctx, sinks, alive, *, want_input_grad=True)``, where
  ``sinks`` holds one parameter-gradient list per lane, ``None`` for a
  lane that collects none; with ``want_input_grad=False`` a stage may
  skip its input gradient and return ``None``;
* ``layer_cells[i]`` and ``readout_cell`` — the LIF/LI numpy twins.

``alive[k]`` tells a stage whether lane ``k`` is inside its window.
Ragged time windows pad to ``max_steps``: a lane past its own ``T`` has
its GEMMs skipped and its rows pinned to exact zeros, so its state stays
finite and its gradients stay exactly zero.

Structural windows
------------------
Each stage adds one state update of latency on the way to the readout
membrane, so a stage's output at a late step cannot reach the membrane a
lane decodes (forward), or the last step its loss reads (backward).
Every loop runs a stage only inside that window, with the rule kept once
in :class:`_Windows`: the forward loops anchor it at each lane's last
step ``T_k - 1``, :func:`backward_pass` at each lane's last consumed
step.  A stage runs while any lane is inside its window, and the
per-lane windows are the ``alive`` masks its transforms see.

Exactness contract
------------------
Every step performs the same float arithmetic, with the same promoted
constants and the same accumulation association, as the autograd ops'
forwards and backward closures, so logits and gradients are bitwise
identical to the unrolled autograd loop (the oracle of
tests/reference_ops.py; asserted by tests/test_fused_backward.py and, per
lane, by tests/test_stacked.py).  Three pieces make that hold:

* transforms' ``forward_record_numpy``/``backward_numpy`` twins replay
  their Tensor op's forward and backward closure;
* neuron cells' ``step_record_numpy``/``step_backward_numpy`` twins
  replay one autograd step of their dynamics;
* the decoder and loss run as a real (tiny) autograd graph per lane over
  that lane's recorded membrane trace, so any decoder works unchanged and
  the head gradient delivered to each time step equals the full graph's.

Memory
------
The usual BPTT trade, one activation set per time step, kept to what the
backward reads — far less than the autograd path retains, since per-op
closures and intermediates are never created.  Each stage records only
the steps of its structural window (step 0 always), so the backward
finds every step it reads and the dead wavefront costs no memory.  Per
step of its window the tape holds:

* per LIF population (encoder included), the decayed membrane alone —
  the backward recomputes the surrogate pre-activation from it
  (:func:`~repro.snn.neuron.lif_step_record`);
* per conv or linear transform, its input (``None`` on a *silent*, all-zero
  step, whose weight gradient needs none) and (conv) its cached plan;
* per max pool with non-overlapping windows, a one-byte routing code per
  output (:meth:`~repro.tensor.functional.MaxPool2dPlan.route`; on a
  silent step, one code broadcast to every output); with overlapping
  windows, its input;
* per average pool or flatten, a shape or dtype;
* the readout membrane (the trace the decode heads read).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.nn.parameter import accumulate_grad
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor

__all__ = [
    "BPTTTape",
    "backward_pass",
    "decode_heads",
    "decode_logits",
    "record_forward",
    "run_trace",
]


@dataclass
class BPTTTape:
    """Everything :func:`backward_pass` needs from one recorded forward."""

    trace: list[np.ndarray] = field(default_factory=list)
    """Per-step folded readout membranes — input of the decode heads."""

    encoder_ctxs: list[object] = field(default_factory=list)
    """Per-step encoder backward contexts."""

    layer_transform_ctxs: list[list[object]] = field(default_factory=list)
    """``[layer][t]`` backward contexts of the synaptic transforms."""

    layer_cell_ctxs: list[list[object]] = field(default_factory=list)
    """``[layer][t]`` backward contexts of the LIF populations."""

    readout_ctxs: list[object] = field(default_factory=list)
    """Per-step backward contexts of the readout transform."""

    encoder_stateful: bool = True
    """Whether the encoder threads recurrent state (ConstantCurrentLIF)
    or emits spikes directly from the image (Poisson).  A stateful
    encoder adds one state-update of latency, shifting the structural
    aliveness window of its input-gradient pieces by one step."""


def _lane_slices(lanes, folded: np.ndarray) -> list[slice]:
    n = folded.shape[0] // lanes.k
    return [slice(lane * n, (lane + 1) * n) for lane in range(lanes.k)]


class _Windows:
    """The structural-aliveness windows of a lane set's stages.

    A stage's output at step ``t`` reaches the readout membrane ``hops``
    state updates later, so it reaches a lane's membrane at that lane's
    *anchor* step only while ``t + hops <= anchor``; at later steps the
    stage is dead for that lane.  Stages are indexed from the encoder
    (``-1``) through the spiking layers to the readout (``depth``), each
    a transform (``op``) feeding a cell.  The readout cell *is* the
    membrane (0 hops), and a transform adds one update before its cell:
    the current lands in the cell's synaptic state, which its membrane
    reads one step later.  So stage ``index``'s cell output has ``depth -
    index`` hops and its transform output one more.  For the encoder,
    the cell output is its spikes (layer 0's transform input) and the
    transform output is a stateful encoder's image current.

    The forward loops anchor each lane at its last step ``T_k - 1``;
    :func:`backward_pass` anchors it at its last consumed step
    ``t_head``, which is never later, so the backward reads only steps
    the forward ran.
    """

    def __init__(self, anchors: Sequence[int], depth: int) -> None:
        self.anchors = list(anchors)
        self.last = max(self.anchors, default=-1)
        self.depth = depth

    def _hops(self, index: int, op: bool) -> int:
        return self.depth - index + op

    def end(self, index: int, op: bool = False) -> int:
        """The last step of the widest lane window of stage ``index``'s
        cell (or, with ``op``, its transform)."""
        return self.last - self._hops(index, op)

    def alive(self, t: int, index: int, op: bool = False) -> list[bool]:
        """Per lane, whether its window of that stage holds step ``t``."""
        hops = self._hops(index, op)
        return [t <= anchor - hops for anchor in self.anchors]


def _time_loop(lanes, image: np.ndarray, record: bool) -> BPTTTape:
    """The fused forward time loop of :func:`run_trace` and :func:`record_forward`.

    Each stage runs only inside its structural-aliveness window anchored
    at ``T_k - 1`` (:class:`_Windows`): a dead stage's output never
    reaches a membrane its lane decodes, so skipping it leaves every
    decoded step bit for bit unchanged.  A stack passes each transform
    its per-lane window as ``alive`` and skips the call when no lane is
    live.  Three stages keep running outside their windows:

    * an encoder that draws randomness (Poisson) steps every ``t`` while
      its lane is inside its own ``T_k``, so its generator draws exactly
      its unwindowed stream; a deterministic encoder stops with layer
      0's transform, the last stage that reads its spikes; with
      ``record``, either records only inside that window;
    * at a cell's last live step its transform is already dead: the cell
      takes a zero current, which only feeds a new state nothing reads;
    * step 0 runs every stage, so that every state takes its shape (this
      only matters when ``T <= depth + 1``).

    With ``record``, the tape holds each stage's contexts for the steps it
    ran — a prefix of the time axis, so ``[t]`` still indexes them.
    """
    depth = len(lanes.layer_ops)
    windows = _Windows([steps - 1 for steps in lanes.time_steps], depth)
    tape = BPTTTape(
        layer_transform_ctxs=[[] for _ in range(depth)],
        layer_cell_ctxs=[[] for _ in range(depth)],
    )
    ops = [*lanes.layer_ops, lanes.readout_op]
    op_ctxs = [*tape.layer_transform_ctxs, tape.readout_ctxs]
    # Step 0 runs every stage, so that every state takes its shape.
    cell_ends = [max(windows.end(index), 0) for index in range(depth + 1)]
    op_ends = [max(windows.end(index, op=True), 0) for index in range(depth + 1)]
    # The encoder's spikes are read while layer 0's transform is live.
    draws = any(member.forward_draws_randomness() for member in lanes.members)
    encoder_steps = lanes.max_steps if draws else op_ends[0] + 1
    encoder_state = None
    states: list = [None] * (depth + 1)
    for t in range(lanes.max_steps):
        alive = [t < steps for steps in lanes.time_steps]
        if record and t <= op_ends[0]:
            spikes, encoder_state, ctx = lanes.encoder.step_record_numpy(
                image, encoder_state, alive
            )
            tape.encoder_ctxs.append(ctx)
        elif t < encoder_steps:
            spikes, encoder_state = lanes.encoder.step_numpy(image, encoder_state, alive)
        for index, op in enumerate(ops):
            if t > cell_ends[index]:
                continue
            if t > op_ends[index]:
                current = np.zeros_like(states[index][0])
            elif record:
                current, ctx = op.record(spikes, windows.alive(t, index, op=True))
                op_ctxs[index].append(ctx)
            else:
                current = op.forward(spikes, windows.alive(t, index, op=True))
            if index == depth:
                membrane, states[index] = lanes.readout_cell.step_numpy(
                    current, states[index]
                )
                tape.trace.append(membrane)
            elif record:
                spikes, states[index], ctx = lanes.layer_cells[index].step_record_numpy(
                    current, states[index]
                )
                tape.layer_cell_ctxs[index].append(ctx)
            else:
                spikes, states[index] = lanes.layer_cells[index].step_numpy(
                    current, states[index]
                )
    tape.encoder_stateful = encoder_state is not None
    return tape


def run_trace(lanes, image: np.ndarray) -> list[np.ndarray]:
    """Fused no-grad time loop; returns the folded readout membrane trace.

    LIF/LI state updates run directly on arrays (skipping surrogate
    derivatives and per-op Tensor bookkeeping); each stage object was
    resolved once per pass, not once per time step, and runs only inside
    its window (see :func:`_time_loop`).  Every decoded step is the
    unwindowed loop's bit for bit; a lane's hidden states past its
    windows are not, so per-step activity (firing rates) must not be
    read off this loop — :func:`repro.snn.analysis.spike_activity` runs
    its own.
    """
    return _time_loop(lanes, image, record=False).trace


def decode_logits(lanes, trace: list[np.ndarray]) -> list[np.ndarray]:
    """Per-lane logits ``(N, C)`` of a :func:`run_trace` trace.

    Each lane decodes its own trace prefix (its first ``T_k`` steps)
    through its own decoder's ``decode_numpy`` twin.
    """
    return [
        member.decoder.decode_numpy([trace[t][rows] for t in range(member.time_steps)])
        for member, rows in zip(lanes.members, _lane_slices(lanes, trace[0]))
    ]


def record_forward(lanes, image: np.ndarray) -> BPTTTape:
    """Fused time loop that records the minimal per-step state BPTT needs.

    Spikes, membranes and transform outputs equal :func:`run_trace`'s bit
    for bit (and therefore, on every step inside a stage's window, the
    autograd forward's).  Each stage records only the steps of its window
    (see :func:`_time_loop`), the steps :func:`backward_pass` can read.
    """
    return _time_loop(lanes, image, record=True)


def decode_heads(lanes, tape: BPTTTape, labels: Sequence[np.ndarray]):
    """Per-lane decode + loss as (tiny) autograd graphs over the trace.

    Returns ``(losses, logits, g_trace, t_heads)``.  Running each lane's
    real decoder and :func:`repro.tensor.functional.cross_entropy` over
    leaf tensors of its trace prefix reproduces the full graph's head
    exactly, so the per-step trace gradients match what ``loss.backward()``
    would deliver to each readout membrane — for *any* decoder, with no
    twin required.  Folding the loss itself would change the mean
    reduction's seed from ``1/N`` to ``1/(K*N)``, hence one head per lane;
    its leaf gradients are scattered into folded per-step arrays.

    A leaf left without a gradient is *disconnected* from the loss (e.g.
    all but the last step under ``LastMembraneDecoder``): its ``g_trace``
    rows stay zero (the entry is ``None`` when no lane consumed the step),
    and each lane's ``t_head`` — its last consumed step, ``-1`` if none —
    anchors the structural-aliveness windows of :func:`backward_pass`.
    """
    g_trace: list[np.ndarray | None] = [None] * len(tape.trace)
    losses: list[Tensor] = []
    logits_list: list[Tensor] = []
    t_heads: list[int] = []
    for lane, (member, rows) in enumerate(
        zip(lanes.members, _lane_slices(lanes, tape.trace[0]))
    ):
        leaves = [
            Tensor(tape.trace[t][rows], requires_grad=True)
            for t in range(member.time_steps)
        ]
        logits = member.decoder(leaves)
        loss = F.cross_entropy(logits, labels[lane])
        loss.backward()
        t_head = -1
        for t, leaf in enumerate(leaves):
            if leaf.grad is None:
                continue
            t_head = t
            if g_trace[t] is None:
                g_trace[t] = np.zeros_like(tape.trace[t], dtype=leaf.grad.dtype)
            g_trace[t][rows] = leaf.grad
        t_heads.append(t_head)
        losses.append(loss)
        logits_list.append(logits)
    return losses, logits_list, g_trace, t_heads


def _gate(sinks: list | None, alive: list[bool]) -> list | None:
    """Per-lane sinks masked by a stage's per-lane aliveness window."""
    if sinks is None:
        return None
    return [sink if alive[lane] else None for lane, sink in enumerate(sinks)]


def backward_pass(
    lanes,
    tape: BPTTTape,
    g_trace: list[np.ndarray | None],
    t_heads: list[int],
    param_lanes: list[bool] | None = None,
    want_input_grad: bool = True,
) -> np.ndarray | None:
    """Reverse-time sweep over a recorded forward; no graph is built.

    Parameters
    ----------
    lanes:
        The lane set :func:`record_forward` ran on (unchanged since).
    tape:
        The recorded forward.
    g_trace, t_heads:
        The per-step folded trace gradients and per-lane last consumed
        steps of the decode heads (:func:`decode_heads`, or the caller's
        graph for a grad-mode forward).
    param_lanes:
        Per lane, whether to accumulate its parameter gradients into
        ``param.grad`` (training; frozen parameters are skipped);
        ``None`` for attack crafting, which skips every weight-gradient
        GEMM.
    want_input_grad:
        Accumulate and return the folded input-pixel gradient; ``None``
        is returned when disabled, or when no lane's gradient reaches the
        input.

    The reverse loop visits time steps in descending order and, within a
    step, the readout first and then the spiking layers deepest-first —
    the wavefront order the unrolled graph's dependencies force.  Leaf
    accumulations are the one place the autograd engine's topological
    sort orders things the *other* way: contributions into the image and
    into parameters land in ascending time order.  The sweep therefore
    collects per-step pieces and folds them ascending afterwards, so
    every accumulation keeps the autograd engine's association bit for bit.

    Structural aliveness
    --------------------
    Each stage adds one state-update of input-to-output latency, so the
    synaptic current of stage ``s`` at step ``t`` reaches a lane's loss
    only when enough steps remain (``t + stages-to-readout <= t_head``;
    :class:`_Windows`, the rule the forward loops share, anchored at each
    lane's ``t_head``).  The autograd engine never *visits* the dead ops — their parameters
    keep ``grad = None`` (optimizers skip them) and dead image pieces are
    never added.  The sweep runs a stage while *any* lane is inside its
    window (anchored at ``max(t_heads)``); per-lane windows gate each
    lane's GEMMs, parameter sinks and image pieces.  A lane outside its
    window carries exact-zero gradients through the folded elementwise
    stages, so running them fold-wide is value-identical to skipping
    them, and gradient None-ness — not just values — matches the autograd
    graph per lane.
    """
    steps = len(tape.trace)
    depth = len(lanes.layer_ops)
    windows = _Windows(t_heads, depth)
    collect = param_lanes is not None and any(param_lanes)
    cell_state_grads: list = [None] * depth
    encoder_state_grad = None
    readout_gi: np.ndarray | None = None
    readout_gv_direct: np.ndarray | None = None
    readout_gv_leak: np.ndarray | None = None
    image_pieces: list[list[np.ndarray]] = [[] for _ in range(lanes.k)]
    param_pieces: list[list[list | None]] = []
    rows = _lane_slices(lanes, tape.trace[0])
    for t in reversed(range(min(steps, windows.last + 1))):
        step_sinks: list[list | None] | None = (
            [[] if selected else None for selected in param_lanes]  # type: ignore[union-attr]
            if collect
            else None
        )
        g_head = g_trace[t]
        if g_head is None:
            g_head = np.zeros_like(tape.trace[t])
        if readout_gv_direct is None:
            g_membrane = g_head
        else:
            g_membrane = (g_head + readout_gv_direct) + readout_gv_leak
        g_current, (readout_gi, readout_gv_direct, readout_gv_leak) = (
            lanes.readout_cell.step_backward_numpy(g_membrane, readout_gi)
        )
        # Every stage below runs only inside its structural-aliveness
        # window — outside it the incoming gradients are exact-zero
        # arrays the autograd engine never visits, so skipping reproduces
        # its work (and None-grads) precisely while saving the whole dead
        # wavefront.
        if t <= windows.end(depth, op=True):
            alive = windows.alive(t, depth, op=True)
            g = lanes.readout_op.backward(
                g_current, tape.readout_ctxs[t], _gate(step_sinks, alive), alive
            )
            for index in reversed(range(depth)):
                if t > windows.end(index):
                    break
                g_current, cell_state_grads[index] = lanes.layer_cells[
                    index
                ].step_backward_numpy(
                    g, cell_state_grads[index], tape.layer_cell_ctxs[index][t]
                )
                if t > windows.end(index, op=True):
                    break
                alive = windows.alive(t, index, op=True)
                # Only the encoder reads layer 0's input gradient.
                g = lanes.layer_ops[index].backward(
                    g_current,
                    tape.layer_transform_ctxs[index][t],
                    _gate(step_sinks, alive),
                    alive,
                    want_input_grad=want_input_grad or index > 0,
                )
            else:
                # Reached only when every stage above ran, i.e. the
                # encoder's spike gradient is structurally alive at t.
                if want_input_grad:
                    piece, encoder_state_grad = lanes.encoder.step_backward_numpy(
                        g, encoder_state_grad, tape.encoder_ctxs[t]
                    )
                    # A stateful encoder's piece lags one state hop behind
                    # its spike gradient (the boundary step only seeds the
                    # recurrent state grads); a stateless encoder's piece
                    # is alive whenever its spikes are.
                    pieces_alive = windows.alive(t, -1, op=tape.encoder_stateful)
                    for lane, live in enumerate(pieces_alive):
                        if live:
                            image_pieces[lane].append(piece[rows[lane]])
        if step_sinks is not None and any(step_sinks):
            param_pieces.append(step_sinks)
    # Ascending-time folds (pieces were collected in descending order).
    # Frozen parameters keep ``grad = None``, as on the unrolled graph.
    for step_sinks in reversed(param_pieces):
        for sink in step_sinks:
            for parameter, grad in sink or ():
                if parameter.requires_grad:
                    accumulate_grad(parameter, grad)
    if not want_input_grad:
        return None
    lane_grads: list[np.ndarray | None] = []
    for pieces in image_pieces:
        lane_grad: np.ndarray | None = None
        for piece in reversed(pieces):
            lane_grad = piece if lane_grad is None else lane_grad + piece
        lane_grads.append(lane_grad)
    if lanes.k == 1 or all(grad is None for grad in lane_grads):
        return lane_grads[0]
    reference = next(grad for grad in lane_grads if grad is not None)
    folded = np.zeros(
        (tape.trace[0].shape[0],) + reference.shape[1:], dtype=reference.dtype
    )
    for lane_rows, lane_grad in zip(rows, lane_grads):
        if lane_grad is not None:
            folded[lane_rows] = lane_grad
    return folded
