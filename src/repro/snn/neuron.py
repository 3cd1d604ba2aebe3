"""Discrete-time leaky-integrate-and-fire neuron models.

The dynamics follow Norse's feed-forward LIF cell (explicit Euler):

.. code-block:: text

    v_decayed = v + dt * tau_mem_inv * ((v_leak - v) + i)
    i_decayed = i + dt * (-tau_syn_inv) * i
    z         = H(v_decayed - v_th)              # surrogate gradient
    v_new     = reset(v_decayed, z)
    i_new     = i_decayed + input_current

Two reset conventions are provided:

* ``"hard"`` (Norse default): ``v_new = (1 - z) * v_decayed + z * v_reset``
* ``"soft"``: ``v_new = v_decayed - z * (v_th - v_reset)`` (subtractive)

The readout :class:`LICell` integrates without spiking and exposes its
membrane trace, which the decoders turn into class scores.

The graph-free numpy arithmetic of both populations lives in four
functions — :func:`lif_step_record`, :func:`lif_step_backward`,
:func:`li_step` and :func:`li_step_backward` — shared by every fused path:
the cells' numpy twins call them with 0-d promoted scalars, and the
stacked populations of :mod:`repro.snn.stack` with per-lane constant
columns.  The twins are the cells' whole interface: a network runs
nothing else.  The autograd transcription of the same dynamics lives in
``tests/reference_ops.py``, the independent oracle the twins are tested
against.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.module import Module
from repro.snn.surrogate import available_surrogates, surrogate_derivative
from repro.tensor.tensor import promote_scalar

__all__ = [
    "LICell",
    "LIFCell",
    "LIFParameters",
    "NumpyState",
    "li_step",
    "li_step_backward",
    "lif_constants",
    "lif_step_backward",
    "lif_step_record",
]

NumpyState = tuple[np.ndarray, np.ndarray]
"""Graph-free recurrent state ``(i, v)`` used by the fused inference path."""


def lif_constants(params: LIFParameters) -> tuple[float, ...]:
    """The constants of the numpy dynamics, in the order they unpack.

    ``(leak_scale, v_leak, v_th, one, v_reset, reset_drop,
    synaptic_decay)`` as python floats.  Promoted (:func:`~repro.tensor.
    tensor.promote_scalar`) they are the ``constants`` argument of the
    step functions below: 0-d scalars for one cell, or per-lane columns
    for a stack of cells.
    """
    return (
        params.dt * params.tau_mem_inv,
        params.v_leak,
        params.v_th,
        1.0,
        params.v_reset,
        params.v_th - params.v_reset,
        params.synaptic_decay,
    )


def _promoted_constants(cell) -> tuple[np.ndarray, ...]:
    """Promoted :func:`lif_constants` of a cell, cached per params identity.

    ``LIFParameters`` is frozen and always swapped wholesale (e.g.
    ``set_v_th`` assigns a fresh object), so object identity is a sound
    cache key."""
    cached = getattr(cell, "_promoted_cache", None)
    if cached is None or cached[0] is not cell.params:
        promoted = tuple(promote_scalar(value) for value in lif_constants(cell.params))
        cached = (cell.params, promoted)
        cell._promoted_cache = cached
    return cached[1]


def lif_step_record(
    input_current: np.ndarray,
    state: NumpyState | None,
    constants: tuple[np.ndarray, ...],
    reset_mode: str,
) -> tuple[np.ndarray, NumpyState, np.ndarray]:
    """One graph-free LIF step plus its BPTT backward context.

    The same float arithmetic as the autograd LIF step (so spikes and
    state are bitwise those of the autograd reference), staged through reused scratch
    (``out=``) so a T-step loop allocates as few arrays as the state it
    must keep.  The spike test compares ``v_decayed > v_th`` directly: with
    gradual underflow ``a - b > 0`` holds exactly when ``a > b`` (both are
    false on NaN), so the pre-activation ``v_decayed - v_th`` is never
    formed here.  The context is the decayed membrane alone;
    :func:`lif_step_backward` recomputes the pre-activation from it.
    Returns ``(spikes, (i, v), v_decayed)``.
    """
    if state is None:
        state = (np.zeros_like(input_current), np.zeros_like(input_current))
    i_prev, v_prev = state
    scale, v_leak, v_th, one, v_reset, reset_drop, decay = constants
    dv = v_leak - v_prev
    dv += i_prev
    dv *= scale
    v_decayed = v_prev + dv
    # The dtype ``v_decayed - v_th`` would have had.
    dtype = np.result_type(v_decayed, v_th)
    fired = v_decayed > v_th
    spikes = fired.astype(dtype)
    if reset_mode == "hard":
        v_new = np.subtract(one, fired, dtype=dtype)
        v_new *= v_decayed
        if v_reset != 0.0:
            v_new += v_reset * spikes
    else:
        v_new = v_decayed - spikes * reset_drop
    i_new = i_prev * decay
    i_new += input_current
    return spikes, (i_new, v_new), v_decayed


def lif_step_backward(
    g_spikes: np.ndarray,
    g_state: NumpyState | None,
    v_decayed: np.ndarray,
    constants: tuple[np.ndarray, ...],
    reset_mode: str,
    derivative: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, NumpyState]:
    """Reverse one :func:`lif_step_record` step without an autograd graph.

    ``g_state`` is the gradient on the new state ``(i, v)`` from the next
    step (``None`` at the last one); ``v_decayed`` is the recorded context;
    ``derivative`` maps the surrogate pre-activation ``v_decayed - v_th``
    (recomputed here, once, with the forward's subtraction) to the
    surrogate derivative.  Returns ``(g_input_current, (g_i_prev,
    g_v_prev))``.

    The expressions perform the autograd closures' arithmetic with
    ``a + -(b)`` chains fused into ``a - b``, exact-zero products
    (``v_reset = 0``) dropped and temporaries reused in place — all
    IEEE-identical rewrites.  Where three gradients meet on the spikes of
    a hard reset, they are summed in the order the autograd engine visits
    their consumers: the downstream transform, then the ``1 - z`` gate,
    then the ``v_reset * z`` term.
    """
    scale, _v_leak, v_th, one, v_reset, reset_drop, decay = constants
    x = v_decayed - v_th
    if g_state is None:
        g_state = (np.zeros_like(x), np.zeros_like(x))
    gi, gv = g_state
    if reset_mode == "hard":
        g_x = gv * v_decayed
        np.subtract(g_spikes, g_x, out=g_x)
        if v_reset != 0.0:
            g_x += gv * v_reset
        g_x *= derivative(x)
        g_vd = np.subtract(one, x > 0, dtype=x.dtype)
        g_vd *= gv
        g_vd += g_x
    else:
        g_x = gv * reset_drop
        np.subtract(g_spikes, g_x, out=g_x)
        g_x *= derivative(x)
        g_vd = gv + g_x
    g_add1 = g_vd * scale
    g_v_prev = np.subtract(g_vd, g_add1, out=g_vd)
    g_i_prev = gi * decay
    g_i_prev += g_add1
    return gi, (g_i_prev, g_v_prev)


def li_step(
    input_current: np.ndarray,
    state: NumpyState | None,
    constants: tuple[np.ndarray, ...],
) -> tuple[np.ndarray, NumpyState]:
    """One graph-free leaky-integrator step; returns ``(v, (i, v))``."""
    if state is None:
        state = (np.zeros_like(input_current), np.zeros_like(input_current))
    i_prev, v_prev = state
    scale, v_leak, _v_th, _one, _v_reset, _drop, decay = constants
    dv = scale * ((v_leak - v_prev) + i_prev)
    v_new = v_prev + dv
    i_new = i_prev * decay + input_current
    return v_new, (i_new, v_new)


def li_step_backward(
    g_membrane: np.ndarray,
    g_i: np.ndarray | None,
    constants: tuple[np.ndarray, ...],
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Reverse one :func:`li_step`; see :meth:`LICell.step_backward_numpy`."""
    if g_i is None:
        g_i = np.zeros_like(g_membrane)
    scale, _v_leak, _v_th, _one, _v_reset, _drop, decay = constants
    g_add1 = g_membrane * scale
    g_i_prev = g_add1 + g_i * decay
    return g_i, (g_i_prev, g_membrane, -g_add1)


@dataclass(frozen=True)
class LIFParameters:
    """Structural and dynamical parameters of a LIF population.

    ``v_th`` and (together with :attr:`repro.snn.network.SpikingNetwork.
    time_steps`) the simulation window are the two *structural parameters*
    whose robustness impact the paper studies.
    """

    tau_syn_inv: float = 200.0
    """Inverse synaptic time constant (1/s)."""

    tau_mem_inv: float = 100.0
    """Inverse membrane time constant (1/s); sets the leak rate."""

    v_th: float = 1.0
    """Firing threshold voltage (the paper's ``Vth``)."""

    v_leak: float = 0.0
    """Leak (resting) potential the membrane decays towards."""

    v_reset: float = 0.0
    """Potential the membrane is reset to after a spike."""

    dt: float = 1e-3
    """Integration time step (s)."""

    reset_mode: str = "hard"
    """``"hard"`` (reset to v_reset) or ``"soft"`` (subtract threshold)."""

    surrogate: str = "superspike"
    """Surrogate-gradient family used in the backward pass."""

    surrogate_alpha: float = 100.0
    """Sharpness of the surrogate gradient (Norse's SuperSpike default).

    This value matters twice: for trainability *and* for the measured
    robustness — the white-box attacker differentiates the same graph, so
    a sharp surrogate (large alpha) partially masks attack gradients.
    With alpha=100 the reproduction recovers the paper's large SNN-vs-CNN
    robustness gap; with alpha=10 the SNN trains slightly better but loses
    most of its measured robustness.  ``bench_ablation_surrogate``
    quantifies this.
    """

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on inconsistent values."""
        if self.v_th <= self.v_reset:
            raise ConfigurationError(
                f"v_th ({self.v_th}) must exceed v_reset ({self.v_reset})"
            )
        if self.dt <= 0:
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        if self.tau_syn_inv <= 0 or self.tau_mem_inv <= 0:
            raise ConfigurationError("time constants must be positive")
        if self.dt * self.tau_syn_inv >= 1.0 or self.dt * self.tau_mem_inv >= 1.0:
            raise ConfigurationError(
                "dt * tau_inv must stay below 1 for a stable Euler update; "
                f"got syn={self.dt * self.tau_syn_inv}, mem={self.dt * self.tau_mem_inv}"
            )
        if self.reset_mode not in ("hard", "soft"):
            raise ConfigurationError(f"unknown reset_mode {self.reset_mode!r}")
        if self.surrogate not in available_surrogates():
            raise ConfigurationError(f"unknown surrogate {self.surrogate!r}")
        if self.surrogate_alpha <= 0:
            raise ConfigurationError("surrogate_alpha must be positive")

    def with_v_th(self, v_th: float) -> "LIFParameters":
        """Copy with a different threshold (used by the grid exploration)."""
        return replace(self, v_th=float(v_th))

    @property
    def membrane_decay(self) -> float:
        """Per-step membrane retention factor ``1 - dt * tau_mem_inv``."""
        return 1.0 - self.dt * self.tau_mem_inv

    @property
    def synaptic_decay(self) -> float:
        """Per-step synaptic-current retention factor ``1 - dt * tau_syn_inv``."""
        return 1.0 - self.dt * self.tau_syn_inv


class LIFCell(Module):
    """Feed-forward LIF population applied one time step at a time.

    The cell is stateless as a module; callers thread the
    :data:`NumpyState` ``(i, v)`` through the simulation loop.  Its three
    numpy twins are its interface, and a subclass that changes the
    dynamics must override all three together (see
    :class:`~repro.snn.network.NetworkLanes`).
    """

    def __init__(self, params: LIFParameters | None = None) -> None:
        super().__init__()
        self.params = params or LIFParameters()
        self.params.validate()

    def step_numpy(
        self, input_current: np.ndarray, state: NumpyState | None = None
    ) -> tuple[np.ndarray, NumpyState]:
        """One LIF step on raw arrays; returns ``(spikes, (i, v))``.

        :meth:`step_record_numpy` without the context — the hot path for
        ``no_grad()`` inference.
        """
        spikes, new_state, _ctx = lif_step_record(
            input_current, state, _promoted_constants(self), self.params.reset_mode
        )
        return spikes, new_state

    def step_record_numpy(
        self, input_current: np.ndarray, state: NumpyState | None = None
    ) -> tuple[np.ndarray, NumpyState, np.ndarray]:
        """:meth:`step_numpy` that also returns the BPTT backward context.

        See :func:`lif_step_record`.
        """
        return lif_step_record(
            input_current, state, _promoted_constants(self), self.params.reset_mode
        )

    def step_backward_numpy(
        self,
        g_spikes: np.ndarray,
        g_state: NumpyState | None,
        ctx: np.ndarray,
    ) -> tuple[np.ndarray, NumpyState]:
        """Reverse one :meth:`step_record_numpy` step without an autograd graph.

        Parameters
        ----------
        g_spikes:
            Loss gradient w.r.t. this step's spike output (from the
            downstream synaptic transform).
        g_state:
            Loss gradient w.r.t. the *new* state ``(i, v)`` this step
            produced, flowing back from the next time step; ``None`` at
            the last step (the final state has no consumers).
        ctx:
            The context recorded by :meth:`step_record_numpy`.

        Returns ``(g_input_current, (g_i_prev, g_v_prev))`` — the gradient
        w.r.t. this step's synaptic input and w.r.t. the previous state,
        bitwise those of the autograd reference (see
        :func:`lif_step_backward`).
        """
        p = self.params
        derivative = partial(
            surrogate_derivative, method=p.surrogate, alpha=p.surrogate_alpha
        )
        return lif_step_backward(
            g_spikes, g_state, ctx, _promoted_constants(self), p.reset_mode, derivative
        )

    def __repr__(self) -> str:
        p = self.params
        return (
            f"LIFCell(v_th={p.v_th}, reset={p.reset_mode!r}, "
            f"surrogate={p.surrogate!r})"
        )


class LICell(Module):
    """Non-spiking leaky integrator used as the readout population.

    Integrates synaptic input into a membrane trace; decoders reduce the
    trace over time into logits.  Shares :class:`LIFParameters` for the
    time constants (threshold fields are ignored).
    """

    def __init__(self, params: LIFParameters | None = None) -> None:
        super().__init__()
        self.params = params or LIFParameters()
        self.params.validate()

    def step_numpy(
        self, input_current: np.ndarray, state: NumpyState | None = None
    ) -> tuple[np.ndarray, NumpyState]:
        """One integrator step on raw arrays; returns ``(v, (i, v))``."""
        return li_step(input_current, state, _promoted_constants(self))

    def step_backward_numpy(
        self, g_membrane: np.ndarray, g_i: np.ndarray | None
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Reverse one :meth:`step_numpy` step without an autograd graph.

        The integrator is linear, so no forward context is needed.
        ``g_membrane`` must already combine every gradient reaching this
        step's membrane (the decoder contribution plus both recurrent
        pieces, in the autograd path's accumulation order — see
        :mod:`repro.snn.backward`); ``g_i`` is the gradient on the new
        synaptic current from the next step (``None`` at the last step).

        Returns ``(g_input_current, (g_i_prev, g_v_direct, g_v_leak))``.
        The membrane gradient of the *previous* step is delivered as its
        two autograd pieces — the direct carry and the leak term — because
        the caller must interleave the decoder's trace contribution
        between them to preserve the autograd accumulation order.
        """
        return li_step_backward(g_membrane, g_i, _promoted_constants(self))

    def __repr__(self) -> str:
        return f"LICell(tau_mem_inv={self.params.tau_mem_inv})"
