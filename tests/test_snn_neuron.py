"""LIF / LI dynamics invariants."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.snn import LICell, LIFCell, LIFParameters


def _run_constant_current(cell: LIFCell, current: float, steps: int):
    """Drive one neuron with constant current; return (spike trace, states)."""
    x = np.array([current])
    state = None
    spikes = []
    voltages = []
    for _ in range(steps):
        z, state = cell.step_numpy(x, state)
        spikes.append(float(z[0]))
        voltages.append(float(state[1][0]))
    return spikes, voltages, state


class TestLIFParameters:
    def test_defaults_valid(self):
        LIFParameters().validate()

    def test_vth_must_exceed_reset(self):
        with pytest.raises(ConfigurationError):
            LIFParameters(v_th=0.0, v_reset=0.0).validate()

    def test_dt_positive(self):
        with pytest.raises(ConfigurationError):
            LIFParameters(dt=0.0).validate()

    def test_euler_stability_guard(self):
        with pytest.raises(ConfigurationError, match="stable"):
            LIFParameters(dt=0.01, tau_syn_inv=200.0).validate()

    def test_unknown_reset_mode(self):
        with pytest.raises(ConfigurationError):
            LIFParameters(reset_mode="bouncy").validate()

    def test_unknown_surrogate(self):
        with pytest.raises(ConfigurationError):
            LIFParameters(surrogate="magic").validate()

    def test_with_v_th_copies(self):
        base = LIFParameters()
        changed = base.with_v_th(2.0)
        assert changed.v_th == 2.0
        assert base.v_th == 1.0
        assert changed.tau_mem_inv == base.tau_mem_inv

    def test_decay_factors(self):
        p = LIFParameters()
        assert p.membrane_decay == pytest.approx(1.0 - 1e-3 * 100.0)
        assert p.synaptic_decay == pytest.approx(1.0 - 1e-3 * 200.0)


class TestLIFDynamics:
    def test_no_input_no_spikes(self):
        spikes, voltages, _ = _run_constant_current(LIFCell(), 0.0, 50)
        assert sum(spikes) == 0
        assert all(v == 0.0 for v in voltages)

    def test_subthreshold_current_never_spikes(self):
        # steady-state membrane = current / (dt*tau_syn_inv) stays below v_th
        spikes, voltages, _ = _run_constant_current(LIFCell(), 0.1, 200)
        assert sum(spikes) == 0
        assert max(voltages) < 1.0

    def test_suprathreshold_current_spikes(self):
        spikes, _, _ = _run_constant_current(LIFCell(), 1.0, 100)
        assert sum(spikes) > 0

    def test_spike_rate_monotone_in_current(self):
        rates = []
        for current in (0.5, 1.0, 2.0, 4.0):
            spikes, _, _ = _run_constant_current(LIFCell(), current, 200)
            rates.append(sum(spikes))
        assert rates == sorted(rates)
        assert rates[-1] > rates[0]

    def test_spike_rate_monotone_decreasing_in_vth(self):
        rates = []
        for v_th in (0.5, 1.0, 2.0):
            cell = LIFCell(LIFParameters(v_th=v_th))
            spikes, _, _ = _run_constant_current(cell, 2.0, 200)
            rates.append(sum(spikes))
        assert rates == sorted(rates, reverse=True)

    def test_hard_reset_returns_to_reset_potential(self):
        cell = LIFCell(LIFParameters(reset_mode="hard"))
        x = np.array([3.0])
        state = None
        for _ in range(100):
            z, state = cell.step_numpy(x, state)
            if z[0] == 1.0:
                assert state[1][0] == pytest.approx(0.0)
                return
        pytest.fail("neuron never spiked")

    def test_soft_reset_subtracts_threshold(self):
        params = LIFParameters(reset_mode="soft", v_th=1.0)
        cell = LIFCell(params)
        x = np.array([5.0])
        state = None
        for _ in range(100):
            z, state = cell.step_numpy(x, state)
            if z[0] == 1.0:
                # soft reset: v_new = v_decayed - v_th, can stay positive
                assert state[1][0] > -1.0
                return
        pytest.fail("neuron never spiked")

    def test_membrane_bounded_by_threshold_under_hard_reset(self):
        _spikes, voltages, _ = _run_constant_current(LIFCell(), 2.0, 300)
        # after any spike the membrane restarts at 0; between spikes it can
        # overshoot v_th only within a single step increment
        assert max(voltages) < 3.0

    def test_state_shapes_follow_input(self):
        cell = LIFCell()
        x = np.zeros((4, 3, 5, 5))
        z, (i, v) = cell.step_numpy(x)
        assert z.shape == (4, 3, 5, 5)
        assert v.shape == (4, 3, 5, 5)
        assert i.shape == (4, 3, 5, 5)

    def test_batch_independence(self):
        cell = LIFCell()
        x = np.array([[0.0], [2.0]])
        state = None
        for _ in range(100):
            z, state = cell.step_numpy(x, state)
        i, v = state
        assert v[0, 0] == pytest.approx(0.0)
        assert i[1, 0] > 0.0

    def test_gradient_flows_through_time(self):
        # d(total spikes)/d(input current) through the BPTT twins.
        cell = LIFCell(LIFParameters(surrogate_alpha=5.0))
        x = np.array([0.8])
        state = None
        ctxs = []
        for _ in range(20):
            _z, state, ctx = cell.step_record_numpy(x, state)
            ctxs.append(ctx)
        grad = np.zeros_like(x)
        g_state = None
        for ctx in reversed(ctxs):
            g_current, g_state = cell.step_backward_numpy(np.ones_like(x), g_state, ctx)
            grad = grad + g_current
        assert grad[0] != 0.0


class TestLICell:
    def test_integrates_constant_input(self):
        cell = LICell()
        x = np.array([1.0])
        state = None
        voltages = []
        for _ in range(100):
            v, state = cell.step_numpy(x, state)
            voltages.append(float(v[0]))
        assert voltages[-1] > voltages[0]
        # converges towards steady state current/(dt*tau_syn_inv) = 5.0
        assert voltages[-1] == pytest.approx(5.0, rel=0.05)

    def test_never_spikes_interface(self):
        # LI returns membrane (continuous), not binary spikes
        cell = LICell()
        values = []
        state = None
        for _ in range(50):
            v, state = cell.step_numpy(np.array([10.0]), state)
            values.append(float(v[0]))
        assert any(val not in (0.0, 1.0) for val in values)

    def test_decays_without_input(self):
        cell = LICell()
        state = None
        # charge up
        for _ in range(50):
            _v, state = cell.step_numpy(np.array([2.0]), state)
        peak = float(state[1][0])
        for _ in range(100):
            _v, state = cell.step_numpy(np.array([0.0]), state)
        assert float(state[1][0]) < peak * 0.1

    def test_repr(self):
        assert "LICell" in repr(LICell())
        assert "LIFCell" in repr(LIFCell())
