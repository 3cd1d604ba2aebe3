"""Parity contracts of the PR-6 K-stacked execution layer.

A :class:`~repro.snn.stack.VariantStack` lifts K same-architecture models
(differing in Vth, T, surrogate slope, encoder rate) into one lane-folded
pass.  Everything it produces must be **bitwise identical** per variant
to the K=1 fused path — forward logits, input gradients, parameter
gradients, trained weights, and whole engine-level cell results — which
is exactly what this module asserts, alongside the cost-ordered
scheduling and cache-timing satellites that ride on the same PR.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import ArrayDataset
from repro.engine import scheduler
from repro.engine.cache import (
    CellCache,
    WeightCache,
    cache_stats,
    context_fingerprint,
    training_fingerprint,
)
from repro.engine.costs import (
    cached_costs,
    cost_estimator,
    deadline_estimator,
    order_tasks,
)
from repro.engine.job import CellTask, JobContext, build_cell_tasks
from repro.engine.resilience import ResilienceConfig
from repro.engine.scheduler import ContextSpec, run_cell_tasks, run_tasks
from repro.engine.stacking import pack_stacks
from repro.experiments.sweeps import build_grid_context, grid_config
from repro.models.spiking_lenet import build_spiking_lenet_mini
from repro.robustness.config import ExplorationConfig
from repro.robustness.results import CellResult
from repro.snn.decoding import MaxMembraneDecoder
from repro.snn.encoding import PoissonEncoder
from repro.snn.neuron import LIFCell, LIFParameters, LICell
from repro.snn.stack import (
    StackedLICell,
    StackedLIFCell,
    VariantStack,
    stack_compatibility,
)
from repro.tensor.tensor import Tensor, no_grad
from repro.training.trainer import TrainingConfig
from tests.reference_ops import unroll


def _fold(batches):
    return np.concatenate(list(batches), axis=0)


def _lane(folded, lane, n):
    return folded[lane * n : (lane + 1) * n]


def _mini(v_th=1.0, time_steps=4, seed=0, surrogate_alpha=100.0):
    return build_spiking_lenet_mini(
        input_size=8,
        num_classes=4,
        time_steps=time_steps,
        lif_params=LIFParameters(v_th=v_th, surrogate_alpha=surrogate_alpha),
        rng=seed,
    )


# -- per-layer parity ---------------------------------------------------------


class TestStackedCells:
    """Stacked LIF/LI populations vs their unstacked numpy twins."""

    def _lif_variants(self):
        return [
            LIFCell(LIFParameters(v_th=0.5, surrogate_alpha=100.0)),
            LIFCell(LIFParameters(v_th=1.0, surrogate_alpha=10.0)),
            LIFCell(LIFParameters(v_th=1.5, tau_mem_inv=120.0)),
        ]

    def test_lif_step_parity(self, rng):
        cells = self._lif_variants()
        stacked = StackedLIFCell(cells)
        n = 3
        currents = [
            rng.standard_normal((n, 6)).astype(np.float32) for _ in range(4)
        ]
        folded_state = None
        lane_states = [None] * len(cells)
        for current in currents:
            folded = _fold([current] * len(cells))
            spikes, folded_state = stacked.step_numpy(folded, folded_state)
            for lane, cell in enumerate(cells):
                expected, lane_states[lane] = cell.step_numpy(
                    current, lane_states[lane]
                )
                np.testing.assert_array_equal(_lane(spikes, lane, n), expected)
                for got, want in zip(_lane_state(folded_state, lane, n), lane_states[lane]):
                    np.testing.assert_array_equal(got, want)

    def test_lif_record_backward_parity(self, rng):
        cells = self._lif_variants()
        stacked = StackedLIFCell(cells)
        n = 2
        current = rng.standard_normal((n, 5)).astype(np.float32)
        folded = _fold([current] * len(cells))
        spikes, state, ctx = stacked.step_record_numpy(folded)
        g_spikes = rng.standard_normal(spikes.shape).astype(np.float32)
        gi, (g_i_prev, g_v_prev) = stacked.step_backward_numpy(g_spikes, None, ctx)
        for lane, cell in enumerate(cells):
            e_spikes, e_state, e_ctx = cell.step_record_numpy(current)
            np.testing.assert_array_equal(_lane(spikes, lane, n), e_spikes)
            e_gi, (e_g_i, e_g_v) = cell.step_backward_numpy(
                _lane(g_spikes, lane, n), None, e_ctx
            )
            np.testing.assert_array_equal(_lane(gi, lane, n), e_gi)
            np.testing.assert_array_equal(_lane(g_i_prev, lane, n), e_g_i)
            np.testing.assert_array_equal(_lane(g_v_prev, lane, n), e_g_v)

    def test_li_parity(self, rng):
        cells = [
            LICell(LIFParameters()),
            LICell(LIFParameters(tau_mem_inv=80.0)),
        ]
        stacked = StackedLICell(cells)
        n = 4
        current = rng.standard_normal((n, 3)).astype(np.float32)
        folded = _fold([current] * len(cells))
        membrane, state = stacked.step_numpy(folded)
        g = rng.standard_normal(membrane.shape).astype(np.float32)
        g_i, (g_i_prev, g_v_direct, g_v_leak) = stacked.step_backward_numpy(g, None)
        for lane, cell in enumerate(cells):
            e_membrane, _e_state = cell.step_numpy(current)
            np.testing.assert_array_equal(_lane(membrane, lane, n), e_membrane)
            e_g_i, (e_g_i_prev, e_direct, e_leak) = cell.step_backward_numpy(
                _lane(g, lane, n), None
            )
            np.testing.assert_array_equal(_lane(g_i, lane, n), e_g_i)
            np.testing.assert_array_equal(_lane(g_i_prev, lane, n), e_g_i_prev)
            np.testing.assert_array_equal(_lane(g_v_direct, lane, n), e_direct)
            np.testing.assert_array_equal(_lane(g_v_leak, lane, n), e_leak)

    def test_reset_mode_must_agree(self):
        cells = [
            LIFCell(LIFParameters(reset_mode="hard")),
            LIFCell(LIFParameters(reset_mode="soft")),
        ]
        with pytest.raises(ValueError, match="reset_mode"):
            StackedLIFCell(cells)


class _UnknownLIFCell(LIFCell):
    """A LIF population of a type the stacked mirrors do not know."""


class _UnknownLICell(LICell):
    """A readout integrator of a type the stacked mirrors do not know."""


class _DoubledMaxDecoder(MaxMembraneDecoder):
    """A decoder whose ``forward`` no longer matches its ``decode_numpy``."""

    def forward(self, trace):
        return super().forward(trace) * 2.0


def _lane_state(state, lane, n):
    return tuple(_lane(array, lane, n) for array in state)


# -- compatibility gate -------------------------------------------------------


class TestStackCompatibility:
    def test_registry_models_are_stackable(self):
        members = [_mini(v_th=0.5, time_steps=3, seed=0), _mini(1.5, 5, 1)]
        assert stack_compatibility(members) is None

    def test_custom_cell_type_rejects(self):
        model = _mini()
        model.layers[0].cell = _UnknownLIFCell(model.layers[0].cell.params)
        assert stack_compatibility([model]) == "custom LIF cell _UnknownLIFCell"

    def test_decoder_without_matching_twin_rejects(self):
        model = _mini()
        model.decoder = _DoubledMaxDecoder()
        assert stack_compatibility([model]) == (
            "decoder _DoubledMaxDecoder lacks a matching decode_numpy"
        )

    def test_reset_mode_mismatch_rejects(self):
        members = [
            _mini(seed=0),
            build_spiking_lenet_mini(
                input_size=8,
                num_classes=4,
                time_steps=4,
                lif_params=LIFParameters(reset_mode="soft"),
                rng=1,
            ),
        ]
        assert stack_compatibility(members) == "reset_mode differs across members"

    def test_variant_stack_raises_with_reason(self):
        model = _mini()
        model.readout.cell = _UnknownLICell(model.readout.cell.params)
        with pytest.raises(ValueError, match="cannot stack"):
            VariantStack([model])


# -- end-to-end stack parity --------------------------------------------------


def _variant_specs(k):
    """(v_th, T, seed, surrogate_alpha) for a deliberately ragged stack."""
    pool = [
        (0.5, 4, 0, 100.0),
        (1.0, 6, 1, 100.0),   # ragged T
        (1.5, 4, 2, 10.0),    # different surrogate slope
        (0.75, 5, 3, 100.0),
        (1.25, 6, 4, 50.0),
    ]
    return pool[:k]


class TestVariantStackParity:
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_forward_logits_bitwise(self, rng, k):
        members = [
            _mini(v, t, seed, alpha) for v, t, seed, alpha in _variant_specs(k)
        ]
        stack = VariantStack(members)
        x = rng.random((3, 1, 8, 8)).astype(np.float32)
        folded = stack.fold([x] * k)
        logits = stack.forward_logits(folded)
        assert stack.stacked_forward_count == 1
        for member, lane_logits in zip(members, logits):
            with no_grad():
                expected = member(Tensor(x)).data
            np.testing.assert_array_equal(lane_logits, expected)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_fused_input_gradient_bitwise(self, rng, k):
        members = [
            _mini(v, t, seed, alpha) for v, t, seed, alpha in _variant_specs(k)
        ]
        stack = VariantStack(members)
        x = rng.random((3, 1, 8, 8)).astype(np.float32)
        labels = [rng.integers(0, 4, 3) for _ in range(k)]
        folded_grad = stack.fused_input_gradient(stack.fold([x] * k), labels)
        for lane, member in enumerate(members):
            expected = member.fused_input_gradient(x, labels[lane])
            np.testing.assert_array_equal(_lane(folded_grad, lane, 3), expected)

    def test_fused_loss_backward_bitwise(self, rng):
        self._check_fused_loss_backward(rng, 3)

    def test_fused_loss_backward_one_lane_bitwise(self, rng):
        # A one-lane stack runs the shared loop with stacked stage
        # objects; the member's own path runs it with its module twins.
        self._check_fused_loss_backward(rng, 1)

    def _check_fused_loss_backward(self, rng, k):
        specs = _variant_specs(k)
        members = [_mini(v, t, seed, alpha) for v, t, seed, alpha in specs]
        twins = [_mini(v, t, seed, alpha) for v, t, seed, alpha in specs]
        stack = VariantStack(members)
        x = rng.random((4, 1, 8, 8)).astype(np.float32)
        labels = [rng.integers(0, 4, 4) for _ in range(k)]
        pairs = stack.fused_loss_backward(stack.fold([x] * k), labels)
        for lane, (member, twin) in enumerate(zip(members, twins)):
            loss, logits = twin.fused_loss_backward(x, labels[lane])
            assert pairs[lane][0] == loss
            np.testing.assert_array_equal(pairs[lane][1], logits)
            for got, want in zip(member.parameters(), twin.parameters()):
                assert (got.grad is None) == (want.grad is None)
                if want.grad is not None:
                    np.testing.assert_array_equal(got.grad, want.grad)

    def test_param_lanes_gate_accumulation(self, rng):
        specs = _variant_specs(2)
        members = [_mini(v, t, s, a) for v, t, s, a in specs]
        twin = _mini(*specs[0])
        stack = VariantStack(members)
        x = rng.random((2, 1, 8, 8)).astype(np.float32)
        labels = [rng.integers(0, 4, 2) for _ in range(2)]
        stack.fused_loss_backward(stack.fold([x] * 2), labels, param_lanes=[True, False])
        twin.fused_loss_backward(x, labels[0])
        # The selected lane accumulates exactly its twin's gradients (a
        # short T window legitimately leaves early-layer grads unset)...
        for got, want in zip(members[0].parameters(), twin.parameters()):
            np.testing.assert_array_equal(got.grad, want.grad)
        assert any(p.grad is not None for p in members[0].parameters())
        # ...while the deselected lane accumulates nothing at all.
        assert all(p.grad is None for p in members[1].parameters())

    def test_poisson_per_variant_seeds(self, rng):
        """Per-lane Poisson draws match each member's own stream exactly."""
        specs = [(0.5, 4, 0), (1.0, 6, 1)]
        members, twins = [], []
        for v, t, seed in specs:
            for bucket in (members, twins):
                model = _mini(v, t, seed)
                model.encoder = PoissonEncoder(scale=1.5, rng=seed + 40)
                bucket.append(model)
        stack = VariantStack(members)
        x = rng.random((3, 1, 8, 8)).astype(np.float32)
        logits = stack.forward_logits(stack.fold([x] * 2))
        for lane, twin in enumerate(twins):
            with no_grad():
                expected = twin(Tensor(x)).data
            np.testing.assert_array_equal(logits[lane], expected)
        # The stacked pass consumed each member's generator exactly as the
        # unstacked pass consumed its twin's — including skipping the
        # shorter variant's draws on padded (dead) steps.
        for member, twin in zip(members, twins):
            assert (
                member.encoder._rng.bit_generator.state
                == twin.encoder._rng.bit_generator.state
            )


# -- engine-level parity ------------------------------------------------------


def _grid_fixture():
    rng = np.random.default_rng(0)
    train = ArrayDataset(
        rng.random((16, 1, 8, 8), dtype=np.float32), rng.integers(0, 4, 16)
    )
    test = ArrayDataset(
        rng.random((8, 1, 8, 8), dtype=np.float32), rng.integers(0, 4, 8)
    )

    def factory(v_th, time_window, seed):
        return build_spiking_lenet_mini(
            input_size=8,
            num_classes=4,
            time_steps=int(time_window),
            lif_params=LIFParameters(v_th=float(v_th)),
            rng=seed,
        )

    config = ExplorationConfig(
        v_thresholds=(0.5, 1.0),
        time_windows=(4, 6),
        epsilons=(0.0, 0.8),
        accuracy_threshold=0.05,
        attack_steps=2,
        training=TrainingConfig(epochs=1, batch_size=8, seed=11),
        seed=7,
    )
    return factory, train, test, config


def _unrolled_graph_factory(factory):
    """The unstacked reference: models train and craft on the autograd loop."""

    def build(v_th, time_window, seed):
        return unroll(factory(v_th, time_window, seed))

    return build


class TestStackedEngine:
    def test_stacked_schedule_matches_unstacked_bitwise(self, tmp_path):
        factory, train, test, config = _grid_fixture()
        tasks = build_cell_tasks(config)

        ctx_a = JobContext.for_grid(config, _unrolled_graph_factory(factory), train, test)
        ctx_a.weight_cache = WeightCache(
            tmp_path / "a", training_fingerprint(train, config.training)
        )
        base, _stats = run_cell_tasks(ctx_a, tasks)

        ctx_b = JobContext.for_grid(config, factory, train, test)
        ctx_b.weight_cache = WeightCache(
            tmp_path / "b", training_fingerprint(train, config.training)
        )
        cache = CellCache(tmp_path / "b", context_fingerprint(ctx_b))
        stacked, stats = run_cell_tasks(ctx_b, tasks, stack=3, cache=cache)

        assert stats.start_method == "stacked"
        assert [cell.stack_size for cell in stacked].count(3) >= 3
        for expected, got in zip(base, stacked):
            assert expected == got  # dataclass equality: the science fields
            assert expected.robustness == got.robustness
        # Trained weights are the stronger claim: byte-for-byte equal
        # archives, so a later --resume re-sweep is provably unaffected
        # by how the original run was stacked.
        for task in tasks:
            path_a = ctx_a.weight_cache.path_for(task.key, task.train_seed)
            path_b = ctx_b.weight_cache.path_for(task.key, task.train_seed)
            assert path_a.is_file() == path_b.is_file()
            if path_a.is_file():
                got_a = ctx_a.weight_cache.get(task.key, task.train_seed)
                got_b = ctx_b.weight_cache.get(task.key, task.train_seed)
                for key in got_a[0]:
                    assert got_a[0][key].tobytes() == got_b[0][key].tobytes()

        # Resume: every cell served from the checkpoint store, bitwise.
        served, resume_stats = run_cell_tasks(
            ctx_b, tasks, stack=3, cache=cache, resume=True
        )
        assert served == stacked
        assert resume_stats.cached_cells == len(tasks)

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_pooled_stacks_match_serial_bitwise(self, start_method):
        # --stack composes with --jobs: each pool worker runs whole
        # stacked units, and every cell stays bitwise serial.
        context = build_grid_context("micro")
        tasks = build_cell_tasks(grid_config("micro"))
        serial, _stats = run_cell_tasks(context, tasks)
        spec = ContextSpec("repro.experiments.sweeps:build_grid_context",
                           {"profile": "micro"})
        pooled, stats = run_cell_tasks(
            context, tasks, jobs=2, stack=2, start_method=start_method,
            context_spec=spec,
        )
        assert (stats.jobs, stats.start_method) == (2, start_method)
        assert [cell.stack_size for cell in pooled] == [2] * len(tasks)
        for expected, got in zip(serial, pooled):
            assert expected == got  # dataclass equality: the science fields
            assert expected.robustness == got.robustness

    def test_trusted_twin_fallback_is_per_cell(self):
        """A variant the stacked stages cannot mirror runs unstacked alone."""
        factory, train, test, config = _grid_fixture()
        tasks = build_cell_tasks(config)

        def suspicious_factory(v_th, time_window, seed):
            model = factory(v_th, time_window, seed)
            if float(v_th) == 0.5 and int(time_window) == 6:
                model.layers[0].cell = _UnknownLIFCell(model.layers[0].cell.params)
            return model

        ctx_a = JobContext.for_grid(config, _unrolled_graph_factory(factory), train, test)
        base, _stats = run_cell_tasks(ctx_a, tasks)
        ctx_b = JobContext.for_grid(config, suspicious_factory, train, test)
        stacked, _stats = run_cell_tasks(ctx_b, tasks, stack=4)
        for expected, got in zip(base, stacked):
            assert expected == got
        by_cell = {
            (cell.v_th, cell.time_window): cell.stack_size for cell in stacked
        }
        assert by_cell[(0.5, 6)] == 1  # the untrusted cell ran unstacked
        assert by_cell[(1.0, 4)] == 3  # the other three still stacked

    def test_pack_stacks_diverts_weight_cache_hits(self, tmp_path):
        factory, train, test, config = _grid_fixture()
        tasks = build_cell_tasks(config)[:2]
        context = JobContext.for_grid(config, factory, train, test)
        context.weight_cache = WeightCache(
            tmp_path, training_fingerprint(train, config.training)
        )
        from repro.engine.job import run_cell_task

        run_cell_task(context, tasks[0])  # archives this cell's weights
        context.reuse_weights = True
        groups, singles = pack_stacks(context, tasks, stack=2)
        assert groups == []
        assert {task.index for task in singles} == {tasks[0].index, tasks[1].index}


# -- cost-ordered scheduling --------------------------------------------------


def _cell(index, v_th, time_window):
    return CellTask(
        index, f"cell_vth{v_th:g}_T{time_window}", "cell",
        params=(("time_window", time_window), ("v_th", v_th)),
    )


def _variant(index, key, time_window=None):
    params = () if time_window is None else (("time_window", time_window),)
    return CellTask(index=index, key=key, kind="fig9_snn", params=params)


def _cell_result(task, elapsed_seconds=0.0, phase_seconds=None):
    return CellResult(
        v_th=task.v_th,
        time_window=task.time_window,
        clean_accuracy=0.5,
        learnable=True,
        elapsed_seconds=elapsed_seconds,
        phase_seconds=phase_seconds or {},
    )


def _reference_order_cell_tasks(tasks, costs):
    """The cell-only ordering rule the shared cost model replaced, over
    measured ``(seconds, time_window)`` keyed by cell: the oracle the
    shared rule must reproduce on grid cells."""
    rates = sorted(
        seconds / steps for seconds, steps in costs.values() if steps > 0
    )
    rate = rates[len(rates) // 2] if rates else None

    def estimate(task):
        known = costs.get(task.key, (None,))[0]
        if known is not None:
            return known
        steps = int(task.time_window)
        return rate * steps if rate is not None else float(steps)

    return sorted(tasks, key=lambda task: (-estimate(task), task.index))


class TestCostOrdering:
    def test_cold_cache_orders_by_time_window(self):
        tasks = [_cell(0, 0.5, 4), _cell(1, 1.0, 64), _cell(2, 1.5, 16)]
        ordered = order_tasks(tasks, {})
        assert [task.index for task in ordered] == [1, 2, 0]

    def test_measured_costs_win_over_t(self):
        tasks = [_cell(0, 0.5, 4), _cell(1, 1.0, 64)]
        # A measured slow T=4 cell outranks an estimated T=64 one.
        costs = {"cell_vth0.5_T4": (100.0, 4), "cell_vth1_T64": (1.0, 64)}
        ordered = order_tasks(tasks, costs)
        assert [task.index for task in ordered] == [0, 1]

    def test_unmeasured_tasks_priced_by_median_rate(self):
        estimate = cost_estimator({"cell_vth0.5_T10": (20.0, 10)})  # 2 s per step
        assert estimate(_cell(0, 1.0, 8)) == pytest.approx(16.0)
        assert estimate(_cell(1, 0.5, 10)) == 20.0

    def test_order_is_deterministic_on_ties(self):
        tasks = [_cell(2, 0.5, 8), _cell(0, 1.0, 8), _cell(1, 1.5, 8)]
        assert [t.index for t in order_tasks(tasks, {})] == [0, 1, 2]

    def test_sweep_tasks_fall_back_to_time_steps_param(self):
        sweeps = [_variant(0, "a", 8), _variant(1, "b", 32), _variant(2, "c")]
        assert [task.time_steps for task in sweeps] == [8, 32, 0]
        assert [t.index for t in order_tasks(sweeps, {})] == [1, 0, 2]
        measured = {"c": (50.0, 0)}
        assert [t.index for t in order_tasks(sweeps, measured)] == [2, 1, 0]

    @pytest.mark.parametrize("history", ["none", "partial", "full"])
    def test_grid_order_matches_the_cell_only_rule(self, tmp_path, history):
        tasks = [
            _cell(index, v_th, time_window)
            for index, (v_th, time_window) in enumerate(
                (v, t) for v in (0.5, 1.0, 1.5) for t in (4, 8, 16, 32)
            )
        ]
        rng = np.random.default_rng(3)
        measured = {"none": [], "partial": tasks[1::3], "full": tasks}[history]
        cache = CellCache(tmp_path, "f" * 64)
        for task in measured:
            cache.put(task, _cell_result(task, float(rng.uniform(0.1, 50.0))))
        costs = cached_costs(cache)
        assert len(costs) == len(measured)
        for _ in range(5):
            shuffled = [tasks[i] for i in rng.permutation(len(tasks))]
            assert order_tasks(shuffled, costs) == _reference_order_cell_tasks(
                shuffled, costs
            )

    def test_cached_costs_read_from_checkpoints(self, tmp_path):
        factory, train, test, config = _grid_fixture()
        tasks = build_cell_tasks(config)
        context = JobContext.for_grid(config, factory, train, test)
        cache = CellCache(tmp_path, context_fingerprint(context))
        cache.put(
            tasks[0],
            _cell_result(
                tasks[0], 12.5, {"train_s": 10.0, "attack_s": 2.5}
            ),
        )
        costs = cached_costs(cache)
        assert costs == {tasks[0].key: (12.5, tasks[0].time_window)}
        assert tasks[0].cost_key in costs
        assert cached_costs(CellCache(tmp_path / "empty", "f" * 64)) == {}

    def test_scheduler_returns_declared_order_despite_reordering(self, tmp_path):
        factory, train, test, config = _grid_fixture()
        tasks = build_cell_tasks(config)
        cache = CellCache(tmp_path, "f" * 64)
        # Measured seconds that disagree with both the declared order
        # and T-descending: the history alone decides the execution order.
        seconds = [9.0, 1.0, 5.0, 2.0]
        for task, elapsed in zip(tasks, seconds):
            cache.put(task, _cell_result(task, elapsed))
        assert [t.index for t in order_tasks(tasks, {})] == [1, 3, 0, 2]
        executed: list[int] = []

        def run(context, task):
            executed.append(task.index)
            return _cell_result(task)

        results, _stats = run_tasks(None, tasks, run, cache=cache)
        assert executed == [0, 2, 3, 1]
        assert [(r.v_th, r.time_window) for r in results] == [
            (t.v_th, t.time_window) for t in tasks
        ]


class _Dispatched(Exception):
    """Raised by the queue stand-in once it has seen what run_tasks sent."""


class TestSweepPricing:
    """Sweep variants are priced by the same rule as grid cells."""

    def _history(self, tmp_path, seconds):
        cache = CellCache(tmp_path, "f" * 64)
        measured = _variant(1, "snn_vth1_T64", 64)
        cache.put(measured, _cell_result(measured, seconds))
        return cache, [_variant(0, "snn_vth1_T32", 32), measured]

    def test_unmeasured_variant_priced_by_the_history_rate(self, tmp_path):
        # 20 s for T=64 is 0.3125 s per step, so T=32 costs 10 s: shorter.
        cache, tasks = self._history(tmp_path, 20.0)
        executed: list[str] = []

        def run(context, task):
            executed.append(task.key)
            return _cell_result(task)

        results, _stats = run_tasks(None, tasks, run, cache=cache)
        assert executed == ["snn_vth1_T64", "snn_vth1_T32"]
        assert [r.time_window for r in results] == [t.time_window for t in tasks]

    def test_unmeasured_variant_gets_the_rate_priced_deadline(
        self, tmp_path, monkeypatch
    ):
        # 200 s for T=64 prices T=32 at 100 s; 8 x 100 s beats the 600 s floor.
        cache, tasks = self._history(tmp_path, 200.0)
        seen = {}

        def queue_stand_in(context, tasks, run_fn, cache, queue_dir, **options):
            seen.update(options, tasks=tasks)
            raise _Dispatched

        monkeypatch.setattr(scheduler, "run_queued_tasks", queue_stand_in)
        with pytest.raises(_Dispatched):
            run_tasks(None, tasks, None, cache=cache, queue_dir=tmp_path / "q")
        assert [task.key for task in seen["tasks"]] == [
            "snn_vth1_T64", "snn_vth1_T32",
        ]
        deadline = seen["task_deadline"]
        assert deadline(tasks[0]) == pytest.approx(800.0)
        assert deadline(tasks[1]) == pytest.approx(1600.0)
        assert seen["resilience"] == ResilienceConfig()

    def test_cold_cache_deadline_is_the_floor(self, tmp_path):
        resilience = ResilienceConfig(watchdog_multiplier=8.0, watchdog_floor=30.0)
        deadline = deadline_estimator({}, resilience)
        assert deadline(_variant(0, "snn_vth1_T64", 64)) == 30.0
        assert deadline_estimator({}, ResilienceConfig(watchdog_multiplier=0)) is None


# -- cache stats timing totals ------------------------------------------------


class TestCacheStatsTimings:
    def test_phase_totals_aggregate_across_entries(self, tmp_path):
        factory, train, test, config = _grid_fixture()
        tasks = build_cell_tasks(config)
        context = JobContext.for_grid(config, factory, train, test)
        cache = CellCache(tmp_path, context_fingerprint(context))
        for task, train_s, attack_s in ((tasks[0], 4.0, 1.0), (tasks[1], 6.0, 3.0)):
            cache.put(
                task,
                CellResult(
                    v_th=task.v_th,
                    time_window=task.time_window,
                    clean_accuracy=0.5,
                    learnable=True,
                    elapsed_seconds=train_s + attack_s,
                    phase_seconds={"train_s": train_s, "attack_s": attack_s},
                ),
            )
        stats = cache_stats(tmp_path)
        assert stats["timings"]["timed_entries"] == 2
        assert stats["timings"]["totals"] == {
            "elapsed_s": 14.0,
            "train_s": 10.0,
            "attack_s": 4.0,
        }

    def test_empty_directory_reports_zero_timings(self, tmp_path):
        stats = cache_stats(tmp_path)
        assert stats["timings"] == {"timed_entries": 0, "totals": {}}
