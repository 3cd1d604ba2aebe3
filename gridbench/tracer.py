"""In-memory spans around the calls into each layer of the program.

Spans are recorded from the benchmark's own files: :func:`instrumented` wraps
public methods at class level, and module-level functions under the name
each caller looks them up by (a function imported into another module is
patched there, where it is used).  Each span records its name, start, end,
parent span and run id.  Self time is the span's duration minus what its
child spans cover.

Two rules keep attribution unambiguous: a span whose name is already open
is not opened again (``Linear.forward_record_numpy`` calls
``forward_numpy``), and nothing nests inside an *opaque* span (the
encoder's inner LIF population is encoder time, not hidden-layer time).

:class:`GuardCounters` is separate and always on: two cell-level counts the
workload guards need in untraced runs too.
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter
from time import perf_counter

from repro.attacks import metrics as attack_metrics
from repro.attacks import pgd as attack_pgd
from repro.attacks.base import Attack
from repro.data.synth_mnist import SyntheticMNIST
from repro.engine import cache, costs, scheduler, search, stacking
from repro.engine import job as engine_job
from repro.experiments import fig678_grid
from repro.nn.conv import Conv2d
from repro.nn.linear import Linear
from repro.nn.pooling import AvgPool2d, MaxPool2d
from repro.optim.adam import Adam
from repro.snn import backward as bptt
from repro.snn import stack as snn_stack
from repro.snn.encoding import ConstantCurrentLIFEncoder
from repro.snn.network import SpikingNetwork
from repro.snn.neuron import LICell, LIFCell
from repro.tensor.functional import Conv2dPlan
from repro.tensor.tensor import Tensor, is_grad_enabled
from repro.training.trainer import Trainer


class GuardCounters:
    """``Trainer.fit`` calls and weight-cache hits, counted in every run.

    Constructing one wraps both methods for the rest of the process.
    """

    def __init__(self) -> None:
        self.fit_calls = 0
        self.weight_hits = 0
        fit, get = Trainer.fit, cache.WeightCache.get

        def counted_fit(*args, **kwargs):
            self.fit_calls += 1
            return fit(*args, **kwargs)

        def counted_get(*args, **kwargs):
            found = get(*args, **kwargs)
            self.weight_hits += found is not None
            return found

        Trainer.fit = counted_fit
        cache.WeightCache.get = counted_get

    def snapshot(self) -> dict:
        return {"fit_calls": self.fit_calls, "weight_hits": self.weight_hits}


class Tracer:
    """Span recorder with running inclusive/self totals per span name."""

    def __init__(self) -> None:
        self.active = False
        self.run_id = -1
        self.unpatched: list[str] = []
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent index, run id]
        self._stack: list[list] = []  # [name, start, child seconds, span index, opaque]
        self._open: set[str] = set()
        self.inclusive: Counter = Counter()
        self.self_time: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    # -- recording -----------------------------------------------------------

    def _records(self, name: str) -> bool:
        if not self.active or name in self._open:
            return False
        return not (self._stack and self._stack[-1][4])

    def _enter(self, name: str, opaque: bool) -> list:
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1][3] if self._stack else -1
        index = len(self.spans)
        start = perf_counter()
        self.spans.append([name_id, start, start, parent, self.run_id])
        frame = [name, start, 0.0, index, opaque]
        self._stack.append(frame)
        self._open.add(name)
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        name, start, child, index, _opaque = frame
        self._stack.pop()
        self._open.discard(name)
        duration = end - start
        self.spans[index][2] = end
        self.inclusive[name] += duration
        self.self_time[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def call(self, name: str, fn, args=(), kwargs=None, opaque: bool = False):
        """Run ``fn`` inside a span; returns ``(result, recorded)``."""
        kwargs = kwargs or {}
        if not self._records(name):
            return fn(*args, **kwargs), False
        frame = self._enter(name, opaque)
        try:
            return fn(*args, **kwargs), True
        finally:
            self._exit(frame)

    def wrap(self, name, fn, count=None, opaque: bool = False, before=None):
        """``fn`` recording a span per call.

        ``name`` may be a callable choosing the span name per call.
        ``count(tracer, args, result, state)`` runs after each recorded
        call, with ``state = before(args)`` taken just before it.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name() if callable(name) else name
            state = before(args) if (before is not None and tracer._records(span)) else None
            result, recorded = tracer.call(span, fn, args, kwargs, opaque)
            if recorded and count is not None:
                count(tracer, args, result, state)
            return result

        return traced

    def closure(self, name: str, fn, gemms: int, flop: float):
        """Wrap an autograd backward closure as a span issuing ``gemms`` GEMMs."""
        tracer = self

        def traced(g):
            result, recorded = tracer.call(name, fn, (g,))
            if recorded:
                _add_gemms(tracer, gemms, flop)
            return result

        return traced

    # -- results ---------------------------------------------------------------

    def self_times(self, reps: int) -> dict[str, float]:
        """Mean self seconds per repetition, by span name."""
        return {name: value / reps for name, value in self.self_time.items()}

    def layer_metrics(self, reps: int) -> dict[str, float]:
        """Every per-layer metric, as a mean per traced repetition."""
        metrics: dict[str, float] = {}
        for name in self.names:
            metrics[f"{name}_s"] = self.inclusive[name] / reps
            metrics[f"{name}.calls"] = self.calls[name] / reps
        for name, value in self.counts.items():
            metrics[name] = value / reps
        metrics["engine.self_s"] = (
            self.self_time["engine"] + self.self_time["engine.search"]
        ) / reps
        metrics["training.batches"] = self.calls["optim.step"] / reps
        metrics["engine.stack.lane_fill"] = _ratio(
            self.counts["stack.live_lane_steps"], self.counts["stack.padded_lane_steps"]
        )
        metrics["engine.search.survivor_ratio"] = _ratio(
            self.counts["search.survivors"], self.counts["search.ranked"]
        )
        return metrics

    def trace_document(self) -> dict:
        """Every span, times in microseconds from the first span's start."""
        origin = self.spans[0][1] if self.spans else 0.0
        return {
            "names": self.names,
            "columns": ["name", "start_us", "end_us", "parent", "run"],
            "spans": [
                [name, round((start - origin) * 1e6), round((end - origin) * 1e6), parent, run]
                for name, start, end, parent, run in self.spans
            ],
        }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- counting hooks ------------------------------------------------------------


def _conv_flop(weight_shape, rows: int) -> float:
    """FLOPs of one im2col GEMM: 2 x rows (N*OH*OW) x C_in*KH*KW x C_out."""
    c_out, c_in, kh, kw = weight_shape
    return 2.0 * rows * c_in * kh * kw * c_out


def _rows(shape) -> int:
    """im2col rows of a ``(N, C, OH, OW)`` convolution output."""
    return shape[0] * shape[2] * shape[3]


def _add_gemms(tracer: Tracer, gemms: int, flop: float = 0.0) -> None:
    """Count ``gemms`` GEMMs of ``flop`` each (conv GEMMs carry their FLOPs)."""
    tracer.counts["nn.gemm.calls"] += gemms
    tracer.counts["nn.conv.gflop"] += gemms * flop / 1e9


def _lanes(mask, k: int) -> int:
    return k if mask is None else sum(1 for lane in mask if lane)


def _conv_forward(tracer, args, result, state):
    conv = args[0]
    out = result[0] if isinstance(result, tuple) else result
    flop = _conv_flop(conv.weight.shape, _rows(out.shape))
    _add_gemms(tracer, 1, flop)
    if isinstance(out, Tensor) and out._backward_fn is not None:
        out._backward_fn = tracer.closure("nn.conv.bwd", out._backward_fn, 2, flop)


def _conv_backward(tracer, args, result, state):
    conv, g = args[0], args[1]
    sink = args[3] if len(args) > 3 else None
    flop = _conv_flop(conv.weight.shape, _rows(g.shape))
    _add_gemms(tracer, 2 if sink is not None else 1, flop)


def _linear_forward(tracer, args, result, state):
    _add_gemms(tracer, 1)
    out = result[0] if isinstance(result, tuple) else result
    if isinstance(out, Tensor):
        # ``x @ W.T + b``: the GEMM is the matmul node under the bias add.
        node = out._parents[0] if out._op == "add" else out
        if node._backward_fn is not None:
            node._backward_fn = tracer.closure("nn.linear.bwd", node._backward_fn, 2, 0.0)


def _linear_backward(tracer, args, result, state):
    sink = args[3] if len(args) > 3 else None
    _add_gemms(tracer, 2 if sink is not None else 1)


def _pool_forward(tracer, args, result, state):
    if isinstance(result, Tensor) and result._backward_fn is not None:
        result._backward_fn = tracer.closure("nn.pool.bwd", result._backward_fn, 0, 0.0)


def _stacked_linear_forward(tracer, args, result, state):
    layer, alive = args[0], args[2]
    _add_gemms(tracer, _lanes(alive, len(layer.linears)))


def _stacked_linear_backward(tracer, args, result, state):
    layer, sinks, alive = args[0], args[3], args[4]
    k = len(layer.linears)
    weight_grads = 0 if sinks is None else sum(1 for sink in sinks if sink is not None)
    _add_gemms(tracer, _lanes(alive, k) + weight_grads)


def _plan_lane_flop(plan: Conv2dPlan, weight_shape, lanes: int) -> float:
    """FLOPs of one lane's GEMM in a plan folded ``lanes`` ways."""
    return _conv_flop(weight_shape, plan.lane_rows(lanes))


def _plan_stacked(tracer, args, result, state):
    plan, weights, alive = args[0], args[2], args[4] if len(args) > 4 else None
    k = len(weights)
    _add_gemms(tracer, _lanes(alive, k), _plan_lane_flop(plan, weights[0].shape, k))


def _plan_stacked_input(tracer, args, result, state):
    plan, weights, alive = args[0], args[2], args[3] if len(args) > 3 else None
    k = len(weights)
    _add_gemms(tracer, _lanes(alive, k), _plan_lane_flop(plan, weights[0].shape, k))


def _plan_stacked_weights(tracer, args, result, state):
    plan, weight_shape, wanted = args[0], args[3], args[4]
    _add_gemms(tracer, _lanes(wanted, len(wanted)), _plan_lane_flop(plan, weight_shape, len(wanted)))


def _lane_fill(tracer, args, result, state):
    stack = args[0]
    tracer.counts["stack.live_lane_steps"] += sum(stack.time_steps)
    tracer.counts["stack.padded_lane_steps"] += stack.k * stack.max_steps


def _adv_examples(tracer, args, result, state):
    tracer.counts["attacks.adv_examples"] += len(result)


def _in_search(tracer: Tracer) -> bool:
    return "engine.search" in tracer._open


def _search_cell(tracer, args, result, state):
    if _in_search(tracer):
        tracer.counts["engine.search.cell_tasks"] += 1


def _search_group(tracer, args, result, state):
    if _in_search(tracer):
        tracer.counts["engine.search.cell_tasks"] += len(result)


def _search_result(tracer, args, result, state):
    for rung in result.rungs[:-1]:
        tracer.counts["search.survivors"] += len(rung.survivors)
        tracer.counts["search.ranked"] += len(rung.survivors) + len(rung.pruned)


def _cache_lookup(kind: str):
    def count(tracer, args, result, state):
        outcome = "hits" if result is not None else "misses"
        tracer.counts[f"engine.cache.{kind}_{outcome}"] += 1

    return count


def _bytes_written(tracer, args, result, state):
    tracer.counts["engine.cache.bytes_written"] += result.stat().st_size


def _fused_counter(attr: str):
    """Check the network's own fused-path counter advanced once per call."""

    def count(tracer, args, result, state):
        tracer.counts[f"check.{attr}.calls"] += 1
        tracer.counts[f"check.{attr}.advanced"] += getattr(args[0], attr) - state

    return count


def _forward_span() -> str:
    return "tensor.autograd_forward" if is_grad_enabled() else "snn.forward_nograd"


_fused_forward = _fused_counter("fused_forward_count")
_fused_backward = _fused_counter("fused_backward_count")


def _forward_count(tracer, args, result, state):
    if not is_grad_enabled():
        _fused_forward(tracer, args, result, state)


# -- installation -------------------------------------------------------------

_FORWARD = ("forward", "forward_numpy", "forward_record_numpy")
_STEPS = ("step", "step_numpy", "step_record_numpy")


def _targets() -> list[tuple]:
    """``(owner, attribute, span name, count hook, wrap options)`` rows."""
    targets = [
        (scheduler, "run_cell_tasks", "engine", None, {}),
        (stacking, "run_cell_tasks", "engine", None, {}),
        (stacking, "run_stacked_cell_tasks", "engine", None, {}),
        (search, "run_cell_tasks", "engine", None, {}),
        (search, "run_stacked_cell_tasks", "engine", None, {}),
        (fig678_grid, "run_halving_search", "engine.search", _search_result, {}),
        (scheduler, "run_cell_task", "engine.cell_task", _search_cell, {}),
        (stacking, "run_cell_task", "engine.cell_task", _search_cell, {}),
        (search, "run_cell_task", "engine.cell_task", _search_cell, {}),
        (stacking, "run_stacked_group", "engine.stack_group", _search_group, {}),
        (cache.CellCache, "get", "engine.cache.cell_get", _cache_lookup("cell"), {}),
        (cache.CellCache, "put", "engine.cache.cell_put", _bytes_written, {}),
        (cache.WeightCache, "get", "engine.cache.weight_get", _cache_lookup("weight"), {}),
        (cache.WeightCache, "put", "engine.cache.weight_put", _bytes_written, {}),
        (cache.WeightCache, "scan", "engine.cache.scan", None, {}),
        (costs, "scan_cache_dir", "engine.cache.scan", None, {}),
        (engine_job, "train_and_score", "robustness.train_and_score", None, {}),
        (engine_job, "robustness_curve", "robustness.curve", None, {}),
        (stacking, "robustness_curve", "robustness.curve", None, {}),
        (Trainer, "fit", "training.fit", None, {}),
        (Trainer, "evaluate", "training.evaluate", None, {}),
        (Adam, "step", "optim.step", None, {}),
        (Tensor, "backward", "tensor.backward", None, {}),
        (SpikingNetwork, "forward", _forward_span, _forward_count,
         {"before": lambda args: args[0].fused_forward_count}),
        (SpikingNetwork, "fused_input_gradient", "snn.bptt", _fused_backward,
         {"before": lambda args: args[0].fused_backward_count}),
        (SpikingNetwork, "fused_loss_backward", "snn.bptt", _fused_backward,
         {"before": lambda args: args[0].fused_backward_count}),
        (bptt, "record_forward", "snn.bptt.record", None, {}),
        (bptt, "backward_pass", "snn.bptt.backward", None, {}),
        (LIFCell, "step_backward_numpy", "snn.lif.bwd", None, {}),
        (LICell, "step_backward_numpy", "snn.li.bwd", None, {}),
        (ConstantCurrentLIFEncoder, "step_backward_numpy", "snn.encoder.bwd", None,
         {"opaque": True}),
        (Conv2d, "backward_numpy", "nn.conv.bwd", _conv_backward, {}),
        (Linear, "backward_numpy", "nn.linear.bwd", _linear_backward, {}),
        (MaxPool2d, "backward_numpy", "nn.pool.bwd", None, {}),
        (AvgPool2d, "backward_numpy", "nn.pool.bwd", None, {}),
        (snn_stack.VariantStack, "forward_logits", "snn.stack.forward", _lane_fill, {}),
        (snn_stack.VariantStack, "record_forward", "snn.stack.record", _lane_fill, {}),
        (snn_stack.VariantStack, "backward_pass", "snn.stack.backward", None, {}),
        (snn_stack.VariantStack, "fused_input_gradient", "attacks.input_gradient", None, {}),
        (snn_stack._StackedConv, "forward", "nn.conv.fwd", None, {}),
        (snn_stack._StackedConv, "record", "nn.conv.fwd", None, {}),
        (snn_stack._StackedConv, "backward", "nn.conv.bwd", None, {}),
        (snn_stack._StackedLinear, "forward", "nn.linear.fwd", _stacked_linear_forward, {}),
        (snn_stack._StackedLinear, "record", "nn.linear.fwd", _stacked_linear_forward, {}),
        (snn_stack._StackedLinear, "backward", "nn.linear.bwd", _stacked_linear_backward, {}),
        (Conv2dPlan, "stacked", "tensor.conv_plan.stacked", _plan_stacked, {}),
        (Conv2dPlan, "stacked_backward_input", "tensor.conv_plan.stacked", _plan_stacked_input, {}),
        (Conv2dPlan, "stacked_backward_weights", "tensor.conv_plan.stacked",
         _plan_stacked_weights, {}),
        (Attack, "generate", "attacks.generate", _adv_examples, {}),
        (attack_pgd.PGD, "generate_shared", "attacks.generate", _adv_examples, {}),
        (stacking, "_craft_pgd_stacked", "attacks.generate", _adv_examples, {}),
        (attack_pgd, "input_gradient", "attacks.input_gradient", None, {}),
        (attack_metrics, "input_gradient", "attacks.input_gradient", None, {}),
        (SyntheticMNIST, "generate", "data.generate", None, {}),
    ]
    for attr in _STEPS:
        targets.append((LIFCell, attr, "snn.lif.fwd", None, {}))
        targets.append((ConstantCurrentLIFEncoder, attr, "snn.encoder.fwd", None, {"opaque": True}))
    for attr in _STEPS[:2]:  # the readout integrator records no BPTT context
        targets.append((LICell, attr, "snn.li.fwd", None, {}))
    for attr in _FORWARD:
        targets.append((Conv2d, attr, "nn.conv.fwd", _conv_forward, {}))
        targets.append((Linear, attr, "nn.linear.fwd", _linear_forward, {}))
        targets.append((MaxPool2d, attr, "nn.pool.fwd", _pool_forward, {}))
        targets.append((AvgPool2d, attr, "nn.pool.fwd", _pool_forward, {}))
    return targets


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Record spans into ``tracer`` for the ``with`` block, then unwrap.

    Targets that no longer exist are listed in ``tracer.unpatched``.
    """
    tracer.unpatched, restore = [], []
    for owner, attr, name, count, options in _targets():
        original = getattr(owner, attr, None)
        if original is None:
            tracer.unpatched.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            continue
        restore.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, tracer.wrap(name, original, count=count, **options))
    tracer.active = True
    try:
        yield tracer
    finally:
        tracer.active = False
        for owner, attr, own in reversed(restore):
            if own is None:  # inherited: drop the wrapper, the base method shows again
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
