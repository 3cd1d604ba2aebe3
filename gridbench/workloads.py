"""The four benchmark workloads: inputs, one timed repetition, and checks.

Every workload builds its :class:`~repro.experiments.profiles.ExperimentProfile`
as ``dataclasses.replace(get_profile("smoke"), seed=S, ...)`` and drives the
same public runners the CLI calls, so the program only ever sees inputs
generated from the benchmark seed.  ``quick=True`` keeps every code path but
shrinks the grid to seconds, for the harness self-test.

A repetition returns the runner's result; :func:`science_digest` hashes the
fields ``scripts/compare_results.py`` keeps.  ``guards`` checks that a
repetition did what the workload claims, ``cross_check`` recomputes the
result's cells through an independent path once per run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import json
import shutil
from pathlib import Path

from repro.engine.search import SearchConfig
from repro.experiments.fig678_grid import run_grid_exploration, run_grid_search
from repro.experiments.profiles import get_profile
from repro.experiments.workloads import load_profile_data

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "compare_results", ROOT / "scripts" / "compare_results.py"
)
_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_compare)


def science_digest(payload: dict) -> str:
    """sha256 of the canonical science fields of a result payload."""
    text = json.dumps(_compare.canonicalize(payload), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _cell_science(cell) -> dict:
    return _compare.canonicalize(cell.as_dict())


def _compare_cells(label: str, expected, actual) -> list[str]:
    """Problems when two cell lists disagree on any science field."""
    wanted = {(c.v_th, c.time_window): _cell_science(c) for c in expected}
    found = {(c.v_th, c.time_window): _cell_science(c) for c in actual}
    return [
        f"{label}: cell (Vth={key[0]:g}, T={key[1]}) differs: "
        f"{wanted[key]} != {found.get(key)}"
        for key in wanted
        if found.get(key) != wanted[key]
    ]


def _profile(seed: int, **sizes):
    return dataclasses.replace(get_profile("smoke"), seed=seed, **sizes)


# Spans each workload must fire at least once under --trace (tracer.py).
_COMMON_SPANS = {
    "experiments.run", "engine", "engine.cache.cell_put", "engine.cache.scan",
    "attacks.generate", "attacks.input_gradient", "data.generate",
    "nn.conv.fwd", "nn.conv.bwd", "nn.linear.fwd", "nn.linear.bwd",
    "nn.pool.fwd", "nn.pool.bwd",
}
_PER_CELL_SPANS = {
    "engine.cell_task", "robustness.curve", "snn.forward_nograd", "snn.bptt",
    "snn.bptt.record", "snn.bptt.backward", "snn.lif.fwd", "snn.lif.bwd",
    "snn.li.fwd", "snn.li.bwd", "snn.encoder.fwd", "snn.encoder.bwd",
}
_TRAINING_SPANS = {
    "robustness.train_and_score", "training.fit", "training.evaluate", "optim.step",
    "tensor.autograd_forward", "tensor.backward", "engine.cache.weight_put",
}


class Grid:
    """Exhaustive Algorithm-1 grid, serial, cache on (writes only)."""

    name = "grid"
    stack = 1
    sibling_stack = 4
    spans = _COMMON_SPANS | _PER_CELL_SPANS | _TRAINING_SPANS

    def __init__(self, seed: int, quick: bool) -> None:
        if quick:
            self.profile = _profile(
                seed, num_train=32, num_test=10, attack_subset=8, epochs=1,
                batch_size=32, pgd_steps=2, grid_epsilons=(1.0,),
                v_thresholds=(0.5, 1.5), time_windows=(8,),
                accuracy_threshold=0.0,
            )
        else:
            self.profile = _profile(
                seed, num_train=64, num_test=16, attack_subset=16, epochs=2,
                batch_size=32, pgd_steps=4, grid_epsilons=(1.0, 1.5),
                v_thresholds=(0.25, 0.75, 1.25, 2.25), time_windows=(8, 16),
                accuracy_threshold=0.0,
            )

    @property
    def cells(self) -> int:
        return len(self.profile.v_thresholds) * len(self.profile.time_windows)

    def setup(self, work: Path) -> None:
        load_profile_data(self.profile)

    def cache_dir(self, work: Path, rep: int) -> Path:
        return work / f"rep{rep}"

    def run(self, cache_dir: Path):
        return run_grid_exploration(self.profile, cache_dir=cache_dir, stack=self.stack)

    def payload(self, result) -> dict:
        return json.loads(result.to_json())

    def guards(self, result, counters: dict) -> list[str]:
        problems = []
        if len(result.cells) != self.cells:
            problems.append(f"{len(result.cells)} cells resolved, expected {self.cells}")
        epsilons = {float(e) for e in self.profile.grid_epsilons}
        unattacked = [c for c in result.cells if set(c.robustness) != epsilons]
        if unattacked:
            problems.append(f"{len(unattacked)} cell(s) never reached the attack phase")
        return problems

    def cross_check(self, result) -> list[str]:
        """The grid through the other execution path must agree cell for cell."""
        other = run_grid_exploration(self.profile, stack=self.sibling_stack)
        return _compare_cells(f"stack={self.sibling_stack} grid", other.cells, result.cells)


class GridStacked(Grid):
    """The grid's inputs through 4-lane :class:`VariantStack` passes."""

    name = "grid-stacked"
    stack = 4
    sibling_stack = 1
    spans = _COMMON_SPANS | {
        "engine.stack_group", "snn.stack.forward", "snn.stack.record",
        "snn.stack.backward", "tensor.conv_plan.stacked", "optim.step",
        "engine.cache.weight_put",
    }

    def guards(self, result, counters: dict) -> list[str]:
        problems = super().guards(result, counters)
        loose = [c for c in result.cells if c.stack_size < 2]
        if loose:
            problems.append(f"{len(loose)} cell(s) ran outside a stack group")
        if counters["fit_calls"]:
            problems.append(f"Trainer.fit ran {counters['fit_calls']} time(s)")
        return problems


class Reattack:
    """The "new eps list, same grid" path: resume a cached grid with new budgets."""

    name = "reattack"
    spans = _COMMON_SPANS | _PER_CELL_SPANS | {
        "engine.cache.cell_get", "engine.cache.weight_get",
    }

    def __init__(self, seed: int, quick: bool) -> None:
        if quick:
            trained = _profile(
                seed, num_train=32, num_test=10, attack_subset=8, epochs=1,
                batch_size=32, v_thresholds=(0.5, 1.5), time_windows=(8,),
                accuracy_threshold=0.0,
            )
            self.profile = dataclasses.replace(
                trained, grid_epsilons=(0.5, 1.0), pgd_steps=2
            )
        else:
            trained = _profile(
                seed, num_train=32, num_test=16, attack_subset=16, epochs=1,
                batch_size=32, v_thresholds=(0.5, 1.5), time_windows=(16, 32),
                accuracy_threshold=0.0,
            )
            self.profile = dataclasses.replace(
                trained, grid_epsilons=(0.5, 1.0, 2.0), pgd_steps=6
            )
        # The pre-fill trains the grid and attacks only at eps=0 (a copy of
        # the input), so its snapshot holds the trained weights; the attack
        # settings are not part of the weight fingerprint.
        self.prefill = dataclasses.replace(trained, grid_epsilons=(0.0,), pgd_steps=1)

    cells = Grid.cells

    def setup(self, work: Path) -> None:
        self.snapshot = work / "snapshot"
        run_grid_exploration(self.prefill, cache_dir=self.snapshot)

    def cache_dir(self, work: Path, rep: int) -> Path:
        target = work / f"rep{rep}"
        shutil.copytree(self.snapshot, target)
        return target

    def run(self, cache_dir: Path):
        return run_grid_exploration(self.profile, cache_dir=cache_dir, resume=True)

    payload = Grid.payload

    def guards(self, result, counters: dict) -> list[str]:
        problems = []
        if counters["weight_hits"] != self.cells:
            problems.append(
                f"{counters['weight_hits']} weight-cache hits, expected {self.cells} "
                "(the snapshot no longer matches the training fingerprint)"
            )
        if counters["fit_calls"]:
            problems.append(f"Trainer.fit ran {counters['fit_calls']} time(s)")
        return problems

    def cross_check(self, result) -> list[str]:
        """Cached weights must attack exactly like freshly trained ones."""
        fresh = run_grid_exploration(self.profile)
        return _compare_cells("freshly trained grid", fresh.cells, result.cells)


class Search:
    """Successive-halving search with warm start, fresh cache each rep."""

    name = "search"
    spans = _COMMON_SPANS | _PER_CELL_SPANS | _TRAINING_SPANS | {"engine.search"}

    def __init__(self, seed: int, quick: bool) -> None:
        if quick:
            self.profile = _profile(
                seed, num_train=32, num_test=10, attack_subset=8, epochs=2,
                batch_size=32, pgd_steps=2, grid_epsilons=(1.5,),
                v_thresholds=(0.5, 1.0, 1.5, 2.0), time_windows=(8,),
                accuracy_threshold=0.0,
            )
            schedule = (1, 2)
        else:
            # One time window: which cells survive a rung depends on the
            # seed, and with mixed T it would change the work per run.
            self.profile = _profile(
                seed, num_train=64, num_test=16, attack_subset=16, epochs=3,
                batch_size=32, pgd_steps=4, grid_epsilons=(1.5,),
                v_thresholds=tuple(0.25 * step for step in range(1, 13)),
                time_windows=(12,), accuracy_threshold=0.0,
            )
            schedule = (1, 3)
        self.search = SearchConfig(schedule=schedule, eta=4.0, warm_start=True)

    cells = Grid.cells
    setup = Grid.setup
    cache_dir = Grid.cache_dir
    payload = Grid.payload

    def run(self, cache_dir: Path):
        return run_grid_search(self.profile, search=self.search, cache_dir=cache_dir)

    def guards(self, result, counters: dict) -> list[str]:
        problems = []
        if result.sweet_spot() is None:
            problems.append("the search returned no sweet spot")
        gate = result.bias_gate
        if gate is None or not gate.get("passed"):
            problems.append(f"the warm-start bias gate did not pass: {gate}")
        return problems

    def cross_check(self, result) -> list[str]:
        """Warm-started survivors must equal cold full-budget runs of those cells.

        Warm starts resume each survivor's own lower-budget archive with its
        optimizer state, a bitwise continuation of cold training.
        """
        final = result.final_cells
        subset = dataclasses.replace(
            self.profile,
            v_thresholds=tuple(sorted({cell.v_th for cell in final})),
            time_windows=tuple(sorted({cell.time_window for cell in final})),
        )
        cold = run_grid_exploration(subset)
        return _compare_cells("cold full-budget survivors", final, cold.cells)


WORKLOADS = {cls.name: cls for cls in (Grid, GridStacked, Reattack, Search)}
