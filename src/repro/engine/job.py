"""The original unit of work of the engine: one grid cell.

A :class:`CellTask` is a tiny, picklable description of one ``(Vth, T)``
combination — its grid position plus the child seeds derived from the
experiment root seed.  :func:`run_cell_task` is the *pure* job function
(Algorithm 1, lines 3-16, for a single cell): given a task and an
:class:`ExplorationJobContext` it trains, gates and attacks one model and
returns a :class:`~repro.robustness.results.CellResult`.

Example — evaluating one cell by hand::

    tasks = build_cell_tasks(config)            # deterministic seeds
    cell = run_cell_task(context, tasks[0])     # train + gate + attack
    cell.robustness[1.0]                        # robustness at eps=1

Because seeds are derived in the task (not from execution order), the
same task produces bitwise-identical results whether it runs serially,
in a worker process, or in a different position of the grid sweep — the
property the parallel scheduler and the resumable cache both rely on.
The sibling module :mod:`repro.engine.sweep` applies the same recipe to
trained-variant ε-sweeps (Fig. 9, ablations).
"""

from __future__ import annotations

import time
import zipfile
from collections.abc import Callable
from dataclasses import dataclass, replace
from multiprocessing import current_process
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.engine.cache import archive_weights, split_optimizer_arrays
from repro.nn.module import Module
from repro.robustness.config import ExplorationConfig
from repro.robustness.learnability import train_and_score
from repro.robustness.results import CellResult
from repro.robustness.security import robustness_curve
from repro.utils.logging import get_logger
from repro.utils.seeding import SeedSequence
from repro.utils.serialization import load_npz

if TYPE_CHECKING:  # avoids a runtime cycle: engine.cache imports this module
    from repro.engine.cache import WeightCache

__all__ = [
    "CellTask",
    "ExplorationJobContext",
    "WarmStartRef",
    "build_cell_tasks",
    "make_cell_task",
    "run_cell_task",
]

_logger = get_logger("engine")

ModelFactory = Callable[[float, int, int], Module]
"""``(v_th, time_window, seed) -> model`` builder used per grid cell."""


@dataclass(frozen=True)
class CellTask:
    """Identity and derived seeds of one grid cell (picklable, tiny).

    Example::

        CellTask(index=0, v_th=1.0, time_window=48,
                 cell_seed=1234, attack_seed=5678)
    """

    index: int
    """Position in the declared grid order (row-major over thresholds)."""

    v_th: float
    """Firing threshold of this cell."""

    time_window: int
    """Time window of this cell."""

    cell_seed: int
    """Seed for model initialisation and training shuffling."""

    attack_seed: int
    """Seed for attack randomness (PGD random starts, noise draws)."""

    @property
    def weight_key(self) -> str:
        """Weight-cache key of this cell's trained model."""
        return f"cell_vth{self.v_th:g}_T{self.time_window}"

    @property
    def params(self) -> dict[str, float]:
        """Structural parameters of this cell, as archived in weight
        metadata and fed to the neighbour index."""
        return {"v_th": float(self.v_th), "time_window": float(self.time_window)}

    @property
    def cost_key(self) -> tuple[float, int]:
        """Name of this cell's timings in the cost model
        (:mod:`repro.engine.costs`)."""
        return (float(self.v_th), int(self.time_window))

    @property
    def time_steps(self) -> int:
        """Time steps per forward pass, the cost model's fallback price."""
        return int(self.time_window)


@dataclass(frozen=True)
class WarmStartRef:
    """Pointer to a cached archive a cell should initialise from (picklable).

    Produced by the search scheduler's per-rung warm-start plan — always
    from caches *frozen before the rung starts*, so every worker derives
    the identical plan — and consumed by :func:`run_cell_task`, which
    loads the archive, skips ``source_epochs`` of the shuffle stream and
    trains only the remaining budget.
    """

    path: str
    """Absolute path of the source ``.npz`` archive."""

    source_key: str
    """Weight-cache key the source was stored under."""

    source_epochs: int
    """Training budget the source archive completed (the resume point)."""

    distance: float
    """Normalised structural-parameter distance to this cell (``0.0`` when
    resuming the cell's own lower-budget checkpoint)."""


@dataclass
class ExplorationJobContext:
    """Everything a worker needs to evaluate any cell of one exploration.

    Shipped to worker processes once per pool (via fork inheritance), so
    datasets are not re-pickled per task; spawn workers rebuild it from a
    :class:`~repro.engine.scheduler.ContextSpec` instead.
    """

    model_factory: ModelFactory
    """``(v_th, time_window, seed) -> fresh untrained model``."""

    train_set: ArrayDataset
    """Training data for Algorithm 1's Train() step."""

    test_set: ArrayDataset
    """Samples scored for clean accuracy and attacked during the sweep."""

    config: ExplorationConfig
    """Grid, gate, attack and training settings."""

    weight_cache: "WeightCache | None" = None
    """Optional store for trained cell parameters; always written when set."""

    reuse_weights: bool = False
    """Load cached weights instead of retraining (``--resume`` semantics:
    caches are written eagerly but reused only on request)."""

    warm_start: "dict[int, WarmStartRef] | None" = None
    """Per-task warm-start plan (``task.index -> WarmStartRef``), frozen
    before execution starts.  Cells without an entry — and cells whose
    source archive turns out unreadable — train cold."""


def make_cell_task(
    seeds: SeedSequence, index: int, v_th: float, time_window: int
) -> CellTask:
    """The single place a cell's seeds are derived from its identity.

    Child seeds are keyed by the *raw* ``(v_th, time_window)`` values,
    matching the historical serial explorer exactly, so results remain
    reproducible against pre-engine runs.
    """
    return CellTask(
        index=index,
        v_th=float(v_th),
        time_window=int(time_window),
        cell_seed=seeds.child_seed("cell", v_th, time_window),
        attack_seed=seeds.child_seed("attack", v_th, time_window),
    )


def build_cell_tasks(config: ExplorationConfig) -> list[CellTask]:
    """Expand a config into the full, deterministically-seeded task list.

    Example::

        tasks = build_cell_tasks(ExplorationConfig(seed=7))
        len(tasks) == len(config.v_thresholds) * len(config.time_windows)
    """
    seeds = SeedSequence(config.seed)
    tasks: list[CellTask] = []
    for v_th in config.v_thresholds:
        for time_window in config.time_windows:
            tasks.append(make_cell_task(seeds, len(tasks), v_th, time_window))
    return tasks


def _load_warm_state(
    ref: WarmStartRef,
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray] | None] | None:
    """``(state_dict, optimizer_state)`` of a warm-start source archive.

    A vanished or corrupt source degrades to a cold start (``None``)
    rather than failing the cell — the plan is advisory, the result stays
    correct either way (only the provenance field records what actually
    happened).  The optimizer half is ``None`` for archives that predate
    optimizer bundling; those resume as a re-anneal with fresh moments.
    """
    try:
        arrays, _ = load_npz(ref.path)
    except (OSError, ValueError, KeyError, zipfile.BadZipFile):
        _logger.warning(
            "warm-start source %s unreadable; cell trains cold", ref.path
        )
        return None
    return split_optimizer_arrays(arrays)


def run_cell_task(context: ExplorationJobContext, task: CellTask) -> CellResult:
    """Run learnability + security analysis for one grid cell (pure).

    With a weight cache attached and ``reuse_weights`` set, a cached
    ``state_dict`` replaces training entirely: the stored clean accuracy
    is re-gated against the (possibly changed) accuracy threshold and
    only the security sweep is recomputed — the path that makes
    "new ε list, same grid" runs cheap.

    With a warm-start plan naming this task, training initialises from
    the referenced archive and runs only the remaining epochs past the
    source's completed budget (``start_epoch`` resume); the provenance
    lands in :attr:`CellResult.warm_start` and in the archived metadata.
    """
    start = time.perf_counter()
    phase_seconds: dict[str, float] = {}
    config = context.config
    model = context.model_factory(task.v_th, task.time_window, task.cell_seed)
    cached = None
    if context.weight_cache is not None and context.reuse_weights:
        cached = context.weight_cache.get(task.weight_key, task.cell_seed)
    warm_start: dict | None = None
    if cached is not None:
        state, metadata = cached
        model.load_state_dict(state)
        clean_accuracy = float(metadata["clean_accuracy"])
        diverged = False
        learnable = clean_accuracy >= config.accuracy_threshold
        raw_warm = metadata.get("warm_start")
        warm_start = dict(raw_warm) if isinstance(raw_warm, dict) else None
    else:
        training = replace(config.training, seed=task.cell_seed & 0x7FFFFFFF)
        ref = (context.warm_start or {}).get(task.index)
        loaded = _load_warm_state(ref) if ref is not None else None
        initial_state, initial_optimizer_state = loaded if loaded else (None, None)
        start_epoch = 0
        if initial_state is not None:
            # Resume past the source's completed budget, but always train
            # at least one epoch here — a cell promoted onto an equal or
            # larger source budget still owes the gate fresh training.
            start_epoch = min(int(ref.source_epochs), max(training.epochs - 1, 0))
            warm_start = {
                "source_file": Path(ref.path).name,
                "source_key": ref.source_key,
                "source_epochs": int(ref.source_epochs),
                "start_epoch": start_epoch,
                "distance": float(ref.distance),
            }
        learn = train_and_score(
            model,
            context.train_set,
            context.test_set,
            training,
            config.accuracy_threshold,
            initial_state=initial_state,
            start_epoch=start_epoch,
            initial_optimizer_state=initial_optimizer_state,
        )
        clean_accuracy = learn.clean_accuracy
        diverged = learn.diverged
        learnable = learn.learnable
        if not diverged:
            # Diverged weights are useless for re-sweeps; don't archive them.
            metadata = {
                "clean_accuracy": clean_accuracy,
                "params": task.params,
                "epochs": training.epochs,
            }
            if warm_start is not None:
                metadata["warm_start"] = warm_start
            archive_weights(
                context.weight_cache,
                task.weight_key,
                task.cell_seed,
                model.state_dict(),
                metadata,
                optimizer_state=learn.optimizer_state,
            )
    # train_and_score folds training and the clean-accuracy gate into one
    # call, so the cell-level breakdown reports them as one train phase.
    phase_seconds["train_s"] = time.perf_counter() - start
    robustness: dict[float, float] = {}
    if learnable:
        attack_start = time.perf_counter()
        curve = robustness_curve(
            model,
            context.test_set,
            config.epsilons,
            lambda eps: config.build_attack(eps, seed=task.attack_seed),
            label=f"(Vth={task.v_th:g}, T={task.time_window})",
            batch_size=config.attack_batch_size,
        )
        robustness = dict(zip(curve.epsilons, curve.robustness))
        phase_seconds["attack_s"] = time.perf_counter() - attack_start
    return CellResult(
        v_th=task.v_th,
        time_window=task.time_window,
        clean_accuracy=clean_accuracy,
        learnable=learnable,
        diverged=diverged,
        robustness=robustness,
        elapsed_seconds=time.perf_counter() - start,
        phase_seconds=phase_seconds,
        worker=current_process().name,
        warm_start=warm_start,
    )
