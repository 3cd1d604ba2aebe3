"""The engine's unit of work: one trained variant, optionally gated.

A :class:`CellTask` is a tiny, picklable description of one model to
train and attack — its key, build parameters, attack families, ε list
and the child seeds derived from the experiment root seed.
:func:`run_cell_task` is the *pure* job function: given a task and a
:class:`JobContext` it builds the model, trains it (or loads it from the
weight cache), scores it clean and attacks it over ε, one curve per
attack family.

Every experiment is a list of such tasks.  A Figs. 6-8 grid cell
(Algorithm 1, lines 3-16) is a task whose context carries the
learnability gate ``accuracy_threshold`` and, in a guided search, a
warm-start plan; a cell below the gate, or whose training diverged, is
not attacked.  A Fig. 1 or Fig. 9 model or an ablation variant is the
same task with no gate.

Example — evaluating one grid cell by hand::

    tasks = build_cell_tasks(config)            # deterministic seeds
    cell = run_cell_task(context, tasks[0])     # train + gate + attack
    cell.robustness[1.0]                        # robustness at eps=1

Because seeds are derived in the task (not from execution order), the
same task produces bitwise-identical results whether it runs serially,
in a worker process, or in a different position of the sweep — the
property the parallel scheduler and the resumable cache both rely on.
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

from repro.attacks.base import Attack
from repro.data.dataset import ArrayDataset
from repro.engine.cache import archive_weights, split_optimizer_arrays
from repro.errors import ExplorationError, TrainingError
from repro.nn.module import Module
from repro.robustness.config import ExplorationConfig, make_attack
from repro.robustness.learnability import train_and_score
from repro.robustness.results import CellResult
from repro.robustness.security import robustness_curve
from repro.training.trainer import TrainingConfig
from repro.utils.logging import get_logger
from repro.utils.seeding import SeedSequence
from repro.utils.serialization import load_npz

if TYPE_CHECKING:  # avoids a runtime cycle: engine.cache imports this module
    from repro.engine.cache import WeightCache

__all__ = [
    "CellTask",
    "JobContext",
    "WarmStartRef",
    "build_cell_tasks",
    "make_cell_task",
    "make_variant_task",
    "run_cell_task",
]

_logger = get_logger("engine")

ModelBuilder = Callable[["CellTask"], Module]
"""``task -> fresh untrained model`` builder used per task."""


@dataclass(frozen=True)
class CellTask:
    """Identity, build parameters and derived seeds of one task (picklable).

    ``params`` is a sorted tuple of ``(name, value)`` pairs rather than a
    dict so tasks stay hashable and their cache-key material is stable.

    Example — the paper's high-robustness sweet spot as a Fig. 9 variant::

        CellTask(index=0, key="snn_vth1_T48", kind="fig9_snn",
                 params=(("time_window", 48), ("v_th", 1.0)),
                 attacks=("pgd",), epsilons=(0.0, 0.5, 1.0),
                 train_seed=123, attack_seed=456)
    """

    index: int
    """Position in the declared task order."""

    key: str
    """Stable variant identifier, e.g. ``"cell_vth1_T48"`` or
    ``"surrogate:arctan"``.  Doubles as the weight-cache key and the cost
    model's name for the task, so it must be unique per context."""

    kind: str
    """Builder dispatch tag: ``"cell"`` for a grid cell, else e.g.
    ``"fig9_cnn"`` or ``"ablation"``."""

    params: tuple[tuple[str, object], ...] = ()
    """Variant build parameters as sorted ``(name, value)`` pairs."""

    attacks: tuple[str, ...] = ("pgd",)
    """Attack families swept against the trained model."""

    epsilons: tuple[float, ...] = ()
    """Noise budgets evaluated for every attack family."""

    train_seed: int = 0
    """Seed for model initialisation and training shuffling."""

    attack_seed: int = 0
    """Seed for attack randomness (PGD random starts, noise draws)."""

    def param(self, name: str, default: object = None) -> object:
        """Look up one build parameter by name."""
        for param_name, value in self.params:
            if param_name == name:
                return value
        return default

    @property
    def family(self) -> str:
        """``cell`` for a grid cell, ``sweep`` for any other variant: the
        checkpoint filename prefix and the ``cache``/``job`` metric label."""
        return "cell" if self.kind == "cell" else "sweep"

    @property
    def v_th(self) -> float | None:
        """The ``v_th`` build parameter (``None`` for models without one,
        such as the CNN)."""
        value = self.param("v_th")
        return None if value is None else float(value)

    @property
    def time_window(self) -> int:
        """The ``time_window`` build parameter (0 for models without one)."""
        return int(self.param("time_window", 0))

    @property
    def cost_key(self) -> str:
        """Name of this task's timings in the cost model
        (:mod:`repro.engine.costs`)."""
        return self.key

    @property
    def time_steps(self) -> int:
        """Time steps per forward pass, the cost model's fallback price."""
        return self.time_window


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
class JobContext:
    """Everything a worker needs to evaluate any task of one experiment.

    Shipped to worker processes once per pool (via fork inheritance), so
    datasets are not re-pickled per task; spawn workers rebuild it from a
    :class:`~repro.engine.scheduler.ContextSpec` instead (the
    ``model_builder`` closure is why the context itself is not pickled).
    """

    model_builder: ModelBuilder
    """``task -> fresh untrained model`` (typically a profile closure)."""

    train_set: ArrayDataset
    """Training data for the Train() step."""

    clean_eval_set: ArrayDataset
    """Samples scored for clean accuracy (and the gate)."""

    attack_set: ArrayDataset
    """Samples attacked during the ε sweep.  For a grid it is the same
    object as ``clean_eval_set``."""

    training: TrainingConfig
    """Training hyper-parameters; the per-task seed overrides its seed."""

    accuracy_threshold: float | None = None
    """Learnability gate ``Ath``: a task scoring below it, or whose
    training diverged, is recorded and not attacked.  ``None`` means
    ungated — every model is attacked and a diverged training raises."""

    attack_steps: int = 10
    """Iterations of the (iterative) attacks."""

    attack_alpha: float | None = None
    """Per-step size; ``None`` selects each attack's default heuristic."""

    attack_random_start: bool = True
    """PGD random start inside the ε-ball."""

    attack_batch_size: int = 32
    """Batch size used while crafting adversarial examples."""

    clip_min: float = 0.0
    """Lower bound of the valid pixel box."""

    clip_max: float = 1.0
    """Upper bound of the valid pixel box."""

    weight_cache: "WeightCache | None" = None
    """Optional store for trained parameters; always written when set."""

    reuse_weights: bool = False
    """Load cached weights instead of retraining (``--resume`` semantics:
    caches are written eagerly but reused only on request)."""

    warm_start: "dict[int, WarmStartRef] | None" = None
    """Per-task warm-start plan (``task.index -> WarmStartRef``), frozen
    before execution starts.  Tasks without an entry — and tasks whose
    source archive turns out unreadable — train cold."""

    attack_prep: Callable[[Module, CellTask], None] | None = None
    """Optional hook invoked on the trained model right before the attack
    sweep.  Variants with *stateful* stochastic components (e.g. a Poisson
    encoder whose rng advanced during training) reset them here from the
    task's attack seed, so the sweep draws identically whether the model
    was just trained or loaded from the weight cache."""

    @classmethod
    def for_grid(
        cls,
        config: ExplorationConfig,
        model_factory: Callable[[float, int, int], Module],
        train_set: ArrayDataset,
        test_set: ArrayDataset,
    ) -> "JobContext":
        """The gated context of an Algorithm-1 grid: ``test_set`` is both
        scored and attacked, and ``model_factory(v_th, T, seed)`` builds
        each cell.

        Raises :class:`~repro.errors.ConfigurationError` for an invalid
        ``config`` and :class:`~repro.errors.ExplorationError` for an
        empty dataset.
        """
        config.validate()
        if len(train_set) == 0 or len(test_set) == 0:
            raise ExplorationError("train and test sets must be non-empty")
        return cls(
            model_builder=lambda task: model_factory(
                task.v_th, task.time_window, task.train_seed
            ),
            train_set=train_set,
            clean_eval_set=test_set,
            attack_set=test_set,
            training=config.training,
            accuracy_threshold=config.accuracy_threshold,
            attack_steps=config.attack_steps,
            attack_alpha=config.attack_alpha,
            attack_random_start=config.attack_random_start,
            attack_batch_size=config.attack_batch_size,
            clip_min=config.clip_min,
            clip_max=config.clip_max,
        )

    def passes_gate(self, clean_accuracy: float, diverged: bool) -> bool:
        """Whether a model scoring ``clean_accuracy`` is attacked: the one
        learnability rule of the unstacked and the stacked paths.  A
        diverged training never passes, whatever the gate (its weights
        are non-finite); otherwise the score must meet the gate."""
        if diverged:
            return False
        return self.accuracy_threshold is None or clean_accuracy >= self.accuracy_threshold

    def build_attack(self, name: str, epsilon: float, seed: int) -> Attack:
        """Instantiate attack family ``name`` at budget ``epsilon``."""
        return make_attack(
            name,
            epsilon,
            steps=self.attack_steps,
            alpha=self.attack_alpha,
            random_start=self.attack_random_start,
            seed=seed,
            clip_min=self.clip_min,
            clip_max=self.clip_max,
        )


def make_cell_task(
    seeds: SeedSequence,
    index: int,
    v_th: float,
    time_window: int,
    epsilons: tuple[float, ...],
    attacks: tuple[str, ...] = ("pgd",),
) -> CellTask:
    """The single place a grid cell's seeds are derived from its identity.

    Child seeds are keyed by the *raw* ``(v_th, time_window)`` values,
    matching the historical serial explorer exactly, so results remain
    reproducible against pre-engine runs.
    """
    return CellTask(
        index=index,
        key=f"cell_vth{float(v_th):g}_T{int(time_window)}",
        kind="cell",
        params=(("time_window", int(time_window)), ("v_th", float(v_th))),
        attacks=tuple(attacks),
        epsilons=tuple(float(e) for e in epsilons),
        train_seed=seeds.child_seed("cell", v_th, time_window),
        attack_seed=seeds.child_seed("attack", v_th, time_window),
    )


def make_variant_task(
    seeds: SeedSequence,
    index: int,
    key: str,
    kind: str,
    params: tuple[tuple[str, object], ...] = (),
    attacks: tuple[str, ...] = ("pgd",),
    epsilons: tuple[float, ...] = (),
) -> CellTask:
    """Derive a Fig. 9 or ablation variant's seeds from its identity.

    Seeds are keyed by ``(kind, key)`` — not by the attack or ε lists — so
    a security-only re-sweep (new ε list, new attack families) addresses
    the *same* trained weights in the weight cache.
    """
    return CellTask(
        index=index,
        key=str(key),
        kind=str(kind),
        params=tuple(params),
        attacks=tuple(attacks),
        epsilons=tuple(float(e) for e in epsilons),
        train_seed=seeds.child_seed("sweep", kind, key),
        attack_seed=seeds.child_seed("sweep", kind, key, "attack"),
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
            tasks.append(
                make_cell_task(
                    seeds, len(tasks), v_th, time_window, config.epsilons, (config.attack,)
                )
            )
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


def run_cell_task(context: JobContext, task: CellTask) -> CellResult:
    """Train (or load) one model, gate it and attack it (pure).

    With a weight cache attached and ``reuse_weights`` set, a cached
    ``state_dict`` replaces training entirely: the stored clean accuracy
    is re-gated against the (possibly changed) accuracy threshold and
    only the security sweep is recomputed — the path that makes
    "new ε list, same grid" runs cheap.

    With a warm-start plan naming this task, training initialises from
    the referenced archive and runs only the remaining epochs past the
    source's completed budget (``start_epoch`` resume); the provenance
    lands in :attr:`CellResult.warm_start` and in the archived metadata.

    A diverged training scores 0 and is not archived: under a gate it is
    recorded unlearnable and not attacked, even at gate 0; without a gate
    it raises :class:`~repro.errors.TrainingError`.
    """
    start = time.perf_counter()
    phase_seconds: dict[str, float] = {}
    model = context.model_builder(task)
    cached = None
    if context.weight_cache is not None and context.reuse_weights:
        cached = context.weight_cache.get(task.key, task.train_seed)
    warm_start: dict | None = None
    if cached is not None:
        state, metadata = cached
        model.load_state_dict(state)
        clean_accuracy = float(metadata["clean_accuracy"])
        diverged = False
        raw_warm = metadata.get("warm_start")
        warm_start = dict(raw_warm) if isinstance(raw_warm, dict) else None
    else:
        training = replace(context.training, seed=task.train_seed & 0x7FFFFFFF)
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
            context.clean_eval_set,
            training,
            initial_state=initial_state,
            start_epoch=start_epoch,
            initial_optimizer_state=initial_optimizer_state,
        )
        clean_accuracy = learn.clean_accuracy
        diverged = learn.diverged
        if diverged and context.accuracy_threshold is None:
            raise TrainingError(f"training of {task.key} diverged (non-finite loss)")
        if not diverged:
            # Diverged weights are useless for re-sweeps; don't archive them.
            metadata = {
                "clean_accuracy": clean_accuracy,
                "kind": task.kind,
                "params": dict(task.params),
                "epochs": training.epochs,
            }
            if warm_start is not None:
                metadata["warm_start"] = warm_start
            archive_weights(
                context.weight_cache,
                task.key,
                task.train_seed,
                model.state_dict(),
                metadata,
                optimizer_state=learn.optimizer_state,
            )
    learnable = context.passes_gate(clean_accuracy, diverged)
    # train_and_score folds training and the clean-accuracy score into one
    # call, so the breakdown reports them (or the cache load) as one phase.
    phase_seconds["train_s"] = time.perf_counter() - start
    curves: dict[str, dict[float, float]] = {}
    if learnable:
        if context.attack_prep is not None:
            context.attack_prep(model, task)
        attack_start = time.perf_counter()
        for name in task.attacks:
            # One ε-shared sweep per family: clean predictions and (for
            # single-step attacks) the white-box gradient are computed
            # once and reused at every budget.
            curve = robustness_curve(
                model,
                context.attack_set,
                task.epsilons,
                lambda eps, name=name: context.build_attack(name, eps, task.attack_seed),
                label=task.key,
                batch_size=context.attack_batch_size,
            )
            curves[name] = dict(zip(curve.epsilons, curve.robustness))
        phase_seconds["attack_s"] = time.perf_counter() - attack_start
    return CellResult(
        v_th=task.v_th,
        time_window=task.time_window,
        clean_accuracy=clean_accuracy,
        learnable=learnable,
        diverged=diverged,
        curves=curves,
        elapsed_seconds=time.perf_counter() - start,
        phase_seconds=phase_seconds,
        worker=current_process().name,
        warm_start=warm_start,
        weights_from_cache=cached is not None,
    )
