"""Algorithm 1: the grid exploration driver.

Pseudo-code of the paper (Algorithm 1) and its mapping here:

.. code-block:: text

    for i in 1..n:                      # v_thresholds        (cell tasks)
      for j in 1..m:                    # time_windows        (cell tasks)
        Train(Sij)                      # learnability.train_and_score
        if Accuracy(Sij) >= Ath:        # LearnabilityResult.learnable
          for k in 1..p:                # epsilons
            X* = PGD(Sij, eps_k, Xt)    # attacks.pgd via config.build_attack
            Robustness(eps_k) = 1 - Adv/|D|   # attacks.metrics

Every grid cell derives independent child seeds for model initialisation,
training shuffling and attack randomness from the root seed, so cells are
reproducible in isolation and independent of evaluation order.

Execution is delegated to :mod:`repro.engine`: the explorer expands its
config into picklable :class:`~repro.engine.job.CellTask` jobs and hands
them to the scheduler, which can run them serially or across worker
processes (``jobs > 1``) with bitwise-identical results, and checkpoint /
resume them through a :class:`~repro.engine.cache.CellCache`.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.data.dataset import ArrayDataset
from repro.errors import ExplorationError
from repro.nn.module import Module
from repro.robustness.config import ExplorationConfig
from repro.robustness.results import CellResult, ExplorationResult
from repro.utils.logging import get_logger
from repro.utils.seeding import SeedSequence

if TYPE_CHECKING:  # imported lazily at runtime: engine.job imports this package
    from repro.engine.cache import CellCache
    from repro.engine.job import CellTask, ExplorationJobContext

__all__ = ["RobustnessExplorer", "cell_progress"]

_logger = get_logger("robustness")

ModelFactory = Callable[[float, int, int], Module]
"""``(v_th, time_window, seed) -> model`` builder used per grid cell."""


def cell_progress(verbose: bool, total: int | None = None):
    """Engine progress callback logging one line per completed grid cell.

    Returns ``None`` (no callback) unless ``verbose``.  Lines count as
    ``[done/total]``; a queue worker or search rung, which cannot know
    its share of the cells in advance, passes no ``total`` and counts
    ``[done]``.
    """
    if not verbose:
        return None
    done = 0

    def progress(task: "CellTask", cell: CellResult, from_cache: bool) -> None:
        nonlocal done
        done += 1
        status = "learnable" if cell.learnable else "rejected"
        if from_cache:
            status += " (cached)"
        _logger.info(
            "[%s] Vth=%g T=%d acc=%.3f %s %s",
            done if total is None else f"{done}/{total}",
            task.v_th,
            task.time_window,
            cell.clean_accuracy,
            status,
            {e: round(r, 3) for e, r in cell.robustness.items()},
        )

    return progress


class RobustnessExplorer:
    """Runs Algorithm 1 over the configured ``(Vth, T)`` grid.

    Parameters
    ----------
    model_factory:
        Callable ``(v_th, time_window, seed) -> Module`` producing a fresh,
        untrained model per cell (e.g. a lambda around
        :func:`repro.models.spiking_lenet.build_spiking_lenet_mini`).
    train_set, test_set:
        Datasets for the Train() step and the security analysis.
    config:
        Grid, gate and attack settings.
    """

    def __init__(
        self,
        model_factory: ModelFactory,
        train_set: ArrayDataset,
        test_set: ArrayDataset,
        config: ExplorationConfig | None = None,
    ) -> None:
        self.model_factory = model_factory
        self.train_set = train_set
        self.test_set = test_set
        self.config = config or ExplorationConfig()
        self.config.validate()
        if len(train_set) == 0 or len(test_set) == 0:
            raise ExplorationError("train and test sets must be non-empty")
        self._seeds = SeedSequence(self.config.seed)

    @property
    def context(self) -> "ExplorationJobContext":
        """The engine job context shared by every cell of this exploration."""
        from repro.engine.job import ExplorationJobContext

        return ExplorationJobContext(
            model_factory=self.model_factory,
            train_set=self.train_set,
            test_set=self.test_set,
            config=self.config,
        )

    # -- single cell ------------------------------------------------------------

    def tasks(self) -> "list[CellTask]":
        """Deterministically seeded task list covering the whole grid."""
        from repro.engine.job import build_cell_tasks

        return build_cell_tasks(self.config)

    def explore_cell(self, v_th: float, time_window: int) -> CellResult:
        """Run learnability + security analysis for one combination."""
        from repro.engine.job import make_cell_task, run_cell_task

        task = make_cell_task(self._seeds, 0, v_th, time_window)
        return run_cell_task(self.context, task)

    # -- full grid -----------------------------------------------------------------

    def run(
        self,
        verbose: bool = False,
        jobs: int = 1,
        cache: "CellCache | None" = None,
        resume: bool = False,
        start_method: str = "auto",
        context_spec=None,
        weight_cache=None,
        stack: int = 1,
    ) -> ExplorationResult:
        """Execute the full grid exploration and collect results.

        Parameters
        ----------
        verbose:
            Log one line per completed cell.
        jobs:
            Worker processes for cell evaluation; ``1`` runs serially.
            Parallel runs produce bitwise-identical cell values.
        cache:
            Optional cell checkpoint store; completed cells are always
            written through it.
        resume:
            Reuse cells already present in ``cache`` (skip recomputing
            them) — the "continue an interrupted run" switch.  Requires
            ``cache``.
        start_method:
            Pool backend: ``auto`` (prefer fork), ``fork`` or ``spawn``
            (needs ``context_spec``).
        context_spec:
            :class:`~repro.engine.scheduler.ContextSpec` rebuilding this
            exploration's job context inside spawn workers.
        weight_cache:
            Optional :class:`~repro.engine.cache.WeightCache`.  Trained
            cell weights are always written through it; with ``resume``
            they replace retraining, so a re-sweep with new ε budgets
            only recomputes the security analysis.
        stack:
            Pack up to ``stack`` compatible cells into one
            :class:`~repro.snn.stack.VariantStack` fused pass
            (:func:`~repro.engine.stacking.plan_units`).  Stacked
            execution is per-cell bitwise identical to the unstacked
            path and composes with ``jobs`` (each pool worker runs whole
            stacks); ``1`` (the default) runs cell by cell.
        """
        from repro.engine.scheduler import run_cell_tasks

        tasks = self.tasks()
        context = self.context
        context.weight_cache = weight_cache
        context.reuse_weights = weight_cache is not None and resume
        cells, stats = run_cell_tasks(
            context,
            tasks,
            jobs=jobs,
            cache=cache,
            resume=resume,
            progress=cell_progress(verbose, len(tasks)),
            start_method=start_method,
            context_spec=context_spec,
            stack=stack,
        )
        return self.result(cells, stats)

    def result(self, cells: "list[CellResult]", stats) -> ExplorationResult:
        """Wrap the engine's cells and schedule stats as the grid result."""
        return ExplorationResult(
            v_thresholds=self.config.v_thresholds,
            time_windows=self.config.time_windows,
            cells=cells,
            metadata={
                "attack": self.config.attack,
                "attack_steps": self.config.attack_steps,
                "epsilons": list(self.config.epsilons),
                "accuracy_threshold": self.config.accuracy_threshold,
                "seed": self.config.seed,
                "num_train": len(self.train_set),
                "num_test": len(self.test_set),
                "engine": stats.as_dict(),
            },
        )
