"""Learnability study (Algorithm 1, lines 3-4).

Trains one ``(Vth, T)`` instantiation and scores its clean accuracy; the
engine checks that score against the baseline-accuracy gate ``Ath``
(:meth:`~repro.engine.job.JobContext.passes_gate`).  "There is indeed no
interest in studying the robustness of SNNs with low baseline
performance" (paper §V).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.errors import TrainingError
from repro.nn.module import Module
from repro.training.trainer import Trainer, TrainingConfig, TrainingHistory

__all__ = ["LearnabilityResult", "train_and_score"]


@dataclass(frozen=True)
class LearnabilityResult:
    """Outcome of training one grid cell."""

    clean_accuracy: float
    """Test accuracy after training (the heat-map value of paper Fig. 6)."""

    diverged: bool
    """True when training aborted on a non-finite loss."""

    history: TrainingHistory
    """Per-epoch training record."""

    optimizer_state: dict[str, np.ndarray] | None = field(
        default=None, compare=False, repr=False
    )
    """Adam moments at the end of training (``None`` for diverged runs).
    Archived next to the weights so a later higher-budget resume is a
    bitwise continuation instead of a re-anneal."""


def train_and_score(
    model: Module,
    train_set: ArrayDataset,
    test_set: ArrayDataset,
    training_config: TrainingConfig,
    *,
    initial_state: dict[str, np.ndarray] | None = None,
    start_epoch: int = 0,
    initial_optimizer_state: dict[str, np.ndarray] | None = None,
) -> LearnabilityResult:
    """Train ``model`` and score its clean accuracy on ``test_set``.

    A diverged run (non-finite loss) scores zero accuracy rather than
    raising: the paper's heat map (Fig. 6) includes such failed cells as
    low-accuracy entries, and the gate rejects them.

    ``initial_state``/``start_epoch`` form the resume-from-weights entry
    point used by warm-started search cells and promoted partial-budget
    checkpoints: the state is loaded before training and only the epochs
    past ``start_epoch`` execute.  Passing the checkpoint's
    ``initial_optimizer_state`` alongside makes the resume a bitwise
    continuation (see :meth:`Trainer.fit` for the shuffle and
    optimizer-state semantics).  The final accuracy is scored exactly as a
    cold run's would be.
    """
    if initial_state is not None:
        model.load_state_dict(initial_state)
    trainer = Trainer(model, training_config)
    try:
        history = trainer.fit(
            train_set,
            start_epoch=start_epoch,
            optimizer_state=initial_optimizer_state,
        )
        clean_accuracy = trainer.evaluate(test_set)
        diverged = False
        optimizer_state = trainer.optimizer.state_dict()
    except TrainingError:
        history = trainer.history
        clean_accuracy = 0.0
        diverged = True
        optimizer_state = None
    return LearnabilityResult(
        clean_accuracy=clean_accuracy,
        diverged=diverged,
        history=history,
        optimizer_state=optimizer_state,
    )
