"""Generic supervised training loop.

Used for both the CNN baselines and the spiking networks — the only
contract is ``model(Tensor(batch)) -> logits``.  The Trainer never picks
an execution path: a spiking network's grad-mode forward already runs the
graph-free BPTT when it can (see
:meth:`repro.snn.network.SpikingNetwork.forward`), and
``loss.backward()`` reaches its sweep through the ordinary graph of the
decoder and loss.  The robustness-exploration pipeline (Algorithm 1,
line 3 "Train(Sij)") delegates here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.dataset import ArrayDataset, DataLoader
from repro.errors import TrainingError
from repro.nn.module import Module
from repro.optim.adam import Adam
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor, no_grad
from repro.training.metrics import accuracy
from repro.utils.logging import get_logger

__all__ = ["Trainer", "TrainingConfig", "TrainingHistory", "clip_gradients"]

_logger = get_logger("training")


def clip_gradients(optimizer: Adam, max_norm: float) -> None:
    """Scale ``optimizer``'s gradients in place to a global L2 norm of at
    most ``max_norm`` (the stacked trainer clips each lane with it too)."""
    grads = [p.grad for p in optimizer.parameters if p.grad is not None]
    if not grads:
        return
    total = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
    if total > max_norm:
        scale = max_norm / (total + 1e-12)
        for grad in grads:
            grad *= scale


@dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters of one training run."""

    epochs: int = 8
    """Number of passes over the training set."""

    batch_size: int = 32
    """Mini-batch size."""

    learning_rate: float = 5e-3
    """Adam step size."""

    weight_decay: float = 0.0
    """L2 penalty coefficient."""

    shuffle: bool = True
    """Reshuffle the training set every epoch."""

    seed: int = 0
    """Seed for batch shuffling."""

    eval_batch_size: int = 64
    """Batch size for accuracy evaluation."""

    max_grad_norm: float | None = None
    """Optional global gradient-norm clip."""

    def validate(self) -> None:
        """Raise ``ValueError`` on out-of-range fields."""
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.max_grad_norm is not None and self.max_grad_norm <= 0:
            raise ValueError("max_grad_norm must be positive when set")


@dataclass
class TrainingHistory:
    """Per-epoch record of a run."""

    train_loss: list[float] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)
    eval_accuracy: list[float] = field(default_factory=list)

    @property
    def final_eval_accuracy(self) -> float:
        """Last recorded evaluation accuracy (NaN when never evaluated)."""
        return self.eval_accuracy[-1] if self.eval_accuracy else float("nan")


class Trainer:
    """Train a classifier on an :class:`ArrayDataset` with Adam.

    Examples
    --------
    >>> trainer = Trainer(model, TrainingConfig(epochs=2))
    >>> history = trainer.fit(train_set, eval_set)   # doctest: +SKIP
    """

    def __init__(self, model: Module, config: TrainingConfig | None = None) -> None:
        self.model = model
        self.config = config or TrainingConfig()
        self.config.validate()
        self.optimizer = Adam(
            model.parameters(),
            lr=self.config.learning_rate,
            weight_decay=self.config.weight_decay,
        )
        self.history = TrainingHistory()

    def fit(
        self,
        train_set: ArrayDataset,
        eval_set: ArrayDataset | None = None,
        verbose: bool = False,
        start_epoch: int = 0,
        optimizer_state: dict | None = None,
    ) -> TrainingHistory:
        """Run the configured number of epochs; returns the history.

        ``start_epoch`` resumes a run whose first epochs already happened
        elsewhere (warm-start from checkpointed weights): the model is
        assumed to hold the epoch-``start_epoch`` parameters, the shuffle
        stream is advanced past the epochs already consumed, and only the
        remaining ``epochs - start_epoch`` passes execute.  When the
        checkpoint also carried ``optimizer_state`` (Adam moments, see
        :meth:`Adam.state_dict`), passing it here makes the resume a
        bitwise continuation of the original run; without it the moments
        restart cold and resumed training is a warm re-anneal instead.

        Raises :class:`TrainingError` if the loss becomes non-finite.
        """
        if start_epoch < 0:
            raise ValueError(f"start_epoch must be >= 0, got {start_epoch}")
        if optimizer_state is not None:
            self.optimizer.load_state_dict(optimizer_state)
        loader = DataLoader(
            train_set,
            batch_size=self.config.batch_size,
            shuffle=self.config.shuffle,
            seed=self.config.seed,
        )
        loader.skip_epochs(min(start_epoch, self.config.epochs))
        for epoch in range(start_epoch, self.config.epochs):
            loss_value, train_acc = self._run_epoch(loader)
            self.history.train_loss.append(loss_value)
            self.history.train_accuracy.append(train_acc)
            if eval_set is not None:
                eval_acc = self.evaluate(eval_set)
                self.history.eval_accuracy.append(eval_acc)
            if verbose:
                eval_msg = (
                    f" eval_acc={self.history.eval_accuracy[-1]:.3f}"
                    if eval_set is not None
                    else ""
                )
                _logger.info(
                    "epoch %d/%d loss=%.4f train_acc=%.3f%s",
                    epoch + 1,
                    self.config.epochs,
                    loss_value,
                    train_acc,
                    eval_msg,
                )
        return self.history

    def _run_epoch(self, loader: DataLoader) -> tuple[float, float]:
        self.model.train()
        total_loss = 0.0
        total_correct = 0
        total_seen = 0
        for images, labels in loader:
            logits = self.model(Tensor(images))
            loss = F.cross_entropy(logits, labels)
            loss_value = float(loss.data)
            if not np.isfinite(loss_value):
                raise TrainingError(f"loss diverged to {loss_value}")
            self.optimizer.zero_grad()
            loss.backward()
            if self.config.max_grad_norm is not None:
                clip_gradients(self.optimizer, self.config.max_grad_norm)
            self.optimizer.step()
            batch = len(labels)
            total_loss += loss_value * batch
            total_correct += int((logits.data.argmax(axis=1) == labels).sum())
            total_seen += batch
        return total_loss / total_seen, total_correct / total_seen

    def evaluate(self, dataset: ArrayDataset) -> float:
        """Accuracy of the current model on ``dataset`` (eval mode)."""
        self.model.eval()
        predictions = []
        with no_grad():
            for start in range(0, len(dataset), self.config.eval_batch_size):
                images = dataset.images[start : start + self.config.eval_batch_size]
                predictions.append(self.model(Tensor(images)).data.argmax(axis=1))
        merged = np.concatenate(predictions) if predictions else np.empty(0, dtype=np.int64)
        return accuracy(merged, dataset.labels)
