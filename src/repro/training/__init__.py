"""The training loop and its accuracy metric."""

from repro.training.metrics import accuracy
from repro.training.trainer import Trainer, TrainingConfig, TrainingHistory

__all__ = ["Trainer", "TrainingConfig", "TrainingHistory", "accuracy"]
