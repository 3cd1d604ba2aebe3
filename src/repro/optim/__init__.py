"""First-order optimizers."""

from repro.optim.adam import Adam
from repro.optim.optimizer import Optimizer

__all__ = ["Adam", "Optimizer"]
