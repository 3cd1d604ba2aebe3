"""Adversarial training (Madry et al., 2018) for CNNs and SNNs.

The paper's conclusion positions structural-parameter tuning as a
*complement* to algorithmic defenses; this module provides the canonical
such defense — PGD adversarial training — so the two can be combined and
compared.  Each mini-batch is (partially) replaced by adversarial
examples crafted against the current model state before the usual
gradient step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attacks.base import Attack
from repro.attacks.pgd import PGD
from repro.data.dataset import DataLoader
from repro.errors import TrainingError
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor
from repro.training.trainer import Trainer, TrainingConfig

__all__ = ["AdversarialTrainer", "AdversarialTrainingConfig"]


@dataclass(frozen=True)
class AdversarialTrainingConfig(TrainingConfig):
    """Training hyper-parameters plus the inner-attack settings."""

    attack_epsilon: float = 0.1
    """Budget of the training-time PGD adversary."""

    attack_steps: int = 5
    """Inner PGD iterations (training cost scales linearly with this)."""

    adversarial_fraction: float = 0.5
    """Fraction of each batch replaced by adversarial examples
    (1.0 = pure Madry-style adversarial training)."""

    clip_min: float = 0.0
    clip_max: float = 1.0

    def validate(self) -> None:
        """Extend the base validation with the attack fields."""
        super().validate()
        if self.attack_epsilon < 0:
            raise ValueError("attack_epsilon must be >= 0")
        if self.attack_steps < 1:
            raise ValueError("attack_steps must be >= 1")
        if not 0.0 <= self.adversarial_fraction <= 1.0:
            raise ValueError("adversarial_fraction must be in [0, 1]")
        if self.clip_min >= self.clip_max:
            raise ValueError("need clip_min < clip_max")


class AdversarialTrainer(Trainer):
    """Trainer whose batches are adversarially perturbed on the fly.

    Examples
    --------
    >>> config = AdversarialTrainingConfig(epochs=3, attack_epsilon=0.1)
    >>> AdversarialTrainer(model, config).fit(train_set)   # doctest: +SKIP
    """

    def __init__(
        self,
        model,
        config: AdversarialTrainingConfig | None = None,
        attack: Attack | None = None,
    ) -> None:
        config = config or AdversarialTrainingConfig()
        super().__init__(model, config)
        self.attack = attack or PGD(
            config.attack_epsilon,
            steps=config.attack_steps,
            clip_min=config.clip_min,
            clip_max=config.clip_max,
            rng=config.seed,
        )
        self._mix_rng = np.random.default_rng(config.seed)

    def _run_epoch(self, loader: DataLoader) -> tuple[float, float]:
        config: AdversarialTrainingConfig = self.config  # narrowed by __init__
        self.model.train()
        total_loss = 0.0
        total_correct = 0
        total_seen = 0
        for images, labels in loader:
            batch = self._adversarialize(images, labels, config)
            logits = self.model(Tensor(batch))
            loss = F.cross_entropy(logits, labels)
            loss_value = float(loss.data)
            if not np.isfinite(loss_value):
                raise TrainingError(f"loss diverged to {loss_value}")
            self.optimizer.zero_grad()
            loss.backward()
            self.optimizer.step()
            count = len(labels)
            total_loss += loss_value * count
            total_correct += int((logits.data.argmax(axis=1) == labels).sum())
            total_seen += count
        return total_loss / total_seen, total_correct / total_seen

    def _adversarialize(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        config: AdversarialTrainingConfig,
    ) -> np.ndarray:
        """Replace a fraction of the batch with PGD examples."""
        if config.adversarial_fraction == 0.0 or config.attack_epsilon == 0.0:
            return images
        # crafting must not interfere with the outer gradient step
        self.model.eval()
        try:
            adversarial = self.attack.generate(self.model, images, labels)
        finally:
            self.model.train()
        if config.adversarial_fraction >= 1.0:
            return adversarial
        mask = self._mix_rng.random(len(images)) < config.adversarial_fraction
        mixed = images.copy()
        mixed[mask] = adversarial[mask]
        return mixed
