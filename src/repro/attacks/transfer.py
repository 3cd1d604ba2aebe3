"""Transfer (surrogate-model) attack evaluation.

The paper's threat model is white-box, but its related work (Marchisio et
al., IJCNN 2020) compares SNN/DNN robustness under *black-box* transfer:
adversarial examples crafted against a surrogate model are replayed
against the victim.  This module evaluates exactly that, which also
serves as a gradient-masking control — if white-box PGD on an SNN barely
beats examples transferred from its CNN twin, the SNN's own gradients
carry little attack-relevant information.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attacks.base import Attack, predict_batched
from repro.data.dataset import ArrayDataset
from repro.nn.module import Module

__all__ = ["TransferEvaluation", "evaluate_transfer_attack"]


@dataclass(frozen=True)
class TransferEvaluation:
    """Outcome of replaying surrogate-crafted examples on a victim."""

    attack_name: str
    epsilon: float
    num_samples: int
    surrogate_adversarial_accuracy: float
    """Accuracy of the surrogate itself on its own adversarial examples."""

    victim_adversarial_accuracy: float
    """Accuracy of the victim on the transferred examples."""

    victim_clean_accuracy: float

    @property
    def transfer_rate(self) -> float:
        """Fraction of the victim's clean accuracy destroyed by transfer."""
        if self.victim_clean_accuracy == 0.0:
            return 0.0
        drop = self.victim_clean_accuracy - self.victim_adversarial_accuracy
        return max(0.0, drop) / self.victim_clean_accuracy

    def as_dict(self) -> dict:
        """JSON-friendly representation."""
        return {
            "attack": self.attack_name,
            "epsilon": self.epsilon,
            "num_samples": self.num_samples,
            "surrogate_adversarial_accuracy": self.surrogate_adversarial_accuracy,
            "victim_adversarial_accuracy": self.victim_adversarial_accuracy,
            "victim_clean_accuracy": self.victim_clean_accuracy,
            "transfer_rate": self.transfer_rate,
        }


def evaluate_transfer_attack(
    surrogate: Module,
    victim: Module,
    attack: Attack,
    dataset: ArrayDataset,
    batch_size: int = 32,
) -> TransferEvaluation:
    """Craft examples on ``surrogate`` with ``attack``, evaluate on ``victim``.

    Both models must share the input space; nothing else (architecture,
    spiking vs non-spiking) needs to match.
    """
    surrogate.eval()
    victim.eval()
    images, labels = dataset.images, dataset.labels
    surrogate_correct = 0
    victim_correct = 0
    victim_clean_correct = 0
    for start in range(0, len(images), batch_size):
        x = images[start : start + batch_size]
        y = labels[start : start + batch_size]
        x_adv = attack.generate(surrogate, x, y)
        surrogate_correct += int((predict_batched(surrogate, x_adv, batch_size) == y).sum())
        victim_correct += int((predict_batched(victim, x_adv, batch_size) == y).sum())
        victim_clean_correct += int((predict_batched(victim, x, batch_size) == y).sum())
    n = len(images)
    return TransferEvaluation(
        attack_name=attack.name,
        epsilon=attack.epsilon,
        num_samples=n,
        surrogate_adversarial_accuracy=surrogate_correct / n,
        victim_adversarial_accuracy=victim_correct / n,
        victim_clean_accuracy=victim_clean_correct / n,
    )
