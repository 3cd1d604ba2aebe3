"""Attack evaluation metrics.

The central quantity is the paper's robustness (Algorithm 1, line 15):

.. math::

    \\mathrm{Robustness}(ε) = 1 - \\frac{\\#\\{S(X^*_t) \\neq L_t\\}}{|D|}

i.e. the fraction of test samples for which the attack *fails* to force a
misclassification.  Samples the model already gets wrong on clean input
count as attack successes (the inequality holds trivially), so
``robustness(ε → 0)`` equals the clean accuracy — matching how the curves
in paper Figs. 1 and 9 start at the clean accuracy.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.attacks.base import Attack, input_gradient, predict_batched
from repro.data.dataset import ArrayDataset
from repro.nn.module import Module

__all__ = [
    "AttackEvaluation",
    "evaluate_attack",
    "evaluate_attack_sweep",
    "evaluate_clean_accuracy",
    "perturbation_norms",
]

AttackBuilder = Callable[[float], Attack]
"""``epsilon -> fresh attack`` factory used by the sweep evaluators."""


@dataclass(frozen=True)
class AttackEvaluation:
    """Outcome of attacking one model on one dataset at one budget."""

    attack_name: str
    epsilon: float
    num_samples: int
    clean_accuracy: float
    adversarial_accuracy: float
    mean_linf: float
    mean_l2: float

    @property
    def robustness(self) -> float:
        """Paper Algorithm 1 line 15 (== adversarial accuracy)."""
        return self.adversarial_accuracy

    @property
    def attack_success_rate(self) -> float:
        """Fraction of samples ending up misclassified."""
        return 1.0 - self.adversarial_accuracy

    def as_dict(self) -> dict:
        """JSON-friendly representation."""
        return {
            "attack": self.attack_name,
            "epsilon": self.epsilon,
            "num_samples": self.num_samples,
            "clean_accuracy": self.clean_accuracy,
            "adversarial_accuracy": self.adversarial_accuracy,
            "robustness": self.robustness,
            "attack_success_rate": self.attack_success_rate,
            "mean_linf": self.mean_linf,
            "mean_l2": self.mean_l2,
        }


def perturbation_norms(clean: np.ndarray, adversarial: np.ndarray) -> tuple[float, float]:
    """Mean per-sample L-infinity and L2 norms of the perturbation."""
    delta = (adversarial - clean).reshape(len(clean), -1)
    linf = np.abs(delta).max(axis=1).mean() if len(delta) else 0.0
    l2 = np.sqrt((delta * delta).sum(axis=1)).mean() if len(delta) else 0.0
    return float(linf), float(l2)


def evaluate_clean_accuracy(
    model: Module, dataset: ArrayDataset, batch_size: int = 64
) -> float:
    """Accuracy on unperturbed inputs."""
    predictions = predict_batched(model, dataset.images, batch_size)
    return float((predictions == dataset.labels).mean())


def evaluate_attack(
    model: Module,
    attack: Attack,
    dataset: ArrayDataset,
    batch_size: int = 32,
    clean_predictions: np.ndarray | None = None,
) -> AttackEvaluation:
    """Run ``attack`` over ``dataset`` and compute robustness metrics.

    Adversarial examples are crafted batch-wise (bounding the memory of
    unrolled SNN graphs) in training-independent eval mode.

    ``clean_predictions`` lets callers evaluating the same model on the
    same dataset repeatedly (e.g. one curve point per ε) pass the model's
    clean-input predictions instead of recomputing them per call —
    :func:`evaluate_attack_sweep` does this for whole curves.
    """
    model.eval()
    images, labels = dataset.images, dataset.labels
    if clean_predictions is None:
        clean_predictions = predict_batched(model, images, batch_size)
    adv_correct = 0
    linf_sum = 0.0
    l2_sum = 0.0
    for start in range(0, len(images), batch_size):
        x = images[start : start + batch_size]
        y = labels[start : start + batch_size]
        x_adv = attack.generate(model, x, y)
        adv_pred = predict_batched(model, x_adv, batch_size)
        adv_correct += int((adv_pred == y).sum())
        linf, l2 = perturbation_norms(x, x_adv)
        linf_sum += linf * len(x)
        l2_sum += l2 * len(x)
    n = len(images)
    return AttackEvaluation(
        attack_name=attack.name,
        epsilon=attack.epsilon,
        num_samples=n,
        clean_accuracy=float((clean_predictions == labels).mean()),
        adversarial_accuracy=adv_correct / n,
        mean_linf=linf_sum / n,
        mean_l2=l2_sum / n,
    )


def evaluate_attack_sweep(
    model: Module,
    attack_family: AttackBuilder,
    epsilons: Sequence[float],
    dataset: ArrayDataset,
    batch_size: int = 32,
    fused_batch_size: int | None = None,
    *,
    score_clean: bool = True,
) -> tuple[AttackEvaluation, ...]:
    """Evaluate one attack family at every ε, sharing ε-independent work.

    Produces results identical to calling :func:`evaluate_attack` once per
    ``attack_family(epsilon)`` (the parity tests assert exact equality),
    but restructures the sweep around three observations:

    - clean predictions do not depend on ε — computed once per batch
      instead of once per ``(batch, ε)``, and not at all when unscored
      (``score_clean=False``) for a model that draws no randomness;
    - the white-box loss gradient at the clean input does not depend on ε
      — computed once per batch and passed to every budget's
      :meth:`~repro.attacks.base.Attack.generate`; attacks that declare
      :attr:`~repro.attacks.base.Attack.reuses_clean_gradient` use it
      (FGSM builds entirely from it; BIM and non-random-start PGD seed
      their first iteration with it);
    - per-ε adversarial predictions are independent — the K crafted
      variants of a batch are stacked and predicted in one no-grad pass
      (``fused_batch_size`` sets the forward chunk; the default chunks
      at the crafting batch length, which reproduces the per-ε loop's
      forward shapes exactly and keeps memory bounded by ``batch_size``;
      pass ``K * batch_size`` to fuse the whole stack into one forward).

    Parameters
    ----------
    model:
        Trained classifier under attack.
    attack_family:
        ``epsilon -> Attack`` factory; called once per ε so stateful
        attacks (PGD random start, noise draws) are seeded exactly as in
        the per-ε loop.
    epsilons:
        Noise budgets, one sweep point each.
    dataset:
        Samples to attack.
    batch_size:
        Crafting batch size (bounds the unrolled SNN graph memory).
    fused_batch_size:
        Chunk size of the stacked adversarial prediction pass.  ``None``
        (default) chunks at the crafting batch length — each ε's batch
        is forwarded in exactly the shape the per-ε loop would use, so
        equality holds on any platform.  Larger values fuse several ε
        batches per forward; float results of a fused chunk are only
        batch-size-invariant if the BLAS in use computes rows
        independently (true for the library's default stack, and
        asserted by the parity tests).
    score_clean:
        Score ``clean_accuracy``.  A caller that reads only the
        adversarial numbers
        (:func:`~repro.robustness.security.robustness_curve`, which the
        engine runs) passes ``False``: a model that
        draws no randomness then runs no clean forward and every
        evaluation's ``clean_accuracy`` is NaN.  Every other field is
        unchanged.

    Notes
    -----
    Exact equality with the per-ε loop holds for deterministic forward
    passes (every standard model).  A model whose *forward* itself draws
    randomness (a module declaring
    :attr:`~repro.nn.module.Module.draws_randomness`, e.g. a Poisson
    encoder) consumes its rng stream in a different order here than the
    historical loop did, so its numbers match only statistically; re-seed
    such components before the sweep (the engine's ``attack_prep`` hook)
    for run-to-run reproducibility.  Such a model always runs the clean
    forward, scored or not, so its stream advances the same either way.
    """
    model.eval()
    attacks = [attack_family(float(epsilon)) for epsilon in epsilons]
    if not attacks:
        return ()
    images, labels = dataset.images, dataset.labels
    n = len(images)
    need_gradient = any(attack.reuses_clean_gradient for attack in attacks)
    clean_pass = score_clean or model.forward_draws_randomness()
    clean_correct = 0
    adv_correct = [0] * len(attacks)
    linf_sums = [0.0] * len(attacks)
    l2_sums = [0.0] * len(attacks)
    for start in range(0, n, batch_size):
        x = images[start : start + batch_size]
        y = labels[start : start + batch_size]
        if clean_pass:
            clean_pred = predict_batched(model, x, batch_size)
            clean_correct += int((clean_pred == y).sum())
        gradient = input_gradient(model, x, y) if need_gradient else None
        adversarial = []
        for index, attack in enumerate(attacks):
            x_adv = attack.generate(model, x, y, gradient)
            adversarial.append(x_adv)
            linf, l2 = perturbation_norms(x, x_adv)
            linf_sums[index] += linf * len(x)
            l2_sums[index] += l2 * len(x)
        stacked = np.concatenate(adversarial)
        predictions = predict_batched(model, stacked, fused_batch_size or len(x))
        for index in range(len(attacks)):
            adv_pred = predictions[index * len(x) : (index + 1) * len(x)]
            adv_correct[index] += int((adv_pred == y).sum())
    clean_accuracy = clean_correct / n if clean_pass else float("nan")
    return tuple(
        AttackEvaluation(
            attack_name=attack.name,
            epsilon=attack.epsilon,
            num_samples=n,
            clean_accuracy=clean_accuracy,
            adversarial_accuracy=adv_correct[index] / n,
            mean_linf=linf_sums[index] / n,
            mean_l2=l2_sums[index] / n,
        )
        for index, attack in enumerate(attacks)
    )
