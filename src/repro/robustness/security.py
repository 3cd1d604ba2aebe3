"""Security study (Algorithm 1, lines 5-16).

For a trained model, sweeps the adversarial noise budget and records the
robustness at each ε.  Used both by the grid exploration and by the
curve-style experiments (paper Figs. 1 and 9).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.attacks.base import Attack
from repro.attacks.metrics import AttackEvaluation, evaluate_attack_sweep
from repro.data.dataset import ArrayDataset
from repro.nn.module import Module

__all__ = ["RobustnessCurve", "robustness_curve"]

AttackBuilder = Callable[[float], Attack]


@dataclass(frozen=True)
class RobustnessCurve:
    """Robustness as a function of the noise budget for one model."""

    label: str
    epsilons: tuple[float, ...]
    robustness: tuple[float, ...]
    evaluations: tuple[AttackEvaluation, ...]

    def robustness_at(self, epsilon: float) -> float:
        """Robustness at a specific budget (must be one of the sweep points)."""
        try:
            index = self.epsilons.index(epsilon)
        except ValueError:
            raise KeyError(f"epsilon {epsilon} not in sweep {self.epsilons}") from None
        return self.robustness[index]

    def as_dict(self) -> dict:
        """JSON-friendly representation."""
        return {
            "label": self.label,
            "epsilons": list(self.epsilons),
            "robustness": list(self.robustness),
            "evaluations": [e.as_dict() for e in self.evaluations],
        }


def robustness_curve(
    model: Module,
    dataset: ArrayDataset,
    epsilons: Sequence[float],
    attack_builder: AttackBuilder,
    label: str = "model",
    batch_size: int = 32,
) -> RobustnessCurve:
    """Sweep ``epsilons`` and evaluate the attack at each budget.

    ``attack_builder(eps)`` constructs a fresh attack per budget so
    stateful attacks (PGD random start) stay independent across points.
    Delegates to :func:`~repro.attacks.metrics.evaluate_attack_sweep`,
    which shares the ε-independent work (clean predictions, the white-box
    gradient of single-step attacks, fused adversarial prediction) across
    the whole curve — results are identical to the per-ε loop.

    A curve is read for its robustness, so the sweep runs unscored
    (``score_clean=False``): for a model that draws no randomness there is
    no clean forward and each evaluation's ``clean_accuracy`` is NaN.  A
    model that draws it (a Poisson encoder) still runs the clean forward,
    so its rng stream and every robustness value stay those of a scored
    sweep.
    """
    evaluations = evaluate_attack_sweep(
        model, attack_builder, epsilons, dataset, batch_size=batch_size,
        score_clean=False,
    )
    return RobustnessCurve(
        label=label,
        epsilons=tuple(float(e) for e in epsilons),
        robustness=tuple(e.robustness for e in evaluations),
        evaluations=tuple(evaluations),
    )
