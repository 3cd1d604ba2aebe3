"""Configuration of the robustness exploration (Algorithm 1 inputs)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.attacks.base import Attack
from repro.attacks.fgsm import BIM, FGSM
from repro.attacks.noise import GaussianNoise, SignNoise, UniformNoise
from repro.attacks.pgd import PGD
from repro.errors import ConfigurationError
from repro.training.trainer import TrainingConfig

__all__ = ["ExplorationConfig", "make_attack"]

_ATTACKS = {
    "pgd": PGD,
    "fgsm": FGSM,
    "bim": BIM,
    "uniform_noise": UniformNoise,
    "gaussian_noise": GaussianNoise,
    "sign_noise": SignNoise,
}


def make_attack(
    name: str,
    epsilon: float,
    steps: int = 10,
    alpha: float | None = None,
    random_start: bool = True,
    seed: int | None = None,
    clip_min: float = 0.0,
    clip_max: float = 1.0,
) -> Attack:
    """Build an attack by name at a given noise budget.

    Iteration parameters apply only to iterative attacks; the seed only to
    stochastic ones.  ``clip_min``/``clip_max`` define the valid pixel box
    (for MNIST-normalized inputs use
    :func:`repro.data.transforms.normalized_bounds`).
    """
    try:
        cls = _ATTACKS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown attack {name!r}; available: {tuple(sorted(_ATTACKS))}"
        ) from None
    if cls is PGD:
        return PGD(
            epsilon,
            steps=steps,
            alpha=alpha,
            random_start=random_start,
            clip_min=clip_min,
            clip_max=clip_max,
            rng=seed,
        )
    if cls is BIM:
        return BIM(epsilon, steps=steps, alpha=alpha, clip_min=clip_min, clip_max=clip_max)
    if cls is FGSM:
        return FGSM(epsilon, clip_min=clip_min, clip_max=clip_max)
    return cls(epsilon, clip_min=clip_min, clip_max=clip_max, rng=seed)


@dataclass(frozen=True)
class ExplorationConfig:
    """Inputs of Algorithm 1.

    The defaults mirror the paper's evaluation settings; the experiment
    profiles in :mod:`repro.experiments.profiles` override grid density
    and sample counts per profile.
    """

    v_thresholds: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25)
    """Explored firing thresholds ``Vi`` (paper Fig. 6 horizontal axis)."""

    time_windows: tuple[int, ...] = (8, 16, 24, 32, 40, 48, 56, 64, 72)
    """Explored time windows ``Tj`` (paper Fig. 6 vertical axis)."""

    epsilons: tuple[float, ...] = (0.5, 1.0, 1.5)
    """Adversarial noise budgets ``εk``."""

    accuracy_threshold: float = 0.70
    """Learnability gate ``Ath`` (paper: 70 %)."""

    attack: str = "pgd"
    """Attack family used in the security analysis."""

    attack_steps: int = 10
    """Iterations of the (iterative) attack."""

    attack_alpha: float | None = None
    """Per-step size; ``None`` selects the attack's default heuristic."""

    attack_random_start: bool = True
    """PGD random start inside the ε-ball."""

    attack_batch_size: int = 32
    """Batch size used while crafting adversarial examples."""

    clip_min: float = 0.0
    """Lower bound of the valid pixel box (projection set)."""

    clip_max: float = 1.0
    """Upper bound of the valid pixel box (projection set)."""

    training: TrainingConfig = field(default_factory=TrainingConfig)
    """Hyper-parameters for Algorithm 1's Train() step."""

    seed: int = 0
    """Root seed; every grid cell derives independent child seeds."""

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on inconsistent settings."""
        if not self.v_thresholds:
            raise ConfigurationError("v_thresholds must not be empty")
        if not self.time_windows:
            raise ConfigurationError("time_windows must not be empty")
        if any(v <= 0 for v in self.v_thresholds):
            raise ConfigurationError("all thresholds must be positive")
        if any(t < 1 for t in self.time_windows):
            raise ConfigurationError("all time windows must be >= 1")
        if not self.epsilons:
            raise ConfigurationError("epsilons must not be empty")
        if any(e < 0 for e in self.epsilons):
            raise ConfigurationError("epsilons must be >= 0")
        if not 0.0 <= self.accuracy_threshold <= 1.0:
            raise ConfigurationError("accuracy_threshold must be in [0, 1]")
        if self.attack not in _ATTACKS:
            raise ConfigurationError(
                f"unknown attack {self.attack!r}; available: {tuple(sorted(_ATTACKS))}"
            )
        if self.attack_batch_size < 1:
            raise ConfigurationError("attack_batch_size must be >= 1")
        if self.clip_min >= self.clip_max:
            raise ConfigurationError("need clip_min < clip_max")
        self.training.validate()
