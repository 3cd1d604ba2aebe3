"""Experiment profiles: paper-scale vs CPU-friendly settings.

All profiles run the *same code path*; they differ only in grid density,
sample counts and training length (docs/reproducing.md):

* ``micro`` — seconds; used by the integration tests.
* ``micro-search`` — micro's scale with a longer budget (6 epochs over a
  3x2 grid) and an open learnability gate; the guided-search CI job
  needs rungs to halve over and robustness numbers to rank by.
* ``smoke`` — minutes on CPU; default for the pytest benchmarks. Grid and
  budgets cover the paper's interesting region (thresholds 0.25-2.25,
  windows 8-48, ε up to 2) at reduced density.
* ``paper`` — the full 9x8 grid with T up to 72 and thousands of samples;
  hours on CPU, intended for ``python -m repro.experiments --profile paper``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.training.trainer import TrainingConfig

__all__ = ["ExperimentProfile", "available_profiles", "get_profile"]


@dataclass(frozen=True)
class ExperimentProfile:
    """All knobs of one experiment scale."""

    name: str
    """Profile identifier."""

    image_size: int
    """Canvas size of the synthetic digits."""

    num_train: int
    """Training-set size."""

    num_test: int
    """Test-set size (clean-accuracy evaluation)."""

    attack_subset: int
    """Number of test samples used when crafting adversarial examples
    (bounds attack cost; the paper uses the full test set on a GPU)."""

    snn_model: str
    """Registry name of the spiking model under exploration."""

    cnn_model: str
    """Registry name of the comparator CNN."""

    fig1_snn_model: str
    """Registry name of the Fig.-1 motivational SNN (CNN5 twin)."""

    fig1_cnn_model: str
    """Registry name of the Fig.-1 motivational CNN."""

    time_steps_default: int
    """Default time window (the paper's default is T = 64)."""

    epochs: int
    batch_size: int
    learning_rate: float

    pgd_steps: int
    """Iterations of the PGD attack."""

    v_thresholds: tuple[float, ...]
    """Grid thresholds for Figs. 6-8."""

    time_windows: tuple[int, ...]
    """Grid time windows for Figs. 6-8."""

    grid_epsilons: tuple[float, ...]
    """Budgets evaluated during the grid security study (Figs. 7, 8)."""

    curve_epsilons: tuple[float, ...]
    """Budget sweep for the curve figures (Figs. 1, 9)."""

    sweet_spots: tuple[tuple[float, int], ...]
    """The tracked (Vth, T) combinations of Fig. 9."""

    accuracy_threshold: float
    """Learnability gate Ath."""

    seed: int
    """Root seed of the whole experiment."""

    input_scale: float = 1.0
    """Encoder current scale (1.0 for MNIST-normalized inputs)."""

    def training_config(self) -> TrainingConfig:
        """Training hyper-parameters derived from the profile."""
        return TrainingConfig(
            epochs=self.epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            seed=self.seed,
        )

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on inconsistent settings."""
        if self.num_train < 10 or self.num_test < 10:
            raise ConfigurationError("profiles need at least 10 train/test samples")
        if self.attack_subset > self.num_test:
            raise ConfigurationError("attack_subset cannot exceed num_test")
        for v_th, t in self.sweet_spots:
            if v_th <= 0 or t < 1:
                raise ConfigurationError(f"invalid sweet spot ({v_th}, {t})")


_MICRO = ExperimentProfile(
    name="micro",
    image_size=12,
    num_train=80,
    num_test=40,
    attack_subset=20,
    snn_model="snn_lenet_mini",
    cnn_model="lenet_mini",
    fig1_snn_model="snn_cnn5",
    fig1_cnn_model="cnn5",
    time_steps_default=10,
    epochs=2,
    batch_size=16,
    learning_rate=5e-3,
    pgd_steps=3,
    v_thresholds=(0.5, 1.0),
    time_windows=(8, 16),
    grid_epsilons=(1.0,),
    curve_epsilons=(0.0, 1.0),
    sweet_spots=((1.0, 16), (0.5, 8)),
    accuracy_threshold=0.3,
    seed=0xD47E,
)

_MICRO_SEARCH = ExperimentProfile(
    name="micro-search",
    image_size=12,
    num_train=80,
    num_test=40,
    attack_subset=20,
    snn_model="snn_lenet_mini",
    cnn_model="lenet_mini",
    fig1_snn_model="snn_cnn5",
    fig1_cnn_model="cnn5",
    time_steps_default=10,
    # Longer budget than micro so a guided search has rungs to halve
    # over (micro's 2 epochs leave no room below the full budget), and
    # an open learnability gate so every cell reaches the attack phase —
    # the search CI job ranks by robustness, which needs robust numbers.
    epochs=6,
    batch_size=16,
    learning_rate=5e-3,
    pgd_steps=3,
    # Dense enough (12 cells) that successive halving's pruning pays for
    # the warm-start bias audit with train-seconds to spare.
    v_thresholds=(0.25, 0.5, 0.75, 1.0, 1.25, 1.5),
    time_windows=(8, 16),
    grid_epsilons=(1.0,),
    curve_epsilons=(0.0, 1.0),
    sweet_spots=((1.0, 16), (0.5, 8)),
    accuracy_threshold=0.0,
    seed=0xD47E,
)

_SMOKE = ExperimentProfile(
    name="smoke",
    image_size=16,
    num_train=600,
    num_test=150,
    attack_subset=64,
    snn_model="snn_lenet_mini",
    cnn_model="lenet_mini",
    fig1_snn_model="snn_cnn5",
    fig1_cnn_model="cnn5",
    time_steps_default=32,
    epochs=5,
    batch_size=32,
    learning_rate=5e-3,
    pgd_steps=8,
    v_thresholds=(0.25, 0.75, 1.25, 2.25),
    time_windows=(8, 16, 32, 48),
    grid_epsilons=(1.0, 1.5),
    curve_epsilons=(0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0),
    sweet_spots=((1.0, 48), (2.25, 56), (1.0, 32)),
    accuracy_threshold=0.70,
    seed=0xD47E,
)

_PAPER = ExperimentProfile(
    name="paper",
    image_size=16,
    num_train=3000,
    num_test=500,
    attack_subset=200,
    snn_model="snn_lenet_mini",
    cnn_model="lenet_mini",
    fig1_snn_model="snn_cnn5",
    fig1_cnn_model="cnn5",
    time_steps_default=64,
    epochs=10,
    batch_size=32,
    learning_rate=5e-3,
    pgd_steps=10,
    v_thresholds=(0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25),
    time_windows=(8, 16, 24, 32, 40, 48, 56, 64, 72),
    grid_epsilons=(1.0, 1.5),
    curve_epsilons=(0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0),
    sweet_spots=((1.0, 48), (2.25, 56), (1.0, 32)),
    accuracy_threshold=0.70,
    seed=0xD47E,
)

_PROFILES = {p.name: p for p in (_MICRO, _MICRO_SEARCH, _SMOKE, _PAPER)}


def available_profiles() -> tuple[str, ...]:
    """Names accepted by :func:`get_profile`."""
    return tuple(sorted(_PROFILES))


def get_profile(name: str) -> ExperimentProfile:
    """Look up a profile by name."""
    try:
        profile = _PROFILES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown profile {name!r}; available: {available_profiles()}"
        ) from None
    profile.validate()
    return profile
