"""Shared data/model preparation for the experiment runners.

Centralises the MNIST-style preprocessing: synthetic digits in [0, 1] are
normalized with the canonical MNIST constants, so adversarial budgets ε
live on the same scale as the paper's (ε ∈ [0, 2]); attacks project into
the normalized valid-pixel box.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.data.synth_mnist import SynthConfig, SyntheticMNIST
from repro.data.transforms import MNIST_MEAN, MNIST_STD, Normalize, normalized_bounds
from repro.experiments.profiles import ExperimentProfile
from repro.models.registry import build_model
from repro.nn.module import Module
from repro.snn.neuron import LIFParameters

__all__ = [
    "build_grid_model_factory",
    "load_profile_data",
]


def load_profile_data(
    profile: ExperimentProfile,
) -> tuple[ArrayDataset, ArrayDataset, tuple[float, float]]:
    """Generate and normalize the profile's train/test sets.

    Returns ``(train, test, (clip_min, clip_max))`` where the bounds are
    the normalized valid-pixel box used by attack projection.
    """
    generator = SyntheticMNIST(
        config=SynthConfig(image_size=profile.image_size), seed=profile.seed
    )
    normalize = Normalize(MNIST_MEAN, MNIST_STD)
    train = generator.generate(profile.num_train, "train")
    test = generator.generate(profile.num_test, "test")
    train = ArrayDataset(normalize(train.images).astype(np.float32), train.labels)
    test = ArrayDataset(normalize(test.images).astype(np.float32), test.labels)
    return train, test, normalized_bounds()


def build_grid_model_factory(profile: ExperimentProfile):
    """Return the Algorithm-1 model factory ``(v_th, T, seed) -> Module``.

    Each grid cell gets a freshly initialised spiking model with its own
    threshold, time window and seed.
    """

    def factory(v_th: float, time_window: int, seed: int) -> Module:
        return build_model(
            profile.snn_model,
            input_size=profile.image_size,
            time_steps=int(time_window),
            lif_params=LIFParameters(v_th=float(v_th)),
            input_scale=profile.input_scale,
            rng=seed,
        )

    return factory
