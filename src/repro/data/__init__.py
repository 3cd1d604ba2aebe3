"""Datasets and loading utilities.

The environment has no network access, so the MNIST database used by the
paper is replaced by :class:`~repro.data.synth_mnist.SyntheticMNIST` — a
procedural generator that renders the ten digit glyphs with randomized
affine distortion, stroke thickness, blur and noise.  It exercises the
same code path (10-class grey-scale image classification with pixels in
``[0, 1]``) and is deterministic per seed.  See docs/reproducing.md, "Caveats",
for the substitution rationale.
"""

from repro.data.dataset import ArrayDataset, DataLoader, train_test_split
from repro.data.patterns import PatternsConfig, make_patterns
from repro.data.synth_mnist import SynthConfig, SyntheticMNIST, load_synthetic_mnist
from repro.data.transforms import (
    MNIST_MEAN,
    MNIST_STD,
    AddGaussianNoise,
    Clip,
    Compose,
    Normalize,
    normalized_bounds,
)

__all__ = [
    "AddGaussianNoise",
    "ArrayDataset",
    "Clip",
    "Compose",
    "DataLoader",
    "MNIST_MEAN",
    "MNIST_STD",
    "Normalize",
    "PatternsConfig",
    "SynthConfig",
    "SyntheticMNIST",
    "load_synthetic_mnist",
    "make_patterns",
    "normalized_bounds",
    "train_test_split",
]
