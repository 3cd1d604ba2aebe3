"""Datasets: glyphs, synthetic MNIST, patterns, loaders, transforms."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.data import (
    AddGaussianNoise,
    ArrayDataset,
    Clip,
    Compose,
    DataLoader,
    MNIST_MEAN,
    MNIST_STD,
    Normalize,
    PatternsConfig,
    SynthConfig,
    SyntheticMNIST,
    load_synthetic_mnist,
    make_patterns,
    normalized_bounds,
    train_test_split,
)
from repro.data.glyphs import GLYPH_HEIGHT, GLYPH_WIDTH, all_glyphs, digit_glyph
from repro.errors import ConfigurationError, ShapeError


class TestGlyphs:
    def test_all_digits_present(self):
        glyphs = all_glyphs()
        assert glyphs.shape == (10, GLYPH_HEIGHT, GLYPH_WIDTH)

    def test_binary_values(self):
        glyphs = all_glyphs()
        assert set(np.unique(glyphs)).issubset({0.0, 1.0})

    def test_glyphs_distinct(self):
        glyphs = all_glyphs()
        for i in range(10):
            for j in range(i + 1, 10):
                assert not np.array_equal(glyphs[i], glyphs[j])

    def test_every_glyph_has_ink(self):
        for digit in range(10):
            assert digit_glyph(digit).sum() >= 7

    def test_invalid_digit_raises(self):
        with pytest.raises(ValueError):
            digit_glyph(10)


class TestSyntheticMNIST:
    def test_shapes_and_range(self):
        train, test = load_synthetic_mnist(50, 20, image_size=16, seed=0)
        assert train.images.shape == (50, 1, 16, 16)
        assert test.images.shape == (20, 1, 16, 16)
        assert train.images.dtype == np.float32
        assert train.images.min() >= 0.0 and train.images.max() <= 1.0

    def test_balanced_classes(self):
        train, _ = load_synthetic_mnist(100, 20, seed=0)
        np.testing.assert_array_equal(train.class_counts(), np.full(10, 10))

    def test_determinism(self):
        a, _ = load_synthetic_mnist(30, 10, seed=5)
        b, _ = load_synthetic_mnist(30, 10, seed=5)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        a, _ = load_synthetic_mnist(30, 10, seed=5)
        b, _ = load_synthetic_mnist(30, 10, seed=6)
        assert not np.array_equal(a.images, b.images)

    def test_train_and_test_splits_differ(self):
        train, test = load_synthetic_mnist(30, 30, seed=5)
        assert not np.array_equal(train.images, test.images)

    def test_images_have_ink(self):
        train, _ = load_synthetic_mnist(20, 10, seed=1)
        per_image_ink = train.images.reshape(20, -1).sum(axis=1)
        assert np.all(per_image_ink > 1.0)

    def test_variability_within_class(self):
        gen = SyntheticMNIST(seed=3)
        data = gen.generate(40, "train")
        zero_indices = np.where(data.labels == 0)[0]
        assert len(zero_indices) >= 2
        a, b = data.images[zero_indices[0]], data.images[zero_indices[1]]
        assert not np.array_equal(a, b)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SynthConfig(image_size=4).validate()
        with pytest.raises(ConfigurationError):
            SynthConfig(noise_std=-1.0).validate()
        with pytest.raises(ConfigurationError):
            SynthConfig(scale_range=(1.2, 0.8)).validate()
        with pytest.raises(ConfigurationError):
            SynthConfig(thicken_prob=1.5).validate()

    def test_num_samples_positive(self):
        with pytest.raises(ValueError):
            SyntheticMNIST(seed=0).generate(0)

    def test_larger_canvas(self):
        gen = SyntheticMNIST(SynthConfig(image_size=28), seed=0)
        data = gen.generate(10)
        assert data.images.shape == (10, 1, 28, 28)

    def test_experiment_data_imports_no_scipy(self):
        # The library is numpy-only: the CLI's module and a profile's data
        # load must not pull scipy into a fresh interpreter.
        script = (
            "import sys\n"
            "import repro.experiments.runner\n"
            "from repro.experiments.profiles import get_profile\n"
            "from repro.experiments.workloads import load_profile_data\n"
            "load_profile_data(get_profile('micro'))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"


class TestPatterns:
    def test_shapes_and_balance(self):
        data = make_patterns(40, seed=0)
        assert data.images.shape == (40, 1, 16, 16)
        np.testing.assert_array_equal(data.class_counts(), np.full(4, 10))

    def test_determinism(self):
        a = make_patterns(20, seed=1)
        b = make_patterns(20, seed=1)
        np.testing.assert_array_equal(a.images, b.images)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            make_patterns(10, PatternsConfig(num_classes=1))
        with pytest.raises(ConfigurationError):
            make_patterns(10, PatternsConfig(frequency=0.0))

    def test_range(self):
        data = make_patterns(10, seed=0)
        assert data.images.min() >= 0.0 and data.images.max() <= 1.0


class TestArrayDataset:
    def test_len_getitem(self):
        ds = ArrayDataset(np.zeros((5, 1, 2, 2)), np.arange(5))
        assert len(ds) == 5
        img, lbl = ds[2]
        assert lbl == 2

    def test_length_mismatch_raises(self):
        with pytest.raises(ShapeError):
            ArrayDataset(np.zeros((5, 2)), np.zeros(4))

    def test_subset_take(self):
        ds = ArrayDataset(np.arange(10).reshape(10, 1).astype(float), np.arange(10) % 3)
        sub = ds.subset(np.array([1, 3, 5]))
        assert len(sub) == 3
        assert len(ds.take(4)) == 4
        assert len(ds.take(100)) == 10

    def test_num_classes_and_counts(self):
        ds = ArrayDataset(np.zeros((6, 1)), np.array([0, 0, 1, 2, 2, 2]))
        assert ds.num_classes == 3
        np.testing.assert_array_equal(ds.class_counts(), [2, 1, 3])


class TestTrainTestSplit:
    def test_sizes(self):
        ds = ArrayDataset(np.zeros((10, 1)), np.arange(10))
        train, test = train_test_split(ds, test_fraction=0.3, seed=0)
        assert len(train) == 7 and len(test) == 3

    def test_disjoint(self):
        ds = ArrayDataset(np.arange(20).reshape(20, 1).astype(float), np.zeros(20, dtype=int))
        train, test = train_test_split(ds, test_fraction=0.25, seed=0)
        train_vals = set(train.images.ravel().tolist())
        test_vals = set(test.images.ravel().tolist())
        assert not train_vals & test_vals

    def test_invalid_fraction(self):
        ds = ArrayDataset(np.zeros((4, 1)), np.zeros(4, dtype=int))
        with pytest.raises(ValueError):
            train_test_split(ds, test_fraction=0.0)


class TestDataLoader:
    def _dataset(self, n=10):
        return ArrayDataset(np.arange(n).reshape(n, 1).astype(float), np.arange(n))

    def test_batch_shapes(self):
        loader = DataLoader(self._dataset(), batch_size=4)
        batches = list(loader)
        assert [len(b[1]) for b in batches] == [4, 4, 2]
        assert len(loader) == 3

    def test_drop_last(self):
        loader = DataLoader(self._dataset(), batch_size=4, drop_last=True)
        assert [len(b[1]) for b in loader] == [4, 4]
        assert len(loader) == 2

    def test_no_shuffle_preserves_order(self):
        loader = DataLoader(self._dataset(), batch_size=3, shuffle=False)
        first = next(iter(loader))
        np.testing.assert_array_equal(first[1], [0, 1, 2])

    def test_shuffle_is_seeded(self):
        a = [b[1].tolist() for b in DataLoader(self._dataset(), 3, shuffle=True, seed=1)]
        b = [b[1].tolist() for b in DataLoader(self._dataset(), 3, shuffle=True, seed=1)]
        assert a == b

    def test_shuffle_changes_across_epochs(self):
        loader = DataLoader(self._dataset(50), batch_size=50, shuffle=True, seed=0)
        first = next(iter(loader))[1].tolist()
        second = next(iter(loader))[1].tolist()
        assert first != second

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            DataLoader(self._dataset(), batch_size=0)


class TestTransforms:
    def test_normalize(self):
        x = np.array([[0.0, 1.0]])
        out = Normalize(0.5, 0.5)(x)
        np.testing.assert_allclose(out, [[-1.0, 1.0]])

    def test_normalize_invalid_std(self):
        with pytest.raises(ValueError):
            Normalize(0.0, 0.0)

    def test_clip(self):
        out = Clip(0.0, 1.0)(np.array([-1.0, 0.5, 2.0]))
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0])

    def test_clip_invalid_bounds(self):
        with pytest.raises(ValueError):
            Clip(1.0, 0.0)

    def test_compose_order(self):
        pipeline = Compose([Normalize(0.5, 0.5), Clip(0.0, 1.0)])
        out = pipeline(np.array([1.0]))
        np.testing.assert_allclose(out, [1.0])

    def test_add_gaussian_noise_seeded(self):
        x = np.zeros((4, 4), dtype=np.float32)
        a = AddGaussianNoise(0.1, seed=0)(x)
        b = AddGaussianNoise(0.1, seed=0)(x)
        np.testing.assert_array_equal(a, b)
        assert a.std() > 0

    def test_add_gaussian_noise_zero_std_identity(self):
        x = np.ones((3, 3))
        np.testing.assert_array_equal(AddGaussianNoise(0.0)(x), x)

    def test_mnist_constants_and_bounds(self):
        lo, hi = normalized_bounds()
        assert lo == pytest.approx((0 - MNIST_MEAN) / MNIST_STD)
        assert hi == pytest.approx((1 - MNIST_MEAN) / MNIST_STD)
        assert lo < 0 < hi
