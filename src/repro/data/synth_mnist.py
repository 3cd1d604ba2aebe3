"""Procedural MNIST substitute.

The paper evaluates on MNIST; this environment is offline, so we generate a
drop-in replacement: each sample starts from one of the ten canonical digit
glyphs (:mod:`repro.data.glyphs`) and is distorted through a randomized
pipeline of

1. up-sampling onto the target canvas,
2. random stroke-thickness change (grey dilation / erosion),
3. random affine transform (rotation, anisotropic scale, shear, translation),
4. Gaussian blur,
5. contrast jitter and additive background noise.

Pixels are floats in ``[0, 1]``, images are ``(N, 1, H, W)``, labels are
balanced over the ten classes.  Generation is deterministic for a given
``(seed, split)`` pair, and the i-th sample of a split does not depend on
how many samples are requested after it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data import _ndimage
from repro.data.dataset import ArrayDataset
from repro.data.glyphs import NUM_CLASSES, all_glyphs
from repro.errors import ConfigurationError
from repro.utils.seeding import SeedSequence


@dataclass(frozen=True)
class SynthConfig:
    """Distortion parameters of the synthetic digit generator.

    The defaults are tuned so that a small CNN reaches ~99 % accuracy while
    an untrained model sits at 10 %, mirroring the difficulty profile of
    MNIST at reduced resolution.
    """

    image_size: int = 16
    """Output canvas height and width in pixels."""

    glyph_fill: float = 0.72
    """Fraction of the canvas height occupied by the glyph before distortion."""

    rotation_max_deg: float = 12.0
    """Rotation is drawn uniformly from ±this angle."""

    scale_range: tuple[float, float] = (0.85, 1.15)
    """Anisotropic per-axis scale factors are drawn from this interval."""

    shear_max: float = 0.15
    """Horizontal shear coefficient drawn uniformly from ±this value."""

    translate_frac: float = 0.08
    """Max translation in each axis, as a fraction of the image size."""

    thicken_prob: float = 0.45
    """Probability of dilating the stroke by one pixel."""

    thin_prob: float = 0.1
    """Probability of eroding the stroke (applied only if not thickened)."""

    blur_sigma_range: tuple[float, float] = (0.4, 0.8)
    """Gaussian blur sigma interval."""

    contrast_range: tuple[float, float] = (0.85, 1.0)
    """Peak intensity is scaled by a factor drawn from this interval."""

    noise_std: float = 0.02
    """Std of additive background Gaussian noise (clipped afterwards)."""

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on out-of-range fields."""
        if self.image_size < 8:
            raise ConfigurationError("image_size must be >= 8")
        if not 0.2 <= self.glyph_fill <= 1.0:
            raise ConfigurationError("glyph_fill must be in [0.2, 1.0]")
        if not 0.0 < self.scale_range[0] <= self.scale_range[1]:
            raise ConfigurationError("scale_range must be increasing and positive")
        if self.blur_sigma_range[0] < 0 or self.blur_sigma_range[0] > self.blur_sigma_range[1]:
            raise ConfigurationError("blur_sigma_range must be non-negative, increasing")
        if not 0 <= self.thicken_prob <= 1 or not 0 <= self.thin_prob <= 1:
            raise ConfigurationError("probabilities must be in [0, 1]")
        if self.noise_std < 0:
            raise ConfigurationError("noise_std must be >= 0")


class SyntheticMNIST:
    """Deterministic generator of MNIST-like digit datasets.

    Examples
    --------
    >>> gen = SyntheticMNIST(seed=0)
    >>> train = gen.generate(200, split="train")
    >>> train.images.shape
    (200, 1, 16, 16)
    """

    def __init__(self, config: SynthConfig | None = None, seed: int | None = None) -> None:
        self.config = config or SynthConfig()
        self.config.validate()
        self._seeds = SeedSequence(seed)
        self._canvases = [self._place_glyph(glyph) for glyph in all_glyphs()]

    def generate(self, num_samples: int, split: str = "train") -> ArrayDataset:
        """Render ``num_samples`` images for ``split`` ("train"/"test"/...).

        Labels are balanced (``i % 10`` before an order-preserving shuffle of
        sample positions drawn from the split's own generator).
        """
        if num_samples <= 0:
            raise ValueError(f"num_samples must be positive, got {num_samples}")
        rng = self._seeds.rng_for("synth-mnist", split)
        size = self.config.image_size
        images = np.empty((num_samples, 1, size, size), dtype=np.float32)
        labels = np.empty(num_samples, dtype=np.int64)
        for index in range(num_samples):
            digit = index % NUM_CLASSES
            images[index, 0] = self._render(digit, rng)
            labels[index] = digit
        order = rng.permutation(num_samples)
        return ArrayDataset(images[order], labels[order])

    # -- rendering pipeline -------------------------------------------------

    def _render(self, digit: int, rng: np.random.Generator) -> np.ndarray:
        cfg = self.config
        canvas = self._random_thickness(self._canvases[digit], rng)
        canvas = self._random_affine(canvas, rng)
        sigma = rng.uniform(*cfg.blur_sigma_range)
        canvas = _ndimage.gaussian_filter(canvas, sigma)
        peak = canvas.max()
        if peak > 0:
            canvas = canvas / peak
        canvas *= rng.uniform(*cfg.contrast_range)
        if cfg.noise_std > 0:
            canvas = canvas + rng.normal(0.0, cfg.noise_std, size=canvas.shape)
        return np.clip(canvas, 0.0, 1.0).astype(np.float32)

    def _place_glyph(self, glyph: np.ndarray) -> np.ndarray:
        """Zoom a 5x7 glyph onto the centre of the canvas (once per digit:
        the placement depends only on the digit and the config)."""
        cfg = self.config
        target_h = max(6, int(round(cfg.image_size * cfg.glyph_fill)))
        scaled = _ndimage.zoom(glyph, target_h / glyph.shape[0])
        scaled = np.clip(scaled, 0.0, 1.0)
        canvas = np.zeros((cfg.image_size, cfg.image_size), dtype=np.float64)
        gh, gw = scaled.shape
        if gh > cfg.image_size or gw > cfg.image_size:
            scaled = scaled[: cfg.image_size, : cfg.image_size]
            gh, gw = scaled.shape
        top = (cfg.image_size - gh) // 2
        left = (cfg.image_size - gw) // 2
        canvas[top : top + gh, left : left + gw] = scaled
        canvas.flags.writeable = False  # shared by every render
        return canvas

    def _random_thickness(self, canvas: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        cfg = self.config
        roll = rng.random()
        if roll < cfg.thicken_prob:
            return _ndimage.grey_dilation(canvas)
        if roll < cfg.thicken_prob + cfg.thin_prob:
            return _ndimage.grey_erosion(canvas)
        return canvas

    def _random_affine(self, canvas: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        cfg = self.config
        angle = np.deg2rad(rng.uniform(-cfg.rotation_max_deg, cfg.rotation_max_deg))
        scale_y = rng.uniform(*cfg.scale_range)
        scale_x = rng.uniform(*cfg.scale_range)
        shear = rng.uniform(-cfg.shear_max, cfg.shear_max)
        max_shift = cfg.translate_frac * cfg.image_size
        translate = rng.uniform(-max_shift, max_shift, size=2)  # (dy, dx)

        cos, sin = np.cos(angle), np.sin(angle)
        rotation = np.array([[cos, -sin], [sin, cos]])
        shear_mat = np.array([[1.0, shear], [0.0, 1.0]])
        scale_mat = np.diag([scale_y, scale_x])
        forward = rotation @ shear_mat @ scale_mat
        inverse = np.linalg.inv(forward)
        centre = np.array([(canvas.shape[0] - 1) / 2.0, (canvas.shape[1] - 1) / 2.0])
        # affine_transform maps output coords o to input coords M @ o + offset;
        # we want in = inverse @ (o - centre - translate) + centre.
        offset = centre - inverse @ (centre + translate)
        return _ndimage.affine_transform(canvas, inverse, offset)


def load_synthetic_mnist(
    num_train: int = 1000,
    num_test: int = 500,
    image_size: int = 16,
    seed: int | None = None,
    config: SynthConfig | None = None,
) -> tuple[ArrayDataset, ArrayDataset]:
    """Convenience: return ``(train, test)`` datasets.

    ``config`` overrides ``image_size`` when both are given.
    """
    if config is None:
        config = SynthConfig(image_size=image_size)
    generator = SyntheticMNIST(config=config, seed=seed)
    return generator.generate(num_train, "train"), generator.generate(num_test, "test")
