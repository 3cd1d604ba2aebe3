"""The numpy port of the generator's five ``scipy.ndimage`` calls.

``repro.data._ndimage`` replaces scipy in the digit generator, so every
dataset (and every cache fingerprint hashing its bytes) must stay the one
the scipy pipeline produced.  These tests hold each op to scipy byte for
byte (``tobytes``) over random inputs, and whole generators built on the
port to generators built on scipy's ops over seeds, sizes, splits and
configs that force every branch of the pipeline.  scipy is the oracle
here only; the library never imports it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.data import _ndimage
from repro.data.glyphs import all_glyphs
from repro.data.synth_mnist import SynthConfig, SyntheticMNIST

ndimage = pytest.importorskip("scipy.ndimage")

CASES = settings(max_examples=150, deadline=None)

# The parent pipeline's calls, verbatim.
SCIPY_OPS = {
    "gaussian_filter": lambda image, sigma: ndimage.gaussian_filter(image, sigma=sigma),
    "grey_dilation": lambda image: ndimage.grey_dilation(image, size=(2, 2)),
    "grey_erosion": lambda image: ndimage.grey_erosion(image, size=(2, 1)),
    "affine_transform": lambda image, matrix, offset: ndimage.affine_transform(
        image, matrix, offset=offset, order=1, mode="constant", cval=0.0
    ),
    "zoom": lambda glyph, factor: ndimage.zoom(
        glyph, factor, order=1, grid_mode=True, mode="grid-constant"
    ),
}


def _same_bytes(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@st.composite
def images(draw):
    """A float64 image of 8-32 pixels a side, some cases with a zero background."""
    rows, cols = draw(st.integers(8, 32)), draw(st.integers(8, 32))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    image = rng.random((rows, cols)) * draw(st.sampled_from([1.0, 37.5]))
    if draw(st.booleans()):
        image[rng.random(image.shape) < 0.6] = 0.0
    return image


class TestOps:
    @CASES
    @given(image=images(), sigma=st.floats(0.05, 3.0))
    @example(image=np.eye(8), sigma=0.0)  # scipy filters no axis
    @example(image=np.eye(8), sigma=0.1)  # radius 0
    @example(image=np.eye(9), sigma=2.9)  # radius 12: reflected past the far edge
    def test_gaussian_filter(self, image, sigma):
        _same_bytes(
            _ndimage.gaussian_filter(image, sigma),
            SCIPY_OPS["gaussian_filter"](image, sigma),
        )

    @CASES
    @given(image=images())
    def test_grey_dilation_and_erosion(self, image):
        for name in ("grey_dilation", "grey_erosion"):
            _same_bytes(getattr(_ndimage, name)(image), SCIPY_OPS[name](image))

    @CASES
    @given(
        image=images(),
        angle=st.floats(-np.pi, np.pi),
        scale=st.tuples(st.floats(0.5, 1.5), st.floats(0.5, 1.5)),
        shear=st.floats(-0.5, 0.5),
        offset=st.tuples(st.floats(-12.0, 12.0), st.floats(-12.0, 12.0)),
        integer_offset=st.booleans(),
    )
    def test_affine_transform(self, image, angle, scale, shear, offset, integer_offset):
        rotation = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        matrix = rotation @ np.array([[1.0, shear], [0.0, 1.0]]) @ np.diag(scale)
        offset = np.round(offset) if integer_offset else np.array(offset)
        _same_bytes(
            _ndimage.affine_transform(image, matrix, offset),
            SCIPY_OPS["affine_transform"](image, matrix, offset),
        )

    @pytest.mark.parametrize(
        "matrix",
        [
            np.eye(2),
            -np.eye(2),
            np.array([[0.0, 1.0], [1.0, 0.0]]),
            np.array([[np.cos(np.pi / 2), -1.0], [1.0, np.cos(np.pi / 2)]]),  # 6e-17, not 0
            np.diag([0.5, 2.0]),
        ],
        ids=["identity", "flip", "transpose", "quarter-turn", "scale"],
    )
    @pytest.mark.parametrize("size", [8, 13])
    def test_affine_transform_on_integer_and_edge_coordinates(self, rng, matrix, size):
        image = rng.random((size, size))
        edges = [-1.0, -0.5, -1e-16, 0.0, 1e-16, 0.5, 1.0, size - 1.0, size - 1 + 1e-15, size]
        for row in edges:
            for col in edges:
                offset = np.array([row, col])
                _same_bytes(
                    _ndimage.affine_transform(image, matrix, offset),
                    SCIPY_OPS["affine_transform"](image, matrix, offset),
                )

    def test_zoom_of_every_glyph_to_every_height(self):
        # SyntheticMNIST zooms a glyph to max(6, round(size * glyph_fill))
        # rows; sizes 8-64 and fills in [0.2, 1] span heights 6-64.
        for glyph in all_glyphs():
            for height in range(6, 65):
                factor = height / glyph.shape[0]
                _same_bytes(_ndimage.zoom(glyph, factor), SCIPY_OPS["zoom"](glyph, factor))


CONFIGS = {
    "default": {},
    "dilate": {"thicken_prob": 1.0},
    "erode": {"thicken_prob": 0.0, "thin_prob": 1.0},
    "noiseless": {"noise_std": 0.0},
    "wide": {
        "glyph_fill": 0.2,
        "rotation_max_deg": 60.0,
        "translate_frac": 0.3,
        "blur_sigma_range": (0.0, 2.5),
    },
    "full-unblurred": {"glyph_fill": 1.0, "blur_sigma_range": (0.0, 0.0)},
}


class TestWholeGenerator:
    @pytest.mark.parametrize("name", list(CONFIGS))
    @pytest.mark.parametrize("size", [8, 13, 16, 28])
    def test_port_equals_scipy_pipeline(self, monkeypatch, name, size):
        config = SynthConfig(image_size=size, **CONFIGS[name])
        called = set()

        def traced(op_name):
            def op(*args):
                called.add(op_name)
                return SCIPY_OPS[op_name](*args)

            return op

        with monkeypatch.context() as patch:
            for op_name in SCIPY_OPS:
                patch.setattr(_ndimage, op_name, traced(op_name))
            expected = {
                (seed, split): SyntheticMNIST(config, seed=seed).generate(30, split)
                for seed in (0, 7, 54398)
                for split in ("train", "test")
            }
        assert called >= {"zoom", "affine_transform", "gaussian_filter"}
        if name == "dilate":
            assert "grey_dilation" in called and "grey_erosion" not in called
        if name == "erode":
            assert "grey_erosion" in called and "grey_dilation" not in called
        for (seed, split), reference in expected.items():
            actual = SyntheticMNIST(config, seed=seed).generate(30, split)
            _same_bytes(actual.images, reference.images)
            _same_bytes(actual.labels, reference.labels)
