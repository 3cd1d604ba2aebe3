"""The five ``scipy.ndimage`` calls of the digit generator, in numpy.

Each function matches scipy byte for byte at the parameters
:mod:`repro.data.synth_mnist` uses, by keeping scipy's arithmetic order,
not just its values; so the datasets, and every cache fingerprint hashing
them, are the scipy pipeline's.  Boundary extensions are cached index
tables (one gather per axis), not ``np.pad``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def _reflect(n: int, before: int, after: int) -> np.ndarray:
    """Indices of ``range(-before, n + after)`` under scipy's ``reflect``
    extension (numpy's ``symmetric``: ``d c b a | a b c d | d c b a``)."""
    index = np.arange(-before, n + after) % (2 * n)
    table = np.where(index < n, index, 2 * n - 1 - index)
    table.flags.writeable = False  # shared by every caller
    return table


def _correlate_rows(image: np.ndarray, weights: np.ndarray, radius: int) -> np.ndarray:
    """``ndimage.correlate1d`` along axis 0 with symmetric ``weights``
    (mode ``reflect``): ``x[i] * w[r]``, then the farthest pair first."""
    n = image.shape[0]
    ext = image[_reflect(n, radius, radius)]
    out = ext[radius : radius + n] * weights[radius]
    for j in range(radius, 0, -1):
        pair = ext[radius - j : radius - j + n] + ext[radius + j : radius + j + n]
        out += pair * weights[radius - j]
    return out


def gaussian_filter(image: np.ndarray, sigma: float) -> np.ndarray:
    """``ndimage.gaussian_filter(image, sigma)`` of a float64 image."""
    if sigma <= 1e-15:  # scipy filters no axis
        return image.copy()
    radius = int(4.0 * float(sigma) + 0.5)
    phi = np.exp(-0.5 / (sigma * sigma) * np.arange(-radius, radius + 1) ** 2)
    weights = phi / phi.sum()
    return _correlate_rows(_correlate_rows(image, weights, radius).T, weights, radius).T


def grey_dilation(image: np.ndarray) -> np.ndarray:
    """``ndimage.grey_dilation(image, size=(2, 2))``: the maximum over rows
    ``{i, i+1}`` and columns ``{j, j+1}`` (mode ``reflect``)."""
    n, m = image.shape
    rows = np.maximum(image, image[_reflect(n, -1, 1)])
    return np.maximum(rows, rows[:, _reflect(m, -1, 1)])


def grey_erosion(image: np.ndarray) -> np.ndarray:
    """``ndimage.grey_erosion(image, size=(2, 1))``: the minimum over rows
    ``{i-1, i}`` (mode ``reflect``)."""
    return np.minimum(image[_reflect(image.shape[0], 1, -1)], image)


def _taps(coords: np.ndarray, low: int, high: int) -> tuple[np.ndarray, ...]:
    """Order-1 taps: the index ``floor(c) - low`` (``floor(c)`` clipped to
    ``[low, high]``) and scipy's weights ``w0 = 1 - (c - floor(c))``,
    ``w1 = 1 - w0``."""
    start = np.floor(coords)
    w0 = 1.0 - (coords - start)
    index = np.minimum(np.maximum(start, low), high).astype(np.intp) - low
    return index, w0, 1.0 - w0


def _interpolate(ext: np.ndarray, rows: tuple, cols: tuple) -> np.ndarray:
    """``0.0 + sum(v * w_row * w_col)`` over taps (0,0), (0,1), (1,0), (1,1)."""
    (r, wr0, wr1), (c, wc0, wc1) = rows, cols
    width = ext.shape[1]
    flat = ext.ravel()
    at = r * width + c
    total = 0.0 + flat[at] * wr0 * wc0
    total += flat[at + 1] * wr0 * wc1
    at += width
    total += flat[at] * wr1 * wc0
    total += flat[at + 1] * wr1 * wc1
    return total


def affine_transform(image: np.ndarray, matrix: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """``ndimage.affine_transform(image, matrix, offset=offset, order=1,
    mode="constant")``: 0 where a coordinate leaves ``[0, n - 1]``."""
    n, m = image.shape
    o0, o1 = np.indices((n, m), dtype=np.float64)
    c0 = offset[0] + o0 * matrix[0, 0] + o1 * matrix[0, 1]
    c1 = offset[1] + o0 * matrix[1, 0] + o1 * matrix[1, 1]
    inside = (c0 >= 0) & (c0 <= n - 1) & (c1 >= 0) & (c1 <= m - 1)
    ext = np.zeros((n + 1, m + 1))
    ext[:n, :m] = image
    total = _interpolate(ext, _taps(c0, 0, n - 1), _taps(c1, 0, m - 1))
    return np.where(inside, total, 0.0)


def zoom(glyph: np.ndarray, factor: float) -> np.ndarray:
    """``ndimage.zoom(glyph, factor, order=1, grid_mode=True,
    mode="grid-constant")``: taps outside the glyph read 0."""
    n, m = glyph.shape
    ext = np.zeros((n + 2, m + 2))
    ext[1:-1, 1:-1] = glyph
    rows, cols = (
        _taps(((np.arange(size) + 0.5) * (length / size)) - 0.5, -1, length - 1)
        for length, size in ((n, int(round(n * factor))), (m, int(round(m * factor))))
    )
    rows = tuple(a[:, None] for a in rows)
    return _interpolate(ext, rows, cols).astype(glyph.dtype)
