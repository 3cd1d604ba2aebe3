"""Deterministic random-number handling.

Every stochastic component in the library (weight initialisation, data
generation, Poisson encoding, PGD random starts, data shuffling) receives an
explicit :class:`numpy.random.Generator`.  This module centralises how those
generators are created so that a single integer seed reproduces an entire
experiment bit-for-bit on a given platform.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.config import DEFAULT_SEED


def new_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Accepts three forms for convenience at API boundaries:

    * ``None`` — use :data:`repro.config.DEFAULT_SEED`.
    * ``int`` — seed a fresh PCG64 generator.
    * an existing ``Generator`` — returned unchanged (pass-through), which
      lets callers thread one generator through a pipeline.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)


class SeedSequence:
    """A small helper that hands out deterministic child seeds by name.

    Experiment drivers use this to give each `(Vth, T)` combination its own
    seed derived from the experiment seed and the combination identity, so
    grid cells are independent of evaluation order::

        seeds = SeedSequence(1234)
        rng = seeds.rng_for("train", vth=1.0, t=48)
    """

    def __init__(self, seed: int | None = None) -> None:
        self._seed = DEFAULT_SEED if seed is None else int(seed)

    @property
    def seed(self) -> int:
        """The root integer seed."""
        return self._seed

    def child_seed(self, *key: object) -> int:
        """Derive a stable 63-bit child seed from ``key`` components."""
        material = repr((self._seed,) + tuple(_normalize(part) for part in key))
        # FNV-1a over the repr keeps this dependency-free and stable across
        # runs (unlike hash(), which is salted per process).
        acc = 0xCBF29CE484222325
        for byte in material.encode("utf-8"):
            acc ^= byte
            acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        return acc & 0x7FFFFFFFFFFFFFFF

    def rng_for(self, *key: object) -> np.random.Generator:
        """Return a generator seeded from :meth:`child_seed` of ``key``."""
        return np.random.default_rng(self.child_seed(*key))


def _normalize(part: object) -> object:
    """Make seed-key components stable (floats via repr, tuples recursed)."""
    if isinstance(part, float):
        return repr(part)
    if isinstance(part, Sequence) and not isinstance(part, (str, bytes)):
        return tuple(_normalize(item) for item in part)
    return part
