"""Shared utilities: seeding, logging, serialization, timing."""

from repro.utils.logging import get_logger
from repro.utils.seeding import SeedSequence, new_rng, spawn_rngs
from repro.utils.serialization import load_npz, save_npz
from repro.utils.timing import Stopwatch

__all__ = [
    "SeedSequence",
    "Stopwatch",
    "get_logger",
    "load_npz",
    "new_rng",
    "save_npz",
    "spawn_rngs",
]
