"""Shared utilities: seeding, logging, serialization."""

from repro.utils.logging import get_logger
from repro.utils.seeding import SeedSequence, new_rng
from repro.utils.serialization import load_npz, save_npz

__all__ = ["SeedSequence", "get_logger", "load_npz", "new_rng", "save_npz"]
