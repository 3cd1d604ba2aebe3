"""Lightweight array / state-dict persistence on top of ``numpy.savez``.

Model parameters and experiment result grids are persisted as compressed
``.npz`` archives of flat ``name -> array`` mappings.  JSON-friendly
metadata can ride along under a reserved key.

Writes are atomic (:func:`repro.utils.atomic.write_atomic`: a private
temp file + ``os.replace``), so concurrent writers — e.g. engine worker
processes or threads checkpointing trained weights into a shared cache
directory — never leave a half-written archive behind.
"""

from __future__ import annotations

import io
import json
import threading
from pathlib import Path

import numpy as np

from repro.utils.atomic import write_atomic

_METADATA_KEY = "__repro_metadata__"

_LOAD_LOCK = threading.Lock()
"""Serializes ``np.load`` parses within a process.  Its header parser
(``ast.literal_eval``) can raise ``SystemError`` when threads of one
process parse at once (seen on CPython 3.11 at a 10 µs switch interval),
and queue workers may be threads of one process."""


def save_npz(
    path: str | Path,
    arrays: dict[str, np.ndarray],
    metadata: dict | None = None,
) -> Path:
    """Atomically save ``arrays`` (plus optional JSON-serialisable ``metadata``).

    Returns the path written.  Parent directories are created on demand.
    The archive appears under its final name only once fully written, so
    readers racing a writer see either the old file or the new one, never
    a torn archive.
    """
    path = Path(path)
    if path.suffix != ".npz":
        # numpy's own convention for names missing the suffix.
        path = path.with_name(path.name + ".npz")
    if _METADATA_KEY in arrays:
        raise ValueError(f"array name {_METADATA_KEY!r} is reserved")
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = dict(arrays)
    if metadata is not None:
        encoded = json.dumps(metadata, sort_keys=True)
        payload[_METADATA_KEY] = np.frombuffer(encoded.encode("utf-8"), dtype=np.uint8)
    archive = io.BytesIO()
    np.savez_compressed(archive, **payload)
    write_atomic(path, archive.getvalue())
    return path


def load_npz(path: str | Path) -> tuple[dict[str, np.ndarray], dict | None]:
    """Load arrays and metadata previously written by :func:`save_npz`."""
    with _LOAD_LOCK, np.load(Path(path)) as archive:
        arrays = {name: archive[name] for name in archive.files if name != _METADATA_KEY}
        metadata = None
        if _METADATA_KEY in archive.files:
            raw = archive[_METADATA_KEY].tobytes().decode("utf-8")
            metadata = json.loads(raw)
    return arrays, metadata


def load_npz_metadata(path: str | Path) -> dict | None:
    """Load *only* the metadata of an archive written by :func:`save_npz`.

    ``np.load`` maps npz members lazily, so this decompresses just the
    metadata record — the bulk arrays are never touched.  Directory-wide
    scans (weight-cache neighbour index, GC ancestor tracking) rely on
    this staying cheap for archives holding megabytes of parameters.
    Returns ``None`` when the archive carries no metadata.
    """
    with _LOAD_LOCK, np.load(Path(path)) as archive:
        if _METADATA_KEY not in archive.files:
            return None
        raw = archive[_METADATA_KEY].tobytes().decode("utf-8")
    return json.loads(raw)
