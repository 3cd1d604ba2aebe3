"""Atomic files: the one recipe behind every file the program writes.

Checkpoints, weight archives, ``shard.json``, queue leases and markers,
metrics snapshots and experiment artifacts are written in full to a
private temp file beside their target, which then replaces the target
(:func:`write_atomic`) or is hard-linked to it only if it is absent
(:func:`create_exclusive`: the portable ``O_CREAT|O_EXCL`` with full
content, so exactly one racing creator wins).  A reader — or the next
run after a crash — sees the old file or the new one, never a torn one;
the queue's append-only event logs are the one exception (their reader
skips a torn final line).

The temp name is ``.<name>.<pid>.<thread id>.tmp``: the leading dot
keeps it out of every ``<kind>_*`` scan, and the thread id keeps two
threads of one process off each other's temp.  A failed write removes
its temp; :func:`temp_target` names the target of one a killed writer
left.  Standard library only, so the lowest engine layers can use it.
"""

from __future__ import annotations

import json
import os
import re
import threading
from pathlib import Path

__all__ = ["create_exclusive", "read_json", "temp_target", "write_atomic"]

_TEMP_NAME = re.compile(r"\.(?P<target>.+)\.\d+\.\d+\.tmp")


def temp_target(name: str) -> str | None:
    """The target filename of a temp this module named, else ``None``."""
    match = _TEMP_NAME.fullmatch(name)
    return None if match is None else match["target"]


def _place(path: str | os.PathLike, data: bytes | str, move) -> None:
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        tmp.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
        move(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_atomic(path: str | os.PathLike, data: bytes | str) -> None:
    """Replace ``path`` with ``data`` (text is written as UTF-8)."""
    _place(path, data, os.replace)


def create_exclusive(path: str | os.PathLike, data: bytes | str) -> bool:
    """Create ``path`` holding ``data``; ``False`` (file untouched) when
    it already exists because another writer won the race."""
    try:
        _place(path, data, os.link)
    except FileExistsError:
        return False
    return True


def read_json(path: str | os.PathLike) -> dict | None:
    """Parse a JSON object file; ``None`` when missing or unreadable."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None
