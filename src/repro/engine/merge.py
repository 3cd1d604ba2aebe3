"""Cache federation: union shard cache directories into one.

The multi-host story (see :mod:`repro.engine.shard`) ends with every
shard holding a cache directory of checkpoints, weight archives and a
manifest.  :func:`merge_cache_dirs` unions them into a coordinator
directory that a plain ``--resume`` run can serve figures from:

* **Planned before executed** — all sources and the destination are
  scanned first and every conflict is reported at once; nothing is
  copied when the plan fails, so a bad merge leaves the destination
  untouched.
* **Fingerprint-checked** — only recognised cache entries
  (``cell_*/sweep_*/weights_*`` with a fingerprint prefix) participate;
  stray files never travel, and shard manifests only merge when their
  experiment/fingerprint identities agree.
* **Conflict = non-identical bytes** — two sources may hold the *same*
  result checkpoint (re-merges, copied directories); byte-equal files
  dedupe silently.  Two *different* files under one name mean two runs
  disagreed about the same task — that is corruption, never resolved by
  picking a side, always a :class:`CacheMergeError`.
* **Weights dedupe by filename** — weight archives are keyed by
  ``training_fingerprint`` + variant key + seed, so an equal filename
  *is* the identity; byte comparison would false-positive on npz/zip
  timestamps, so the first archive wins.
* **Atomic** — every copy lands via
  :func:`repro.utils.atomic.write_atomic`, the same recipe the caches
  use, so an interrupted merge is re-runnable.

Example::

    report = merge_cache_dirs(["shards/0", "shards/1"], "merged")
    report.copied, report.skipped_identical
    verify_cache_dir("merged")   # (ok, [manifest summaries...])
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.engine.cache import scan_cache_dir
from repro.engine.shard import ShardManifest, load_manifests, save_manifests
from repro.utils.atomic import write_atomic
from repro.utils.logging import get_logger

__all__ = [
    "CacheMergeError",
    "MergeReport",
    "merge_cache_dirs",
    "verify_cache_dir",
]

_logger = get_logger("engine")


class CacheMergeError(RuntimeError):
    """A merge would have to choose between non-identical cache entries."""

    def __init__(self, conflicts: list[str]) -> None:
        self.conflicts = list(conflicts)
        preview = "\n  ".join(self.conflicts[:8])
        suffix = "" if len(self.conflicts) <= 8 else (
            f"\n  ... and {len(self.conflicts) - 8} more"
        )
        super().__init__(
            f"{len(self.conflicts)} cache merge conflict(s) — the same entry "
            f"exists with different contents, which means two runs disagreed "
            f"about the same task:\n  {preview}{suffix}"
        )


@dataclass
class MergeReport:
    """Accounting of one :func:`merge_cache_dirs` invocation."""

    destination: str
    sources: tuple[str, ...]
    copied: int = 0
    """Entries newly copied into the destination."""

    skipped_identical: int = 0
    """Entries already present (byte-equal results, same-name weights)."""

    manifests_merged: int = 0
    """Shard manifests folded into the destination's ``shard.json``."""

    by_kind: dict = field(default_factory=dict)
    """``kind -> copied`` breakdown (``cell``/``sweep``/``weights``)."""

    def as_dict(self) -> dict:
        """JSON-friendly representation."""
        return {
            "destination": self.destination,
            "sources": list(self.sources),
            "copied": self.copied,
            "skipped_identical": self.skipped_identical,
            "manifests_merged": self.manifests_merged,
            "by_kind": dict(self.by_kind),
        }


def _atomic_copy(source: Path, destination: Path) -> None:
    write_atomic(destination, source.read_bytes())


def merge_cache_dirs(
    sources: list[str | Path] | tuple[str | Path, ...],
    destination: str | Path,
) -> MergeReport:
    """Union shard cache directories into ``destination``.

    Parameters
    ----------
    sources:
        Cache directories to read (each typically one shard's
        ``--cache-dir``).  Order is irrelevant — a merge either succeeds
        with an order-independent result or fails on a conflict.
    destination:
        Directory receiving the union; created if missing, may already
        hold entries (incremental federation), must not be a source.

    Raises
    ------
    CacheMergeError
        When any entry name would receive two different result payloads.
        Nothing has been copied when this is raised.
    ValueError
        Empty source list, a missing source directory, or a destination
        that is also a source.
    """
    if not sources:
        raise ValueError("cache merge needs at least one source directory")
    destination = Path(destination)
    destination_key = destination.resolve()
    source_paths: list[Path] = []
    for source in sources:
        path = Path(source)
        if not path.is_dir():
            raise ValueError(f"cache merge source is not a directory: {path}")
        if path.resolve() == destination_key:
            raise ValueError(
                f"cache merge destination {destination} is also a source; "
                "merging a directory into itself is a no-op at best"
            )
        source_paths.append(path)

    # Plan first: name -> chosen source path, with all conflicts gathered
    # before a single byte moves.
    planned: dict[str, tuple[Path, str]] = {}
    skipped = 0
    conflicts: list[str] = []

    def differs(name: str, kind: str, left: Path, right: Path) -> bool:
        # Weight archives dedupe by name (the name embeds the training
        # fingerprint, variant key and seed); zip metadata makes byte
        # comparison unreliable.  Result checkpoints must be byte-equal.
        if kind == "weights":
            return False
        return left.read_bytes() != right.read_bytes()

    for source in source_paths:
        for entry in scan_cache_dir(source):
            name = entry.path.name
            if name in planned:
                other, kind = planned[name]
                if differs(name, kind, entry.path, other):
                    conflicts.append(f"{name}: {other} vs {entry.path}")
                else:
                    skipped += 1
                continue
            target = destination / name
            if target.is_file():
                if differs(name, entry.kind, entry.path, target):
                    conflicts.append(
                        f"{name}: {entry.path} vs existing {target}"
                    )
                else:
                    skipped += 1
                continue
            planned[name] = (entry.path, entry.kind)

    # Manifests are part of the plan too: an identity disagreement
    # (same key, different task count or fingerprint) must surface
    # *before* any file moves, or a failed merge would leave the
    # destination half-populated with a stale shard.json.
    merged: dict[str, ShardManifest] = load_manifests(destination)
    folded = 0
    for source in source_paths:
        for key, manifest in load_manifests(source).items():
            try:
                if key in merged:
                    merged[key].merge(manifest)
                else:
                    merged[key] = manifest
            except ValueError as error:
                conflicts.append(f"shard.json [{key}] from {source}: {error}")
                continue
            folded += 1
    if conflicts:
        raise CacheMergeError(sorted(conflicts))

    destination.mkdir(parents=True, exist_ok=True)
    report = MergeReport(
        destination=str(destination),
        sources=tuple(str(s) for s in source_paths),
        skipped_identical=skipped,
    )
    for name in sorted(planned):
        source_path, kind = planned[name]
        _atomic_copy(source_path, destination / name)
        report.copied += 1
        report.by_kind[kind] = report.by_kind.get(kind, 0) + 1

    if merged:
        save_manifests(destination, merged)
    report.manifests_merged = folded
    _logger.info(
        "merged %d source(s) into %s: %d copied, %d identical, %d manifest(s)",
        len(source_paths), destination, report.copied, skipped, folded,
    )
    return report


def verify_cache_dir(directory: str | Path) -> tuple[bool, list[dict]]:
    """Check a (merged) cache directory's manifests for completeness.

    Returns ``(ok, summaries)`` where ``summaries`` is one
    :meth:`~repro.engine.shard.ShardManifest.as_dict` per manifest found.
    ``ok`` is ``False`` when no manifest exists (nothing sharded ever ran
    there, or the merge lost it) or when any manifest reports missing or
    failed tasks — the coordinator must not render figures from it.
    """
    manifests = load_manifests(directory)
    summaries = [manifests[key].as_dict() for key in sorted(manifests)]
    if not manifests:
        return False, summaries
    ok = all(manifest.is_complete() for manifest in manifests.values())
    return ok, summaries
