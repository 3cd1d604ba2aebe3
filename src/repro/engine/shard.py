"""Multi-host sharding: deterministic task partitioning and shard manifests.

A paper-scale grid is too big for one machine.  Because every engine task
carries its own derived seeds (see :mod:`repro.engine.job`), the task
list can be *partitioned* across
hosts without changing any result: a :class:`ShardSpec` assigns task
``i`` to shard ``i mod count``, each host runs only its slice into its
own ``--cache-dir``, and :mod:`repro.engine.merge` unions the cache
directories afterwards.  A final ``--resume`` run against the merged
directory then serves every task from checkpoints and renders the
figures exactly as a single-host run would have.

The partition is a function of the task *index* alone — indices are
assigned at task-build time, deterministically, before any filtering —
so it is stable across runs, across ``--resume``, and across hosts that
disagree about wall-clock or worker counts.

Each sharded run records a **manifest** (``shard.json`` in its cache
directory): which experiment and context fingerprint it served, how many
tasks the full (unsharded) list has (and their ids, when they are not
``range(task_count)``), and which task ids this shard completed or
failed.  Merging cache directories also merges their
manifests, so a coordinator can ask "is the merged grid complete?"
(:meth:`ShardManifest.is_complete`) before rendering figures — the CI
fan-in job does exactly this via ``cache verify``.

Example — two hosts, one grid::

    # host A                                  # host B
    ... grid --shard 0/2 --cache-dir a/       ... grid --shard 1/2 --cache-dir b/

    # coordinator
    ... cache merge a/ b/ --into merged/
    ... cache verify --cache-dir merged/      # manifest says: complete
    ... grid --resume --cache-dir merged/     # all cells from checkpoints
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.utils.atomic import write_atomic
from repro.utils.logging import get_logger

__all__ = [
    "MANIFEST_NAME",
    "ShardManifest",
    "ShardRunResult",
    "ShardSpec",
    "load_manifests",
    "manifest_path",
    "record_durable_manifest",
    "save_manifests",
    "shard_run_result",
    "update_manifest",
]

_logger = get_logger("engine")

MANIFEST_NAME = "shard.json"
"""Filename of the shard manifest inside a cache directory."""

_MANIFEST_VERSION = 1


@dataclass(frozen=True)
class ShardSpec:
    """One slice of a deterministic ``index mod count`` task partition.

    ``index`` is zero-based: a three-way split is ``0/3``, ``1/3`` and
    ``2/3``.  ``ShardSpec(0, 1)`` is the degenerate "whole run" shard
    used when recording manifests for unsharded runs.

    Example::

        spec = ShardSpec.parse("1/3")
        spec.owns(4)                  # True: 4 mod 3 == 1
        mine = spec.partition(tasks)  # tasks whose .index this shard owns
    """

    index: int
    """Zero-based shard number, ``0 <= index < count``."""

    count: int
    """Total number of shards in the partition."""

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"shard count must be >= 1, got {self.count}")
        if not 0 <= self.index < self.count:
            raise ValueError(
                f"shard index must be in [0, {self.count}), got {self.index} "
                f"(indices are zero-based: a three-way split is 0/3, 1/3, 2/3)"
            )

    @classmethod
    def parse(cls, text: str) -> "ShardSpec":
        """Parse the CLI form ``"I/N"`` (zero-based index)."""
        index_text, separator, count_text = str(text).partition("/")
        try:
            if not separator:
                raise ValueError
            index, count = int(index_text), int(count_text)
        except ValueError:
            raise ValueError(
                f"shard spec must look like 'I/N' (e.g. 0/3), got {text!r}"
            ) from None
        return cls(index=index, count=count)

    def owns(self, task_index: int) -> bool:
        """Whether ``task_index`` belongs to this shard."""
        return task_index % self.count == self.index

    def partition(self, tasks: list) -> list:
        """This shard's slice of ``tasks`` (original indices preserved)."""
        return [task for task in tasks if self.owns(task.index)]

    def __str__(self) -> str:
        return f"{self.index}/{self.count}"

    def as_dict(self) -> dict:
        """JSON-friendly representation."""
        return {"index": self.index, "count": self.count}


@dataclass
class ShardManifest:
    """Completion record of one experiment's task list across shards.

    One manifest covers one ``(experiment, fingerprint)`` pair — the same
    identity that keys the result cache — so several experiments (or
    profiles) can share a cache directory without their manifests mixing.
    ``shards`` holds one record per contributing :class:`ShardSpec`;
    merging directories unions these records.
    """

    experiment: str
    """Experiment name (``grid``, ``fig9``, ``ablation``)."""

    fingerprint: str
    """Full result-cache context fingerprint this manifest belongs to."""

    task_count: int
    """Length of the full (unsharded) task list."""

    shards: list[dict] = field(default_factory=list)
    """Per-shard records: ``{"index", "count", "completed", "failed"}``."""

    task_ids: tuple[int, ...] | None = None
    """The full list's ids; ``None`` means ``range(task_count)``.  A
    search's promotion rung keeps its candidates' grid indices."""

    @property
    def key(self) -> str:
        """Identity under which the manifest is stored in ``shard.json``."""
        return f"{self.experiment}:{self.fingerprint[:12]}"

    def completed_ids(self) -> set[int]:
        """Union of task ids completed by any contributing shard."""
        done: set[int] = set()
        for record in self.shards:
            done.update(int(i) for i in record.get("completed", ()))
        return done

    def failed_ids(self) -> set[int]:
        """Union of task ids any shard recorded as failed (minus completed)."""
        failed: set[int] = set()
        for record in self.shards:
            failed.update(int(i) for i in record.get("failed", ()))
        return failed - self.completed_ids()

    def missing_ids(self) -> list[int]:
        """Task ids no contributing shard has completed, ascending."""
        expected = range(self.task_count) if self.task_ids is None else self.task_ids
        return sorted(set(expected) - self.completed_ids())

    def is_complete(self) -> bool:
        """Whether every task id is completed and none is failed."""
        return not self.missing_ids() and not self.failed_ids()

    def record(
        self,
        spec: ShardSpec,
        completed: set[int] | list[int] | tuple[int, ...],
        failed: set[int] | list[int] | tuple[int, ...] = (),
    ) -> None:
        """Fold one run's outcome into this manifest.

        Repeated runs of the same shard (interrupt + resume) union their
        completed sets rather than duplicating records.
        """
        completed = {int(i) for i in completed}
        failed = {int(i) for i in failed} - completed
        for existing in self.shards:
            if existing["index"] == spec.index and existing["count"] == spec.count:
                done = set(existing.get("completed", ())) | completed
                existing["completed"] = sorted(done)
                existing["failed"] = sorted(
                    (set(existing.get("failed", ())) | failed) - done
                )
                return
        self.shards.append(
            {
                "index": spec.index,
                "count": spec.count,
                "completed": sorted(completed),
                "failed": sorted(failed),
            }
        )
        self.shards.sort(key=lambda r: (r["count"], r["index"]))

    def merge(self, other: "ShardManifest") -> None:
        """Union another manifest of the *same* grid into this one.

        Raises ``ValueError`` when the identities disagree — merging
        manifests of different experiments, fingerprints or task counts
        would fabricate a completeness claim.
        """
        if (self.experiment, self.fingerprint) != (other.experiment, other.fingerprint):
            raise ValueError(
                f"cannot merge manifests of different grids: "
                f"{self.key} vs {other.key}"
            )
        if (self.task_count, self.task_ids) != (other.task_count, other.task_ids):
            raise ValueError(
                f"manifests for {self.key} disagree on the task count or ids "
                f"({self.task_count} vs {other.task_count} tasks); they "
                "describe different task lists and must not be merged"
            )
        for record in other.shards:
            self.record(
                ShardSpec(int(record["index"]), int(record["count"])),
                record.get("completed", ()),
                record.get("failed", ()),
            )

    def as_dict(self) -> dict:
        """JSON-friendly representation."""
        payload = {
            "experiment": self.experiment,
            "fingerprint": self.fingerprint,
            "task_count": self.task_count,
            "shards": [dict(record) for record in self.shards],
            "completed": len(self.completed_ids()),
            "missing": self.missing_ids(),
            "failed": sorted(self.failed_ids()),
            "complete": self.is_complete(),
        }
        if self.task_ids is not None:
            payload["task_ids"] = list(self.task_ids)
        return payload

    @staticmethod
    def from_dict(payload: dict) -> "ShardManifest":
        """Inverse of :meth:`as_dict` (derived fields are recomputed)."""
        task_ids = payload.get("task_ids")
        manifest = ShardManifest(
            experiment=str(payload["experiment"]),
            fingerprint=str(payload["fingerprint"]),
            task_count=int(payload["task_count"]),
            task_ids=None if task_ids is None else tuple(int(i) for i in task_ids),
        )
        for record in payload.get("shards", ()):
            manifest.record(
                ShardSpec(int(record["index"]), int(record["count"])),
                record.get("completed", ()),
                record.get("failed", ()),
            )
        return manifest


def load_manifests(directory: str | Path) -> dict[str, ShardManifest]:
    """Read ``shard.json`` from a cache directory; ``{}`` when absent/corrupt.

    Returns manifests keyed by :attr:`ShardManifest.key`.  Corruption is
    treated like the caches treat it: as a miss, never an abort.
    """
    path = Path(directory) / MANIFEST_NAME
    try:
        payload = json.loads(path.read_text())
    except OSError:
        return {}
    except ValueError:
        # A writer crashed mid-write (or the file was truncated by a full
        # disk).  Treat it like the caches treat corruption — a miss — but
        # say so: a silently vanishing manifest would look like "nothing
        # sharded ever ran here" to `cache verify`.
        _logger.warning(
            "shard manifest %s is unreadable (crash mid-write?); "
            "treating it as absent", path,
        )
        return {}
    if not isinstance(payload, dict) or payload.get("version") != _MANIFEST_VERSION:
        return {}
    manifests: dict[str, ShardManifest] = {}
    for entry in payload.get("manifests", ()):
        try:
            manifest = ShardManifest.from_dict(entry)
        except (KeyError, TypeError, ValueError):
            continue
        manifests[manifest.key] = manifest
    return manifests


def save_manifests(
    directory: str | Path, manifests: dict[str, ShardManifest]
) -> Path:
    """Atomically write ``shard.json`` (:func:`repro.utils.atomic.write_atomic`)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / MANIFEST_NAME
    payload = {
        "version": _MANIFEST_VERSION,
        "manifests": [
            manifests[key].as_dict() for key in sorted(manifests)
        ],
    }
    write_atomic(path, json.dumps(payload, indent=2, sort_keys=True))
    return path


def update_manifest(
    directory: str | Path,
    experiment: str,
    fingerprint: str,
    task_count: int,
    spec: ShardSpec,
    completed: set[int] | list[int] | tuple[int, ...],
    failed: set[int] | list[int] | tuple[int, ...] = (),
    task_ids: tuple[int, ...] | None = None,
) -> ShardManifest | None:
    """Fold one run's outcome into the directory's ``shard.json``.

    Read-modify-write of the single manifest file; best-effort like the
    checkpoint writes — an unwritable directory degrades to a warning
    (the results themselves are unaffected) and returns ``None``.
    """
    try:
        manifests = load_manifests(directory)
        fresh = ShardManifest(
            experiment=experiment,
            fingerprint=fingerprint,
            task_count=task_count,
            task_ids=task_ids,
        )
        manifest = manifests.get(fresh.key)
        if manifest is None:
            manifest = fresh
        elif (manifest.task_count, manifest.task_ids) != (task_count, task_ids):
            # A changed task list under an unchanged fingerprint would be
            # a caller bug (ε lists and grids are fingerprinted); start a
            # fresh manifest rather than merging incompatible records.
            _logger.warning(
                "shard manifest for %s described a different task list "
                "(%d tasks, run has %d); resetting the manifest",
                manifest.key, manifest.task_count, task_count,
            )
            manifest = fresh
        manifest.record(spec, completed, failed)
        manifests[manifest.key] = manifest
        save_manifests(directory, manifests)
        return manifest
    except OSError as error:
        _logger.warning(
            "shard manifest update failed for %s (results are unaffected): %s",
            experiment, error,
        )
        return None


def record_durable_manifest(
    cache_dir: str | Path,
    cache,
    experiment: str,
    tasks: list,
    shard: ShardSpec | None,
) -> str | None:
    """Fold a run's *durably checkpointed* tasks into the shard manifest.

    The single place (used by every runner's ``finally`` block) that
    decides what a manifest may vouch for: only tasks whose checkpoint
    file actually exists under ``cache`` — a task whose cache write
    failed (full disk) must not be certified, or ``cache verify`` would
    green-light a directory missing results.  ``shard=None`` records the
    degenerate ``0/1`` shard of an unsharded run.  Returns the manifest
    path, or ``None`` when the (best-effort) update could not be written.
    """
    relevant = tasks if shard is None else shard.partition(list(tasks))
    durable = [task.index for task in relevant if cache.path_for(task).is_file()]
    ids = tuple(sorted(task.index for task in tasks))
    manifest = update_manifest(
        cache_dir,
        experiment,
        cache.fingerprint,
        len(tasks),
        shard or ShardSpec(0, 1),
        durable,
        task_ids=None if ids == tuple(range(len(tasks))) else ids,
    )
    if manifest is None:
        return None
    return str(Path(cache_dir) / MANIFEST_NAME)


def manifest_path(cache_dir: str | Path | None) -> str | None:
    """Path of ``cache_dir``'s shard manifest, or ``None`` when it has none."""
    if cache_dir is None:
        return None
    path = Path(cache_dir) / MANIFEST_NAME
    return str(path) if path.is_file() else None


@dataclass(frozen=True)
class ShardRunResult:
    """What one shard of an experiment produced (instead of a figure).

    A shard computes and checkpoints its slice of the task list; it
    cannot render the full figure (the other slices live on other
    hosts).  The experiment runners return this summary in shard mode —
    the figure itself is rendered later, from the merged cache, by an
    unsharded ``--resume`` run.
    """

    experiment: str
    shard: ShardSpec
    task_count: int
    """Length of the full (unsharded) task list."""

    completed: tuple[int, ...]
    """Task ids this run completed (computed or served from cache)."""

    manifest_path: str | None
    """Where the shard manifest was recorded (``None`` without a cache)."""

    metadata: dict = field(default_factory=dict)
    """Engine accounting, same shape as the full-run results carry."""

    def render(self) -> str:
        """One-paragraph text summary of the shard run."""
        owned = len(range(self.shard.index, self.task_count, self.shard.count))
        lines = [
            f"shard {self.shard} of experiment '{self.experiment}': "
            f"{len(self.completed)}/{owned} owned tasks completed "
            f"({self.task_count} tasks in the full list)",
        ]
        if self.manifest_path:
            lines.append(f"manifest: {self.manifest_path}")
        lines.append(
            "merge the shard cache directories (`cache merge ... --into DIR`), "
            "check them (`cache verify`), then re-run without --shard but with "
            "--resume to render the figures"
        )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """JSON-friendly representation."""
        return {
            "experiment": self.experiment,
            "shard": self.shard.as_dict(),
            "task_count": self.task_count,
            "completed": list(self.completed),
            "manifest_path": self.manifest_path,
            "metadata": dict(self.metadata),
        }


def shard_run_result(
    experiment: str,
    shard: ShardSpec,
    tasks: list,
    cache_dir: str | Path | None,
    metadata: dict,
) -> ShardRunResult:
    """The summary a sharded runner returns instead of its figure.

    Reaching this point means the shard's dispatch returned, i.e. every
    owned task completed — the owned slice *is* the completed set.  The
    manifest is the one the dispatch certified in ``cache_dir``.
    """
    return ShardRunResult(
        experiment=experiment,
        shard=shard,
        task_count=len(tasks),
        completed=tuple(task.index for task in shard.partition(tasks)),
        manifest_path=manifest_path(cache_dir),
        metadata=metadata,
    )
