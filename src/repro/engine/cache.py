"""Resumable caches: JSON checkpoints for results, npz archives for weights.

Two stores share one directory layout (``<kind>_<fp12>_<key>.<ext>``):

* :class:`CellCache` — one JSON file per completed task
  (:class:`~repro.robustness.results.CellResult`), named ``cell_*`` for
  a grid cell and ``sweep_*`` for any other variant;
* :class:`WeightCache` — one ``.npz`` archive per trained
  model (``state_dict`` plus clean-accuracy metadata), so security-only
  re-sweeps (new ε lists, new attack families) skip retraining entirely.

Every filename embeds a *fingerprint* prefix identifying the experiment
context — dataset digests, training, gate and attack settings, caller
tags — so caches for different configurations can share a directory
without collisions.  The result cache fingerprints the full context
(:func:`context_fingerprint`); the weight cache deliberately
fingerprints only what training depends on (:func:`training_fingerprint`),
which is exactly what lets a changed ε list still hit the trained
weights.

Writes go through :func:`repro.utils.atomic.write_atomic` (private temp
file + rename), so a run killed mid-write never leaves an entry the
next run would trip over — unreadable or corrupt entries are treated as
cache misses — and the maintenance helpers sweep the temps it leaves.

The maintenance helpers at the bottom (:func:`scan_cache_dir`,
:func:`cache_stats`, :func:`clear_cache_dir`, :func:`gc_cache_dir`) back
the ``python -m repro.experiments cache`` subcommand.
"""

from __future__ import annotations

import hashlib
import json
import re
import time
import weakref
import zipfile
from collections.abc import Callable, Mapping
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.engine.metrics import record_cache
from repro.robustness.results import CellResult
from repro.training.trainer import TrainingConfig
from repro.utils.atomic import temp_target, write_atomic
from repro.utils.logging import get_logger
from repro.utils.serialization import load_npz, load_npz_metadata, save_npz

if TYPE_CHECKING:  # annotation-only: repro.engine.job imports this module
    from repro.engine.job import CellTask, JobContext

__all__ = [
    "CacheEntry",
    "CellCache",
    "Checkpoint",
    "WeightCache",
    "WeightEntry",
    "archive_weights",
    "cache_stats",
    "clear_cache_dir",
    "context_fingerprint",
    "entry_provenance",
    "fingerprint_matches",
    "gc_cache_dir",
    "nearest_weight_entry",
    "read_checkpoint",
    "scan_cache_dir",
    "split_optimizer_arrays",
    "training_fingerprint",
]

_logger = get_logger("engine")

_FORMAT_VERSION = 2
"""Version of the result checkpoint format (and of its fingerprint);
version 1 kept grid cells and other variants in two payload shapes."""

_WEIGHTS_VERSION = 1
"""Version of :func:`training_fingerprint`, and so of every weight
archive's name: unchanged by the checkpoint format."""

_RESULT_KINDS = ("cell", "sweep")
"""Filename prefixes of result checkpoints (grid cells, other variants)."""

_CACHE_KINDS = (*_RESULT_KINDS, "weights")
"""Filename prefixes recognised by the maintenance helpers."""


# One engine run fingerprints the same datasets several times (result
# cache + weight cache, train + eval sets); memoize per dataset object so
# the full-array sha256 pass happens once, not per fingerprint.
_DIGEST_CACHE: "weakref.WeakKeyDictionary[ArrayDataset, str]" = (
    weakref.WeakKeyDictionary()
)


def _dataset_digest(dataset: ArrayDataset) -> str:
    """Content hash of a dataset (shape, dtype and raw bytes)."""
    cached = _DIGEST_CACHE.get(dataset)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    for array in (dataset.images, dataset.labels):
        array = np.ascontiguousarray(array)
        digest.update(str(array.shape).encode())
        digest.update(str(array.dtype).encode())
        digest.update(array.tobytes())
    value = digest.hexdigest()
    _DIGEST_CACHE[dataset] = value
    return value


def _payload_fingerprint(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _tag_dict(tags: Mapping[str, object] | None) -> dict[str, str]:
    return {str(k): str(v) for k, v in (tags or {}).items()}


def context_fingerprint(
    context: JobContext,
    tags: Mapping[str, object] | None = None,
) -> str:
    """Stable hash identifying one experiment's job context.

    Covers the datasets, training hyper-parameters, the learnability gate
    and the attack execution settings shared by every task.  Per-task
    settings (the variant parameters, attack families, ε lists and
    seeds) live in the checkpoint *key* instead — see
    :meth:`CellCache.path_for`.  The gate is part of the hash, so a
    ``--resume`` with a changed gate misses its checkpoints, reuses the
    trained weights and gates them again.  The model builder itself
    cannot be hashed reliably — callers that switch builders under an
    identical context must disambiguate via ``tags`` (the experiment
    runners tag profile and model names).
    """
    payload = {
        "version": _FORMAT_VERSION,
        "train": _dataset_digest(context.train_set),
        "clean_eval": _dataset_digest(context.clean_eval_set),
        "attack_set": _dataset_digest(context.attack_set),
        "training": asdict(context.training),
        "gate": repr(context.accuracy_threshold),
        "attack": [
            context.attack_steps,
            repr(context.attack_alpha),
            context.attack_random_start,
            context.attack_batch_size,
            repr(context.clip_min),
            repr(context.clip_max),
        ],
        "tags": _tag_dict(tags),
    }
    return _payload_fingerprint(payload)


def training_fingerprint(
    train_set: ArrayDataset,
    training: TrainingConfig,
    eval_sets: tuple[ArrayDataset, ...] = (),
    tags: Mapping[str, object] | None = None,
) -> str:
    """Stable hash of everything *trained weights* depend on — and nothing else.

    Deliberately excludes attack families and ε lists: a security-only
    re-sweep changes those, and the whole point of the weight cache is
    that its entries survive such changes.  ``eval_sets`` should name the
    datasets whose scores are stored in the archive metadata (the cached
    clean accuracy is only valid for the data it was measured on).

    Example::

        fingerprint = training_fingerprint(
            train, profile.training_config(),
            eval_sets=(test,), tags={"experiment": "fig9", "profile": "smoke"},
        )
        weights = WeightCache(cache_dir, fingerprint)
    """
    payload = {
        "version": _WEIGHTS_VERSION,
        "train": _dataset_digest(train_set),
        "eval": [_dataset_digest(d) for d in eval_sets],
        "training": asdict(training),
        "tags": _tag_dict(tags),
    }
    return _payload_fingerprint(payload)


class CellCache:
    """One JSON checkpoint file per completed task under ``directory``.

    The key material covers the task's variant parameters, attack
    families, ε list and seeds, so a re-run with a different security
    sweep is a deliberate *miss* here (it must recompute robustness)
    while still hitting the :class:`WeightCache` for the trained
    parameters.  Files are named ``cell_*`` for grid cells and
    ``sweep_*`` for other variants (:attr:`CellTask.family
    <repro.engine.job.CellTask.family>`).

    Example::

        cache = CellCache(cache_dir, context_fingerprint(context, tags))
        cache.put(task, result)
        cache.get(task)            # -> CellResult (or None on a miss)

    Parameters
    ----------
    directory:
        Where checkpoint files live; created lazily on first write.
    fingerprint:
        Context fingerprint from :func:`context_fingerprint`; part of
        every key, so caches for different contexts can share a
        directory without collisions.
    """

    def __init__(self, directory: str | Path, fingerprint: str) -> None:
        self.directory = Path(directory)
        self.fingerprint = str(fingerprint)

    def _files(self):
        """This cache's checkpoint files on disk (any family)."""
        if not self.directory.is_dir():
            return []
        return [
            path
            for kind in _RESULT_KINDS
            for path in self.directory.glob(f"{kind}_{self.fingerprint[:12]}_*.json")
        ]

    def path_for(self, task: CellTask) -> Path:
        """Checkpoint path of one task (exists only once completed)."""
        material = ":".join(
            (
                self.fingerprint,
                task.key,
                task.kind,
                repr(task.params),
                repr(task.attacks),
                repr(task.epsilons),
                str(task.train_seed),
                str(task.attack_seed),
            )
        )
        key = hashlib.sha256(material.encode()).hexdigest()[:32]
        return self.directory / f"{task.family}_{self.fingerprint[:12]}_{key}.json"

    def get(self, task: CellTask) -> CellResult | None:
        """Load the checkpoint for ``task``; ``None`` on miss or corruption."""
        loaded = self._load(task)
        record_cache(task.family, "hit" if loaded is not None else "miss")
        return None if loaded is None else loaded[0]

    def _load(self, task: CellTask):
        """``(result, checkpoint)`` stored for ``task``; ``None`` when the
        entry is missing, corrupt, of another format version or does not
        decode."""
        checkpoint = read_checkpoint(self.path_for(task))
        if checkpoint is None or checkpoint.version != _FORMAT_VERSION:
            return None
        try:
            result = CellResult.from_dict(checkpoint.value, task.attacks)
        except (AttributeError, KeyError, TypeError, ValueError):
            return None
        return result, checkpoint

    def verify(self, task: CellTask) -> str | None:
        """Prove the stored checkpoint decodes; its sha256 on success.

        A pure integrity probe for the queue's post-write verification
        (and fault injection that corrupts checkpoints behind the
        writer's back): the bytes are re-read from disk, the payload
        must parse, carry the current format version and decode into a
        result.  Returns the hexdigest of the on-disk bytes — the same
        checksum the commit markers and event logs record — or ``None``
        when the entry is missing or corrupt.  Unlike :meth:`get`, no
        hit/miss metrics are recorded, so verification does not skew
        cache-traffic counters.
        """
        loaded = self._load(task)
        return None if loaded is None else hashlib.sha256(loaded[1].data).hexdigest()

    def put(self, task: CellTask, value: CellResult) -> Path:
        """Atomically checkpoint a completed task; returns its path."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(task)
        payload = {
            "version": _FORMAT_VERSION,
            "task": {
                "index": task.index,
                "key": task.key,
                "kind": task.kind,
                "params": [list(pair) for pair in task.params],
                "attacks": list(task.attacks),
                "epsilons": list(task.epsilons),
                "train_seed": task.train_seed,
                "attack_seed": task.attack_seed,
            },
            "result": value.as_dict(),
        }
        write_atomic(path, json.dumps(payload, indent=2, sort_keys=True))
        record_cache(task.family, "put")
        return path

    def any_entries(self) -> bool:
        """Whether the directory holds result checkpoints at all.

        Used to distinguish "nothing checkpointed yet" from "checkpoints
        exist but none match this configuration" when resuming.
        """
        return self.directory.is_dir() and any(
            next(iter(self.directory.glob(f"{kind}_*.json")), None) is not None
            for kind in _RESULT_KINDS
        )

    def __len__(self) -> int:
        """Number of this cache's checkpoint files currently on disk."""
        return len(self._files())

    def clear(self) -> int:
        """Delete this cache's checkpoint files; returns how many.

        Entries written under other fingerprints (or kinds) in a shared
        directory are left untouched.
        """
        files = self._files()
        for path in files:
            path.unlink(missing_ok=True)
        return len(files)

    def __repr__(self) -> str:
        return f"CellCache({str(self.directory)!r}, entries={len(self)})"


@dataclass(frozen=True)
class Checkpoint:
    """One result checkpoint as :func:`read_checkpoint` parsed it."""

    data: bytes
    """The file's bytes, which commit markers checksum."""

    version: object
    """The payload's format version."""

    task: dict
    """The task payload the store wrote; ``{}`` when missing or malformed."""

    value: dict
    """The stored result; ``{}`` when missing or malformed (as in every
    checkpoint of an older format version)."""


def read_checkpoint(path: Path) -> Checkpoint | None:
    """Parse the result checkpoint at ``path``.

    The one reader of the checkpoint format: :class:`CellCache`'s
    ``get`` and ``verify``, :func:`entry_timings`,
    :func:`entry_provenance` and the cost model
    (:mod:`repro.engine.costs`) all go through it.  Returns ``None`` when
    the file is unreadable, is not JSON or is not an object.
    """
    try:
        data = path.read_bytes()
        payload = json.loads(data)
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict):
        return None
    task = payload.get("task")
    value = payload.get("result")
    return Checkpoint(
        data=data,
        version=payload.get("version"),
        task=task if isinstance(task, dict) else {},
        value=value if isinstance(value, dict) else {},
    )


@dataclass(frozen=True)
class WeightEntry:
    """One scanned weight archive with its stored metadata.

    The unit of the neighbour index: :meth:`WeightCache.scan` returns
    these, :func:`nearest_weight_entry` ranks them by structural-parameter
    distance, and the search scheduler's warm-start plan records their
    paths as initialisation sources.
    """

    path: Path
    key: str
    """Variant key the archive was stored under (e.g. ``cell_vth1_T48``)."""

    train_seed: int | None
    """Seed the weights were trained with (``None`` for legacy archives)."""

    params: dict[str, float]
    """Numeric build parameters of the trained model (e.g. ``v_th`` /
    ``time_window``); empty for archives written before params metadata."""

    epochs: int | None
    """Training budget the archive completed (``None`` when unrecorded)."""

    metadata: dict
    """The full metadata record, including any ``warm_start`` lineage."""


def nearest_weight_entry(
    entries: list[WeightEntry],
    params: Mapping[str, float],
    exclude_keys: tuple[str, ...] = (),
) -> tuple[WeightEntry, float] | None:
    """Nearest archive to ``params`` by normalised structural distance.

    Distance is Euclidean over the target's parameter axes, each axis
    normalised by the value range observed across the candidates plus the
    target — so axes on wildly different scales (``v_th`` in [0.25, 2.25]
    vs ``time_window`` in [8, 64]) weigh equally.  Candidates missing any
    target axis are skipped (no silent partial matches), as are keys in
    ``exclude_keys``.  Ties break deterministically: larger completed
    budget first (a longer-trained neighbour resumes cheaper), then key,
    then train seed.  Returns ``(entry, distance)`` or ``None``.
    """
    target = {str(k): float(v) for k, v in params.items()}
    excluded = set(exclude_keys)
    candidates = [
        entry
        for entry in entries
        if entry.key not in excluded and all(axis in entry.params for axis in target)
    ]
    if not candidates or not target:
        return None
    spans: dict[str, float] = {}
    for axis, value in target.items():
        values = [value] + [entry.params[axis] for entry in candidates]
        spans[axis] = (max(values) - min(values)) or 1.0
    def distance_of(entry: WeightEntry) -> float:
        return (
            sum(
                ((entry.params[axis] - target[axis]) / spans[axis]) ** 2
                for axis in target
            )
            ** 0.5
        )
    best = min(
        candidates,
        key=lambda entry: (
            distance_of(entry),
            -(entry.epochs or 0),
            entry.key,
            entry.train_seed or 0,
        ),
    )
    return best, distance_of(best)


class WeightCache:
    """Trained ``state_dict`` archives keyed by variant key + train seed.

    Entries are ``.npz`` files written atomically via
    :func:`repro.utils.serialization.save_npz`; JSON metadata (at least
    ``clean_accuracy``) rides along inside the archive.  The fingerprint
    should come from :func:`training_fingerprint` so entries survive
    changes to anything training does not depend on.  Members are stored,
    not deflated, so an archive takes about twice the bytes a deflated
    one did (deflated archives from older caches still load).

    Example::

        weights = WeightCache(cache_dir, training_fingerprint(train, cfg))
        weights.put("snn_vth1_T48", task.train_seed, model.state_dict(),
                    {"clean_accuracy": 0.91})
        state, meta = weights.get("snn_vth1_T48", task.train_seed)
        model.load_state_dict(state)
    """

    kind = "weights"

    def __init__(self, directory: str | Path, fingerprint: str) -> None:
        self.directory = Path(directory)
        self.fingerprint = str(fingerprint)
        self._prefix = f"{self.kind}_{self.fingerprint[:12]}"

    def path_for(self, key: str, train_seed: int) -> Path:
        """Archive path of one trained variant."""
        material = ":".join((self.fingerprint, str(key), str(train_seed)))
        digest = hashlib.sha256(material.encode()).hexdigest()[:32]
        return self.directory / f"{self._prefix}_{digest}.npz"

    def get(
        self, key: str, train_seed: int
    ) -> tuple[dict[str, np.ndarray], dict] | None:
        """Load ``(state_dict, metadata)``; ``None`` on miss or corruption.

        Archives may bundle optimizer moments under ``__opt__``-prefixed
        array names (see :func:`archive_weights`); those are stripped here
        so the returned mapping is exactly what ``model.load_state_dict``
        expects.
        """
        path = self.path_for(key, train_seed)
        if not path.is_file():
            record_cache(self.kind, "miss")
            return None
        try:
            arrays, metadata = load_npz(path)
        except (OSError, ValueError, KeyError, zipfile.BadZipFile):
            record_cache(self.kind, "miss")
            return None
        if not isinstance(metadata, dict) or "clean_accuracy" not in metadata:
            record_cache(self.kind, "miss")
            return None
        record_cache(self.kind, "hit")
        return split_optimizer_arrays(arrays)[0], metadata

    def put(
        self,
        key: str,
        train_seed: int,
        state: dict[str, np.ndarray],
        metadata: dict,
    ) -> Path:
        """Atomically store a trained ``state_dict`` with its metadata.

        The key and train seed are embedded into the metadata so a
        directory :meth:`scan` can recover entry identity without the
        caller's key-derivation logic.
        """
        if "clean_accuracy" not in metadata:
            raise ValueError("weight-cache metadata must record clean_accuracy")
        path = self.path_for(key, train_seed)
        written = save_npz(
            path, state, {**metadata, "key": str(key), "train_seed": int(train_seed)}
        )
        record_cache(self.kind, "put")
        return written

    def scan(self) -> list[WeightEntry]:
        """Enumerate this cache's archives with their stored metadata.

        The backing read of the neighbour index: each entry carries the
        structural ``params`` and completed ``epochs`` recorded at archive
        time, so :func:`nearest_weight_entry` can rank candidates without
        ever reading a state dict.  Unreadable or metadata-less
        archives are skipped, matching the miss semantics of :meth:`get`.
        """
        if not self.directory.is_dir():
            return []
        entries: list[WeightEntry] = []
        for path in sorted(self.directory.glob(f"{self._prefix}_*.npz")):
            try:
                metadata = load_npz_metadata(path)
            except (OSError, ValueError, KeyError, zipfile.BadZipFile):
                continue
            if not isinstance(metadata, dict):
                continue
            raw_params = metadata.get("params")
            params = (
                {
                    str(k): float(v)
                    for k, v in raw_params.items()
                    if isinstance(v, (int, float))
                }
                if isinstance(raw_params, dict)
                else {}
            )
            seed = metadata.get("train_seed")
            epochs = metadata.get("epochs")
            entries.append(
                WeightEntry(
                    path=path,
                    key=str(metadata.get("key", "")),
                    train_seed=int(seed) if seed is not None else None,
                    params=params,
                    epochs=int(epochs) if epochs is not None else None,
                    metadata=metadata,
                )
            )
        return entries

    def nearest(
        self,
        params: Mapping[str, float],
        exclude_keys: tuple[str, ...] = (),
    ) -> tuple[WeightEntry, float] | None:
        """Nearest archived neighbour of ``params`` (see
        :func:`nearest_weight_entry` for the distance and tie-break
        rules); ``None`` when no compatible archive exists."""
        return nearest_weight_entry(self.scan(), params, exclude_keys=exclude_keys)

    def __len__(self) -> int:
        """Number of this cache's archives currently on disk."""
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob(f"{self._prefix}_*.npz"))

    def clear(self) -> int:
        """Delete this cache's archives; returns how many."""
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.glob(f"{self._prefix}_*.npz"):
                path.unlink(missing_ok=True)
                removed += 1
        return removed

    def __repr__(self) -> str:
        return f"WeightCache({str(self.directory)!r}, entries={len(self)})"


_OPTIMIZER_PREFIX = "__opt__"
"""Array-name prefix separating optimizer moments from model weights
inside one archive.  Model parameter names never start with a dunder, so
the prefix cannot collide with a real ``state_dict`` entry."""


def split_optimizer_arrays(
    arrays: dict[str, np.ndarray],
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray] | None]:
    """Split one archive's arrays into ``(model_state, optimizer_state)``.

    The optimizer half is ``None`` when the archive predates optimizer
    bundling — consumers then resume with fresh Adam moments (the old
    re-anneal behaviour) instead of failing.
    """
    model = {k: v for k, v in arrays.items() if not k.startswith(_OPTIMIZER_PREFIX)}
    opt = {
        k[len(_OPTIMIZER_PREFIX) :]: v
        for k, v in arrays.items()
        if k.startswith(_OPTIMIZER_PREFIX)
    }
    return model, (opt or None)


def archive_weights(
    cache: WeightCache | None,
    key: str,
    train_seed: int,
    state: dict[str, np.ndarray],
    metadata: dict,
    optimizer_state: dict[str, np.ndarray] | None = None,
) -> None:
    """Best-effort :meth:`WeightCache.put` used from inside job functions.

    ``optimizer_state`` (Adam moments, :meth:`Adam.state_dict`) is bundled
    into the same archive under ``__opt__``-prefixed array names so a
    higher-budget rung can resume training as a bitwise continuation;
    :meth:`WeightCache.get` strips the prefix back out for weight-only
    consumers.

    Archiving is a convenience; an unwritable cache directory (read-only
    mount, full disk) must degrade to a warning, never abort the
    computation — jobs run in worker processes, where a raised ``OSError``
    would kill the whole schedule.
    """
    if cache is None:
        return
    if optimizer_state:
        state = {
            **state,
            **{f"{_OPTIMIZER_PREFIX}{k}": v for k, v in optimizer_state.items()},
        }
    try:
        cache.put(key, train_seed, state, metadata)
    except OSError as error:
        _logger.warning(
            "weight archiving failed for %s (results are unaffected): %s",
            key,
            error,
        )


# -- directory maintenance (the `cache` subcommand) ----------------------------


@dataclass(frozen=True)
class CacheEntry:
    """One recognised file in a cache directory."""

    path: Path
    kind: str
    """``cell``, ``sweep`` or ``weights``."""

    fingerprint: str
    """The 12-character fingerprint prefix embedded in the filename."""

    size_bytes: int
    modified: float
    """mtime as seconds since the epoch (drives age-based GC)."""

    def age_seconds(self, now: float | None = None) -> float:
        """Seconds since the entry was last written."""
        return max(0.0, (time.time() if now is None else now) - self.modified)


def fingerprint_matches(entry: CacheEntry, fingerprint: str | None) -> bool:
    """Prefix-match an entry against a user-supplied fingerprint string.

    Filenames only embed 12 fingerprint characters, so a full 64-char
    fingerprint matches its own truncation and any shorter prefix works
    as a filter.
    """
    if fingerprint is None:
        return True
    if len(fingerprint) <= len(entry.fingerprint):
        return entry.fingerprint.startswith(fingerprint)
    return fingerprint.startswith(entry.fingerprint)


def _scan_entries(
    directory: str | Path, name_of: Callable[[Path], str | None]
) -> list[CacheEntry]:
    """Files under ``directory`` whose ``name_of(path)`` parses as
    ``<kind>_<fp12>_<key>``; ``name_of`` returns ``None`` to skip a file."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    entries: list[CacheEntry] = []
    for path in sorted(directory.iterdir()):
        name = name_of(path) if path.is_file() else None
        parts = name.split("_", 2) if name is not None else ()
        if len(parts) != 3 or parts[0] not in _CACHE_KINDS:
            continue
        try:
            stat = path.stat()
        except OSError:
            continue
        entries.append(
            CacheEntry(
                path=path,
                kind=parts[0],
                fingerprint=parts[1],
                size_bytes=stat.st_size,
                modified=stat.st_mtime,
            )
        )
    return entries


def scan_cache_dir(directory: str | Path) -> list[CacheEntry]:
    """Enumerate recognised cache files under ``directory`` (non-recursive).

    Unrelated files are ignored; a missing directory yields an empty list.
    """
    return _scan_entries(
        directory,
        lambda path: path.stem if path.suffix in (".json", ".npz") else None,
    )


def entry_timings(entry: CacheEntry) -> dict[str, float] | None:
    """Wall-clock breakdown stored inside a result checkpoint, if any.

    Reads the entry's JSON payload and returns ``elapsed_seconds`` plus
    the per-phase ``train_s`` / ``attack_s`` keys recorded by
    the job runners (``cache inspect`` surfaces these so BENCH
    trajectories show where cell wall time actually goes).  Returns
    ``None`` for weight archives, pre-phase-tracking checkpoints and
    unreadable files.
    """
    if entry.kind not in _RESULT_KINDS:
        return None
    checkpoint = read_checkpoint(entry.path)
    if checkpoint is None:
        return None
    value = checkpoint.value
    timings: dict[str, float] = {}
    try:
        if "elapsed_seconds" in value:
            timings["elapsed_s"] = float(value["elapsed_seconds"])
        phases = value.get("phase_seconds")
        if isinstance(phases, dict):
            for key in sorted(phases):
                timings[str(key)] = float(phases[key])
    except (TypeError, ValueError):
        # One malformed checkpoint must not abort a whole listing.
        return None
    return timings or None


def entry_provenance(entry: CacheEntry) -> dict | None:
    """Training provenance stored inside a cache entry, if any.

    One shape for every entry kind (``cache stats --json`` and ``cache
    inspect`` surface it identically): the variant ``key``, structural
    ``params``, completed ``epochs``, ``train_seed`` and — for
    warm-started cells — the ``warm_start`` lineage (source archive,
    epochs skipped, neighbour distance).  Weight archives read their npz
    metadata; result checkpoints read the task identity and result
    payload of their JSON.  Returns ``None`` for metadata-less or
    unreadable entries, matching :func:`entry_timings` miss semantics.
    """
    if entry.kind == "weights":
        try:
            metadata = load_npz_metadata(entry.path)
        except (OSError, ValueError, KeyError, zipfile.BadZipFile):
            return None
        if not isinstance(metadata, dict):
            return None
        provenance = {
            name: metadata[name]
            for name in ("key", "params", "epochs", "train_seed", "warm_start")
            if name in metadata
        }
        return provenance or None
    if entry.kind not in _RESULT_KINDS:
        return None
    checkpoint = read_checkpoint(entry.path)
    if checkpoint is None:
        return None
    task, value = checkpoint.task, checkpoint.value
    provenance: dict = {}
    if "key" in task:
        provenance["key"] = task["key"]
    params = task.get("params")
    if isinstance(params, list):
        provenance["params"] = {
            str(pair[0]): pair[1]
            for pair in params
            if isinstance(pair, (list, tuple)) and len(pair) == 2
        }
    if "train_seed" in task:
        provenance["train_seed"] = task["train_seed"]
    if value.get("warm_start"):
        provenance["warm_start"] = value["warm_start"]
    return provenance or None


def cache_stats(directory: str | Path, fingerprint: str | None = None) -> dict:
    """Aggregate counts and sizes per kind and per fingerprint.

    With ``fingerprint``, *all* aggregates (not just the per-fingerprint
    section) cover only the matching entries, so the totals answer "how
    big is this experiment's cache" in a shared directory.  Returns a
    JSON-friendly dict — the payload of
    ``python -m repro.experiments cache stats --json``.

    The ``timings`` section sums the per-phase wall-clock breakdown
    (``train_s`` / ``attack_s`` / ``elapsed_s``) across all
    result checkpoints that recorded one (``timed_entries`` of them) —
    the aggregate the cost-ordered scheduler and the BENCH trajectories
    read to see where a whole cache directory's compute went.

    The ``provenance`` section counts, per kind, how many entries carry
    training provenance (:func:`entry_provenance`) and how many of those
    record a ``warm_start`` lineage — the same records ``cache inspect``
    prints per entry, aggregated.
    """
    entries = [e for e in scan_cache_dir(directory) if fingerprint_matches(e, fingerprint)]
    by_kind: dict[str, dict[str, int]] = {}
    by_fingerprint: dict[str, int] = {}
    timing_totals: dict[str, float] = {}
    timed_entries = 0
    provenance_entries = 0
    warm_by_kind: dict[str, int] = {}
    for entry in entries:
        bucket = by_kind.setdefault(entry.kind, {"entries": 0, "bytes": 0})
        bucket["entries"] += 1
        bucket["bytes"] += entry.size_bytes
        by_fingerprint[entry.fingerprint] = by_fingerprint.get(entry.fingerprint, 0) + 1
        timings = entry_timings(entry)
        if timings:
            timed_entries += 1
            for key, value in timings.items():
                timing_totals[key] = timing_totals.get(key, 0.0) + value
        provenance = entry_provenance(entry)
        if provenance:
            provenance_entries += 1
            if provenance.get("warm_start"):
                warm_by_kind[entry.kind] = warm_by_kind.get(entry.kind, 0) + 1
    return {
        "directory": str(directory),
        "entries": len(entries),
        "total_bytes": sum(e.size_bytes for e in entries),
        "by_kind": by_kind,
        "by_fingerprint": dict(sorted(by_fingerprint.items())),
        "timings": {
            "timed_entries": timed_entries,
            "totals": {
                key: round(value, 3) for key, value in sorted(timing_totals.items())
            },
        },
        "provenance": {
            "entries": provenance_entries,
            "warm_started": sum(warm_by_kind.values()),
            "warm_started_by_kind": dict(sorted(warm_by_kind.items())),
        },
    }


_LEGACY_TEMP = re.compile(r"(?P<json>[^.].*?)\.\d+(\.merge)?\.tmp|\.(?P<npz>.+)\.\d+\.tmp\.npz")


def _scan_stray_temps(directory: str | Path) -> list[CacheEntry]:
    """Orphaned atomic-write temp files left by killed runs.

    Excluded from :func:`scan_cache_dir` (stats must not count archives
    mid-write), but the pruning commands sweep them: a power-lost worker
    leaves a :mod:`repro.utils.atomic` temp, or in caches written before
    that module a pid-only ``<entry>.json.<pid>.tmp``,
    ``<entry>.<pid>.merge.tmp`` or ``.weights_*.<pid>.tmp.npz``, that
    would otherwise stay forever.
    """

    def target(path: Path) -> str | None:
        legacy = _LEGACY_TEMP.fullmatch(path.name)
        return temp_target(path.name) if legacy is None else legacy["json"] or legacy["npz"]

    return _scan_entries(directory, target)


def _invalidate_manifests(directory: str | Path, fingerprints: set[str]) -> None:
    """Drop shard-manifest records whose result checkpoints were deleted.

    A manifest left behind after its ``cell_*``/``sweep_*`` entries are
    pruned would make ``cache verify`` claim a completeness the
    directory no longer has.  ``fingerprints`` holds the 12-character
    prefixes of the removed *result* entries; matching manifests go with
    them (weight archives use a different fingerprint family and never
    match).
    """
    if not fingerprints:
        return
    from repro.engine.shard import MANIFEST_NAME, load_manifests, save_manifests

    manifests = load_manifests(directory)
    if not manifests:
        return
    kept = {
        key: manifest
        for key, manifest in manifests.items()
        if manifest.fingerprint[:12] not in fingerprints
    }
    if len(kept) == len(manifests):
        return
    if kept:
        save_manifests(directory, kept)
    else:
        (Path(directory) / MANIFEST_NAME).unlink(missing_ok=True)


def _sweep_cache_dir(
    directory: str | Path, doomed: Callable[[CacheEntry], bool], shield: bool
) -> int:
    """Delete the entries and stray temps ``doomed`` selects; returns count.
    With ``shield``, warm-start ancestors of surviving archives are kept."""
    selected: list[CacheEntry] = []
    kept: list[CacheEntry] = []
    for entry in scan_cache_dir(directory):
        (selected if doomed(entry) else kept).append(entry)
    protected = _protected_ancestors(kept, selected) if shield else set()
    if protected:
        _logger.info(
            "gc shielded %d warm-start ancestor archive(s) still referenced "
            "by live checkpoints",
            len(protected),
        )
    removed = 0
    dropped_results: set[str] = set()
    for entry in selected:
        if entry.path in protected:
            continue
        entry.path.unlink(missing_ok=True)
        removed += 1
        if entry.kind in _RESULT_KINDS:
            dropped_results.add(entry.fingerprint)
    for stray in _scan_stray_temps(directory):
        if doomed(stray):
            stray.path.unlink(missing_ok=True)
            removed += 1
    _invalidate_manifests(directory, dropped_results)
    return removed


def clear_cache_dir(directory: str | Path, fingerprint: str | None = None) -> int:
    """Delete cache entries (optionally only one fingerprint's); returns count.

    Orphaned temp files from interrupted writes are swept as well; a temp
    belonging to a write currently in flight is safe to lose — the writer
    treats the failed rename like any other unwritable-cache condition.
    Shard-manifest records covering deleted result checkpoints are
    dropped too, so ``cache verify`` never vouches for pruned entries.
    """
    return _sweep_cache_dir(
        directory, lambda entry: fingerprint_matches(entry, fingerprint), shield=False
    )


def _warm_start_source(path: Path) -> str | None:
    """Filename of the archive this weights entry warm-started from."""
    try:
        metadata = load_npz_metadata(path)
    except (OSError, ValueError, KeyError, zipfile.BadZipFile):
        return None
    if not isinstance(metadata, dict):
        return None
    warm = metadata.get("warm_start")
    if isinstance(warm, dict) and warm.get("source_file"):
        return str(warm["source_file"])
    return None


def _protected_ancestors(
    kept: list[CacheEntry], doomed: list[CacheEntry]
) -> set[Path]:
    """Doomed weight archives shielded because a survivor descends from them.

    A warm-started checkpoint records the archive it initialised from
    (``warm_start.source_file`` in its metadata).  Evicting that ancestor
    while the descendant survives would orphan the lineage a promotion
    resume or bias audit needs — so reachability is walked from every
    surviving archive down the ancestor chain (transitively: protected
    ancestors shield *their* ancestors too) and reachable doomed entries
    are returned for exclusion from the sweep.
    """
    doomed_weights = {
        entry.path.name: entry for entry in doomed if entry.kind == "weights"
    }
    if not doomed_weights:
        return set()
    protected: set[Path] = set()
    frontier = [entry.path for entry in kept if entry.kind == "weights"]
    while frontier:
        source = _warm_start_source(frontier.pop())
        ancestor = doomed_weights.get(source) if source else None
        if ancestor is not None and ancestor.path not in protected:
            protected.add(ancestor.path)
            frontier.append(ancestor.path)
    return protected


def gc_cache_dir(
    directory: str | Path,
    max_age_seconds: float | None = None,
    fingerprint: str | None = None,
    now: float | None = None,
) -> int:
    """Garbage-collect entries by age and/or fingerprint; returns count.

    At least one criterion is required — a bare GC that deletes everything
    is spelled :func:`clear_cache_dir` — and an age bound must be ``>= 0``
    (NaN is rejected too).  With both, entries must match the
    fingerprint *and* exceed the age to be removed.  Orphaned temp files
    are swept under the same criteria (an age bound naturally protects
    writes currently in flight).

    Weight archives that are warm-start ancestors of *surviving* archives
    are exempt even when they match the criteria: a live partial-budget
    checkpoint written last night may descend from a neighbour archive
    written last month, and evicting the ancestor would break the
    lineage (see :func:`_protected_ancestors`).
    """
    if max_age_seconds is None and fingerprint is None:
        raise ValueError("gc needs max_age_seconds and/or fingerprint (use clear to drop everything)")
    if max_age_seconds is not None and not (max_age_seconds >= 0):
        # A negative or NaN bound would doom every entry, and the
        # in-flight temps an age bound exists to protect.
        raise ValueError(f"max_age_seconds must be >= 0, got {max_age_seconds}")

    def doomed(entry: CacheEntry) -> bool:
        return fingerprint_matches(entry, fingerprint) and not (
            max_age_seconds is not None and entry.age_seconds(now) <= max_age_seconds
        )

    return _sweep_cache_dir(directory, doomed, shield=True)
