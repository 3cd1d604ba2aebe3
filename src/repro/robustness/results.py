"""Result containers for the grid exploration, with JSON persistence."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.utils.atomic import write_atomic

__all__ = ["CellResult", "ExplorationResult"]


@dataclass(frozen=True)
class CellResult:
    """Everything one engine task records: a ``(Vth, T)`` grid cell of
    Algorithm 1, or a Fig. 1 / Fig. 9 / ablation variant."""

    v_th: float | None
    """Firing threshold of the model (``None`` for the CNN baselines)."""

    time_window: int
    """Time window of the model (``0`` for the CNN baselines)."""

    clean_accuracy: float
    learnable: bool
    """Whether the model cleared the gate (always true for ungated tasks)."""

    diverged: bool = False
    curves: dict[str, dict[float, float]] = field(default_factory=dict)
    """``attack -> {epsilon -> robustness}`` for every swept attack family;
    empty for cells the gate rejected."""

    elapsed_seconds: float = field(default=0.0, compare=False)
    """Wall-clock time spent evaluating this cell (train + attacks).

    Excluded from equality so scientifically identical runs compare equal
    regardless of where or how fast they executed.
    """

    phase_seconds: dict[str, float] = field(default_factory=dict, compare=False)
    """Wall-clock breakdown of :attr:`elapsed_seconds` by phase.

    Keys are ``train_s`` (training and the clean score, or the
    weight-cache load that replaced them) and, for attacked models,
    ``attack_s`` (the security sweep).  Provenance like
    :attr:`elapsed_seconds` — excluded from equality and stripped by
    ``scripts/compare_results.py``.
    """

    worker: str = field(default="", compare=False)
    """Process name that evaluated the cell (``MainProcess`` when serial)."""

    stack_size: int = field(default=1, compare=False)
    """How many grid cells shared the fused pass that produced this one
    (``1`` = unstacked).  Execution provenance like :attr:`worker` —
    excluded from equality and stripped by ``scripts/compare_results.py``,
    since stacked and unstacked runs are bitwise-identical science.
    """

    stack_index: int = field(default=0, compare=False)
    """This cell's lane within its variant stack (``0`` when unstacked)."""

    warm_start: dict | None = field(default=None, compare=False)
    """Provenance of the warm-start initialisation, when one was used.

    Keys: ``source_file`` (archive filename the initial weights came
    from), ``source_key`` / ``source_epochs`` (which cell trained them,
    for how long), ``start_epoch`` (epochs skipped here) and ``distance``
    (normalised structural-parameter distance; ``0`` for the cell's own
    lower-budget checkpoint).  ``None`` for cold-started cells.  Execution
    provenance like :attr:`worker` — excluded from equality and stripped
    by ``scripts/compare_results.py``; the bias gate (docs/search.md) is
    what guards the science behind it.
    """

    weights_from_cache: bool = field(default=False, compare=False)
    """Whether training was skipped by a weight-cache hit.  Provenance of
    this evaluation only: not serialized, so a checkpointed result reads
    back ``False``."""

    @property
    def robustness(self) -> dict[float, float]:
        """``epsilon -> robustness`` of the first attack family (a grid
        cell's only one); empty for non-learnable cells."""
        return next(iter(self.curves.values()), {})

    def as_dict(self) -> dict:
        """JSON-friendly representation (epsilon keys stringified).

        ``robustness`` holds the first attack family's curve; results
        that swept several families also carry them all under ``curves``.
        """
        payload = {
            "v_th": self.v_th,
            "time_window": self.time_window,
            "clean_accuracy": self.clean_accuracy,
            "learnable": self.learnable,
            "diverged": self.diverged,
            "robustness": _curve_dict(self.robustness),
            "elapsed_seconds": self.elapsed_seconds,
            "phase_seconds": dict(self.phase_seconds),
            "worker": self.worker,
            "stack_size": self.stack_size,
            "stack_index": self.stack_index,
            "warm_start": dict(self.warm_start) if self.warm_start else None,
        }
        if len(self.curves) > 1:
            payload["curves"] = {
                attack: _curve_dict(curve) for attack, curve in self.curves.items()
            }
        return payload

    @staticmethod
    def from_dict(payload: dict, attacks: tuple[str, ...] = ("pgd",)) -> "CellResult":
        """Inverse of :meth:`as_dict`; ``attacks`` names the families
        swept (the first names a lone ``robustness`` curve)."""
        if "curves" in payload:
            curves = {
                str(attack): _parse_curve(curve)
                for attack, curve in payload["curves"].items()
            }
        else:
            robustness = _parse_curve(payload["robustness"])
            curves = {attacks[0]: robustness} if robustness else {}
        v_th = payload["v_th"]
        return CellResult(
            v_th=None if v_th is None else float(v_th),
            time_window=int(payload["time_window"]),
            clean_accuracy=float(payload["clean_accuracy"]),
            learnable=bool(payload["learnable"]),
            diverged=bool(payload.get("diverged", False)),
            curves=curves,
            elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
            phase_seconds={
                str(k): float(v)
                for k, v in payload.get("phase_seconds", {}).items()
            },
            worker=str(payload.get("worker", "")),
            stack_size=int(payload.get("stack_size", 1)),
            stack_index=int(payload.get("stack_index", 0)),
            warm_start=dict(payload["warm_start"])
            if payload.get("warm_start")
            else None,
        )


def _curve_dict(curve: dict[float, float]) -> dict[str, float]:
    return {repr(eps): value for eps, value in curve.items()}


def _parse_curve(curve: dict) -> dict[float, float]:
    return {float(eps): float(value) for eps, value in curve.items()}


class ExplorationResult:
    """Grid of :class:`CellResult` with heat-map accessors.

    Grids are returned as arrays of shape ``(len(time_windows),
    len(v_thresholds))`` with time windows in *descending* row order,
    matching the paper's figure orientation (high ``T`` at the top).
    """

    def __init__(
        self,
        v_thresholds: tuple[float, ...],
        time_windows: tuple[int, ...],
        cells: list[CellResult],
        metadata: dict | None = None,
    ) -> None:
        self.v_thresholds = tuple(float(v) for v in v_thresholds)
        self.time_windows = tuple(int(t) for t in time_windows)
        self.metadata = dict(metadata or {})
        self._cells: dict[tuple[float, int], CellResult] = {}
        for cell in cells:
            self._cells[(cell.v_th, cell.time_window)] = cell

    # -- access ---------------------------------------------------------------

    def cell(self, v_th: float, time_window: int) -> CellResult:
        """The result for one combination (KeyError if absent)."""
        return self._cells[(float(v_th), int(time_window))]

    @property
    def cells(self) -> list[CellResult]:
        """All recorded cells (row-major over the declared grid order)."""
        ordered = []
        for t in self.time_windows:
            for v in self.v_thresholds:
                if (v, t) in self._cells:
                    ordered.append(self._cells[(v, t)])
        return ordered

    def _grid(self, getter) -> np.ndarray:
        rows = []
        for t in sorted(self.time_windows, reverse=True):
            row = []
            for v in self.v_thresholds:
                cell = self._cells.get((v, t))
                row.append(np.nan if cell is None else getter(cell))
            rows.append(row)
        return np.array(rows, dtype=np.float64)

    def accuracy_grid(self) -> np.ndarray:
        """Clean-accuracy heat map (paper Fig. 6)."""
        return self._grid(lambda c: c.clean_accuracy)

    def robustness_grid(self, epsilon: float) -> np.ndarray:
        """Adversarial-accuracy heat map at ``epsilon`` (paper Figs. 7, 8).

        Non-learnable cells are NaN (the paper leaves them out of the
        security study).
        """
        eps = float(epsilon)

        def getter(cell: CellResult) -> float:
            return cell.robustness.get(eps, np.nan) if cell.learnable else np.nan

        return self._grid(getter)

    def row_labels(self) -> list[str]:
        """Time-window labels, descending (top row first)."""
        return [str(t) for t in sorted(self.time_windows, reverse=True)]

    def column_labels(self) -> list[str]:
        """Threshold labels in declared order."""
        return [f"{v:g}" for v in self.v_thresholds]

    def learnable_fraction(self) -> float:
        """Fraction of evaluated cells clearing the Ath gate."""
        cells = self.cells
        if not cells:
            return 0.0
        return sum(c.learnable for c in cells) / len(cells)

    def best_cell(self, epsilon: float) -> CellResult:
        """Most robust learnable cell at ``epsilon``."""
        eps = float(epsilon)
        candidates = [c for c in self.cells if c.learnable and eps in c.robustness]
        if not candidates:
            raise ValueError(f"no learnable cell evaluated at epsilon={epsilon}")
        return max(candidates, key=lambda c: c.robustness[eps])

    def worst_cell(self, epsilon: float) -> CellResult:
        """Least robust learnable cell at ``epsilon``."""
        eps = float(epsilon)
        candidates = [c for c in self.cells if c.learnable and eps in c.robustness]
        if not candidates:
            raise ValueError(f"no learnable cell evaluated at epsilon={epsilon}")
        return min(candidates, key=lambda c: c.robustness[eps])

    # -- persistence --------------------------------------------------------------

    def to_json(self, path: str | Path | None = None) -> str:
        """Serialise; optionally also write to ``path``."""
        payload = {
            "v_thresholds": list(self.v_thresholds),
            "time_windows": list(self.time_windows),
            "metadata": self.metadata,
            "cells": [c.as_dict() for c in self.cells],
        }
        text = json.dumps(payload, indent=2, sort_keys=True)
        if path is not None:
            path = Path(path)
            path.parent.mkdir(parents=True, exist_ok=True)
            write_atomic(path, text)
        return text

    @staticmethod
    def from_json(source: str | Path) -> "ExplorationResult":
        """Load a result written by :meth:`to_json`.

        ``source`` may be a path or the JSON text itself.
        """
        if isinstance(source, Path) or (
            isinstance(source, str) and not source.lstrip().startswith("{")
        ):
            text = Path(source).read_text()
        else:
            text = source
        payload = json.loads(text)
        cells = [CellResult.from_dict(item) for item in payload["cells"]]
        return ExplorationResult(
            v_thresholds=tuple(payload["v_thresholds"]),
            time_windows=tuple(payload["time_windows"]),
            cells=cells,
            metadata=payload.get("metadata"),
        )
