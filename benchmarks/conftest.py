"""Shared infrastructure for the reproduction benchmarks.

Every benchmark regenerates one evaluation artifact of the paper (a
figure) or one ablation, at the ``smoke`` profile scale (profiles and
their runtimes: docs/reproducing.md; the code they run:
docs/architecture.md).  Because pytest captures stdout, each benchmark
*writes* its rendered table and raw JSON under ``benchmarks/results/`` —
inspect those files for the reproduced numbers.

Figures 6, 7 and 8 come from a single run of Algorithm 1; the grid
exploration is executed once per session (timed inside the Figure-6
benchmark) and shared by the other two.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def record(name: str, text: str, payload: dict | str | None = None) -> None:
    """Persist a rendered table (and optional JSON payload) for ``name``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    if payload is not None:
        if isinstance(payload, str):
            (RESULTS_DIR / f"{name}.json").write_text(payload)
        else:
            (RESULTS_DIR / f"{name}.json").write_text(json.dumps(payload, indent=2, sort_keys=True))


@pytest.fixture(scope="session")
def profile_name() -> str:
    """Scale used by all benchmarks (override by editing here)."""
    return "smoke"
