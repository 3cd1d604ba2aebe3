"""Sweet-spot selection and Pareto front (paper §VI-C design output)."""

from __future__ import annotations

import pytest

from repro.errors import ExplorationError
from repro.robustness import (
    CellResult,
    DesignRecommendation,
    ExplorationResult,
    pareto_front,
    select_sweet_spots,
)


def _result() -> ExplorationResult:
    cells = [
        CellResult(0.5, 8, 0.95, True, curves={"pgd": {1.0: 0.30}}),
        CellResult(0.5, 16, 0.90, True, curves={"pgd": {1.0: 0.60}}),
        CellResult(1.0, 8, 0.40, False),                          # gated out
        CellResult(1.0, 16, 0.97, True, curves={"pgd": {1.0: 0.20}}),
        CellResult(1.5, 16, 0.85, True, curves={"pgd": {1.0: 0.60}}),  # tie on rob.
    ]
    return ExplorationResult((0.5, 1.0, 1.5), (8, 16), cells)


class TestSelectSweetSpots:
    def test_ranked_by_robustness(self):
        picks = select_sweet_spots(_result(), epsilon=1.0, top_k=3)
        assert [p.robustness for p in picks] == [0.60, 0.60, 0.30]

    def test_tie_broken_by_clean_accuracy(self):
        picks = select_sweet_spots(_result(), epsilon=1.0, top_k=2)
        # (0.5, 16) has clean 0.90 > (1.5, 16) at 0.85
        assert (picks[0].v_th, picks[0].time_window) == (0.5, 16)
        assert (picks[1].v_th, picks[1].time_window) == (1.5, 16)

    def test_excludes_unlearnable(self):
        picks = select_sweet_spots(_result(), epsilon=1.0, top_k=10)
        assert all((p.v_th, p.time_window) != (1.0, 8) for p in picks)
        assert len(picks) == 4

    def test_min_accuracy_filter(self):
        picks = select_sweet_spots(_result(), epsilon=1.0, top_k=5, min_accuracy=0.92)
        assert {(p.v_th, p.time_window) for p in picks} == {(0.5, 8), (1.0, 16)}

    def test_min_accuracy_unreachable_raises(self):
        with pytest.raises(ExplorationError):
            select_sweet_spots(_result(), epsilon=1.0, min_accuracy=0.99)

    def test_missing_epsilon_raises(self):
        with pytest.raises(ExplorationError):
            select_sweet_spots(_result(), epsilon=2.0)

    def test_invalid_top_k(self):
        with pytest.raises(ValueError):
            select_sweet_spots(_result(), epsilon=1.0, top_k=0)

    def test_render(self):
        pick = select_sweet_spots(_result(), epsilon=1.0, top_k=1)[0]
        text = pick.render()
        assert "Vth=" in text and "robustness" in text


class TestParetoFront:
    def test_front_members(self):
        front = pareto_front(_result(), epsilon=1.0)
        combos = {(p.v_th, p.time_window) for p in front}
        # (0.5, 16): rob 0.60 / acc 0.90 - on the front
        # (1.0, 16): rob 0.20 / acc 0.97 - best accuracy, on the front
        # (0.5, 8):  rob 0.30 / acc 0.95 - on the front (better acc than 0.5/16)
        # (1.5, 16): rob 0.60 / acc 0.85 - dominated by (0.5, 16)
        assert combos == {(0.5, 16), (1.0, 16), (0.5, 8)}

    def test_sorted_by_robustness_desc(self):
        front = pareto_front(_result(), epsilon=1.0)
        values = [p.robustness for p in front]
        assert values == sorted(values, reverse=True)

    def test_single_cell_grid(self):
        result = ExplorationResult(
            (1.0,), (8,), [CellResult(1.0, 8, 0.9, True, curves={"pgd": {0.5: 0.4}})]
        )
        front = pareto_front(result, epsilon=0.5)
        assert len(front) == 1
        assert isinstance(front[0], DesignRecommendation)

    def test_front_never_empty_when_cells_exist(self):
        assert pareto_front(_result(), epsilon=1.0)
