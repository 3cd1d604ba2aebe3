"""Additional rendering and result-container coverage."""

from __future__ import annotations

import numpy as np

from repro.robustness.report import render_heatmap, render_sparkline
from repro.robustness.results import CellResult, ExplorationResult


class TestSparkline:
    def test_length_matches_input(self):
        assert len(render_sparkline([0.0, 0.5, 1.0])) == 3

    def test_extremes_map_to_extreme_glyphs(self):
        line = render_sparkline([0.0, 1.0])
        assert line[0] == " "
        assert line[1] == "@"

    def test_nan_treated_as_zero(self):
        assert render_sparkline([float("nan")]) == " "

    def test_empty(self):
        assert render_sparkline([]) == ""


class TestHeatmapFormatting:
    def test_no_percent_mode(self):
        text = render_heatmap(
            np.array([[0.5]]), ["8"], ["1"], as_percent=False
        )
        assert " 1" in text  # column label present
        assert "50" not in text.splitlines()[1]

    def test_axis_labels_in_footer(self):
        text = render_heatmap(
            np.zeros((1, 1)), ["8"], ["1"], row_axis="window", col_axis="threshold"
        )
        assert "window" in text
        assert "threshold" in text

    def test_no_title_renders(self):
        text = render_heatmap(np.zeros((1, 1)), ["8"], ["1"])
        assert text.splitlines()[0].strip().startswith("1")


class TestExplorationResultEdgeCases:
    def test_missing_cells_render_as_nan(self):
        # declare a 2x1 grid but provide only one cell
        result = ExplorationResult(
            (0.5, 1.0), (8,), [CellResult(0.5, 8, 0.9, True, robustness={1.0: 0.5})]
        )
        grid = result.accuracy_grid()
        assert grid.shape == (1, 2)
        assert np.isnan(grid[0, 1])

    def test_cells_property_row_major_order(self):
        cells = [
            CellResult(1.0, 8, 0.1, False),
            CellResult(0.5, 16, 0.2, False),
            CellResult(0.5, 8, 0.3, False),
            CellResult(1.0, 16, 0.4, False),
        ]
        result = ExplorationResult((0.5, 1.0), (8, 16), cells)
        ordered = [(c.v_th, c.time_window) for c in result.cells]
        assert ordered == [(0.5, 8), (1.0, 8), (0.5, 16), (1.0, 16)]

    def test_learnable_fraction_empty(self):
        result = ExplorationResult((0.5,), (8,), [])
        assert result.learnable_fraction() == 0.0

    def test_metadata_default_empty_dict(self):
        result = ExplorationResult((0.5,), (8,), [])
        assert result.metadata == {}

    def test_robustness_grid_missing_epsilon_is_nan(self):
        result = ExplorationResult(
            (0.5,), (8,), [CellResult(0.5, 8, 0.9, True, robustness={1.0: 0.5})]
        )
        grid = result.robustness_grid(2.0)
        assert np.isnan(grid[0, 0])
