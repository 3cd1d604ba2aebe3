"""The paper's core contribution: structural-parameter robustness exploration.

Implements Algorithm 1 end to end:

1. For every ``(Vth, T)`` combination in a grid, train an SNN in the
   spiking domain (:mod:`repro.robustness.learnability`).
2. Gate on the learnability threshold ``Ath`` (70 % in the paper).
3. For every noise budget ``ε``, attack the surviving models with
   white-box PGD and record
   ``Robustness(ε) = 1 − #successes / |D|``
   (:mod:`repro.robustness.security`).

Results are collected into serialisable grids
(:mod:`repro.robustness.results`) and rendered as the paper's heat maps
and robustness curves (:mod:`repro.robustness.report`).  The grid runs
as engine cell tasks (:mod:`repro.engine.job`); the Figs. 6-8 driver is
:func:`repro.experiments.fig678_grid.run_grid_exploration`.
"""

from repro.robustness.config import ExplorationConfig, make_attack
from repro.robustness.learnability import LearnabilityResult, train_and_score
from repro.robustness.report import render_curve_table, render_heatmap
from repro.robustness.results import CellResult, ExplorationResult
from repro.robustness.security import RobustnessCurve, robustness_curve
from repro.robustness.selection import (
    DesignRecommendation,
    pareto_front,
    select_sweet_spots,
)

__all__ = [
    "CellResult",
    "DesignRecommendation",
    "ExplorationConfig",
    "ExplorationResult",
    "LearnabilityResult",
    "RobustnessCurve",
    "make_attack",
    "pareto_front",
    "render_curve_table",
    "render_heatmap",
    "robustness_curve",
    "select_sweet_spots",
    "train_and_score",
]
