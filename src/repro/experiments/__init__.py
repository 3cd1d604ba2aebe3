"""Per-figure reproduction harness.

Every data-bearing figure of the paper has a runner here; the benchmarks
under ``benchmarks/`` and the CLI (``python -m repro.experiments``) are
thin wrappers around these functions.

===========  ==========================================  ==================
Paper        What it shows                               Runner
===========  ==========================================  ==================
Figure 1     CNN vs SNN accuracy under PGD (motivation)  :func:`run_fig1`
Figure 6     learnability heat map over (Vth, T)         :func:`run_grid_exploration`
Figure 7     robustness heat map, PGD ε = 1              (same exploration)
Figure 8     robustness heat map, PGD ε = 1.5            (same exploration)
Figure 9     sweet-spot robustness curves vs CNN         :func:`run_fig9`
===========  ==========================================  ==================

Figures 6-8 come from a *single* run of Algorithm 1 (the security study
evaluates every ε on the models trained once), exactly as in the paper.
"""

from repro.experiments.ablations import AblationResult, run_ablation_suite
from repro.experiments.fig1_motivation import Fig1Result, run_fig1
from repro.experiments.fig678_grid import (
    fig6_table,
    fig7_table,
    fig8_table,
    run_grid_exploration,
)
from repro.experiments.fig9_sweetspots import Fig9Result, run_fig9
from repro.experiments.profiles import ExperimentProfile, available_profiles, get_profile
from repro.experiments.sweeps import ABLATION_FACTORS
from repro.experiments.workloads import load_profile_data

__all__ = [
    "ABLATION_FACTORS",
    "AblationResult",
    "ExperimentProfile",
    "Fig1Result",
    "Fig9Result",
    "available_profiles",
    "fig6_table",
    "fig7_table",
    "fig8_table",
    "get_profile",
    "load_profile_data",
    "run_ablation_suite",
    "run_fig1",
    "run_fig9",
    "run_grid_exploration",
]
