"""Experiment harness: quality sweeps, growth-rate fits and experiment records.

Because the paper is a theory paper, its "tables and figures" are asymptotic
claims; each experiment (E1-E10 and F1, listed in the "Experiments"
section of ``docs/paper_map.md``) measures the claimed quantity over a
parameter sweep and reports it next to the paper's bound.
The benchmark files under ``benchmarks/`` are thin wrappers that call the
functions here and print the resulting rows.
"""

from .quality import QualityRow, fit_growth_exponent, quality_sweep, summarize_rows
from .experiments import (
    experiment_apex,
    experiment_cells_and_gates,
    experiment_clique_sum,
    experiment_constructions,
    experiment_fault_degradation,
    experiment_genus_vortex_treewidth,
    experiment_mincut,
    experiment_minor_free_quality,
    experiment_mst_rounds,
    experiment_planar_quality,
    experiment_robustness,
    experiment_scenario_matrix,
    experiment_treewidth_quality,
)

__all__ = [
    "QualityRow",
    "experiment_apex",
    "experiment_cells_and_gates",
    "experiment_clique_sum",
    "experiment_constructions",
    "experiment_fault_degradation",
    "experiment_genus_vortex_treewidth",
    "experiment_mincut",
    "experiment_minor_free_quality",
    "experiment_mst_rounds",
    "experiment_planar_quality",
    "experiment_robustness",
    "experiment_scenario_matrix",
    "experiment_treewidth_quality",
    "fit_growth_exponent",
    "quality_sweep",
    "summarize_rows",
]
