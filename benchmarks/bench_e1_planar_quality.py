"""E1 -- Theorem 4: planar shortcut quality versus diameter."""

from conftest import run_experiment

from repro.analysis.experiments import experiment_planar_quality


def test_e1_planar_quality(benchmark):
    result = run_experiment(benchmark, experiment_planar_quality, sides=(6, 10, 14, 18))
    # Shape check: quality grows sub-quadratically in the tree diameter
    # (the Theorem 4 target is ~ d log d, i.e. exponent ~ 1).
    assert result["quality_vs_diameter_exponent"] < 2.0
