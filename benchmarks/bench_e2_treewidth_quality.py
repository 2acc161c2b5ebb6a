"""E2 -- Theorem 5: treewidth-k shortcut quality versus k."""

from conftest import run_experiment

from repro.analysis.experiments import experiment_treewidth_quality


def test_e2_treewidth_quality(benchmark):
    result = run_experiment(benchmark, experiment_treewidth_quality, widths=(2, 3, 4), n=60)
    for row in result["rows"]:
        # Block parameter stays bounded by O(k), independent of n.
        assert row["block"] <= 8 * (row["k"] + 1)
