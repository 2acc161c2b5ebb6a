"""E8 -- robustness: structural perturbation and simulated fault injection.

Two facets of the same claim (the constructions and primitives degrade
gracefully, they do not fall off a cliff):

* **structural** -- a perturbed planar graph loses planarity but keeps a
  valid, reasonable-quality apex/minor-free shortcut;
* **operational** -- the simulated MST phases keep producing the correct
  tree under seeded message drops, delays and node crashes, at a measured
  message/round overhead, with rate-0 pinned byte-identical to fail-free
  and the two simulator modes pinned equal under faults.

The degradation sweep appends its record to ``benchmarks/BENCH_E8.json``
so the overhead trajectory is visible across commits.
"""

import os

from conftest import append_trajectory, run_experiment

from repro.analysis.experiments import experiment_fault_degradation, experiment_robustness


def test_e8_robustness(benchmark):
    result = run_experiment(benchmark, experiment_robustness, grid_side=9, extra_edges=4)
    # The perturbed graph is (typically) not planar, yet the apex/minor-free
    # construction still produces a valid, reasonable-quality shortcut.
    assert result["apex_quality"]["quality"] > 0


def test_e8_fault_degradation(benchmark):
    # E8_BENCH_SIDE / E8_BENCH_KINDS let the CI smoke job shrink the sweep
    # (smaller grid, fewer fault models) without touching the contracts.
    side = int(os.environ.get("E8_BENCH_SIDE", "7"))
    kinds = tuple(os.environ.get("E8_BENCH_KINDS", "drop,delay,crash").split(","))
    result = run_experiment(
        benchmark,
        experiment_fault_degradation,
        side=side,
        rates=(0.0, 0.01, 0.05),
        kinds=kinds,
    )
    # Contracts, not just measurements: null models reproduce fail-free
    # records exactly, and faulty records agree across both modes.
    assert result["rate_zero_matches_fail_free"]
    assert result["modes_equal"]
    # Every cell still computes the reference MST weight (the protocol
    # degrades in cost, not in correctness).
    assert all(row["weight_matches_reference"] for row in result["rows"])
    # Overhead is monotone in spirit: faults never make the run cheaper.
    assert all(row["message_overhead"] >= 1.0 for row in result["rows"])
    append_trajectory("E8", result)
