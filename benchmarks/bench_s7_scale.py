"""S7 -- the CSR-native instance pipeline at million-node scale.

The acceptance gate of the dual-path inversion: a ``side x side`` grid
(default 1000, i.e. one million nodes) is built straight into CSR form by
the scenario registry's native builder and pushed through every layer end
to end -- BFS spanning tree, tree-fragment parts, the shortcut
construction engine (quality sweep + build at the documented congestion
budget), hashed-weight engine MST checked against the scipy oracle, and
the vectorized-runtime BFS + broadcast simulation -- without ever
materialising an ``nx.Graph`` (the adapter's materialisation counter must
stay at zero) and within the wall-clock / peak-RSS budgets below.

Measured on a shared 2-core box (wall clock, single runs):

=========  ===========  ==========  =============
side       n            MST         peak RSS
=========  ===========  ==========  =============
100        10^4         1.8 s       155 MiB
200        4 * 10^4     12.4 s      621 MiB
316        ~10^5        56 s        2.0 GiB
=========  ===========  ==========  =============

The Boruvka MST takes nearly all of it; at side 200 that is 4.0 s of
construction engine, 4.3 s of aggregation-tree builds and 2.3 s of the
per-round aggregation delivery loop (CPU seconds).  Every other leg
together takes about 4 s at side 316.  The million-node default has not
been measured since the construction engine and the aggregation trees
moved to array passes; its budgets below are generous upper bounds, not
measurements.  CI shrinks the instance with ``S7_BENCH_SIDE`` and
passes matching budget overrides instead of skipping the gate.

Each run appends its record to ``benchmarks/BENCH_S7.json`` through the
shared trajectory helper.  Records carry ``schema = "s7-native-scale/1"``
(the field list is documented in ``benchmarks/pytest.ini``); rows from
older layouts -- the file predates this gate -- are dropped before
appending so they cannot poison the trajectory.
"""

import json
import os
from pathlib import Path

from conftest import append_trajectory, run_experiment

from repro.analysis.experiments import experiment_native_scale

SCHEMA = "s7-native-scale/1"

SIDE = int(os.environ.get("S7_BENCH_SIDE", "1000"))
SEED = int(os.environ.get("S7_BENCH_SEED", "7"))
NUM_PARTS = int(os.environ.get("S7_BENCH_PARTS", "64"))
BUDGET = int(os.environ.get("S7_BENCH_BUDGET", "16"))
# Wall-clock / peak-RSS budgets for the default million-node instance; CI
# overrides them together with S7_BENCH_SIDE.
BUDGET_SECONDS = float(os.environ.get("S7_BENCH_BUDGET_SECONDS", "14400"))
BUDGET_RSS_MIB = float(os.environ.get("S7_BENCH_BUDGET_RSS_MIB", "118784"))


def _prune_foreign_rows() -> None:
    """Drop trajectory rows that predate the s7-native-scale schema."""
    path = Path(__file__).parent / "BENCH_S7.json"
    try:
        rows = json.loads(path.read_text())
    except (OSError, ValueError):
        return
    if not isinstance(rows, list):
        path.unlink()
        return
    kept = [row for row in rows if isinstance(row, dict) and row.get("schema") == SCHEMA]
    if kept != rows:
        path.write_text(json.dumps(kept, indent=2, sort_keys=True) + "\n")


def test_s7_native_scale(benchmark):
    _prune_foreign_rows()
    result = run_experiment(
        benchmark,
        experiment_native_scale,
        side=SIDE,
        seed=SEED,
        num_parts=NUM_PARTS,
        shortcut_budget=BUDGET,
    )
    append_trajectory("S7", result)
    assert result["schema"] == SCHEMA
    # The native path really was nx-free end to end.
    assert result["nx_materializations"] == 0
    # Structure: the full grid came out of the CSR generator ...
    assert result["n"] == SIDE * SIDE
    assert result["m"] == 2 * SIDE * (SIDE - 1)
    # ... the BFS trees are corner-rooted grid trees of height 2(side-1) ...
    assert result["tree_height"] == 2 * (SIDE - 1)
    assert result["bfs_tree_height"] == 2 * (SIDE - 1)
    assert result["broadcast_rounds"] >= result["bfs_tree_height"]
    # ... the shortcut construction produced a finite measured quality ...
    assert result["shortcut_quality"] > 0
    # ... and the engine MST agrees with the scipy oracle exactly.
    assert result["mst_weight_matches_oracle"]
    assert result["mst_phases"] >= 1
    # The whole pipeline fits the documented budgets.
    assert result["total_seconds"] <= BUDGET_SECONDS
    assert result["peak_rss_mib"] <= BUDGET_RSS_MIB
