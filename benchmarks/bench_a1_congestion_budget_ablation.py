"""A1 -- ablation: the congestion/block trade-off of the oblivious constructor.

The congestion budget of the structure-oblivious constructor (the knob the
HIZ16a doubling search tunes) is the design choice worth ablating: too small a budget fragments every part into many blocks, too
large a budget lets hot tree edges serialise many parts.  This benchmark
sweeps the budget on a planar+apex instance and prints the measured
block / congestion / quality curve, confirming that the doubling search's
chosen operating point sits at (or near) the minimum of the curve.
"""

import json

from repro.graphs.minor_free import planar_plus_apex
from repro.shortcuts.congestion_capped import congestion_capped_shortcut, oblivious_shortcut
from repro.shortcuts.parts import path_parts
from repro.structure.spanning import bfs_spanning_tree


def _sweep(grid_side: int = 10, seed: int = 5) -> dict:
    witness = planar_plus_apex(grid_side, grid_side, apices=1, seed=seed)
    graph = witness.graph
    tree = bfs_spanning_tree(graph)
    parts = path_parts(witness.non_apex_graph())
    rows = []
    for budget in (1, 2, 4, 8, 16, len(parts)):
        shortcut = congestion_capped_shortcut(graph, tree, parts, congestion_budget=budget)
        measure = shortcut.measure()
        rows.append(
            {
                "budget": budget,
                "block": measure.block,
                "congestion": measure.congestion,
                "quality": measure.quality,
            }
        )
    searched = oblivious_shortcut(graph, tree, parts).measure()
    return {
        "experiment": "A1-congestion-budget-ablation",
        "rows": rows,
        "doubling_search_quality": searched.quality,
        "best_fixed_budget_quality": min(row["quality"] for row in rows),
    }


def test_a1_congestion_budget_ablation(benchmark):
    result = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    print()
    print(json.dumps(result, indent=2))
    # The doubling search must match the best fixed budget it could have tried.
    assert result["doubling_search_quality"] <= result["best_fixed_budget_quality"]
