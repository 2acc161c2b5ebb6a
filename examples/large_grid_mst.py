#!/usr/bin/env python3
"""Large-grid MST: the array-native algorithm layer at n ~ 4000.

The seed implementation of Boruvka-over-shortcuts rebuilt label-keyed
fragment families every phase and re-derived every structure per budget; at
a few thousand nodes that dominated the run.  This script exercises the
array-native fast path end to end on a 63x63 grid (n = 3969):

1. one shared :class:`~repro.core.GraphView` conversion (CSR arrays);
2. the distributed Boruvka MST (Corollary 1) with per-phase oblivious
   shortcuts built by the construction engine on flat fragment part sets --
   MWOE search is one scan over the CSR adjacency that breaks weight ties
   in canonical index-pair edge order, and the per-phase CONGEST
   aggregation runs on indexed value arrays;
3. the same result cross-checked against the centralised networkx MST.

Run it with ``PYTHONPATH=src python examples/large_grid_mst.py``.
"""

import time

from repro import boruvka_mst, reference_mst_weight, view_of
from repro.graphs.planar import grid_graph
from repro.graphs.weights import assign_random_weights
from repro.structure.spanning import bfs_spanning_tree

SIDE = 63  # n = 3969


def main() -> None:
    graph = grid_graph(SIDE, SIDE)
    assign_random_weights(graph, seed=2018, integer=True)
    print(f"grid: n={graph.number_of_nodes()}, m={graph.number_of_edges()}")

    started = time.perf_counter()
    view = view_of(graph)  # one label-to-index conversion for the whole run
    tree = bfs_spanning_tree(view)
    result = boruvka_mst(graph, tree=tree)
    elapsed = time.perf_counter() - started

    reference = reference_mst_weight(graph)
    assert abs(result.weight - reference) < 1e-6, "distributed != centralised MST"
    print(
        f"distributed MST: weight={result.weight:.0f} (centralised reference "
        f"{reference:.0f}), phases={result.phases}, CONGEST rounds={result.rounds}"
    )
    print(f"per-phase qualities: {result.phase_qualities}")
    print(f"array-native wall clock: {elapsed:.2f}s (view + tree + {result.phases} phases)")


if __name__ == "__main__":
    main()
