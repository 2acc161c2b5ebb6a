"""Tier-1 scale smoke: the big-n native path stays exercised and nx-free.

A ~10^5-node grid (316 x 316) is built straight into CSR form, spanned,
shortcut, run through the engine MST and the vectorized-runtime BFS --
and the ``nx.Graph`` adapter's materialisation counter must not move.
This keeps the million-node pipeline of ``benchmarks/bench_s7_scale.py``
covered by the plain test suite without its wall-clock/RSS budgets.

The MST leg stays affordable at this size by weighting the grid along a
serpentine Hamiltonian path (strictly increasing path weights, uniformly
heavy chords): every node's lightest incident edge is then its path edge
toward the start, so the min-edge graph of Boruvka's first phase is the
whole path and the algorithm converges in a single phase -- the engine
still builds a phase shortcut over ~10^5 singleton fragments and runs the
convergecast machinery, but the simulated message volume stays O(n)
instead of O(n log n).  The expected MST (the path itself, total weight
n(n-1)/2) is also checked against the scipy oracle.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.mst import boruvka_mst, native_mst_weight
from repro.congest.primitives import distributed_bfs_tree
from repro.congest.runtime import RuntimeSimulator
from repro.core import CoreGraph, GraphView, nx_materializations
from repro.graphs.native import native_grid, string_argsort
from repro.structure.spanning import bfs_spanning_tree

SIDE = 316  # 316^2 = 99 856 nodes


def _serpentine_weights(view: GraphView, side: int) -> GraphView:
    """Reweight a ``side x side`` native grid along a serpentine path."""
    core = view.core
    labels = np.asarray(view.nodes, dtype=np.int64)
    indptr, indices = core.indptr, core.indices
    u_lab = np.repeat(labels, np.diff(indptr))
    v_lab = labels[indices]
    # Invert the generator's labelling (label = srank(r)*side + srank(c)):
    # string_argsort maps a string rank back to the coordinate.
    unrank = string_argsort(side)

    def positions(lab: np.ndarray) -> np.ndarray:
        r, c = unrank[lab // side], unrank[lab % side]
        return r * side + np.where(r % 2 == 0, c, side - 1 - c)

    p_u, p_v = positions(u_lab), positions(v_lab)
    on_path = np.abs(p_u - p_v) == 1
    weights = np.where(on_path, np.minimum(p_u, p_v) + 1.0, 1e7)
    weighted = CoreGraph.from_csr(indptr, indices, weights)
    return GraphView.from_core(weighted, nodes=view.nodes, has_weights=True)


def test_scale_smoke_engine_mst_and_runtime_bfs_stay_nx_free():
    before = nx_materializations()
    n = SIDE * SIDE

    view = native_grid(SIDE, SIDE)
    assert view.core.num_nodes == n
    assert view.core.num_edges == 2 * SIDE * (SIDE - 1)

    tree = bfs_spanning_tree(view)
    assert tree.height == 2 * (SIDE - 1)

    weighted = _serpentine_weights(view, SIDE)
    mst = boruvka_mst(weighted, tree=tree)
    # The MST is the serpentine path: weights 1 .. n-1 (exact in float64).
    assert mst.weight == n * (n - 1) / 2
    assert mst.weight == native_mst_weight(weighted)
    assert mst.phases == 1
    assert mst.rounds > 0

    root = view.nodes[0]
    bfs_tree, stats = distributed_bfs_tree(view, root, simulator_cls=RuntimeSimulator)
    assert bfs_tree.height == 2 * (SIDE - 1)
    assert stats.rounds >= 2 * (SIDE - 1)

    # The whole pipeline never materialised an nx.Graph.
    assert nx_materializations() == before
