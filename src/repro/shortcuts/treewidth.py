"""Shortcuts for bounded-treewidth graphs (Theorem 5, HIZ16b).

Theorem 5 states that treewidth-``k`` graphs admit tree-restricted shortcuts
with block parameter ``O(k)`` and congestion ``O(k log n)``.  Structurally, a
width-``k`` tree decomposition presents the graph as tiny bags (at most
``k + 1`` vertices) glued along their intersections -- which is precisely a
``(k+1)``-clique-sum decomposition whose bags are trivially shortcut-able.
We therefore reuse the Theorem 7 machinery of
:mod:`repro.shortcuts.clique_sum` with the tree decomposition as the
clique-sum witness and a per-bag Steiner shortcutter
(:func:`tiny_bag_shortcutter`, which the genus+vortex construction uses
too).  The decomposition and its clique-sum view read only the graph, so
they are built once per graph (:func:`repro.core.graph_memo`) and shared
by every spanning tree; the Theorem 7 plan over them is built once per
tree (:func:`treewidth_plan`).  The resulting bounds
are ``b = O(k)`` and ``c = O(k log^2 n)`` -- a ``log n`` factor above the
theorem's statement, coming from the generic folding argument; the measured
values reported by experiment E2 are compared against both expressions.
"""

from __future__ import annotations

from typing import Sequence

import networkx as nx

from ..core import graph_memo
from ..graphs.clique_sum import Bag, CliqueSumDecomposition, decomposition_from_tree_decomposition
from ..structure.spanning import RootedTree, bfs_spanning_tree
from ..structure.tree_decomposition import TreeDecomposition, greedy_tree_decomposition
from .baseline import steiner_shortcut
from .clique_sum import CliqueSumPlan, clique_sum_plan
from .shortcut import Shortcut


def tiny_bag_shortcutter(
    bag_graph: nx.Graph,
    bag_tree: RootedTree,
    subparts: Sequence[frozenset],
    bag: Bag,
) -> Shortcut:
    """Local shortcutter for width-``k`` bags: each sub-part gets its Steiner tree.

    A bag of a width-``k`` decomposition has at most ``k + 1`` vertices, so
    the Steiner tree of any sub-part inside the repaired bag tree has at most
    ``k`` edges and the per-bag congestion is at most ``k + 1`` -- constants
    the clique-sum composition then carries through.
    """
    return steiner_shortcut(bag_graph, bag_tree, subparts)


def treewidth_plan(
    graph: nx.Graph, tree: RootedTree, decomposition: TreeDecomposition | None = None
) -> CliqueSumPlan:
    """Return the Theorem 7 plan over the decomposition's clique-sum view.

    The clique-sum view of ``decomposition`` -- the greedy (min-degree)
    decomposition of ``graph`` when that is omitted -- is built once per
    graph and memoised on it; the plan over the view is memoised on
    ``tree``.
    """

    def build_view() -> CliqueSumDecomposition:
        witness = decomposition if decomposition is not None else greedy_tree_decomposition(graph)
        return decomposition_from_tree_decomposition(graph, witness.tree, witness.width)

    return clique_sum_plan(graph, tree, graph_memo(graph, "treewidth", (decomposition,), build_view))


def treewidth_shortcut(
    graph: nx.Graph,
    tree: RootedTree | None = None,
    parts: Sequence[frozenset] = (),
    decomposition: TreeDecomposition | None = None,
) -> Shortcut:
    """Construct a tree-restricted shortcut from a treewidth decomposition.

    Args:
        graph: the network graph.
        tree: spanning tree ``T`` (defaults to BFS).
        parts: the parts to serve.
        decomposition: a :class:`TreeDecomposition`; computed heuristically
            (min-degree) when omitted.  Its clique-sum view is built once
            per graph and the Theorem 7 plan once per tree: see
            :func:`treewidth_plan`.
    """
    tree = tree if tree is not None else bfs_spanning_tree(graph)
    shortcut = treewidth_plan(graph, tree, decomposition).shortcut(parts, tiny_bag_shortcutter)
    shortcut.constructor = "treewidth(theorem5)"
    return shortcut
