"""Shortcuts for bounded-treewidth graphs (Theorem 5, HIZ16b).

Theorem 5 states that treewidth-``k`` graphs admit tree-restricted shortcuts
with block parameter ``O(k)`` and congestion ``O(k log n)``.  Structurally, a
width-``k`` tree decomposition presents the graph as tiny bags (at most
``k + 1`` vertices) glued along their intersections -- which is precisely a
``(k+1)``-clique-sum decomposition whose bags are trivially shortcut-able.
We therefore reuse the Theorem 7 machinery of
:mod:`repro.shortcuts.clique_sum` with the tree decomposition as the
clique-sum witness and a trivial per-bag shortcutter; the decomposition,
its clique-sum view and the Theorem 7 plan are built once per spanning
tree (:func:`treewidth_plan`).  The resulting bounds
are ``b = O(k)`` and ``c = O(k log^2 n)`` -- a ``log n`` factor above the
theorem's statement, coming from the generic folding argument; the measured
values reported by experiment E2 are compared against both expressions.
"""

from __future__ import annotations

from typing import Sequence

import networkx as nx

from ..graphs.clique_sum import Bag, CliqueSumDecomposition, decomposition_from_tree_decomposition
from ..structure.spanning import RootedTree, bfs_spanning_tree
from ..structure.tree_decomposition import TreeDecomposition, greedy_tree_decomposition
from .baseline import steiner_shortcut
from .clique_sum import CliqueSumPlan, clique_sum_plan
from .shortcut import Shortcut


def _tiny_bag_shortcutter(
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
    graph: nx.Graph,
    tree: RootedTree,
    decomposition: TreeDecomposition | None = None,
    clique_sum_view: CliqueSumDecomposition | None = None,
    fold: bool = True,
) -> CliqueSumPlan:
    """Return the Theorem 7 plan over the decomposition's clique-sum view.

    Without ``clique_sum_view`` the view of ``decomposition`` -- the greedy
    (min-degree) decomposition of ``graph`` when that is omitted too -- is
    built once and memoised on ``tree`` with its plan.
    """
    if clique_sum_view is None:

        def build_view() -> CliqueSumDecomposition:
            witness = decomposition if decomposition is not None else greedy_tree_decomposition(graph)
            return decomposition_from_tree_decomposition(graph, witness.tree, witness.width)

        clique_sum_view = tree.memo("treewidth", (graph, decomposition), build_view)
    return clique_sum_plan(graph, tree, clique_sum_view, fold)


def treewidth_shortcut(
    graph: nx.Graph,
    tree: RootedTree | None = None,
    parts: Sequence[frozenset] = (),
    decomposition: TreeDecomposition | None = None,
    clique_sum_view: CliqueSumDecomposition | None = None,
    fold: bool = True,
) -> Shortcut:
    """Construct a tree-restricted shortcut from a treewidth decomposition.

    Args:
        graph: the network graph.
        tree: spanning tree ``T`` (defaults to BFS).
        parts: the parts to serve.
        decomposition: a :class:`TreeDecomposition`; computed heuristically
            (min-degree) when omitted.
        clique_sum_view: optionally, a pre-built clique-sum view of the
            decomposition (as produced by
            :func:`repro.graphs.clique_sum.decomposition_from_tree_decomposition`).
            Either way the view is built once per tree: see
            :func:`treewidth_plan`.
        fold: whether to fold the decomposition tree (Theorem 7 compression).
    """
    tree = tree if tree is not None else bfs_spanning_tree(graph)
    plan = treewidth_plan(graph, tree, decomposition, clique_sum_view, fold)
    shortcut = plan.shortcut(parts, _tiny_bag_shortcutter)
    shortcut.constructor = "treewidth(theorem5)"
    return shortcut
