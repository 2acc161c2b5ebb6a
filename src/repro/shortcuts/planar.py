"""Planar shortcut construction (Theorem 4, Ghaffari--Haeupler SODA'16).

Theorem 4 states that planar graphs admit tree-restricted shortcuts with
block parameter ``O(log d_T)`` and congestion ``O(d_T log d_T)``.  The
original GH16 construction works on a planar embedding; HIZ16a later showed
that an embedding-oblivious construction achieves comparable quality on any
graph that admits good shortcuts.  Following the latter (and the paper's own
emphasis that the algorithm never inspects the structure), our planar
constructor is the oblivious congestion-capped search *seeded with the
Theorem 4 target budgets*, plus a planarity check so that misuse is caught
early.  Experiment E1 compares its measured block/congestion against the
``O(log d)`` / ``O(d log d)`` targets.

The planarity verdict is the construction's only part-independent work, and
it reads only the graph: :func:`planarity` memoises it on the graph
(:func:`repro.core.graph_memo`), so every spanning tree of one graph -- an
MST run builds its own -- and the scenario registry's applicability probe
share one check.
"""

from __future__ import annotations

import math
from typing import Sequence

import networkx as nx

from ..core import graph_memo
from ..errors import InvalidGraphError
from ..graphs.planar import is_planar
from ..structure.spanning import RootedTree, bfs_spanning_tree
from .congestion_capped import oblivious_shortcut
from .shortcut import Shortcut


def planarity(graph: nx.Graph) -> bool:
    """Return :func:`repro.graphs.planar.is_planar` of ``graph``, memoised on the graph."""
    return graph_memo(graph, "planar", (), lambda: is_planar(graph))


def planar_shortcut(
    graph: nx.Graph,
    tree: RootedTree | None = None,
    parts: Sequence[frozenset] = (),
) -> Shortcut:
    """Construct a tree-restricted shortcut for a planar graph.

    Args:
        graph: the (planar) network graph.
        tree: the spanning tree ``T``; defaults to a BFS tree.
        parts: the parts to serve.

    Raises:
        InvalidGraphError: the graph is not planar, so the planar quality
            targets are never silently applied to the wrong family.

    The searched congestion budgets are geared to the Theorem 4 shape: the
    construction first tries ``Theta(log d)`` and ``Theta(d log d)`` and the
    powers of two in between, then keeps the best measured quality.

    The planarity check runs once per graph (:func:`planarity`).
    """
    tree = tree if tree is not None else bfs_spanning_tree(graph)
    if not planarity(graph):
        raise InvalidGraphError(
            "planar_shortcut called on a non-planar graph; use apex_shortcut or "
            "minor_free_shortcut for perturbed/augmented planar networks"
        )
    d = max(1, tree.diameter())
    log_d = max(1, math.ceil(math.log2(d + 1)))
    budgets = sorted(
        {
            1,
            log_d,
            2 * log_d,
            d,
            d * log_d,
            *(2**i for i in range(0, max(1, int(math.log2(max(2, len(parts))) + 1)))),
        }
    )
    shortcut = oblivious_shortcut(graph, tree, parts, budgets=budgets)
    shortcut.constructor = "planar(theorem4)"
    return shortcut


def planar_quality_bounds(tree_diameter: int) -> dict[str, float]:
    """Return the Theorem 4 asymptotic targets for annotation in experiments."""
    log_d = math.log2(tree_diameter + 2)
    return {
        "block": log_d,
        "congestion": tree_diameter * log_d,
        "quality": tree_diameter * log_d,
    }
