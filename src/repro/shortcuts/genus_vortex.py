"""Shortcuts for Genus+Vortex graphs (Theorem 9 / Corollary 3, via Lemma 2/3).

The paper's warm-up (Section 2.3.1) handles ``(0, g, k, l)``-almost-embeddable
graphs -- bounded genus plus vortices, no apices -- by showing they have
treewidth ``O((g + 1) k l D)`` (Lemma 3) and then invoking the
treewidth-based shortcut construction (Theorem 5).  The constructor here
replays that chain: build the Lemma 2/3 tree decomposition (star-replace the
vortices, decompose, re-insert the vortex nodes), take the treewidth
construction's plan over it (:func:`repro.shortcuts.treewidth.treewidth_plan`)
and serve the parts with its Steiner bag shortcutter.  The decomposition
reads only the witness, so it is built once per witness and memoised on
its graph (:func:`repro.core.graph_memo`); the plan is built once per
spanning tree (:func:`genus_vortex_plan`), not once per Boruvka phase.
"""

from __future__ import annotations

from typing import Sequence

from ..core import graph_memo
from ..errors import InvalidGraphError
from ..graphs.apex_vortex import AlmostEmbeddableGraph
from ..structure.spanning import RootedTree, bfs_spanning_tree
from ..structure.tree_decomposition import (
    TreeDecomposition,
    genus_vortex_decomposition,
    greedy_tree_decomposition,
)
from .clique_sum import CliqueSumPlan
from .shortcut import Shortcut
from .treewidth import tiny_bag_shortcutter, treewidth_plan


def genus_vortex_plan(almost_embeddable: AlmostEmbeddableGraph, tree: RootedTree) -> CliqueSumPlan:
    """Return the Theorem 7 plan over the Lemma 2/3 decomposition, memoised on ``tree``.

    The decomposition (greedy when the witness has no vortices) is built
    once per witness and memoised on the witness graph;
    :func:`treewidth_plan` adds its clique-sum view (on the graph too) and
    the plan.
    """
    graph = almost_embeddable.graph

    def build_decomposition() -> TreeDecomposition:
        if almost_embeddable.vortices:
            return genus_vortex_decomposition(almost_embeddable)
        return greedy_tree_decomposition(graph)

    decomposition = graph_memo(graph, "genus_vortex", (almost_embeddable,), build_decomposition)
    return treewidth_plan(graph, tree, decomposition)


def genus_vortex_shortcut(
    almost_embeddable: AlmostEmbeddableGraph,
    tree: RootedTree | None = None,
    parts: Sequence[frozenset] = (),
) -> Shortcut:
    """Construct shortcuts for the apex-free part of an almost-embeddable graph.

    Args:
        almost_embeddable: the construction witness; must have **no apices**
            (apices are the business of Lemma 9/10 -- use
            :func:`repro.shortcuts.apex.apex_shortcut` for graphs that have
            them).
        tree: spanning tree of the apex-free graph (defaults to BFS).
        parts: the parts to serve.
    """
    if almost_embeddable.apices:
        raise InvalidGraphError(
            "genus_vortex_shortcut handles only the (0, g, k, l) case; this witness "
            "has apices -- use apex_shortcut instead"
        )
    tree = tree if tree is not None else bfs_spanning_tree(almost_embeddable.graph)
    shortcut = genus_vortex_plan(almost_embeddable, tree).shortcut(parts, tiny_bag_shortcutter)
    shortcut.constructor = "genus_vortex(theorem9)"
    return shortcut


def genus_vortex_quality_bounds(
    almost_embeddable: AlmostEmbeddableGraph, diameter: int, num_nodes: int
) -> dict[str, float]:
    """Return the Theorem 9 asymptotic targets for experiment annotation."""
    import math

    _q, g, k, l = almost_embeddable.parameters
    block = (g + 1) * max(1, k) * max(1, l) * diameter
    congestion = block * math.log2(num_nodes + 2)
    return {"block": block, "congestion": congestion, "quality": block * diameter + congestion}
