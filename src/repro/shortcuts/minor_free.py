"""Shortcuts for excluded-minor graphs (Theorem 6): the full pipeline.

Theorem 6 combines the two halves of the proof: by the Graph Structure
Theorem the input is (contained in) a k-clique-sum of k-almost-embeddable
bags; Theorem 8 provides shortcuts inside every bag, and Theorem 7 composes
them across the clique-sum.  The :func:`minor_free_shortcut` constructor
replays exactly that composition on the construction witness recorded by
:func:`repro.graphs.minor_free.sample_lk_graph`:

* almost-embeddable bags are served by the apex construction of Theorem 8
  (which internally handles the genus/vortex part through cells);
* planar / treewidth / generic bags are served by the oblivious constructor
  (their structural theorems guarantee good shortcuts exist, and the
  oblivious search finds ones of comparable measured quality);
* the per-bag shortcuts are stitched together by the clique-sum construction
  with heavy-light folding.

The witness structure of the clique-sum plan -- the folded decomposition
tree and every bag graph ``B^0_h`` -- is memoised on the graph, so every
spanning tree (an MST run builds its own) shares it.  The plan's tree-edge
grants and repaired bag trees are memoised on the spanning tree, and so are
the apex plans of the almost-embeddable bags, on the plan's cached bag
trees, since their cells are the components of a bag tree minus the
apices.  A Boruvka phase pays only for its parts.

The expected measured shape, which experiment E5 reports, is block
``O(d_T)`` and congestion ``O(d_T log n + log^2 n)``, i.e. quality
``~ d_T^2`` up to logarithmic factors.
"""

from __future__ import annotations

import math
from typing import Sequence

import networkx as nx

from ..graphs.apex_vortex import AlmostEmbeddableGraph
from ..graphs.clique_sum import Bag
from ..graphs.minor_free import MinorFreeGraph
from ..structure.spanning import RootedTree, bfs_spanning_tree
from .apex import apex_shortcut
from .clique_sum import clique_sum_plan
from .congestion_capped import oblivious_shortcut
from .shortcut import Shortcut


def _bag_shortcutter(
    bag_graph: nx.Graph,
    bag_tree: RootedTree,
    subparts: Sequence[frozenset],
    bag: Bag,
) -> Shortcut:
    """Dispatch the per-bag construction on the bag's family tag."""
    witness = bag.witness
    if bag.kind == "almost_embeddable" and isinstance(witness, AlmostEmbeddableGraph):
        apices = [apex for apex in witness.apices if apex in bag.nodes]
        vortex_groups = []
        for vortex in witness.vortices:
            group = [node for node in vortex.all_nodes() if node in bag.nodes]
            if group:
                vortex_groups.append(group)
        return apex_shortcut(
            bag_graph,
            bag_tree,
            subparts,
            apices=apices,
            vortex_node_groups=vortex_groups,
        )
    # Planar, treewidth and generic bags: their family theorems (4 and 5)
    # guarantee good shortcuts exist; the oblivious search constructs them
    # without needing the (label-translated) witness.
    return oblivious_shortcut(bag_graph, bag_tree, subparts)


def minor_free_shortcut(
    minor_free: MinorFreeGraph,
    tree: RootedTree | None = None,
    parts: Sequence[frozenset] = (),
) -> Shortcut:
    """Construct a tree-restricted shortcut for a sampled L_k graph (Theorem 6).

    Args:
        minor_free: the sampled graph together with its clique-sum witness.
        tree: spanning tree of the composed graph (defaults to BFS).
        parts: the parts to serve.

    The decomposition tree is heavy-light folded (Theorem 7).
    """
    graph = minor_free.graph
    tree = tree if tree is not None else bfs_spanning_tree(graph)
    plan = clique_sum_plan(graph, tree, minor_free.decomposition)
    shortcut = plan.shortcut(parts, _bag_shortcutter)
    shortcut.constructor = "minor_free(theorem6)"
    return shortcut


def minor_free_quality_bounds(tree_diameter: int, num_nodes: int) -> dict[str, float]:
    """Return the Theorem 6 asymptotic targets for experiment annotation.

    block = O(d), congestion = O(d log n + log^2 n), quality = O~(d^2).
    """
    log_n = math.log2(num_nodes + 2)
    return {
        "block": float(tree_diameter),
        "congestion": tree_diameter * log_n + log_n**2,
        "quality": tree_diameter * (tree_diameter + log_n) + log_n**2,
    }
