"""Parts (Definition 9) and workload generators for shortcut experiments.

A *part* is a connected vertex set; the parts of a family are pairwise
disjoint.  In the algorithms that consume shortcuts, parts arise as the
fragments of Boruvka's MST algorithm or as the components of a partially
computed structure; for the shortcut experiments we also need *adversarial*
part families -- long skinny parts that stretch across the whole graph --
because those maximise the gap between the part diameter and the graph
diameter that shortcuts exist to close (the wheel-graph discussion of
Section 1.3.3).

:func:`validate_parts` is :func:`repro.core.validate_parts`, the one
Definition 9 check (cells use it too); it is importable from here, where
the part generators that call it live.
"""

from __future__ import annotations

import random
from typing import Hashable, Sequence

import networkx as nx
import numpy as np

from ..core import GraphView, validate_parts, view_of
from ..core.fragments import EdgeRanks, fragments
from ..errors import InvalidPartitionError
from ..structure.spanning import RootedTree, bfs_spanning_tree
from ..utils import canonical_edge, ensure_rng


def random_connected_parts(
    graph: nx.Graph,
    num_parts: int,
    part_size: int,
    seed: int | random.Random | None = None,
) -> list[frozenset]:
    """Grow ``num_parts`` disjoint connected parts of roughly ``part_size`` vertices.

    Each part is grown by a randomised BFS from an unused seed vertex and
    stops when it reaches ``part_size`` vertices or runs out of unused
    neighbours.  Vertices not absorbed by any part are simply not in any part
    (Definition 9 does not require the parts to cover the graph).
    """
    if num_parts < 1 or part_size < 1:
        raise InvalidPartitionError("num_parts and part_size must be positive")
    rng = ensure_rng(seed)
    unused = set(graph.nodes())
    parts: list[frozenset] = []
    candidates = sorted(graph.nodes(), key=repr)
    rng.shuffle(candidates)
    for start in candidates:
        if len(parts) >= num_parts:
            break
        if start not in unused:
            continue
        part = {start}
        unused.discard(start)
        frontier = [start]
        while frontier and len(part) < part_size:
            vertex = frontier.pop(rng.randrange(len(frontier)))
            for neighbour in sorted(graph.neighbors(vertex), key=repr):
                if neighbour in unused and len(part) < part_size:
                    part.add(neighbour)
                    unused.discard(neighbour)
                    frontier.append(neighbour)
        parts.append(frozenset(part))
    validate_parts(graph, parts)
    return parts


def tree_fragment_parts(
    graph: nx.Graph | GraphView,
    tree: RootedTree | None = None,
    num_parts: int = 8,
    seed: int | random.Random | None = None,
) -> list[frozenset]:
    """Split a spanning tree into ``num_parts`` subtrees and use them as parts.

    Removing ``num_parts - 1`` random edges from a spanning tree leaves
    ``num_parts`` subtrees; each is connected in the graph (it is connected
    already in the tree) and together they cover every vertex.  This is the
    canonical "fragments of a partially built spanning forest" workload.

    The cut edges are drawn from the sorted canonical tree edge list, the
    forest components come from a union-find over the surviving parent
    edges, and the parts are listed by their repr-smallest vertex.  No
    ``nx.Graph`` is built, so native views split at any scale.
    """
    rng = ensure_rng(seed)
    tree = tree if tree is not None else bfs_spanning_tree(graph)
    edges = sorted(tree.edges())
    if num_parts < 1:
        raise InvalidPartitionError("num_parts must be positive")
    cuts = min(num_parts - 1, len(edges))
    removed = rng.sample(edges, cuts) if cuts else []
    parts = _forest_components(tree, removed)
    parts.sort(key=lambda part: min(map(repr, part)))
    validate_parts(graph, parts)
    return parts


def _forest_components(tree: RootedTree, removed: Sequence[tuple]) -> list[frozenset]:
    """Components of the tree minus ``removed`` edges, via union-find."""
    cut = set(removed)
    leader: dict[Hashable, Hashable] = {node: node for node in tree.parent}

    def find(node: Hashable) -> Hashable:
        root = node
        while leader[root] != root:
            root = leader[root]
        while leader[node] != root:
            leader[node], node = root, leader[node]
        return root

    for node, par in tree.parent.items():
        if par is None or canonical_edge(node, par) in cut:
            continue
        ru, rv = find(node), find(par)
        if ru != rv:
            leader[ru] = rv
    groups: dict[Hashable, set[Hashable]] = {}
    for node in tree.parent:
        groups.setdefault(find(node), set()).add(node)
    return [frozenset(group) for group in groups.values()]


def path_parts(
    graph: nx.Graph | GraphView,
    tree: RootedTree | None = None,
) -> list[frozenset]:
    """Decompose a spanning tree into vertex-disjoint paths and use them as parts.

    The decomposition is the heavy-path decomposition of the spanning tree:
    every part is a root-to-leaf-ish path, i.e. a maximally long and skinny
    connected set.  These are the adversarial parts for which the naive
    "aggregate inside your own part" strategy costs ``Theta(part length)``
    rounds, while good shortcuts cost ``~ quality`` rounds.
    """
    tree = tree if tree is not None else bfs_spanning_tree(graph)
    from ..structure.heavy_light import heavy_light_chains

    chains = heavy_light_chains(tree.as_graph(), tree.root)
    parts = [frozenset(chain) for chain in chains]
    validate_parts(graph, parts)
    return parts


def boruvka_parts(graph: nx.Graph | GraphView, phases: int = 1) -> list[frozenset]:
    """Return the MST fragments after a number of Boruvka phases.

    Starting from singleton fragments, each phase merges every fragment with
    the fragment across its minimum-weight outgoing edge (using the edge
    ``weight`` attribute, defaulting to 1, with ties broken in canonical
    edge order).  After ``phases`` rounds the fragments are exactly the parts
    the distributed MST algorithm would hand to the shortcut framework next,
    in the same order (by minimum vertex index).
    """
    if phases < 0:
        raise InvalidPartitionError("phases must be non-negative")
    node_of = view_of(graph).nodes
    ranks = EdgeRanks(graph)
    owner = np.arange(len(node_of))
    members, offsets = fragments(owner)
    for _ in range(phases):
        # Each fragment's MWOE is the minimum over its members' lightest edges.
        mwoe = np.minimum.reduceat(ranks.lightest(owner)[members], offsets[:-1])
        owner = ranks.merge(owner, mwoe)
        members, offsets = fragments(owner)
    members, offsets = members.tolist(), offsets.tolist()
    parts = [
        frozenset(node_of[member] for member in members[start:end])
        for start, end in zip(offsets, offsets[1:])
    ]
    validate_parts(graph, parts)
    return parts


def singleton_parts(graph: nx.Graph | GraphView) -> list[frozenset]:
    """Return one singleton part per vertex (the phase-0 Boruvka fragments).

    The parts are listed in the view's canonical (repr) vertex order.
    """
    return [frozenset({v}) for v in view_of(graph).nodes]
