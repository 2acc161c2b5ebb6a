"""Treewidth decompositions, including the diameter-based bound of Lemma 2/3.

Two kinds of decompositions are needed by the reproduction:

* generic heuristic decompositions (min-degree / min-fill-in) used to
  *measure* treewidth upper bounds in experiment E9 and to drive the
  treewidth-based shortcut constructor (Theorem 5) on graphs for which no
  witness decomposition was recorded at generation time;
* the Lemma 2/3 construction for Genus+Vortex graphs: decompose the graph
  with the vortices replaced by star vertices, then re-insert every internal
  vortex node into all bags that meet its arc.  The width of the result is
  ``O((g + 1) k l D)``, which is what Theorem 9 / Lemma 10 consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

import networkx as nx
from networkx.algorithms.approximation import treewidth_min_degree, treewidth_min_fill_in

from ..errors import InvalidDecompositionError, InvalidGraphError
from ..graphs.apex_vortex import AlmostEmbeddableGraph, VortexWitness


@dataclass
class TreeDecomposition:
    """A tree decomposition: a tree whose nodes are bags (frozensets of vertices).

    Attributes:
        tree: the decomposition tree; every node is a ``frozenset`` of graph
            vertices.
        width: maximum bag size minus one.
    """

    tree: nx.Graph
    width: int

    @classmethod
    def from_bag_tree(cls, tree: nx.Graph) -> "TreeDecomposition":
        width = max((len(bag) for bag in tree.nodes()), default=1) - 1
        return cls(tree=tree, width=width)

    def bags(self) -> list[frozenset]:
        return list(self.tree.nodes())

    def bags_containing(self, vertex: Hashable) -> list[frozenset]:
        return [bag for bag in self.tree.nodes() if vertex in bag]

    def validate(self, graph: nx.Graph) -> None:
        """Check the three tree-decomposition axioms against ``graph``."""
        validate_tree_decomposition(graph, self.tree)


def validate_tree_decomposition(graph: nx.Graph, decomposition: nx.Graph) -> None:
    """Raise :class:`InvalidDecompositionError` unless ``decomposition`` is valid.

    The three axioms checked are (i) every vertex appears in some bag,
    (ii) for every edge some bag contains both endpoints, and (iii) for every
    vertex the set of bags containing it induces a connected subtree.
    """
    if decomposition.number_of_nodes() == 0:
        raise InvalidDecompositionError("tree decomposition has no bags")
    if not nx.is_tree(decomposition):
        raise InvalidDecompositionError("tree decomposition is not a tree")
    covered: set[Hashable] = set()
    for bag in decomposition.nodes():
        covered |= set(bag)
    missing = set(graph.nodes()) - covered
    if missing:
        raise InvalidDecompositionError(
            f"vertices {sorted(missing, key=repr)[:5]} appear in no bag"
        )
    for u, v in graph.edges():
        if not any(u in bag and v in bag for bag in decomposition.nodes()):
            raise InvalidDecompositionError(f"edge ({u}, {v}) is covered by no bag")
    for vertex in graph.nodes():
        holders = [bag for bag in decomposition.nodes() if vertex in bag]
        if len(holders) > 1 and not nx.is_connected(decomposition.subgraph(holders)):
            raise InvalidDecompositionError(
                f"bags containing vertex {vertex} do not form a connected subtree"
            )


def greedy_tree_decomposition(graph: nx.Graph, method: str = "min_degree") -> TreeDecomposition:
    """Return a heuristic tree decomposition of ``graph``.

    Args:
        graph: a connected graph.
        method: ``"min_degree"`` (fast, default) or ``"min_fill"`` (slower,
            often slightly narrower).

    The returned width is an upper bound on the true treewidth; that is all
    the downstream uses require (quality bounds are monotone in the width).
    """
    if graph.number_of_nodes() == 0:
        raise InvalidGraphError("cannot decompose an empty graph")
    if graph.number_of_nodes() == 1:
        tree = nx.Graph()
        tree.add_node(frozenset(graph.nodes()))
        return TreeDecomposition(tree=tree, width=0)
    if method == "min_degree":
        width, decomposition = treewidth_min_degree(graph)
    elif method == "min_fill":
        width, decomposition = treewidth_min_fill_in(graph)
    else:
        raise InvalidGraphError(f"unknown tree decomposition method {method!r}")
    return TreeDecomposition(tree=decomposition, width=width)


def _star_replaced_graph(
    almost_embeddable: AlmostEmbeddableGraph,
) -> tuple[nx.Graph, dict[int, VortexWitness]]:
    """Return ``G'`` of Lemma 2: vortices replaced by per-vortex star vertices.

    The star vertex of each vortex is connected to every vertex of the vortex
    boundary; internal vortex nodes are removed.  Returns the new graph and a
    map from star-vertex label to the vortex it replaced.
    """
    graph = almost_embeddable.non_apex_graph()
    star_of: dict[int, VortexWitness] = {}
    next_label = max(graph.nodes(), default=-1) + 1
    for vortex in almost_embeddable.vortices:
        graph.remove_nodes_from(vortex.internal_nodes)
        star = next_label
        next_label += 1
        graph.add_node(star)
        for boundary_vertex in vortex.boundary:
            graph.add_edge(star, boundary_vertex)
        star_of[star] = vortex
    return graph, star_of


def genus_vortex_decomposition(
    almost_embeddable: AlmostEmbeddableGraph,
    method: str = "min_degree",
) -> TreeDecomposition:
    """Tree decomposition of the apex-free part of an almost-embeddable graph.

    Implements the proof of Lemma 2 / Lemma 3 constructively:

    1. remove the apices (they are handled separately by Lemma 9/10);
    2. replace every vortex by a star vertex attached to its boundary,
       obtaining a genus-``g`` graph ``G'`` whose diameter grew by at most 1;
    3. tree-decompose ``G'`` (the paper cites Eppstein's ``O((g+1)D)`` bound;
       we use a heuristic decomposition, whose measured width experiment E9
       compares against that bound);
    4. delete the star vertices from all bags and re-insert every internal
       vortex node ``v`` into every bag that intersects its arc ``P(v)``.

    The resulting decomposition is valid for ``G - apices`` and its width is
    ``O((g+1) k l D)`` (Lemma 3), which the tests and experiment E9 verify in
    measured form.
    """
    graph = almost_embeddable.non_apex_graph()
    if graph.number_of_nodes() == 0:
        raise InvalidGraphError("almost-embeddable graph has no non-apex vertices")
    star_graph, star_of = _star_replaced_graph(almost_embeddable)
    base = greedy_tree_decomposition(star_graph, method=method)

    star_labels = set(star_of.keys())
    # Build the re-inserted decomposition: same tree shape, modified bags.
    old_to_new: dict[frozenset, set] = {}
    for bag in base.tree.nodes():
        old_to_new[bag] = set(bag) - star_labels
    for vortex in almost_embeddable.vortices:
        for internal, arc in vortex.arcs.items():
            arc_set = set(arc)
            for bag in base.tree.nodes():
                if set(bag) & arc_set:
                    old_to_new[bag].add(internal)
    # Two original bags may collapse to the same frozenset after the rewrite;
    # keep them distinct by indexing, then relabel to frozensets via a proxy
    # graph whose nodes are (index, frozenset) pairs -- but downstream code
    # expects plain frozenset bags, so instead we merge duplicates (merging
    # adjacent equal bags preserves all three axioms).
    new_tree = nx.Graph()
    bag_index = {bag: i for i, bag in enumerate(base.tree.nodes())}
    for bag in base.tree.nodes():
        new_tree.add_node((bag_index[bag], frozenset(old_to_new[bag])))
    for a, b in base.tree.edges():
        new_tree.add_edge(
            (bag_index[a], frozenset(old_to_new[a])), (bag_index[b], frozenset(old_to_new[b]))
        )
    collapsed = _collapse_indexed_bags(new_tree)
    decomposition = TreeDecomposition.from_bag_tree(collapsed)
    decomposition.validate(graph)
    return decomposition


def _collapse_indexed_bags(indexed_tree: nx.Graph) -> nx.Graph:
    """Convert a tree over ``(index, bag)`` nodes into a tree over plain bags.

    Equal bags that would collide are merged: merging two *adjacent* equal
    bags of a tree decomposition is always valid, and non-adjacent equal bags
    are first made adjacent by re-routing through the tree path between them
    -- which we avoid entirely by merging along tree edges only, iterating
    until no adjacent duplicates remain, and then disambiguating any remaining
    equal-but-distant bags by keeping them as separate tree nodes via a tiny
    sentinel: a frozenset is augmented with a unique negative placeholder
    only if a true collision would otherwise occur.  In practice (and in all
    tests) collisions only happen between adjacent bags, so the sentinel path
    is exercised rarely.
    """
    # Step 1: merge adjacent equal bags.
    tree = indexed_tree.copy()
    changed = True
    while changed:
        changed = False
        for (ia, bag_a), (ib, bag_b) in list(tree.edges()):
            if bag_a == bag_b:
                keep, drop = (ia, bag_a), (ib, bag_b)
                for neighbour in list(tree.neighbors(drop)):
                    if neighbour != keep:
                        tree.add_edge(keep, neighbour)
                tree.remove_node(drop)
                changed = True
                break
    # Step 2: relabel to plain frozensets, keeping accidental duplicates apart.
    seen: dict[frozenset, int] = {}
    mapping: dict[tuple, frozenset] = {}
    for index, bag in tree.nodes():
        if bag not in seen:
            seen[bag] = 0
            mapping[(index, bag)] = bag
        else:
            seen[bag] += 1
            # Unique placeholder that cannot collide with graph vertices.
            mapping[(index, bag)] = bag | {("__dup__", index, seen[bag])}
    plain = nx.Graph()
    for node in tree.nodes():
        plain.add_node(mapping[node])
    for a, b in tree.edges():
        plain.add_edge(mapping[a], mapping[b])
    return plain


def treewidth_upper_bound(graph: nx.Graph, method: str = "min_degree") -> int:
    """Return a heuristic upper bound on the treewidth of ``graph``."""
    return greedy_tree_decomposition(graph, method=method).width
