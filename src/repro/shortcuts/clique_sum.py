"""Shortcuts in k-clique-sum graphs (Theorem 7 and Lemma 1).

Given a graph ``G`` composed as a k-clique-sum of bags drawn from a family
``F`` that admits good shortcuts, Theorem 7 constructs shortcuts for ``G``
from two ingredients:

* **global shortcuts**: a part ``P`` is granted all tree edges lying in the
  decomposition-tree subtrees hanging off its "highest" bag ``h_P`` (the LCA
  of the bags it touches), minus the edges inside ``h_P`` itself (Figure 2);
* **local shortcuts**: inside ``h_P``, the part is served by the family
  shortcutter of the bag, run against the *repaired* tree ``T^2_h`` -- the
  minor of ``T`` contracted onto the bag's vertices (Figure 3) -- and pruned
  back to real tree edges afterwards.

The congestion of the global shortcut pays a factor of the decomposition
tree depth (Lemma 1); folding the tree with the heavy-light scheme of
:mod:`repro.structure.heavy_light` reduces the depth to ``O(log^2 n)``, which
is the difference between Lemma 1 and Theorem 7 and is exposed here through
the ``fold`` flag so experiment E3 can measure both arms.
"""

from __future__ import annotations

from typing import Callable, Hashable, Sequence

import networkx as nx

from ..errors import InvalidShortcutError
from ..graphs.clique_sum import Bag, CliqueSumDecomposition
from ..structure.heavy_light import (
    FoldedDecompositionTree,
    fold_decomposition_tree,
    identity_folding,
)
from ..structure.spanning import RootedTree, bfs_spanning_tree
from ..utils import canonical_edge
from .congestion_capped import oblivious_shortcut
from .parts import validate_parts
from .shortcut import Shortcut

Edge = tuple[Hashable, Hashable]

# A bag-local shortcutter: (bag graph B^0_h, repaired tree T^2_h, sub-parts, bag)
# -> Shortcut on the bag graph.  The returned shortcut's edges are later
# intersected with the true tree edges, so the shortcutter is free to use the
# repaired tree's virtual edges.
LocalShortcutter = Callable[[nx.Graph, RootedTree, Sequence[frozenset], Bag], Shortcut]


def default_local_shortcutter(
    bag_graph: nx.Graph,
    bag_tree: RootedTree,
    subparts: Sequence[frozenset],
    bag: Bag,
) -> Shortcut:
    """Family shortcutter used when the caller does not supply one.

    The oblivious congestion-capped search is a safe default for any bag
    family; the minor-free pipeline overrides it with family-specific
    constructors (planar / apex / treewidth) chosen by the bag's ``kind``.
    """
    return oblivious_shortcut(bag_graph, bag_tree, subparts)


def _descendant_vertex_sets(
    folded: FoldedDecompositionTree,
) -> tuple[dict[int, int | None], dict[int, set], dict[int, set]]:
    """Return (parent map, per-group vertex set, per-group descendant vertex set)."""
    tree = folded.tree
    root = folded.root
    parent: dict[int, int | None] = {root: None}
    order: list[int] = []
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        for neighbour in tree.neighbors(node):
            if neighbour not in parent:
                parent[neighbour] = node
                stack.append(neighbour)
    group_vertices = {group: set(folded.group_vertices(group)) for group in tree.nodes()}
    descendant_vertices: dict[int, set] = {group: set(group_vertices[group]) for group in tree.nodes()}
    for node in reversed(order):
        if parent[node] is not None:
            descendant_vertices[parent[node]] |= descendant_vertices[node]
    return parent, group_vertices, descendant_vertices


def _tree_edges_within(tree_edges: set[Edge], vertices: set) -> set[Edge]:
    """Return the tree edges with both endpoints inside ``vertices``."""
    return {edge for edge in tree_edges if edge[0] in vertices and edge[1] in vertices}


def _parent_clique_vertices(
    decomposition: CliqueSumDecomposition,
    folded: FoldedDecompositionTree,
    parent: dict[int, int | None],
    group: int,
) -> set:
    """Vertices of the partial cliques connecting ``group`` to its parent group.

    With folding these are the "double edge" cliques of the proof: up to two
    partial cliques may cross a single folded-tree edge.  Local shortcut edges
    lying entirely inside these cliques are discarded (the paper's discard
    step), so that such edges are only charged at the bag where they are the
    LCA bag.
    """
    parent_group = parent.get(group)
    if parent_group is None:
        return set()
    own_bags = set(folded.member_bags(group))
    parent_bags = set(folded.member_bags(parent_group))
    vertices: set = set()
    for tree_edge, clique in decomposition.partial_cliques.items():
        a, b = tuple(tree_edge)
        if (a in own_bags and b in parent_bags) or (b in own_bags and a in parent_bags):
            vertices |= set(clique)
    return vertices


def clique_sum_shortcut(
    graph: nx.Graph,
    tree: RootedTree | None = None,
    parts: Sequence[frozenset] = (),
    decomposition: CliqueSumDecomposition | None = None,
    local_shortcutter: LocalShortcutter | None = None,
    fold: bool = True,
) -> Shortcut:
    """Construct a tree-restricted shortcut for a clique-sum graph (Theorem 7).

    Args:
        graph: the composed graph ``G``.
        tree: the spanning tree ``T`` (defaults to a BFS tree of ``G``).
        parts: the parts to serve.
        decomposition: the clique-sum decomposition witness recorded by the
            generator; required (the paper's existence proof also consumes
            it, see "Deviations from the paper" in
            ``docs/paper_map.md``).
        local_shortcutter: per-bag family shortcutter (defaults to the
            oblivious constructor).
        fold: whether to heavy-light-fold the decomposition tree to depth
            ``O(log^2 n)`` (Theorem 7) or keep it as-is (Lemma 1); the
            ablation experiment E3 runs both.

    Returns:
        A validated T-restricted :class:`Shortcut`.
    """
    if decomposition is None:
        raise InvalidShortcutError(
            "clique_sum_shortcut needs the CliqueSumDecomposition witness"
        )
    tree = tree if tree is not None else bfs_spanning_tree(graph)
    validate_parts(graph, parts)
    shortcutter = local_shortcutter if local_shortcutter is not None else default_local_shortcutter

    folded = fold_decomposition_tree(decomposition) if fold else identity_folding(decomposition)
    parent, group_vertices, descendant_vertices = _descendant_vertex_sets(folded)
    tree_edges = set(tree.edge_set())

    # Precompute per-group tree edge sets.
    edges_in_group = {g: _tree_edges_within(tree_edges, vs) for g, vs in group_vertices.items()}
    edges_in_descendants = {
        g: _tree_edges_within(tree_edges, vs) for g, vs in descendant_vertices.items()
    }
    children: dict[int, list[int]] = {g: [] for g in folded.tree.nodes()}
    for node, par in parent.items():
        if par is not None:
            children[par].append(node)

    # Group assignments of parts: which groups a part touches, and its LCA group.
    depth: dict[int, int] = {folded.root: 0}
    order = [folded.root]
    index = 0
    while index < len(order):
        node = order[index]
        index += 1
        for child in children[node]:
            depth[child] = depth[node] + 1
            order.append(child)

    def group_lca(groups: set[int]) -> int:
        current = set(groups)
        if not current:
            return folded.root
        while len(current) > 1:
            deepest = max(current, key=lambda g: depth[g])
            current.discard(deepest)
            par = parent[deepest]
            if par is not None:
                current.add(par)
            else:
                return folded.root
        return next(iter(current))

    edge_sets: list[set[Edge]] = [set() for _ in parts]
    home_group: list[int] = []
    for part_index, part in enumerate(parts):
        part_set = set(part)
        touched = {g for g, vs in group_vertices.items() if vs & part_set}
        h = group_lca(touched)
        home_group.append(h)
        # Global shortcut: descendants of h's children that the part reaches.
        for child in children[h]:
            if descendant_vertices[child] & part_set:
                edge_sets[part_index] |= edges_in_descendants[child] - edges_in_group[h]

    # Local shortcuts, one pass per group over the parts homed there.
    parts_by_group: dict[int, list[int]] = {}
    for part_index, h in enumerate(home_group):
        parts_by_group.setdefault(h, []).append(part_index)

    for group, part_indices in parts_by_group.items():
        discard_vertices = _parent_clique_vertices(decomposition, folded, parent, group)
        for bag_index in folded.member_bags(group):
            bag = decomposition.bags[bag_index]
            bag_vertices = set(bag.nodes)
            # Sub-parts: connected components (in the completed bag graph) of
            # each homed part restricted to the bag.
            completed = decomposition.completed_bag_graph(bag_index)
            subparts: list[frozenset] = []
            owner_of_subpart: list[int] = []
            for part_index in part_indices:
                restricted = set(parts[part_index]) & bag_vertices
                if not restricted:
                    continue
                for component in nx.connected_components(completed.subgraph(restricted)):
                    subparts.append(frozenset(component))
                    owner_of_subpart.append(part_index)
            if not subparts:
                continue
            # Repaired tree T^2_h: the minor of T contracted onto the bag.
            bag_tree = tree.contract_to(bag_vertices)
            # The local shortcutter needs a host graph containing both the
            # completed bag edges and the repaired tree's (possibly virtual)
            # edges; virtual edges are discarded after construction anyway.
            local_graph = completed.copy()
            for u, v in bag_tree.edges():
                local_graph.add_edge(u, v)
            local = shortcutter(local_graph, bag_tree, subparts, bag)
            for sub_index, owner in enumerate(owner_of_subpart):
                kept = {
                    edge
                    for edge in local.edge_sets[sub_index]
                    if edge in tree_edges
                    and not (edge[0] in discard_vertices and edge[1] in discard_vertices)
                }
                edge_sets[owner] |= kept

    shortcut = Shortcut(
        graph=graph,
        tree=tree,
        parts=parts,
        edge_sets=[frozenset(edges) for edges in edge_sets],
        constructor=f"clique_sum(fold={fold})",
    )
    return shortcut
