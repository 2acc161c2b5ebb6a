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

Corollary 1 calls the construction once per Boruvka phase with new parts
but the same graph, tree and witness, and an MST run builds its own tree
over a graph that every run of the instance shares.  The part-independent
work therefore goes to the owner of the data it reads:

* what reads only the witness -- the folded tree with its group, descendant
  and discard vertex sets (:class:`CliqueSumLayout`), and per bag its
  vertex set and ``B^0_h`` (:func:`bag_graph`) -- is built once per graph
  and memoised on it (:func:`repro.core.graph_memo`);
* what reads the tree -- the tree-edge grants and per bag ``T^2_h`` -- is a
  :class:`CliqueSumPlan`, built once and memoised on the tree.

:func:`clique_sum_shortcut` is ``clique_sum_plan(...).shortcut(parts)``.
The treewidth, genus+vortex and minor-free constructions run on the same
plan, and the apex construction of Theorem 8 serves its cells with the same
local-shortcut step (:func:`add_local_shortcuts`).
"""

from __future__ import annotations

import weakref
from typing import Callable, Hashable, Iterable, Sequence

import networkx as nx

from ..core import graph_memo
from ..errors import InvalidDecompositionError, InvalidShortcutError
from ..graphs.clique_sum import Bag, CliqueSumDecomposition
from ..structure.heavy_light import (
    FoldedDecompositionTree,
    fold_decomposition_tree,
    identity_folding,
)
from ..structure.spanning import RootedTree, bfs_spanning_tree
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
    family.  The treewidth and genus+vortex constructions pass a Steiner
    shortcutter for their tiny bags, and the minor-free pipeline the apex
    construction for almost-embeddable bags.
    """
    return oblivious_shortcut(bag_graph, bag_tree, subparts)


def add_local_shortcuts(
    edge_sets: list[set[Edge]],
    parts: Sequence[frozenset],
    part_indices: Iterable[int],
    vertices: set,
    host: nx.Graph,
    run: Callable[[list[frozenset]], Shortcut],
    tree_edges: frozenset[Edge],
    discard: set | frozenset = frozenset(),
) -> None:
    """The local-shortcut step of Theorems 7 and 8 for one bag or cell.

    Every part in ``part_indices`` is restricted to ``vertices`` and split
    into the connected components of ``host`` (``B^0_h`` or the cell
    graph); ``run`` builds the local shortcut of those sub-parts on the
    repaired tree.  Each owner keeps the edges of its sub-parts' local
    shortcut that are edges of ``T`` and do not lie inside ``discard``.
    """
    subparts: list[frozenset] = []
    owners: list[int] = []
    for part_index in part_indices:
        restricted = set(parts[part_index]) & vertices
        for component in nx.connected_components(host.subgraph(restricted)):
            subparts.append(frozenset(component))
            owners.append(part_index)
    if not subparts:
        return
    for owner, edges in zip(owners, run(subparts).edge_sets):
        edge_sets[owner].update(
            edge
            for edge in edges
            if edge in tree_edges and not (edge[0] in discard and edge[1] in discard)
        )


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


class CliqueSumLayout:
    """The half of Theorem 7's plan that reads the witness but not the tree.

    Built once per (witness, fold) by the first :class:`CliqueSumPlan` and
    memoised on the graph (:func:`repro.core.graph_memo`), so every spanning
    tree of the graph shares it.  It holds the folded decomposition tree, its group
    parent/children/depth maps, the group and descendant vertex sets, the
    groups of every vertex and the discard vertices of every group.
    """

    def __init__(self, decomposition: CliqueSumDecomposition, fold: bool) -> None:
        self.decomposition = decomposition
        folded = fold_decomposition_tree(decomposition) if fold else identity_folding(decomposition)
        self.folded = folded
        # Parent, children and depth of every group, in one traversal of
        # the folded tree; its reverse order then sums the descendant sets.
        root = folded.root
        parent: dict[int, int | None] = {root: None}
        self.parent = parent
        self.children: dict[int, list[int]] = {g: [] for g in folded.tree.nodes()}
        self.depth: dict[int, int] = {root: 0}
        order: list[int] = []
        stack = [root]
        while stack:
            node = stack.pop()
            order.append(node)
            for neighbour in folded.tree.neighbors(node):
                if neighbour not in parent:
                    parent[neighbour] = node
                    self.children[node].append(neighbour)
                    self.depth[neighbour] = self.depth[node] + 1
                    stack.append(neighbour)
        group_vertices = {g: set(folded.group_vertices(g)) for g in folded.tree.nodes()}
        self.group_vertices = group_vertices
        descendant_vertices = {g: set(vs) for g, vs in group_vertices.items()}
        for node in reversed(order):
            if parent[node] is not None:
                descendant_vertices[parent[node]] |= descendant_vertices[node]
        self.descendant_vertices = descendant_vertices
        self.groups_of: dict[Hashable, list[int]] = {}
        for group, vertices in group_vertices.items():
            for vertex in vertices:
                self.groups_of.setdefault(vertex, []).append(group)
        self.discard_vertices = {
            group: _parent_clique_vertices(decomposition, folded, parent, group)
            for group in folded.tree.nodes()
        }

    def home_group(self, groups: set[int]) -> int:
        """Return the folded-tree LCA of ``groups``: a part's home group ``h_P``."""
        current = set(groups)
        if not current:
            return self.folded.root
        while len(current) > 1:
            deepest = max(current, key=self.depth.__getitem__)
            current.discard(deepest)
            par = self.parent[deepest]
            if par is not None:
                current.add(par)
            else:
                return self.folded.root
        return next(iter(current))


def bag_graph(
    graph: nx.Graph, decomposition: CliqueSumDecomposition, bag_index: int
) -> tuple[set, nx.Graph]:
    """Return the bag's vertex set and ``B^0_h`` (frozen), memoised on ``graph``.

    Both read only the witness, so both arms of the fold ablation and every
    spanning tree share them, and so does the state a local shortcutter
    keeps on ``B^0_h`` (its view).  The graph is frozen (``nx.freeze``):
    a shortcutter that mutates it fails instead of corrupting later runs.
    """
    return graph_memo(
        graph,
        ("clique_sum_bag", bag_index),
        (decomposition,),
        lambda: (
            set(decomposition.bags[bag_index].nodes),
            nx.freeze(decomposition.completed_bag_graph(bag_index)),
        ),
    )


class CliqueSumPlan:
    """The part-independent half of Theorem 7 for one (graph, tree, witness, fold).

    Built once by :func:`clique_sum_plan` and memoised on the tree; every
    Boruvka phase then runs :meth:`shortcut` with its own parts.  The plan
    reads the graph's :class:`CliqueSumLayout` and holds what reads the
    tree: each child group's global grant (the tree edges below it minus
    those inside its parent group) and, per bag, built lazily on first use,
    the repaired tree ``T^2_h = contract_to(bag)`` next to the graph's
    vertex set and ``B^0_h`` (:func:`bag_graph`).  ``B^0_h`` is the graph
    the local shortcutter runs on; it holds every edge of ``T^2_h`` (see
    :meth:`bag`).  The cached bag graphs and bag trees let a shortcutter
    keep its own state on them (a view, an Euler index, a nested plan)
    across phases.
    """

    def __init__(
        self,
        graph: nx.Graph,
        tree: RootedTree,
        decomposition: CliqueSumDecomposition,
        fold: bool,
    ) -> None:
        self.graph = graph
        # The tree owns the plan (in its memo).  A weak back-reference keeps
        # the two out of a reference cycle, so the plan dies with the tree
        # by reference counting instead of waiting for the cycle collector.
        self._tree = weakref.ref(tree)
        self.decomposition = decomposition
        self.fold = fold
        layout = graph_memo(
            graph, ("clique_sum", fold), (decomposition,),
            lambda: CliqueSumLayout(decomposition, fold),
        )
        self.layout = layout
        self.tree_edges = tree.edge_set()
        edges_in_group = {
            g: _tree_edges_within(self.tree_edges, vs) for g, vs in layout.group_vertices.items()
        }
        # Global shortcut of a part homed at h, per child of h it reaches.
        self.global_edges = {
            child: _tree_edges_within(self.tree_edges, layout.descendant_vertices[child])
            - edges_in_group[par]
            for child, par in layout.parent.items()
            if par is not None
        }
        self._bags: dict[int, tuple[set, nx.Graph, RootedTree]] = {}

    @property
    def tree(self) -> RootedTree:
        """The spanning tree that owns this plan (``None`` once it is gone)."""
        return self._tree()

    def bag(self, bag_index: int) -> tuple[set, nx.Graph, RootedTree]:
        """Return the bag's vertex set, ``B^0_h`` (frozen) and ``T^2_h``.

        ``B^0_h`` holds every edge of ``T^2_h`` for a valid decomposition: a
        kept tree edge joins two bag vertices, and the border of every
        contracted T-component lies in one partial clique, which ``B^0_h``
        completes.  That is checked once per tree, here.

        Raises:
            InvalidDecompositionError: an edge of ``T^2_h`` is not in ``B^0_h``.
        """
        cached = self._bags.get(bag_index)
        if cached is None:
            vertices, completed = bag_graph(self.graph, self.decomposition, bag_index)
            bag_tree = self.tree.contract_to(vertices)
            for u, v in bag_tree.edges():
                if not completed.has_edge(u, v):
                    raise InvalidDecompositionError(
                        f"bag {bag_index}: repaired tree edge ({u!r}, {v!r}) is not an edge "
                        "of the completed bag graph"
                    )
            cached = self._bags[bag_index] = (vertices, completed, bag_tree)
        return cached

    def shortcut(
        self, parts: Sequence[frozenset], local_shortcutter: LocalShortcutter | None = None
    ) -> Shortcut:
        """Serve ``parts``: home groups, global grants, local shortcuts, pruning.

        Returns an unvalidated T-restricted :class:`Shortcut`; call
        :meth:`Shortcut.validate` to check it.
        """
        validate_parts(self.graph, parts)
        shortcutter = local_shortcutter if local_shortcutter is not None else default_local_shortcutter
        tree_edges = self.tree_edges
        layout = self.layout

        edge_sets: list[set[Edge]] = [set() for _ in parts]
        parts_by_group: dict[int, list[int]] = {}
        groups_of = layout.groups_of
        for part_index, part in enumerate(parts):
            touched = {g for vertex in part for g in groups_of.get(vertex, ())}
            h = layout.home_group(touched)
            parts_by_group.setdefault(h, []).append(part_index)
            # Global shortcut: descendants of h's children that the part reaches.
            for child in layout.children[h]:
                if not layout.descendant_vertices[child].isdisjoint(part):
                    edge_sets[part_index] |= self.global_edges[child]

        # Local shortcuts, one pass per group over the parts homed there.
        for group, part_indices in parts_by_group.items():
            discard = layout.discard_vertices[group]
            for bag_index in layout.folded.member_bags(group):
                vertices, completed, bag_tree = self.bag(bag_index)
                bag = self.decomposition.bags[bag_index]
                add_local_shortcuts(
                    edge_sets,
                    parts,
                    part_indices,
                    vertices,
                    completed,
                    lambda subparts: shortcutter(completed, bag_tree, subparts, bag),
                    tree_edges,
                    discard,
                )

        return Shortcut(
            graph=self.graph,
            tree=self.tree,
            parts=parts,
            edge_sets=edge_sets,
            constructor=f"clique_sum(fold={self.fold})",
        )


def clique_sum_plan(
    graph: nx.Graph,
    tree: RootedTree,
    decomposition: CliqueSumDecomposition,
    fold: bool = True,
) -> CliqueSumPlan:
    """Return the :class:`CliqueSumPlan` of ``decomposition``, memoised on ``tree``."""
    return tree.memo(
        ("clique_sum", fold),
        (graph, decomposition),
        lambda: CliqueSumPlan(graph, tree, decomposition, fold),
    )


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
        A T-restricted :class:`Shortcut`.  It is not validated; call
        :meth:`Shortcut.validate` to check it.

    The part-independent work is the tree's memoised
    :func:`clique_sum_plan`; this call runs only its per-parts step.
    """
    if decomposition is None:
        raise InvalidShortcutError(
            "clique_sum_shortcut needs the CliqueSumDecomposition witness"
        )
    tree = tree if tree is not None else bfs_spanning_tree(graph)
    return clique_sum_plan(graph, tree, decomposition, fold).shortcut(parts, local_shortcutter)
