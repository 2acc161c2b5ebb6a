"""Shortcuts for apex graphs (Lemmas 9 and 10, Theorem 8).

The hard part of the almost-embeddable case is the apices: adding a single
apex can collapse the graph diameter (cycle -> wheel), so the shortcut must
become dramatically better even though the graph barely changed.  The
construction:

1. parts containing an apex simply receive the whole spanning tree (there
   are at most ``q`` of them, adding ``q`` to the congestion);
2. removing the apices from ``T`` splits it into *cells* -- subtrees of
   diameter at most the tree diameter (Definition 14 / Lemma 9);
3. cells containing a vortex are merged into *special* cells (Lemma 10);
4. the cell-assignment relation ``R`` of Definition 15 (computed by the
   peeling of Lemma 5/6) decides, for every part, which cells help it
   *globally*: for each related cell the part receives the cell's whole
   subtree plus its uplink edge to the apex;
5. for the at-most-two normal cells (plus special cells) a part intersects
   but is not related to, *local* shortcuts inside the cell are built by the
   family shortcutter of the cell (planar / Genus+Vortex), restricted to the
   cell's subtree of ``T``.

Multiple apices are handled exactly as in Theorem 8's proof: the cells are
the components of ``T`` minus *all* apices, and an apex-containing part gets
the whole tree.

Steps 2-3 and each cell's granted edges, subtree and host graph do not
depend on the parts: they form an :class:`ApexPlan`, built once per
(tree, graph, apices, vortices) and memoised on the tree, so the Boruvka
phases run only steps 1, 4 and 5.
"""

from __future__ import annotations

import weakref
from typing import Callable, Hashable, Iterable, Sequence

import networkx as nx

from ..errors import InvalidShortcutError
from ..graphs.apex_vortex import AlmostEmbeddableGraph
from ..structure.cell_assignment import compute_cell_assignment
from ..structure.cells import CellPartition, cells_from_tree_without_apices, merge_cells_touching
from ..structure.spanning import RootedTree, bfs_spanning_tree
from .congestion_capped import oblivious_shortcut
from .parts import validate_parts
from .shortcut import Shortcut

Edge = tuple[Hashable, Hashable]

# Per-cell local shortcutter: (cell graph, cell subtree of T, sub-parts) -> Shortcut.
CellShortcutter = Callable[[nx.Graph, RootedTree, Sequence[frozenset]], Shortcut]


def _cell_subtree(tree: RootedTree, cell: frozenset) -> RootedTree:
    """Return the subtree of ``T`` induced on a cell, as a rooted tree.

    Cells are, by construction, connected subtrees of ``T`` (components of
    ``T`` minus the apices, possibly merged with other components through a
    vortex -- in which case the induced forest is reconnected by contracting
    through the missing apices, i.e. we fall back to the generic
    ``contract_to`` minor, which stays within tree edges wherever they exist).
    """
    induced = nx.Graph()
    induced.add_nodes_from(cell)
    for u, v in tree.edges():
        if u in cell and v in cell:
            induced.add_edge(u, v)
    if nx.is_connected(induced):
        root = min(cell, key=repr)
        parent: dict[Hashable, Hashable | None] = {root: None}
        stack = [root]
        while stack:
            node = stack.pop()
            for neighbour in induced.neighbors(node):
                if neighbour not in parent:
                    parent[neighbour] = node
                    stack.append(neighbour)
        return RootedTree(parent, root)
    return tree.contract_to(cell)


def default_cell_shortcutter(
    cell_graph: nx.Graph, cell_tree: RootedTree, subparts: Sequence[frozenset]
) -> Shortcut:
    """Default per-cell local shortcutter: the oblivious congestion-capped search.

    Lemma 9 uses the planar shortcutter (Theorem 4) here and Lemma 10 the
    treewidth-based one; both are *existence* arguments, and the oblivious
    search is the constructor the distributed algorithm would actually run
    inside a cell (see the discussion in :mod:`repro.shortcuts.congestion_capped`).
    Callers with a structural witness can pass a family-specific shortcutter.
    """
    return oblivious_shortcut(cell_graph, cell_tree, subparts)


class ApexPlan:
    """The part-independent half of Theorem 8 for one (graph, tree, apices, vortices).

    Built once by :func:`apex_plan` and memoised on the tree; every Boruvka
    phase then runs :meth:`shortcut` with its own parts.  The plan holds
    the cell partition of ``T`` minus the apices with the vortex cells
    merged into special cells (steps 2-3), and per cell the edges a related
    part receives: the cell's tree edges plus its uplinks to the apices.
    The cell subtree and the cell host graph of a skipped or special cell
    are built lazily, on first use, and the host is frozen
    (``nx.freeze``), like the clique-sum plan's bag hosts.
    """

    def __init__(
        self,
        graph: nx.Graph,
        tree: RootedTree,
        apices: frozenset,
        vortex_node_groups: tuple[frozenset, ...],
    ) -> None:
        for apex in apices:
            if apex not in graph:
                raise InvalidShortcutError(f"apex {apex} is not a graph vertex")
        self.graph = graph
        # The tree owns the plan (in its memo).  A weak back-reference keeps
        # the two out of a reference cycle, so the plan dies with the tree
        # by reference counting instead of waiting for the cycle collector.
        self._tree = weakref.ref(tree)
        self.apices = apices
        self.tree_edges = tree.edge_set()
        self._cell_hosts: dict[int, tuple[RootedTree, nx.Graph]] = {}
        if not apices:
            return
        partition = cells_from_tree_without_apices(tree, apices)
        if vortex_node_groups:
            partition = merge_cells_touching(partition, list(vortex_node_groups))
        self.partition = partition
        self.special = set(partition.special)
        self.cell_vertices = [set(cell) for cell in partition.cells]
        self.cell_of = partition.cell_of()
        # A tree edge inside one cell, or joining a cell to an apex (an
        # uplink); no tree edge joins two cells of T minus the apices.
        grants: list[set[Edge]] = [set() for _ in partition.cells]
        for edge in self.tree_edges:
            first, second = self.cell_of.get(edge[0]), self.cell_of.get(edge[1])
            if first is not None and (first == second or edge[1] in apices):
                grants[first].add(edge)
            elif second is not None and edge[0] in apices:
                grants[second].add(edge)
        self.grants = [frozenset(edges) for edges in grants]

    @property
    def tree(self) -> RootedTree:
        """The spanning tree that owns this plan (``None`` once it is gone)."""
        return self._tree()

    def cell_host(self, cell_index: int) -> tuple[RootedTree, nx.Graph]:
        """Return the cell's subtree of ``T`` and its host graph (frozen).

        The host is ``G[cell]`` plus the subtree's edges (virtual ones when
        the cell had to be contracted, see :func:`_cell_subtree`).
        """
        cached = self._cell_hosts.get(cell_index)
        if cached is None:
            cell = self.partition.cells[cell_index]
            cell_tree = _cell_subtree(self.tree, cell)
            cell_graph = self.graph.subgraph(cell).copy()
            cell_graph.add_edges_from(cell_tree.edges())
            cached = self._cell_hosts[cell_index] = (cell_tree, nx.freeze(cell_graph))
        return cached

    def shortcut(
        self, parts: Sequence[frozenset], cell_shortcutter: CellShortcutter | None = None
    ) -> Shortcut:
        """Serve ``parts``: apex parts, cell assignment, grants, local shortcuts."""
        graph, tree, apex_set = self.graph, self.tree, self.apices
        validate_parts(graph, parts)
        shortcutter = cell_shortcutter if cell_shortcutter is not None else default_cell_shortcutter
        if not apex_set:
            # Degenerate case: no apices means the whole graph is one "cell";
            # serve every part with the oblivious constructor directly.
            fallback = shortcutter(graph, tree, parts)
            fallback.constructor = "apex(no-apices)"
            return fallback

        tree_edges = self.tree_edges
        edge_sets: list[set[Edge]] = [set() for _ in parts]

        # Step 1: parts containing an apex get the whole tree.
        apex_parts = {i for i, part in enumerate(parts) if not apex_set.isdisjoint(part)}
        for index in apex_parts:
            edge_sets[index] = set(tree_edges)
        surface_part_indices = [i for i in range(len(parts)) if i not in apex_parts]

        # Step 4: cell assignment (Lemma 5/6 peeling) for the non-apex parts.
        surface_parts = [parts[i] for i in surface_part_indices]
        assignment = compute_cell_assignment(surface_parts, self.partition)
        for local_index, part_index in enumerate(surface_part_indices):
            for cell_index in assignment.related_cells[local_index]:
                edge_sets[part_index] |= self.grants[cell_index]

        # Step 5: local shortcuts inside skipped cells and special cells.
        skipped_by_cell: dict[int, list[int]] = {}
        cell_of = self.cell_of
        for local_index, part_index in enumerate(surface_part_indices):
            related = assignment.related_cells[local_index]
            skipped = assignment.skipped_cells[local_index]
            touched = {cell_of[v] for v in parts[part_index] if v in cell_of}
            for cell_index in sorted(touched):
                if cell_index in related:
                    continue
                if cell_index in self.special or cell_index in skipped:
                    skipped_by_cell.setdefault(cell_index, []).append(part_index)

        for cell_index, part_indices in skipped_by_cell.items():
            cell_vertices = self.cell_vertices[cell_index]
            cell_tree, cell_graph = self.cell_host(cell_index)
            subparts: list[frozenset] = []
            owners: list[int] = []
            for part_index in part_indices:
                restricted = set(parts[part_index]) & cell_vertices
                for component in nx.connected_components(cell_graph.subgraph(restricted)):
                    subparts.append(frozenset(component))
                    owners.append(part_index)
            local = shortcutter(cell_graph, cell_tree, subparts)
            for sub_index, owner in enumerate(owners):
                kept = {edge for edge in local.edge_sets[sub_index] if edge in tree_edges}
                edge_sets[owner] |= kept

        return Shortcut(
            graph=graph,
            tree=tree,
            parts=parts,
            edge_sets=edge_sets,
            constructor="apex(theorem8)",
        )


def apex_plan(
    graph: nx.Graph,
    tree: RootedTree,
    apices: Iterable[Hashable] = (),
    vortex_node_groups: Sequence[Iterable[Hashable]] = (),
) -> ApexPlan:
    """Return the :class:`ApexPlan` of ``graph``, memoised on ``tree``.

    The apex set and the vortex groups are part of the memo key, by value.
    """
    apex_set = frozenset(apices)
    groups = tuple(frozenset(group) for group in vortex_node_groups)
    return tree.memo(
        ("apex", apex_set, groups), (graph,), lambda: ApexPlan(graph, tree, apex_set, groups)
    )


def apex_shortcut(
    graph: nx.Graph,
    tree: RootedTree | None = None,
    parts: Sequence[frozenset] = (),
    apices: Iterable[Hashable] = (),
    vortex_node_groups: Sequence[Iterable[Hashable]] = (),
    cell_shortcutter: CellShortcutter | None = None,
) -> Shortcut:
    """Construct a tree-restricted shortcut for an apex graph (Lemma 9/10, Thm 8).

    Args:
        graph: the network graph (surface part + vortices + apices).
        tree: spanning tree ``T`` of ``graph`` (defaults to BFS).
        parts: the parts to serve.
        apices: the apex vertices ``q`` of the witness.
        vortex_node_groups: for every vortex, the set of vertices it touches
            (boundary plus internal nodes); cells meeting a vortex are merged
            into special cells exactly as Lemma 10 prescribes.
        cell_shortcutter: local shortcutter run inside skipped cells.

    Returns:
        A T-restricted :class:`Shortcut` covering every part.

    The part-independent work is the tree's memoised :func:`apex_plan`;
    this call runs only its per-parts step.
    """
    tree = tree if tree is not None else bfs_spanning_tree(graph)
    plan = apex_plan(graph, tree, apices, vortex_node_groups)
    return plan.shortcut(parts, cell_shortcutter)


def apex_shortcut_from_witness(
    witness: AlmostEmbeddableGraph,
    tree: RootedTree | None = None,
    parts: Sequence[frozenset] = (),
    cell_shortcutter: CellShortcutter | None = None,
) -> Shortcut:
    """Convenience wrapper: read apices and vortices off an almost-embeddable witness."""
    return apex_shortcut(
        witness.graph,
        tree,
        parts,
        apices=witness.apices,
        vortex_node_groups=[vortex.all_nodes() for vortex in witness.vortices],
        cell_shortcutter=cell_shortcutter,
    )
