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
   but is not related to, *local* shortcuts inside the cell are built on the
   cell's subtree of ``T`` (``T.contract_to(cell)``) by the oblivious
   congestion-capped search -- the constructor a distributed algorithm
   would run there; Lemmas 9 and 10 argue existence through the planar and
   treewidth shortcutters, which are not run (see "Deviations from the
   paper" in ``docs/paper_map.md``).  This is the local-shortcut step of
   Theorem 7, :func:`repro.shortcuts.clique_sum.add_local_shortcuts`.

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
from typing import Hashable, Iterable, Sequence

import networkx as nx

from ..errors import InvalidShortcutError
from ..graphs.apex_vortex import AlmostEmbeddableGraph
from ..structure.cell_assignment import compute_cell_assignment
from ..structure.cells import cells_from_tree_without_apices, merge_cells_touching
from ..structure.spanning import RootedTree, bfs_spanning_tree
from .clique_sum import add_local_shortcuts
from .congestion_capped import oblivious_shortcut
from .parts import validate_parts
from .shortcut import Shortcut

Edge = tuple[Hashable, Hashable]


class ApexPlan:
    """The part-independent half of Theorem 8 for one (graph, tree, apices, vortices).

    Built once by :func:`apex_plan` and memoised on the tree; every Boruvka
    phase then runs :meth:`shortcut` with its own parts.  The plan holds
    the cell partition of ``T`` minus the apices with the vortex cells
    merged into special cells (steps 2-3), and per cell the edges a related
    part receives: the cell's tree edges plus its uplinks to the apices.
    The cell subtree and the cell host graph of a skipped or special cell
    are built lazily, on first use, and the host is frozen
    (``nx.freeze``), like the clique-sum plan's bag graphs.
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

        The subtree is ``T.contract_to(cell)``: the induced subtree when the
        cell is connected in ``T``, else (a special cell merged through a
        vortex) contracted through the missing apices.  The host is
        ``G[cell]`` plus the subtree's edges, virtual ones included.
        """
        cached = self._cell_hosts.get(cell_index)
        if cached is None:
            cell = self.partition.cells[cell_index]
            cell_tree = self.tree.contract_to(cell)
            cell_graph = self.graph.subgraph(cell).copy()
            cell_graph.add_edges_from(cell_tree.edges())
            cached = self._cell_hosts[cell_index] = (cell_tree, nx.freeze(cell_graph))
        return cached

    def shortcut(self, parts: Sequence[frozenset]) -> Shortcut:
        """Serve ``parts``: apex parts, cell assignment, grants, local shortcuts."""
        graph, tree, apex_set = self.graph, self.tree, self.apices
        validate_parts(graph, parts)
        if not apex_set:
            # Degenerate case: no apices means the whole graph is one "cell";
            # serve every part with the oblivious constructor directly.
            fallback = oblivious_shortcut(graph, tree, parts)
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
            local_cells = (self.special | assignment.skipped_cells[local_index]) - related
            touched = {cell_of[v] for v in parts[part_index] if v in cell_of}
            for cell_index in sorted(touched & local_cells):
                skipped_by_cell.setdefault(cell_index, []).append(part_index)

        for cell_index, part_indices in skipped_by_cell.items():
            cell_tree, cell_graph = self.cell_host(cell_index)
            add_local_shortcuts(
                edge_sets,
                parts,
                part_indices,
                self.cell_vertices[cell_index],
                cell_graph,
                lambda subparts: oblivious_shortcut(cell_graph, cell_tree, subparts),
                tree_edges,
            )

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

    Returns:
        A T-restricted :class:`Shortcut` covering every part.

    The part-independent work is the tree's memoised :func:`apex_plan`;
    this call runs only its per-parts step.
    """
    tree = tree if tree is not None else bfs_spanning_tree(graph)
    return apex_plan(graph, tree, apices, vortex_node_groups).shortcut(parts)


def apex_shortcut_from_witness(
    witness: AlmostEmbeddableGraph,
    tree: RootedTree | None = None,
    parts: Sequence[frozenset] = (),
) -> Shortcut:
    """Convenience wrapper: read apices and vortices off an almost-embeddable witness."""
    return apex_shortcut(
        witness.graph,
        tree,
        parts,
        apices=witness.apices,
        vortex_node_groups=[vortex.all_nodes() for vortex in witness.vortices],
    )
