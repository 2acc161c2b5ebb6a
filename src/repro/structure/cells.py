"""Cell partitions (Definition 14).

A *cell partition* splits the vertex set into disjoint, connected,
low-diameter pieces.  The apex construction (Lemma 9/10) obtains its cells by
removing the apices from the spanning tree ``T``: every surviving subtree is
a cell of diameter at most ``2 d_T``.  Vortices complicate matters -- a cell
that touches a vortex must swallow the whole vortex and becomes a *special*
cell (Lemma 10) -- which :func:`merge_cells_touching` implements.

Cells are a part family in the Definition 9 sense, so
:meth:`CellPartition.validate` is the part check
:func:`repro.core.validate_parts` in cell wording plus a cover check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Sequence

import networkx as nx

from ..core import PartSet, part_set_of, validate_parts, view_of
from ..errors import InvalidPartitionError
from .spanning import RootedTree


@dataclass
class CellPartition:
    """A partition of (a subset of) the vertices into connected low-diameter cells.

    Attributes:
        cells: the list of cells, each a frozenset of vertices.
        special: indices of the *special* cells (those containing a vortex);
            Lemma 10 treats them separately because they may not be
            contracted when applying the minor-closure argument of Lemma 5.
        diameter_bound: the declared bound on the (strong, i.e. induced-
            subgraph) diameter of every normal cell; purely informational
            metadata recorded by the constructors and reported by the
            experiments.
    """

    cells: list[frozenset]
    special: set[int] = field(default_factory=set)
    diameter_bound: int | None = None

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)

    def cell_of(self) -> dict[Hashable, int]:
        """Return the vertex -> cell-index map."""
        mapping: dict[Hashable, int] = {}
        for index, cell in enumerate(self.cells):
            for vertex in cell:
                mapping[vertex] = index
        return mapping

    def part_set(self, graph: nx.Graph) -> PartSet:
        """Return the memoised int-indexed :class:`~repro.core.PartSet` of the cells.

        Cells are a part family in the Definition 9 sense (disjoint,
        connected vertex sets), so the gate validation and the cell-aware
        hot paths share the same flat member/owner arrays the shortcut
        engine uses for parts.
        """
        return part_set_of(view_of(graph), self.cells)

    def covered_vertices(self) -> frozenset:
        covered: set[Hashable] = set()
        for cell in self.cells:
            covered |= cell
        return frozenset(covered)

    def validate(self, graph: nx.Graph, require_cover: bool = False) -> None:
        """Check disjointness, connectivity and (optionally) coverage.

        ``require_cover=True`` additionally demands that every vertex of
        ``graph`` lies in some cell; the apex construction does *not* require
        this (the apices themselves are never in a cell).

        Cells are a part family, so the first three checks are
        :func:`repro.core.validate_parts` in cell wording; it reports the
        first violation in cell order.
        """
        validate_parts(graph, self.cells, noun="cell", disconnected="in the graph")
        if require_cover and self.covered_vertices() != set(graph.nodes()):
            raise InvalidPartitionError("cells do not cover the vertex set")

    def measured_diameters(self, graph: nx.Graph) -> list[int]:
        """Return the induced-subgraph diameter of each cell (for experiments)."""
        diameters = []
        for cell in self.cells:
            subgraph = graph.subgraph(cell)
            diameters.append(nx.diameter(subgraph) if len(cell) > 1 else 0)
        return diameters


def cells_from_tree_without_apices(
    tree: RootedTree, apices: Iterable[Hashable]
) -> CellPartition:
    """Return the cell partition obtained by deleting ``apices`` from the tree.

    This is exactly the cell construction of Lemma 9: removing the apex
    breaks the spanning tree into subtrees; each subtree's vertex set becomes
    one cell.  Every cell is connected (it is a subtree) and has diameter at
    most the diameter of ``T``; the apices themselves belong to no cell.
    """
    apex_set = set(apices)
    forest = tree.as_graph()
    forest.remove_nodes_from(apex_set)
    cells = [frozenset(component) for component in nx.connected_components(forest)]
    cells.sort(key=lambda cell: min(map(repr, cell)))
    return CellPartition(cells=cells, diameter_bound=tree.diameter())


def cells_from_multisource_bfs(
    graph: nx.Graph, sources: Sequence[Hashable]
) -> CellPartition:
    """Partition the graph into cells by concurrent BFS from ``sources``.

    This is the "canonical example" of a cell partition given below
    Definition 14: start a concurrent BFS from every source (for apex graphs,
    the neighbours of the removed apex) and let every vertex join the source
    that reaches it first.  Cells built this way are connected and have
    diameter at most twice the BFS radius.
    """
    if not sources:
        raise InvalidPartitionError("need at least one BFS source")
    owner: dict[Hashable, int] = {}
    frontier: list[tuple[Hashable, int]] = []
    for index, source in enumerate(sources):
        if source not in graph:
            raise InvalidPartitionError(f"source {source} is not a graph vertex")
        if source not in owner:
            owner[source] = index
            frontier.append((source, index))
    while frontier:
        next_frontier: list[tuple[Hashable, int]] = []
        for vertex, index in frontier:
            for neighbour in sorted(graph.neighbors(vertex), key=repr):
                if neighbour not in owner:
                    owner[neighbour] = index
                    next_frontier.append((neighbour, index))
        frontier = next_frontier
    cells_by_index: dict[int, set[Hashable]] = {}
    for vertex, index in owner.items():
        cells_by_index.setdefault(index, set()).add(vertex)
    cells = [frozenset(cell) for _, cell in sorted(cells_by_index.items())]
    return CellPartition(cells=cells)


def merge_cells_touching(
    partition: CellPartition,
    vertex_groups: Sequence[Iterable[Hashable]],
) -> CellPartition:
    """Merge all cells that intersect each vertex group; mark results special.

    Lemma 10 requires that no vortex is split between cells: for every vortex
    we merge all cells intersecting it into one *special* cell.  A single
    special cell may end up containing several vortices (the lemma allows
    this), and the number of special cells is at most the number of groups.
    """
    cells = [set(cell) for cell in partition.cells]
    for group in vertex_groups:
        group_set = set(group)
        touching = [i for i, cell in enumerate(cells) if cell & group_set]
        if not touching:
            continue
        target = touching[0]
        for other in touching[1:]:
            cells[target] |= cells[other]
        for other in sorted(touching[1:], reverse=True):
            cells.pop(other)
    new_cells = [frozenset(cell) for cell in cells]
    # A cell is special iff it meets any of the vertex groups (a single
    # special cell may contain several groups, which Lemma 10 allows).
    special = {
        index
        for index, cell in enumerate(new_cells)
        if any(set(group) & cell for group in vertex_groups)
    }
    # Cells that were already special in the input stay special.
    previously_special_vertices: set[Hashable] = set()
    for index in partition.special:
        previously_special_vertices |= set(partition.cells[index])
    special |= {
        index for index, cell in enumerate(new_cells) if cell & previously_special_vertices
    }
    return CellPartition(
        cells=new_cells, special=special, diameter_bound=partition.diameter_bound
    )
