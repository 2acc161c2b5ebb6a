"""Bounded-genus graph generators.

A graph has genus ``g`` if it embeds on an orientable surface with ``g``
handles (Definition 3).  Genus-``g`` graphs are the ``(0, g, 0, 0)``-almost-
embeddable graphs of Definition 5 and form the "surface part" of the Graph
Structure Theorem.

We do not implement general 2-cell embeddings on arbitrary surfaces (see
"Deviations from the paper" in ``docs/paper_map.md``): instead every generator here builds its graph
*constructively* so that an upper bound on the genus is known by
construction, and returns a :class:`GenusGraph` wrapper recording that bound.
The downstream constructions only ever consume the genus as a number -- the
Genus+Vortex shortcut path goes through the treewidth bound of Lemma 3 --
so a certified upper bound is exactly what is needed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import networkx as nx

from ..errors import InvalidGraphError
from ..utils import ensure_rng, relabel_to_integers
from .planar import grid_graph, grid_labels, is_planar


@dataclass(frozen=True)
class GenusGraph:
    """A graph together with a constructive upper bound on its genus.

    Attributes:
        graph: the underlying :class:`networkx.Graph` (integer labels).
        genus: an upper bound on the orientable genus, certified by the way
            the graph was constructed (0 for planar graphs, 1 for the torus
            grid, ``g`` for a grid with ``g`` added handles).
        handles: the list of handle edge sets that were added on top of a
            planar base graph, one frozenset of edges per handle.  Empty for
            natively planar or toroidal constructions.
    """

    graph: nx.Graph
    genus: int
    handles: tuple[frozenset[tuple[int, int]], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.genus < 0:
            raise InvalidGraphError("genus must be non-negative")

    @property
    def number_of_nodes(self) -> int:
        return self.graph.number_of_nodes()


def toroidal_grid(rows: int, cols: int) -> GenusGraph:
    """Return the ``rows x cols`` torus grid (genus at most 1).

    Both the rows and the columns wrap around, so the graph is vertex
    transitive, 4-regular, has diameter ``floor(rows/2) + floor(cols/2)``, and
    embeds on the torus (genus 1).  For ``rows, cols >= 3`` and at least one
    dimension ``>= 5`` the graph is non-planar, which the tests verify.
    """
    if rows < 3 or cols < 3:
        raise InvalidGraphError("toroidal grid needs both dimensions >= 3")
    graph = nx.Graph()
    for r in range(rows):
        for c in range(cols):
            graph.add_node((r, c))
    for r in range(rows):
        for c in range(cols):
            graph.add_edge((r, c), (r, (c + 1) % cols))
            graph.add_edge((r, c), ((r + 1) % rows, c))
    genus = 0 if is_planar(graph) else 1
    return GenusGraph(graph=relabel_to_integers(graph), genus=genus)


def genus_grid(
    rows: int,
    cols: int,
    genus: int,
    seed: int | random.Random | None = None,
) -> GenusGraph:
    """Return a planar grid with ``genus`` handles added.

    Each handle connects two far-apart grid vertices by a new edge; adding a
    single edge to a graph of genus ``g`` yields a graph of genus at most
    ``g + 1``, so the result has genus at most ``genus``.  The handle
    endpoints are chosen uniformly among vertex pairs at grid distance at
    least ``(rows + cols) / 2`` so that the handles genuinely change the
    topology rather than duplicating short-range connectivity.

    This mirrors the robustness discussion of the paper's introduction: a
    planar network with a few long-range links is no longer planar, but it is
    still an excluded-minor graph, and every added edge is accounted for as a
    handle (or can be absorbed by an apex/vortex in richer constructions).
    """
    if genus < 0:
        raise InvalidGraphError("genus must be non-negative")
    rng = ensure_rng(seed)
    base = grid_graph(rows, cols)
    graph = base.copy()
    coords = sorted((r, c) for r in range(rows) for c in range(cols))
    index = grid_labels(rows, cols)
    min_distance = max(2, (rows + cols) // 2)
    handles: list[frozenset[tuple[int, int]]] = []
    attempts = 0
    while len(handles) < genus and attempts < 100 * (genus + 1):
        attempts += 1
        (r1, c1), (r2, c2) = rng.sample(coords, 2)
        if abs(r1 - r2) + abs(c1 - c2) < min_distance:
            continue
        u, v = index[(r1, c1)], index[(r2, c2)]
        if graph.has_edge(u, v):
            continue
        graph.add_edge(u, v)
        handles.append(frozenset({(min(u, v), max(u, v))}))
    if len(handles) < genus:
        raise InvalidGraphError(
            f"could not place {genus} handles on a {rows}x{cols} grid; "
            "increase the grid size"
        )
    return GenusGraph(graph=graph, genus=genus, handles=tuple(handles))


def genus_upper_bound_from_euler(graph: nx.Graph) -> int:
    """Return the Euler-formula genus upper bound ``ceil((m - 3n + 6) / 6)``.

    For a simple connected graph embedded on an orientable surface of genus
    ``g`` with all faces of length at least 3, Euler's formula gives
    ``m <= 3n - 6 + 6g``.  Rearranging yields a crude but certified lower
    bound on the genus from edge counts, which the tests use as a sanity
    check against the constructive genus bounds (the constructive bound must
    never be smaller than this combinatorial lower bound... note this helper
    actually returns the *lower* bound implied by edge density; planar graphs
    return 0).
    """
    n = graph.number_of_nodes()
    m = graph.number_of_edges()
    if n < 3:
        return 0
    slack = m - (3 * n - 6)
    if slack <= 0:
        return 0
    return (slack + 5) // 6
