"""Planar graph generators and helpers.

Planar graphs are the simplest non-trivial excluded-minor family (they exclude
``K_5`` and ``K_{3,3}``) and are the base case of the paper's construction:
they are precisely the ``(0, 0, 0, 0)``-almost-embeddable graphs, and
Theorem 4 (Ghaffari--Haeupler, SODA'16) gives them tree-restricted shortcuts
with block parameter ``O(log d)`` and congestion ``O(d log d)``.

Generators in this module produce connected planar graphs with integer node
labels; several of them (grids, wheels, cylinders) have a well-understood
diameter, which the experiments use to sweep the diameter ``D`` independently
of the size ``n``.
"""

from __future__ import annotations

import random
from typing import Sequence

import networkx as nx
import numpy as np

from ..errors import InvalidGraphError
from ..utils import ensure_rng, relabel_to_integers, require_connected


def grid_graph(rows: int, cols: int) -> nx.Graph:
    """Return the ``rows x cols`` grid graph with integer labels.

    The grid has ``rows * cols`` nodes and diameter ``rows + cols - 2``; it is
    the canonical planar graph whose diameter can be tuned independently of
    size (square grids have ``D = Theta(sqrt(n))``, thin grids ``D = Theta(n)``).
    """
    if rows < 1 or cols < 1:
        raise InvalidGraphError("grid dimensions must be positive")
    graph = nx.grid_2d_graph(rows, cols)
    return relabel_to_integers(graph)


def grid_labels(rows: int, cols: int) -> dict[tuple[int, int], int]:
    """Return the integer label :func:`grid_graph` gives each ``(r, c)`` coordinate.

    :func:`grid_graph` relabels through :func:`repro.utils.relabel_to_integers`,
    which orders the coordinates by ``repr``.  For sides of 11 or more that is
    not tuple order (``"(0, 10)" < "(0, 2)"``), so code that addresses grid
    vertices by coordinate must go through this map.
    """
    coords = sorted(((r, c) for r in range(rows) for c in range(cols)), key=repr)
    return {coord: label for label, coord in enumerate(coords)}


def cycle_graph(n: int) -> nx.Graph:
    """Return the cycle on ``n >= 3`` nodes (diameter ``floor(n/2)``)."""
    if n < 3:
        raise InvalidGraphError("a cycle needs at least 3 nodes")
    return nx.cycle_graph(n)


def star_graph(n: int) -> nx.Graph:
    """Return the star with one centre and ``n`` leaves (diameter 2)."""
    if n < 1:
        raise InvalidGraphError("a star needs at least one leaf")
    return nx.star_graph(n)


def wheel_graph(n: int) -> nx.Graph:
    """Return the wheel graph: a cycle on ``n`` nodes plus a universal hub.

    The wheel is the paper's running example (Section 1.3.3 and 2.3.2): the
    outer cycle alone needs ``Theta(n)`` rounds to aggregate, but the hub --
    an apex -- collapses the diameter to 2, and good shortcuts must exploit it.
    """
    if n < 3:
        raise InvalidGraphError("a wheel needs a cycle of at least 3 nodes")
    return nx.wheel_graph(n + 1)


def cylinder_graph(rows: int, cols: int) -> nx.Graph:
    """Return a cylindrical grid: a ``rows x cols`` grid wrapped along columns.

    Cylinders are planar (unlike the torus) and provide planar instances with
    many vertex-disjoint cycles, a harder workload for shortcut construction
    than plain grids.
    """
    if rows < 1 or cols < 3:
        raise InvalidGraphError("a cylinder needs at least 1 row and 3 columns")
    graph = nx.Graph()
    for r in range(rows):
        for c in range(cols):
            graph.add_node((r, c))
    for r in range(rows):
        for c in range(cols):
            graph.add_edge((r, c), (r, (c + 1) % cols))
            if r + 1 < rows:
                graph.add_edge((r, c), (r + 1, c))
    return relabel_to_integers(graph)


def random_delaunay_triangulation(n: int, seed: int | random.Random | None = None) -> nx.Graph:
    """Return the Delaunay triangulation of ``n`` random points in the unit square.

    Delaunay triangulations are planar, connected, and have small diameter
    (``~sqrt(n)`` hops for uniform points), which makes them a realistic
    "two-dimensional map" workload -- the kind of network the introduction of
    the paper motivates planar graphs with.
    """
    if n < 3:
        raise InvalidGraphError("a triangulation needs at least 3 points")
    rng = ensure_rng(seed)
    # scipy's Delaunay requires a numpy RNG; derive it from our seed for determinism.
    np_rng = np.random.default_rng(rng.randrange(2**32))
    points = np_rng.random((n, 2))
    from scipy.spatial import Delaunay  # deferred import: scipy is heavy

    triangulation = Delaunay(points)
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for simplex in triangulation.simplices:
        a, b, c = (int(x) for x in simplex)
        graph.add_edge(a, b)
        graph.add_edge(b, c)
        graph.add_edge(a, c)
    require_connected(graph, "Delaunay triangulation")
    return graph


def random_outerplanar_graph(n: int, seed: int | random.Random | None = None) -> nx.Graph:
    """Return a random maximal outerplanar graph on ``n`` nodes.

    A maximal outerplanar graph is a triangulated polygon: the ``n``-cycle
    ``0, 1, ..., n-1`` plus a random set of non-crossing chords forming a
    triangulation of its interior.  Outerplanar graphs exclude ``K_4`` and
    ``K_{2,3}`` as minors and have treewidth 2, so they exercise both the
    planar and the bounded-treewidth shortcut constructions.
    """
    if n < 3:
        raise InvalidGraphError("an outerplanar graph needs at least 3 nodes")
    rng = ensure_rng(seed)
    graph = nx.cycle_graph(n)

    def triangulate(lo: int, hi: int) -> None:
        """Triangulate the polygon ear spanned by boundary vertices lo..hi."""
        if hi - lo < 2:
            return
        pivot = rng.randrange(lo + 1, hi)
        if pivot - lo >= 2:
            graph.add_edge(lo, pivot)
        if hi - pivot >= 2:
            graph.add_edge(pivot, hi)
        triangulate(lo, pivot)
        triangulate(pivot, hi)

    triangulate(0, n - 1)
    return graph


def random_series_parallel_graph(n: int, seed: int | random.Random | None = None) -> nx.Graph:
    """Return a random series-parallel graph on ``n`` nodes.

    Series-parallel graphs exclude ``K_4`` as a minor and "capture many
    network backbones" (introduction of the paper).  The generator starts
    from a single edge and repeatedly applies random series (subdivide an
    edge by a new node) and parallel-then-series expansions, which keeps the
    graph simple while covering the whole family.
    """
    if n < 2:
        raise InvalidGraphError("a series-parallel graph needs at least 2 nodes")
    rng = ensure_rng(seed)
    graph = nx.Graph()
    graph.add_edge(0, 1)
    next_node = 2
    while next_node < n:
        u, v = rng.choice(list(graph.edges()))
        new = next_node
        next_node += 1
        if rng.random() < 0.5:
            # Series operation: subdivide edge (u, v) with the new node.
            graph.remove_edge(u, v)
            graph.add_edge(u, new)
            graph.add_edge(new, v)
        else:
            # "Diamond" operation: add a parallel path u - new - v, which is a
            # parallel composition of the edge (u, v) with a 2-edge path.
            graph.add_edge(u, new)
            graph.add_edge(new, v)
    require_connected(graph, "series-parallel graph")
    return graph


def is_planar(graph: nx.Graph) -> bool:
    """Return True iff ``graph`` is planar (Kuratowski/Boyer-Myrvold check)."""
    planar, _ = nx.check_planarity(graph)
    return planar


def planar_embedding(graph: nx.Graph) -> nx.PlanarEmbedding:
    """Return a combinatorial planar embedding of ``graph``.

    Raises :class:`InvalidGraphError` if the graph is not planar.  The
    embedding is used by the combinatorial-gate construction (Lemma 7), which
    needs a consistent cyclic order of edges around each vertex.
    """
    planar, embedding = nx.check_planarity(graph)
    if not planar:
        raise InvalidGraphError("graph is not planar")
    return embedding


def embedding_faces(embedding: nx.PlanarEmbedding) -> list[tuple]:
    """Enumerate the faces of a planar embedding as tuples of vertices.

    Each face is traversed once; the returned list covers every directed edge
    exactly once across all faces (Euler's formula ``n - m + f = 2`` holds for
    connected embeddings, which the tests verify).
    """
    faces: list[tuple] = []
    seen: set[tuple] = set()
    for u, v in embedding.edges():
        if (u, v) in seen:
            continue
        face = embedding.traverse_face(u, v, mark_half_edges=seen)
        faces.append(tuple(face))
    return faces


def boundary_cycle(rows: int, cols: int, graph: nx.Graph | None = None) -> Sequence[int]:
    """Return the outer boundary cycle of a ``rows x cols`` grid, as node labels.

    The vortex construction (Definition 4) attaches a vortex to a facial
    cycle; for grid-based generators the outer boundary is the natural face
    to use, and this helper returns it in cyclic order, in the labelling of
    :func:`grid_graph` (:func:`grid_labels`).  If ``graph`` is given it must
    be the graph returned by :func:`grid_graph` for the same dimensions.
    """
    index = grid_labels(rows, cols)
    path: list[int] = []
    # top row left->right, right column top->bottom, bottom row right->left,
    # left column bottom->top.
    for c in range(cols):
        path.append(index[(0, c)])
    for r in range(1, rows):
        path.append(index[(r, cols - 1)])
    for c in range(cols - 2, -1, -1):
        path.append(index[(rows - 1, c)])
    for r in range(rows - 2, 0, -1):
        path.append(index[(r, 0)])
    if graph is not None:
        for a, b in zip(path, path[1:] + path[:1]):
            if not graph.has_edge(a, b) and len(path) > 1:
                raise InvalidGraphError(
                    "boundary_cycle: supplied graph does not match grid dimensions"
                )
    return path
