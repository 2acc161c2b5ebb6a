"""The ``nx`` twins of the CSR-native generators in :mod:`repro.graphs.native`.

:data:`NATIVE_GENERATORS` pairs every native generator with the label-space
generator whose ``GraphView`` it must equal exactly; it maps a family name
to ``(native callable, twin callable, list of kwargs dicts exercised by
the tests)``.  Twins take the same positional shape parameters; weight arguments
apply to the native side only (the twin is weighted separately via
``assign_hashed_weights``).  Most twins are the :mod:`repro.graphs.planar`
generators; the two chain shapes have no production ``nx`` generator, so
their seed builders live here.
"""

from __future__ import annotations

import networkx as nx

from repro.errors import InvalidGraphError
from repro.graphs.native import (
    native_clique_sum_chain,
    native_cycle,
    native_cylinder,
    native_delaunay,
    native_grid,
    native_ktree_chain,
    native_star,
    native_wheel,
)
from repro.graphs.planar import (
    cycle_graph,
    cylinder_graph,
    grid_graph,
    random_delaunay_triangulation,
    star_graph,
    wheel_graph,
)


def ktree_chain_reference(n: int, k: int) -> nx.Graph:
    """The label-space twin of :func:`repro.graphs.native.native_ktree_chain`.

    A deterministic interval ``k``-tree: vertex ``i`` is adjacent to the
    ``min(i, k)`` preceding vertices, so the bags ``{i-k, ..., i}`` form a
    path decomposition of width ``k`` (a bounded-treewidth chain -- the
    shape the scale experiments use because its treewidth is independent
    of ``n``).
    """
    if k < 1:
        raise InvalidGraphError("k must be at least 1")
    if n < k + 1:
        raise InvalidGraphError(f"a {k}-tree chain needs at least {k + 1} nodes")
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for i in range(1, n):
        for j in range(max(0, i - k), i):
            graph.add_edge(j, i)
    return graph


def clique_sum_chain_reference(num_bags: int, bag_side: int, k: int) -> nx.Graph:
    """The label-space twin of :func:`repro.graphs.native.native_clique_sum_chain`.

    A deterministic ``k``-clique-sum of ``num_bags`` grid blocks: block
    ``t`` is a ``bag_side x bag_side`` grid on the label interval starting
    at ``t * (bag_side**2 - k)`` (cell ``(r, c)`` at offset ``r*bag_side +
    c``), each junction's ``k`` shared vertices -- the last ``k`` cells of
    one block and the first ``k`` of the next -- completed into a clique,
    which is the set the two blocks are glued on.
    """
    if num_bags < 1 or k < 1:
        raise InvalidGraphError("need at least one bag and k >= 1")
    if bag_side * bag_side < 2 * k:
        raise InvalidGraphError("bag too small for the junction cliques")
    size = bag_side * bag_side
    graph = nx.Graph()
    for t in range(num_bags):
        base = t * (size - k)
        for r in range(bag_side):
            for c in range(bag_side):
                node = base + r * bag_side + c
                if c + 1 < bag_side:
                    graph.add_edge(node, node + 1)
                if r + 1 < bag_side:
                    graph.add_edge(node, node + bag_side)
    for t in range(num_bags - 1):
        shared = [t * (size - k) + size - k + i for i in range(k)]
        for i in range(k):
            for j in range(i + 1, k):
                graph.add_edge(shared[i], shared[j])
    return graph


NATIVE_GENERATORS: dict[str, tuple] = {
    "grid": (native_grid, grid_graph, [{"rows": 4, "cols": 7}, {"rows": 13, "cols": 12}, {"rows": 1, "cols": 30}]),
    "cylinder": (native_cylinder, cylinder_graph, [{"rows": 3, "cols": 5}, {"rows": 11, "cols": 14}]),
    "cycle": (native_cycle, cycle_graph, [{"n": 3}, {"n": 41}]),
    "star": (native_star, star_graph, [{"n": 1}, {"n": 27}]),
    "wheel": (native_wheel, wheel_graph, [{"n": 3}, {"n": 23}]),
    "delaunay": (native_delaunay, random_delaunay_triangulation, [{"n": 30, "seed": 3}, {"n": 150, "seed": 11}]),
    "ktree_chain": (native_ktree_chain, ktree_chain_reference, [{"n": 12, "k": 1}, {"n": 40, "k": 4}]),
    "clique_sum_chain": (
        native_clique_sum_chain,
        clique_sum_chain_reference,
        [{"num_bags": 2, "bag_side": 3, "k": 2}, {"num_bags": 5, "bag_side": 4, "k": 3}],
    ),
}
