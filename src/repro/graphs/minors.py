"""Minor containment testing for small excluded minors.

A graph ``H`` is a minor of ``G`` if ``H`` can be obtained from ``G`` by
deleting vertices/edges and contracting edges; equivalently, ``G`` contains a
*branch-set model* of ``H``: disjoint connected vertex sets, one per vertex of
``H``, with an edge of ``G`` between every pair of sets corresponding to an
edge of ``H``.

Minor testing for a fixed ``H`` is polynomial (Robertson--Seymour), but the
known algorithms have galactic constants, so -- like the paper, which never
tests minors algorithmically -- we only need this module for *validation* of
our generators on small instances: planar generators must exclude ``K_5``,
series-parallel generators ``K_4``, partial ``k``-trees ``K_{k+2}``, and so
on.  The implementation is an exact branch-and-bound search over branch-set
models, suitable for graphs up to a few dozen vertices and minors up to
``K_6``/``K_{3,3}``.
"""

from __future__ import annotations

import itertools
from typing import Hashable, Sequence

import networkx as nx

from ..errors import InvalidGraphError


def _quick_negative(graph: nx.Graph, minor: nx.Graph) -> bool:
    """Return True if easy counting arguments already rule the minor out."""
    if graph.number_of_nodes() < minor.number_of_nodes():
        return True
    if graph.number_of_edges() < minor.number_of_edges():
        return True
    # Deleting and contracting edges never creates a cycle, so a forest host
    # has no minor containing one.
    return nx.is_forest(graph) and not nx.is_forest(minor)


def _quick_positive(graph: nx.Graph, minor: nx.Graph) -> bool:
    """Return True if the minor is trivially present (subgraph check on cliques)."""
    h = minor.number_of_nodes()
    if minor.number_of_edges() == h * (h - 1) // 2:
        # H is a complete graph; any clique of size h in G certifies the minor.
        try:
            clique = next(
                c for c in nx.find_cliques(graph) if len(c) >= h
            )
            return clique is not None
        except StopIteration:
            return False
    return False


def has_minor(graph: nx.Graph, minor: nx.Graph, node_limit: int = 60) -> bool:
    """Return True iff ``minor`` is a minor of ``graph`` (exact, exponential).

    Args:
        graph: host graph (must have at most ``node_limit`` nodes, since the
            search is exponential in the worst case).
        minor: the pattern graph ``H``.
        node_limit: guard against accidentally running the exact search on a
            large host graph.

    The search assigns to every vertex of ``H`` (in decreasing degree order) a
    connected branch set of ``graph``, maintaining disjointness and the
    adjacency requirements towards already-placed branch sets.  Branch sets
    are grown lazily: a vertex of ``H`` first gets a single-vertex branch set,
    which may later be *extended* by unused neighbouring vertices when an
    adjacency requirement cannot be met otherwise.
    """
    if graph.number_of_nodes() > node_limit:
        raise InvalidGraphError(
            f"exact minor test limited to {node_limit} nodes; got "
            f"{graph.number_of_nodes()} (raise node_limit explicitly if intended)"
        )
    if minor.number_of_nodes() == 0:
        return True
    if _quick_negative(graph, minor):
        return False
    if not nx.is_connected(minor):
        # Each component must be a minor of G using disjoint territory; for
        # the small minors we care about (K_t, K_{3,3}) this never triggers,
        # so handle it by the simple (sound but possibly slow) reduction of
        # testing the components one by one on the same host -- correct
        # whenever the host is much larger than the pattern, which the
        # callers' usage guarantees.
        return all(
            has_minor(graph, minor.subgraph(component).copy(), node_limit=node_limit)
            for component in nx.connected_components(minor)
        )
    if _quick_positive(graph, minor):
        return True

    h_nodes = sorted(minor.nodes(), key=lambda v: -minor.degree(v))
    g_nodes = sorted(graph.nodes(), key=lambda v: -graph.degree(v))
    adjacency = {v: set(graph.neighbors(v)) for v in graph.nodes()}

    # branch[i] is the current branch set (a set of G-vertices) of h_nodes[i].
    branch: list[set[Hashable]] = []
    used: set[Hashable] = set()

    def branch_adjacent(i: int, j: int) -> bool:
        """Are the branch sets of h_nodes[i] and h_nodes[j] adjacent in G?"""
        smaller, larger = (branch[i], branch[j]) if len(branch[i]) <= len(branch[j]) else (
            branch[j],
            branch[i],
        )
        return any(adjacency[v] & larger for v in smaller)

    def requirements_satisfiable(i: int) -> bool:
        """Check adjacency of the newly completed branch i towards earlier ones."""
        for j in range(i):
            if minor.has_edge(h_nodes[i], h_nodes[j]) and not branch_adjacent(i, j):
                return False
        return True

    def extend_to_meet(i: int, j: int, budget: int) -> list[Hashable] | None:
        """Try to extend branch i with unused vertices so it touches branch j.

        Performs a BFS from branch i through unused vertices, stopping as soon
        as a vertex adjacent to branch j is reachable; returns the added
        vertices or None.  ``budget`` caps the extension length to keep the
        search bounded.
        """
        frontier = list(branch[i])
        parents: dict[Hashable, Hashable | None] = {v: None for v in branch[i]}
        target_adjacent = set()
        for v in branch[j]:
            target_adjacent |= adjacency[v]
        depth = 0
        while frontier and depth < budget:
            depth += 1
            next_frontier: list[Hashable] = []
            for v in frontier:
                for w in adjacency[v]:
                    if w in used or w in parents:
                        continue
                    parents[w] = v
                    if w in target_adjacent:
                        path = [w]
                        cur = v
                        while cur is not None and cur not in branch[i]:
                            path.append(cur)
                            cur = parents[cur]
                        return path
                    next_frontier.append(w)
            frontier = next_frontier
        return None

    def place(i: int) -> bool:
        if i == len(h_nodes):
            return True
        for candidate in g_nodes:
            if candidate in used:
                continue
            branch.append({candidate})
            used.add(candidate)
            added_extra: list[Hashable] = []
            feasible = True
            for j in range(i):
                if not minor.has_edge(h_nodes[i], h_nodes[j]):
                    continue
                if branch_adjacent(i, j):
                    continue
                extension = extend_to_meet(i, j, budget=graph.number_of_nodes())
                if extension is None:
                    feasible = False
                    break
                for v in extension:
                    branch[i].add(v)
                    used.add(v)
                    added_extra.append(v)
            if feasible and requirements_satisfiable(i) and place(i + 1):
                return True
            for v in added_extra:
                used.discard(v)
            used.discard(candidate)
            branch.pop()
        return False

    return place(0)


def excludes_minor(graph: nx.Graph, minor: nx.Graph, node_limit: int = 60) -> bool:
    """Return True iff ``minor`` is *not* a minor of ``graph`` (exact)."""
    return not has_minor(graph, minor, node_limit=node_limit)


def complete_graph_minor(t: int) -> nx.Graph:
    """Return ``K_t`` (convenience for the common excluded minors)."""
    return nx.complete_graph(t)


def complete_bipartite_minor(a: int, b: int) -> nx.Graph:
    """Return ``K_{a,b}`` (``K_{3,3}`` is the other Kuratowski minor)."""
    return nx.complete_bipartite_graph(a, b)


def verify_family_exclusion(
    graphs: Sequence[nx.Graph], minor: nx.Graph, node_limit: int = 60
) -> bool:
    """Return True iff every graph in ``graphs`` excludes ``minor``.

    Convenience wrapper used by the generator validation tests: a generator
    for an excluded-minor family must never emit a graph containing the
    forbidden minor.
    """
    return all(excludes_minor(graph, minor, node_limit=node_limit) for graph in graphs)
