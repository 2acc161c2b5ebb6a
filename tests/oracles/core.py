"""The seed CSR assembly: ``CoreGraph``'s dict-of-dicts constructor.

Before :meth:`repro.core.CoreGraph.from_edges` assembled every graph with
one vectorised pass, the label-graph constructor merged the edges into one
dict per vertex and emitted each row sorted.  :func:`csr_lists` keeps that
loop as the oracle the assembly is pinned to.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import InvalidGraphError


def csr_lists(num_nodes: int, edges: Iterable[tuple]) -> tuple[list, list, list]:
    """Return ``(indptr, indices, weights)`` of ``(u, v[, weight])`` edges.

    Self-loops and out-of-range endpoints raise, naming the first offending
    edge; parallel edges merge and the last weight wins.
    """
    if num_nodes < 0:
        raise InvalidGraphError("CoreGraph needs a non-negative vertex count")
    adjacency: list[dict[int, float]] = [dict() for _ in range(num_nodes)]
    for edge in edges:
        u, v = edge[0], edge[1]
        weight = float(edge[2]) if len(edge) > 2 else 1.0
        if u == v:
            raise InvalidGraphError(f"CoreGraph rejects self-loop ({u}, {v})")
        if not (0 <= u < num_nodes and 0 <= v < num_nodes):
            raise InvalidGraphError(f"edge ({u}, {v}) out of range for n={num_nodes}")
        adjacency[u][v] = weight
        adjacency[v][u] = weight

    indptr = [0] * (num_nodes + 1)
    indices: list[int] = []
    weights: list[float] = []
    for u in range(num_nodes):
        for v, weight in sorted(adjacency[u].items()):
            indices.append(v)
            weights.append(weight)
        indptr[u + 1] = len(indices)
    return indptr, indices, weights
