"""One Boruvka step on edge ranks, shared by every MWOE search.

:class:`EdgeRanks` ranks every undirected edge once by
``(weight, lo * n + hi)``, so equal weights break ties in the canonical
index-pair edge order of :class:`~repro.core.GraphView`, and an int rank
stands in for an edge: the lightest edge of a set is its minimum rank.
Fragments are an owner array naming every vertex's fragment by its minimum
vertex index.  ``boruvka_mst`` folds the per-vertex ranks with a part-wise
aggregation, ``boruvka_parts`` with a segment minimum over
:func:`fragments`, and ``minimum_outgoing_edges`` over a shortcut's parts.
"""

from __future__ import annotations

import numpy as np

from .view import GraphView, view_of


class EdgeRanks:
    """Every undirected edge of one graph, ranked by ``(weight, lo * n + hi)``.

    A :class:`GraphView` brings its CSR weights; an ``nx.Graph`` is re-read on
    every construction, so weights assigned after it was viewed count
    (missing weights count as 1).

    Attributes:
        none: the rank ``m`` that stands for "no edge"; it exceeds every rank.
        lo, hi, weight: per rank, the edge's endpoints (``lo < hi``) and weight.
        arc_rank: the rank of every CSR arc; both arcs of an edge share it.
    """

    def __init__(self, graph) -> None:
        view = view_of(graph)
        core = view.core
        n = len(view)
        self._indptr, self._col = core.indptr, core.indices
        self._row = np.repeat(np.arange(n), np.diff(self._indptr))
        self._rows = np.flatnonzero(np.diff(self._indptr))  # vertices with arcs
        # Upper arcs are the edges once each, already in lo * n + hi order.
        upper = np.flatnonzero(self._row < self._col)
        lo, hi = self._row[upper], self._col[upper]
        if isinstance(graph, GraphView):
            weight = core.weights[upper]
        else:
            from ..graphs.weights import WEIGHT

            adj, node_of, pairs = graph.adj, view.nodes, zip(lo.tolist(), hi.tolist())
            weight = np.array([adj[node_of[u]][node_of[v]].get(WEIGHT, 1.0) for u, v in pairs])
        order = np.argsort(weight, kind="stable")
        self.lo, self.hi, self.weight = lo[order], hi[order], weight[order]
        self.none = len(upper)
        self.arc_rank = np.empty(len(self._col), dtype=np.int64)
        self.arc_rank[upper[order]] = np.arange(self.none)
        arc_keys = self._row * n + self._col
        self.arc_rank[np.searchsorted(arc_keys, self.hi * n + self.lo)] = np.arange(self.none)

    def lightest(self, owner: np.ndarray) -> np.ndarray:
        """Each vertex's lightest edge to another owner's vertex (:attr:`none` if none).

        ``owner`` may label vertices outside every part ``-1``.
        """
        masked = np.where(owner[self._row] != owner[self._col], self.arc_rank, self.none)
        best = np.full(len(owner), self.none, dtype=np.int64)
        best[self._rows] = np.minimum.reduceat(masked, self._indptr[self._rows])
        return best

    def merge(self, owner: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        """Merge the fragments of ``owner`` along the edges of ``ranks`` (below :attr:`none`).

        Returns the new owner array; every fragment is named by its minimum
        vertex index, before and after.  Each round hooks every edge's larger
        root onto its smaller one and then compresses paths; a component's
        minimum is never hooked, so it ends as the root of all its vertices.
        """
        ranks = ranks[ranks < self.none]
        ends_a, ends_b = owner[self.lo[ranks]], owner[self.hi[ranks]]
        name = np.arange(len(owner))
        while True:
            root_a, root_b = name[ends_a], name[ends_b]
            if (root_a == root_b).all():
                return name[owner]
            np.minimum.at(name, np.maximum(root_a, root_b), np.minimum(root_a, root_b))
            while (name[name] != name).any():
                name = name[name]


def fragments(owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the vertices by (non-negative) owner: ``members[offsets[i] :
    offsets[i + 1]]`` are the vertices of the ``i``-th smallest owner, ascending."""
    sizes = np.bincount(owner)
    return np.argsort(owner, kind="stable"), np.append(0, np.cumsum(sizes[sizes > 0]))
