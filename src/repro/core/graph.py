"""The CSR graph kernel: :class:`CoreGraph`.

A :class:`CoreGraph` is an immutable undirected graph over the integer
vertex set ``0 .. n-1`` stored in compressed-sparse-row form: three flat
arrays ``indptr`` (length ``n + 1``), ``indices`` (length ``2 m``) and
``weights`` (length ``2 m``).  The neighbours of vertex ``u`` are
``indices[indptr[u]:indptr[u + 1]]`` and the weight of the edge to each of
them sits at the same offset in ``weights``.

This is the substrate every hot path of the reproduction runs on: BFS
spanning trees, eccentricities and diameters, connectivity checks, and the
CONGEST simulator's neighbour iteration.  The arrays are stored as flat
Python lists of ints/floats -- indexing a Python list is substantially
faster than item-reading a numpy array element by element, and graph
traversal is exactly that access pattern -- with numpy ``int64``/
``float64`` views available on demand through the ``indptr`` / ``indices``
/ ``weights`` properties for vectorised consumers.

Label management -- mapping an arbitrary ``networkx`` graph's hashable node
labels onto ``0 .. n-1`` and back -- is the job of
:class:`repro.core.view.GraphView`; :class:`CoreGraph` itself never sees a
label.
"""

from __future__ import annotations

import bisect
from typing import Iterable

import numpy as np

from ..errors import InvalidGraphError


class CoreGraph:
    """An immutable int-indexed undirected graph in CSR form.

    Args:
        num_nodes: number of vertices; the vertex set is ``0 .. n-1``.
        edges: iterable of ``(u, v)`` or ``(u, v, weight)`` tuples with
            ``0 <= u, v < n``; each undirected edge appears once.  Self-loops
            are rejected (the CONGEST model has none); parallel edges are
            merged (last weight wins), matching ``nx.Graph`` semantics.

    Each adjacency slice is stored in ascending index order, the canonical
    layout that :meth:`has_edge`'s binary search and deterministic BFS rely
    on.
    """

    __slots__ = (
        "num_nodes",
        "num_edges",
        "_indptr_list",
        "_indices_list",
        "_weights_list",
    )

    def __init__(self, num_nodes: int, edges: Iterable[tuple]) -> None:
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

        self.num_nodes = num_nodes
        self.num_edges = len(indices) // 2
        self._indptr_list = indptr
        self._indices_list = indices
        self._weights_list = weights

    @classmethod
    def from_csr(cls, indptr, indices, weights=None) -> "CoreGraph":
        """Build a :class:`CoreGraph` directly from prebuilt CSR arrays.

        This is the fast constructor behind the native generators
        (:mod:`repro.graphs.native`): assembling a million-node grid
        through :meth:`__init__`'s dict-of-dicts path costs tens of
        seconds, while adopting already-symmetric arrays is a copy.

        Args:
            indptr: row pointers, length ``n + 1``, ``indptr[0] == 0`` and
                non-decreasing.
            indices: column indices, length ``indptr[-1]``; the arrays must
                already be symmetric (every edge present in both rows) with
                no self-loops, and each row ascending.  Only cheap O(1) shape
                checks run here -- the vectorised generators guarantee the
                invariants, and the property tests re-verify them.
            weights: optional weight array parallel to ``indices``
                (defaults to unit weights).

        Accepts numpy arrays or Python lists; the arrays are stored as
        flat Python lists (``tolist()``), matching :meth:`__init__`.
        """
        indptr_list = indptr.tolist() if isinstance(indptr, np.ndarray) else list(indptr)
        indices_list = indices.tolist() if isinstance(indices, np.ndarray) else list(indices)
        if weights is None:
            weights_list = [1.0] * len(indices_list)
        else:
            weights_list = (
                weights.tolist() if isinstance(weights, np.ndarray) else list(weights)
            )
        num_nodes = len(indptr_list) - 1
        if num_nodes < 0:
            raise InvalidGraphError("from_csr needs an indptr of length >= 1")
        if indptr_list and (indptr_list[0] != 0 or indptr_list[-1] != len(indices_list)):
            raise InvalidGraphError("from_csr: indptr does not span the indices array")
        if len(weights_list) != len(indices_list):
            raise InvalidGraphError("from_csr: weights not parallel to indices")
        if len(indices_list) % 2:
            raise InvalidGraphError("from_csr: odd directed-edge count (not symmetric)")
        graph = cls.__new__(cls)
        graph.num_nodes = num_nodes
        graph.num_edges = len(indices_list) // 2
        graph._indptr_list = indptr_list
        graph._indices_list = indices_list
        graph._weights_list = weights_list
        return graph

    # -- accessors ---------------------------------------------------------

    @property
    def indptr(self) -> np.ndarray:
        """The CSR row-pointer array as ``int64`` (derived on demand)."""
        return np.asarray(self._indptr_list, dtype=np.int64)

    @property
    def indices(self) -> np.ndarray:
        """The CSR column-index array as ``int64`` (derived on demand)."""
        return np.asarray(self._indices_list, dtype=np.int64)

    @property
    def weights(self) -> np.ndarray:
        """The CSR edge-weight array as ``float64`` (derived on demand)."""
        return np.asarray(self._weights_list, dtype=np.float64)

    def __len__(self) -> int:
        return self.num_nodes

    def degree(self, u: int) -> int:
        return self._indptr_list[u + 1] - self._indptr_list[u]

    def neighbor_slice(self, u: int) -> tuple[int, int]:
        """Return the ``(start, end)`` offsets of ``u``'s adjacency slice."""
        return self._indptr_list[u], self._indptr_list[u + 1]

    def neighbors(self, u: int) -> list[int]:
        """Return ``u``'s neighbours as a list of Python ints."""
        start, end = self._indptr_list[u], self._indptr_list[u + 1]
        return self._indices_list[start:end]

    def neighbor_weights(self, u: int) -> list[float]:
        """Return the weights parallel to :meth:`neighbors`."""
        start, end = self._indptr_list[u], self._indptr_list[u + 1]
        return self._weights_list[start:end]

    def has_edge(self, u: int, v: int) -> bool:
        if not (isinstance(u, int) and isinstance(v, int)):
            return False
        if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
            return False
        start, end = self._indptr_list[u], self._indptr_list[u + 1]
        position = bisect.bisect_left(self._indices_list, v, start, end)
        return position < end and self._indices_list[position] == v

    def edge_weight(self, u: int, v: int, default: float = 1.0) -> float:
        start, end = self._indptr_list[u], self._indptr_list[u + 1]
        row = self._indices_list[start:end]
        try:
            offset = row.index(v)
        except ValueError:
            return default
        return self._weights_list[start + offset]

    def edges(self) -> Iterable[tuple[int, int, float]]:
        """Yield each undirected edge once as ``(u, v, weight)`` with ``u < v``."""
        indptr, indices, weights = self._indptr_list, self._indices_list, self._weights_list
        for u in range(self.num_nodes):
            for offset in range(indptr[u], indptr[u + 1]):
                v = indices[offset]
                if u < v:
                    yield u, v, weights[offset]

    # -- traversal ---------------------------------------------------------

    def bfs_parents(self, root: int) -> tuple[list[int], list[int]]:
        """Breadth-first search from ``root`` over the CSR adjacency.

        Returns ``(parents, order)`` where ``parents[v]`` is the BFS parent
        of ``v`` (``-1`` for the root, ``-2`` for unreached vertices) and
        ``order`` is the discovery order starting with ``root``.  With the
        canonical sorted adjacency this is exactly the tree
        ``bfs_spanning_tree`` built on the ``networkx`` side, because index
        order coincides with the repr order used there for tie-breaking.
        """
        if not 0 <= root < self.num_nodes:
            raise InvalidGraphError(f"BFS root {root} out of range for n={self.num_nodes}")
        indptr, indices = self._indptr_list, self._indices_list
        parents = [-2] * self.num_nodes
        parents[root] = -1
        order = [root]
        head = 0
        while head < len(order):
            u = order[head]
            head += 1
            for offset in range(indptr[u], indptr[u + 1]):
                v = indices[offset]
                if parents[v] == -2:
                    parents[v] = u
                    order.append(v)
        return parents, order

    def bfs_depths(self, root: int) -> list[int]:
        """Return hop distances from ``root`` (``-1`` for unreached vertices)."""
        indptr, indices = self._indptr_list, self._indices_list
        depths = [-1] * self.num_nodes
        depths[root] = 0
        frontier = [root]
        while frontier:
            next_frontier = []
            for u in frontier:
                du = depths[u] + 1
                for offset in range(indptr[u], indptr[u + 1]):
                    v = indices[offset]
                    if depths[v] < 0:
                        depths[v] = du
                        next_frontier.append(v)
            frontier = next_frontier
        return depths

    def eccentricity(self, root: int) -> int:
        """Return ``max_v dist(root, v)``; raises if the graph is disconnected."""
        depths = self.bfs_depths(root)
        lowest = min(depths) if depths else 0
        if lowest < 0:
            raise InvalidGraphError("eccentricity undefined on a disconnected graph")
        return max(depths, default=0)

    def is_connected(self) -> bool:
        if self.num_nodes == 0:
            return False
        return min(self.bfs_depths(0)) >= 0

    def exact_diameter(self) -> int:
        """Return the exact diameter by running one BFS per vertex."""
        if self.num_nodes <= 1:
            return 0
        return max(self.eccentricity(u) for u in range(self.num_nodes))

    def double_sweep_diameter(self) -> int:
        """Return the double-BFS diameter lower bound (exact on trees).

        Standard practice for experiment bookkeeping at scale: BFS from
        vertex 0, then BFS again from a farthest vertex; the second
        eccentricity is within a factor 2 of the true diameter.
        """
        if self.num_nodes <= 1:
            return 0
        depths = self.bfs_depths(0)
        if min(depths) < 0:
            raise InvalidGraphError("diameter undefined on a disconnected graph")
        far = depths.index(max(depths))
        return self.eccentricity(far)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"CoreGraph(n={self.num_nodes}, m={self.num_edges})"
