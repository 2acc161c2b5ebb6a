"""The CSR graph kernel: :class:`CoreGraph`.

A :class:`CoreGraph` is an immutable undirected graph over the integer
vertex set ``0 .. n-1`` stored in compressed-sparse-row form: three flat
numpy arrays ``indptr`` (``int64``, length ``n + 1``), ``indices``
(``int64``, length ``2 m``) and ``weights`` (``float64``, length ``2 m``).
The neighbours of vertex ``u`` are ``indices[indptr[u]:indptr[u + 1]]``,
ascending, and the weight of the edge to each of them sits at the same
offset in ``weights``.

This is the substrate every hot path of the reproduction runs on: BFS
spanning trees, eccentricities and diameters, connectivity checks, and the
CONGEST simulator's neighbour iteration.  Every graph is built by one
vectorised assembly (:meth:`CoreGraph.from_edges`) or adopts prebuilt
arrays (:meth:`CoreGraph.from_csr`); the traversals run on
``scipy.sparse.csgraph``.  Per-node Python loops -- the simulator's batch
steps, part connectivity, the gate validator -- would item-read the numpy
arrays element by element, which is slow, so they read :attr:`CoreGraph.lists`
instead: the same three arrays as Python lists, built on first use and
cached on the graph.

Label management -- mapping an arbitrary ``networkx`` graph's hashable node
labels onto ``0 .. n-1`` and back -- is the job of
:class:`repro.core.view.GraphView`; :class:`CoreGraph` itself never sees a
label.
"""

from __future__ import annotations

import bisect
from typing import Iterable

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import breadth_first_order, connected_components, shortest_path

from ..errors import InvalidGraphError


class CoreGraph:
    """An immutable int-indexed undirected graph in CSR form.

    Args:
        num_nodes: number of vertices; the vertex set is ``0 .. n-1``.
        edges: iterable of ``(u, v)`` or ``(u, v, weight)`` tuples, the
            input of :meth:`from_edges` one edge at a time.

    Each adjacency slice is stored in ascending index order, the canonical
    layout that :meth:`has_edge`'s binary search and deterministic BFS rely
    on.
    """

    __slots__ = (
        "num_nodes", "num_edges", "indptr", "indices", "weights", "_lists", "_connected",
        "_reverse_arcs",
    )

    def __init__(self, num_nodes: int, edges: Iterable[tuple]) -> None:
        rows = [(edge[0], edge[1], edge[2] if len(edge) > 2 else 1.0) for edge in edges]
        u, v, weights = zip(*rows) if rows else ((), (), ())
        self._adopt(*_assemble(num_nodes, u, v, weights))

    @classmethod
    def from_edges(cls, num_nodes: int, u, v, weights=None) -> "CoreGraph":
        """Assemble a :class:`CoreGraph` from parallel edge arrays.

        Every undirected edge ``(u[i], v[i])`` may appear in either
        orientation and more than once: parallel edges merge and the last
        weight wins, matching ``nx.Graph`` semantics.  ``weights`` defaults
        to unit weights.  Self-loops (the CONGEST model has none) and
        endpoints outside ``0 .. n-1`` raise :class:`InvalidGraphError`
        naming the first offending edge in input order.
        """
        return cls.from_csr(*_assemble(num_nodes, u, v, weights))

    @classmethod
    def from_csr(cls, indptr, indices, weights=None) -> "CoreGraph":
        """Adopt prebuilt CSR arrays as given (``int64`` / ``float64`` arrays
        are stored without a copy).

        Args:
            indptr: row pointers, length ``n + 1``, ``indptr[0] == 0`` and
                non-decreasing.
            indices: column indices, length ``indptr[-1]``; the arrays must
                already be symmetric (every edge present in both rows) with
                no self-loops, and each row ascending.  Only cheap O(1) shape
                checks run here -- :meth:`from_edges` guarantees the
                invariants, and the property tests re-verify them.
            weights: optional weight array parallel to ``indices``
                (defaults to unit weights).
        """
        graph = cls.__new__(cls)
        graph._adopt(indptr, indices, weights)
        return graph

    def _adopt(self, indptr, indices, weights) -> None:
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if weights is None:
            weights = np.ones(len(indices))
        weights = np.asarray(weights, dtype=np.float64)
        if len(indptr) < 1:
            raise InvalidGraphError("from_csr needs an indptr of length >= 1")
        if indptr[0] != 0 or indptr[-1] != len(indices):
            raise InvalidGraphError("from_csr: indptr does not span the indices array")
        if len(weights) != len(indices):
            raise InvalidGraphError("from_csr: weights not parallel to indices")
        if len(indices) % 2:
            raise InvalidGraphError("from_csr: odd directed-edge count (not symmetric)")
        self.num_nodes = len(indptr) - 1
        self.num_edges = len(indices) // 2
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self._lists = None
        self._connected: bool | None = None
        self._reverse_arcs: np.ndarray | None = None

    # -- accessors ---------------------------------------------------------

    @property
    def lists(self) -> tuple[list[int], list[int], list[float]]:
        """``(indptr, indices, weights)`` as Python lists, for per-node loops.

        Built on first use and cached: indexing a Python list is much faster
        than item-reading a numpy array element by element.
        """
        if self._lists is None:
            self._lists = (self.indptr.tolist(), self.indices.tolist(), self.weights.tolist())
        return self._lists

    def neighbors(self, u: int) -> list[int]:
        """Return ``u``'s neighbours as a list of Python ints."""
        indptr, indices, _ = self.lists
        return indices[indptr[u] : indptr[u + 1]]

    def neighbor_weights(self, u: int) -> list[float]:
        """Return the weights parallel to :meth:`neighbors`."""
        indptr, _, weights = self.lists
        return weights[indptr[u] : indptr[u + 1]]

    def arc_keys(self) -> np.ndarray:
        """The directed edges as int keys ``row * n + column``, in CSR order.

        They ascend, because every CSR row does, so a ``searchsorted`` into
        them finds an arc's CSR position.
        """
        keys = np.repeat(np.arange(self.num_nodes, dtype=np.int64) * self.num_nodes,
                         np.diff(self.indptr))
        keys += self.indices
        return keys

    @property
    def reverse_arcs(self) -> np.ndarray:
        """The CSR position of every arc's reverse: ``(v, u)`` for ``(u, v)``.

        An involution without fixed points (the graph is symmetric and has
        no self-loops).  Sorting the arcs by (column, row) lists them in the
        ascending order of their reverses' keys, so that order is the
        permutation.  Built on first use and cached.
        """
        if self._reverse_arcs is None:
            self._reverse_arcs = np.argsort(self.indices, kind="stable")
        return self._reverse_arcs

    def has_edge(self, u: int, v: int) -> bool:
        if not (isinstance(u, int) and isinstance(v, int)):
            return False
        if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
            return False
        indptr, indices, _ = self.lists
        start, end = indptr[u], indptr[u + 1]
        position = bisect.bisect_left(indices, v, start, end)
        return position < end and indices[position] == v

    def has_edges(self, u, v) -> np.ndarray:
        """Vectorised :meth:`has_edge`: whether each ``(u[i], v[i])`` is an
        edge, for index arrays ``u`` and ``v`` within ``0 .. n-1``.

        One ``searchsorted`` into :meth:`arc_keys`.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        arc_keys = self.arc_keys()
        keys = u * self.num_nodes + v
        found = np.searchsorted(arc_keys, keys)
        present = found < len(arc_keys)
        present[present] = arc_keys[found[present]] == keys[present]
        return present

    def edges(self) -> Iterable[tuple[int, int, float]]:
        """Iterate over each undirected edge once as ``(u, v, weight)``, ``u < v``."""
        rows = np.repeat(np.arange(self.num_nodes), np.diff(self.indptr))
        upper = rows < self.indices
        columns = (rows[upper], self.indices[upper], self.weights[upper])
        return zip(*(column.tolist() for column in columns))

    # -- traversal ---------------------------------------------------------

    def _csgraph(self) -> csr_array:
        """The unit-weight adjacency matrix the ``csgraph`` traversals read."""
        n = self.num_nodes
        return csr_array((np.ones(len(self.indices)), self.indices, self.indptr), shape=(n, n))

    def _check_root(self, root: int) -> None:
        if not 0 <= root < self.num_nodes:
            raise InvalidGraphError(f"BFS root {root} out of range for n={self.num_nodes}")

    def bfs_parents(self, root: int) -> tuple[list[int], list[int]]:
        """Breadth-first search from ``root`` over the CSR adjacency.

        Returns ``(parents, order)`` where ``parents[v]`` is the BFS parent
        of ``v`` (``-1`` for the root, ``-2`` for unreached vertices) and
        ``order`` is the discovery order starting with ``root``.  The search
        is FIFO and scans each row in ascending index order, so with the
        canonical sorted adjacency this is exactly the tree
        ``bfs_spanning_tree`` built on the ``networkx`` side, because index
        order coincides with the repr order used there for tie-breaking.
        """
        self._check_root(root)
        order, predecessors = breadth_first_order(
            self._csgraph(), root, directed=True, return_predecessors=True
        )
        parents = predecessors.astype(np.int64)
        parents[parents < 0] = -2
        parents[root] = -1
        return parents.tolist(), order.tolist()

    def bfs_depths(self, root: int) -> list[int]:
        """Return hop distances from ``root`` (``-1`` for unreached vertices)."""
        self._check_root(root)
        distances = shortest_path(self._csgraph(), "D", unweighted=True, indices=root)
        distances[np.isinf(distances)] = -1
        return distances.astype(np.int64).tolist()

    def eccentricity(self, root: int) -> int:
        """Return ``max_v dist(root, v)``; raises if the graph is disconnected."""
        self._check_root(root)
        return _eccentricity(self._csgraph(), root)

    def is_connected(self) -> bool:
        """Whether the graph is connected (False when empty); cached, as the
        graph never changes."""
        if self._connected is None:
            # Symmetric adjacency: its strong components are its components.
            self._connected = self.num_nodes > 0 and bool(connected_components(
                self._csgraph(), connection="strong", return_labels=False
            ) == 1)
        return self._connected

    def require_connected(self, what: str = "graph") -> None:
        """Raise :class:`InvalidGraphError` unless the graph is non-empty and
        connected: a precondition on the caller's input, named ``what``."""
        if self.num_nodes == 0:
            raise InvalidGraphError(f"{what} is empty")
        if not self.is_connected():
            raise InvalidGraphError(f"{what} is not connected")

    def exact_diameter(self) -> int:
        """Return the exact diameter by running one BFS per vertex."""
        if self.num_nodes <= 1:
            return 0
        graph = self._csgraph()
        return max(_eccentricity(graph, u) for u in range(self.num_nodes))

    def double_sweep_diameter(self) -> int:
        """Return the double-BFS diameter lower bound (exact on trees).

        Standard practice for experiment bookkeeping at scale: BFS from
        vertex 0, then BFS again from a farthest vertex; the second
        eccentricity is within a factor 2 of the true diameter.
        """
        if self.num_nodes <= 1:
            return 0
        graph = self._csgraph()
        distances = shortest_path(graph, "D", unweighted=True, indices=0)
        if np.isinf(distances).any():
            raise InvalidGraphError("diameter undefined on a disconnected graph")
        return _eccentricity(graph, int(np.argmax(distances)))

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"CoreGraph(n={self.num_nodes}, m={self.num_edges})"


def _eccentricity(graph: csr_array, root: int) -> int:
    # One source per call: an n x n distance matrix would not fit at scale.
    distances = shortest_path(graph, "D", unweighted=True, indices=root)
    if np.isinf(distances).any():
        raise InvalidGraphError("eccentricity undefined on a disconnected graph")
    return int(distances.max())


def _assemble(num_nodes: int, u, v, weights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetrise, deduplicate, sort and count an edge list into CSR arrays.

    The body of :meth:`CoreGraph.from_edges`: parallel edges merge with the
    last weight winning, and each row comes out ascending.
    """
    if num_nodes < 0:
        raise InvalidGraphError("CoreGraph needs a non-negative vertex count")
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    weights = np.ones(len(u)) if weights is None else np.asarray(weights, dtype=np.float64)
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    bad = (lo == hi) | (lo < 0) | (hi >= num_nodes)
    if bad.any():
        first = int(np.argmax(bad))
        a, b = int(u[first]), int(v[first])
        if a == b:
            raise InvalidGraphError(f"CoreGraph rejects self-loop ({a}, {b})")
        raise InvalidGraphError(f"edge ({a}, {b}) out of range for n={num_nodes}")
    # Undirected keys lo * n + hi; a stable sort puts each key's last
    # occurrence at the end of its run, and that one's weight wins.
    keys = lo * num_nodes + hi
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    last = np.ones(len(keys), dtype=bool)
    last[:-1] = keys[1:] != keys[:-1]
    keep = order[last]
    lo, hi, weights = lo[keep], hi[keep], weights[keep]
    source = np.concatenate([lo, hi])
    target = np.concatenate([hi, lo])
    order = np.argsort(source * num_nodes + target)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(source, minlength=num_nodes), out=indptr[1:])
    return indptr, target[order], np.concatenate([weights, weights])[order]
