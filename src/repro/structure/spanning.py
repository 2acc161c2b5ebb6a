"""Rooted spanning trees and tree utilities (BFS trees, Steiner subtrees).

Tree-restricted shortcuts (Definition 10) are always stated with respect to a
spanning tree ``T``; Theorem 1 instantiates ``T`` as a BFS tree of the
network, whose depth is at most the network diameter ``D``.  This module
provides the :class:`RootedTree` wrapper that every shortcut constructor
works with: parent/child/depth maps, ancestor queries, tree paths, Steiner
subtrees of a terminal set, and the "contract-to-a-vertex-subset" minor used
by the clique-sum local shortcuts (the repaired tree ``T^2_h`` of Theorem 7).
A tree also carries the memo (:meth:`RootedTree.memo`) in which the shortcut
constructions keep, for the tree's lifetime, the part-independent structure
that reads the tree; what reads only the graph lives on the graph
(:func:`repro.core.graph_memo`).

The graph entry points (:func:`bfs_spanning_tree`, :func:`graph_diameter`
and :meth:`RootedTree.validate`) run on the CSR kernel only.  An
``nx.Graph`` argument is viewed once at the boundary through the memoised
:func:`repro.core.view_of`, so it must not change its topology afterwards
(graphs are frozen once viewed, see :mod:`repro.core.view`).  Index order is
the canonical repr order, so BFS ties break towards the repr-smallest
neighbour.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Hashable, Iterable, Sequence, TypeVar

import networkx as nx
import numpy as np

from ..core import GraphView, view_of
from ..errors import InvalidGraphError
from ..utils import canonical_edge, memoised

Edge = tuple[Hashable, Hashable]
T = TypeVar("T")


class RootedTree:
    """A rooted spanning tree with O(1) parent/depth lookups.

    The tree is stored as a parent map; edges are exposed in canonical
    (sorted-repr) form so that they can be compared against shortcut edge
    sets without worrying about orientation.
    """

    def __init__(self, parent: dict[Hashable, Hashable | None], root: Hashable) -> None:
        if parent.get(root, "missing") is not None:
            raise InvalidGraphError("the root must map to parent None")
        self.root = root
        self.parent: dict[Hashable, Hashable | None] = dict(parent)
        self.depth: dict[Hashable, int] = {}
        self.children: dict[Hashable, list[Hashable]] = {node: [] for node in parent}
        for node, par in parent.items():
            if par is not None:
                if par not in parent:
                    raise InvalidGraphError(f"parent {par} of {node} is not a tree node")
                self.children[par].append(node)
        self._compute_depths()
        self._euler: EulerTourIndex | None = None
        # Both caches are safe because the parent map is fixed after
        # construction; the Boruvka fast path re-reads both every phase.
        self._edge_set: frozenset[Edge] | None = None
        self._diameter: int | None = None
        # Structures derived from the tree and another input (the
        # constructions' plans); see memo().
        self._memo: dict[tuple, tuple[tuple, object]] = {}

    def _compute_depths(self) -> None:
        self.depth[self.root] = 0
        queue: deque[Hashable] = deque([self.root])
        visited = 1
        while queue:
            node = queue.popleft()
            for child in self.children[node]:
                self.depth[child] = self.depth[node] + 1
                queue.append(child)
                visited += 1
        if visited != len(self.parent):
            raise InvalidGraphError("parent map does not describe a single rooted tree")

    # -- basic accessors ------------------------------------------------

    @property
    def nodes(self) -> set[Hashable]:
        return set(self.parent.keys())

    def edges(self) -> set[Edge]:
        """Return all tree edges in canonical form."""
        return {
            canonical_edge(node, par)
            for node, par in self.parent.items()
            if par is not None
        }

    def edge_set(self) -> frozenset[Edge]:
        """Return (and cache) the canonical tree edges as a frozenset."""
        if self._edge_set is None:
            self._edge_set = frozenset(self.edges())
        return self._edge_set

    @property
    def height(self) -> int:
        """Return the height (maximum depth) of the rooted tree."""
        return max(self.depth.values(), default=0)

    def _bfs_depths(self, start: Hashable) -> dict[Hashable, int]:
        """Hop distances from ``start`` over the tree's parent/children maps."""
        depths = {start: 0}
        queue: deque[Hashable] = deque([start])
        while queue:
            node = queue.popleft()
            next_depth = depths[node] + 1
            parent = self.parent[node]
            if parent is not None and parent not in depths:
                depths[parent] = next_depth
                queue.append(parent)
            for child in self.children[node]:
                if child not in depths:
                    depths[child] = next_depth
                    queue.append(child)
        return depths

    def diameter(self) -> int:
        """Return the diameter (in hops) of the tree, at most twice the height.

        Double BFS over the parent/children maps -- exact on trees -- without
        materialising an ``nx.Graph``.  Cached: every Boruvka phase prices
        its shortcut's quality against the same tree diameter.
        """
        if self._diameter is not None:
            return self._diameter
        if len(self.parent) <= 1:
            self._diameter = 0
            return 0
        depths = self._bfs_depths(next(iter(self.parent)))
        far = max(depths.items(), key=lambda kv: kv[1])[0]
        self._diameter = max(self._bfs_depths(far).values())
        return self._diameter

    def as_graph(self) -> nx.Graph:
        """Return the tree as a :class:`networkx.Graph`."""
        graph = nx.Graph()
        graph.add_nodes_from(self.parent.keys())
        for node, par in self.parent.items():
            if par is not None:
                graph.add_edge(node, par)
        return graph

    # -- paths and ancestors ---------------------------------------------

    def lowest_common_ancestor(self, u: Hashable, v: Hashable) -> Hashable:
        """Return the LCA of ``u`` and ``v`` (linear-time walk, fine for our sizes)."""
        du, dv = self.depth[u], self.depth[v]
        while du > dv:
            u = self.parent[u]
            du -= 1
        while dv > du:
            v = self.parent[v]
            dv -= 1
        while u != v:
            u = self.parent[u]
            v = self.parent[v]
        return u

    def tree_path(self, u: Hashable, v: Hashable) -> list[Hashable]:
        """Return the unique tree path from ``u`` to ``v`` (inclusive of both)."""
        ancestor = self.lowest_common_ancestor(u, v)
        up: list[Hashable] = []
        node = u
        while node != ancestor:
            up.append(node)
            node = self.parent[node]
        down: list[Hashable] = []
        node = v
        while node != ancestor:
            down.append(node)
            node = self.parent[node]
        return up + [ancestor] + list(reversed(down))

    def subtree_nodes(self, node: Hashable) -> set[Hashable]:
        """Return all nodes in the subtree rooted at ``node`` (including it)."""
        result: set[Hashable] = set()
        stack = [node]
        while stack:
            current = stack.pop()
            result.add(current)
            stack.extend(self.children[current])
        return result

    # -- derived structures ----------------------------------------------

    def euler_index(self, view: GraphView) -> "EulerTourIndex":
        """Return (and cache) the Euler-tour index of this tree over ``view``.

        The index stores flat arrays over the view's vertex indices:
        ``parent`` / ``depth``, the DFS pre-order ``order``, and the
        ``tin`` / ``tout`` interval of every subtree, so that "is ``v`` in
        the subtree below ``u``" is two integer comparisons and a part's
        benefit at a tree edge is a count of its members' ``tin`` inside
        the edge's interval (see :mod:`repro.shortcuts.engine`).  Cached
        per view identity -- a budget sweep builds it once.
        """
        cached = self._euler
        if cached is None or cached.view is not view:
            cached = self._euler = EulerTourIndex(self, view)
        return cached

    def steiner_tree_edges(self, terminals: Iterable[Hashable]) -> set[Edge]:
        """Return the edges of the minimal subtree of T spanning ``terminals``.

        Marks each terminal's root path once, counting every marked vertex's
        marked children, then walks down from the root to the top of the
        Steiner tree: the first vertex that is a terminal or has two marked
        children.  The marked edges below it are the answer.  Linear in the
        marked set.
        """
        terminal_set = set(terminals)
        if not terminal_set:
            return set()
        parent = self.parent
        for t in terminal_set:
            if t not in parent:
                raise InvalidGraphError(f"terminal {t} is not a node of the tree")
        marked_children: dict[Hashable, int] = {}
        for t in terminal_set:
            if t in marked_children:
                continue
            marked_children[t] = 0
            node = parent[t]
            while node is not None and node not in marked_children:
                marked_children[node] = 1
                node = parent[node]
            if node is not None:
                marked_children[node] += 1
        # The top lies on every terminal's root path, so on the last one's:
        # walk it down from the root, unmarking the chain above the top and
        # the top itself.
        spine = [t]
        while parent[spine[-1]] is not None:
            spine.append(parent[spine[-1]])
        while spine[-1] not in terminal_set and marked_children[spine[-1]] == 1:
            del marked_children[spine.pop()]
        del marked_children[spine[-1]]
        return {canonical_edge(node, parent[node]) for node in marked_children}

    def contract_to(self, keep: Iterable[Hashable]) -> "RootedTree":
        """Return the minor of T on the vertex set ``keep`` (the repaired tree T^2).

        Every maximal connected component of discarded vertices is contracted
        into one arbitrary neighbouring kept vertex, which is exactly the
        construction of Theorem 7's local-shortcut step: the result is a tree
        on ``keep`` whose hop-diameter is at most the diameter of ``T``.

        The quotient is built over the parent map: kept tree edges stay, and
        each discarded component joins its kept border vertices to the
        repr-smallest of them.  A component's border is its top's kept
        parent plus the kept vertices hanging below it, so only components
        with a kept vertex below them matter: each such vertex climbs to its
        component's top (the first vertex whose parent is kept or ``None``),
        and the tops are memoised on the way.  The result is the BFS tree of
        that quotient from the repr-smallest kept vertex, over repr-sorted
        neighbours, exactly as :func:`bfs_spanning_tree` roots it.
        """
        keep_set = set(keep)
        if not keep_set:
            raise InvalidGraphError("cannot contract a tree onto an empty vertex set")
        parent = self.parent
        missing = {node for node in keep_set if node not in parent}
        if missing:
            raise InvalidGraphError(f"vertices {sorted(missing, key=repr)[:5]} are not tree nodes")
        adjacency: dict[Hashable, set[Hashable]] = {node: set() for node in keep_set}
        top_of: dict[Hashable, Hashable] = {}
        hanging: dict[Hashable, list[Hashable]] = {}
        for node in keep_set:
            par = parent[node]
            if par is None:
                continue
            if par in keep_set:
                adjacency[node].add(par)
                adjacency[par].add(node)
                continue
            path = []
            current = par
            while current not in top_of:
                path.append(current)
                above = parent[current]
                if above is None or above in keep_set:
                    top_of[current] = current
                    break
                current = above
            top = top_of[current]
            for vertex in path:
                top_of[vertex] = top
            hanging.setdefault(top, []).append(node)
        for top, below in hanging.items():
            border = set(below)
            if parent[top] is not None:
                border.add(parent[top])
            anchor = min(border, key=repr)
            for other in border - {anchor}:
                adjacency[anchor].add(other)
                adjacency[other].add(anchor)
        root = min(keep_set, key=repr)
        quotient_parent: dict[Hashable, Hashable | None] = {root: None}
        queue: deque[Hashable] = deque([root])
        while queue:
            node = queue.popleft()
            for neighbour in sorted(adjacency[node], key=repr):
                if neighbour not in quotient_parent:
                    quotient_parent[neighbour] = node
                    queue.append(neighbour)
        if len(quotient_parent) != len(keep_set):
            # Unreachable for a valid tree: its quotient is connected.
            raise InvalidGraphError("contraction produced a disconnected quotient tree")
        return RootedTree(quotient_parent, root)

    def memo(self, key: Hashable, sources: tuple, build: Callable[[], T]) -> T:
        """Return the structure ``build()`` derives from this tree and ``sources``.

        Built on the first call and memoised for the tree's lifetime under
        ``key`` and the ids of ``sources``; a later call is served only if
        the entry holds the very same source objects (``is``, see
        :func:`repro.utils.memoised`).  Corollary 1 calls a construction
        once per Boruvka phase with new parts but the same tree and
        witness, so the constructions keep here the part-independent
        structure that reads the tree: the clique-sum plan's tree-edge
        grants and repaired bag trees ``T^2_h``, and the apex plan, whose
        cells are the components of ``T`` minus the apices.  What reads
        only the graph and its witness lives on the graph instead
        (:func:`repro.core.graph_memo`), because an MST run builds a new
        tree while its graph is shared by every run over the instance.
        """
        return memoised(self._memo, key, sources, build)

    def validate(self, graph: nx.Graph | GraphView | None = None) -> None:
        """Check that this is a spanning tree of ``graph`` (if provided).

        Checks vertex-set equality and that every tree edge is a graph edge
        on the graph's view (one vectorised lookup; the first failing edge
        in parent-map order is named), then the edge count; no ``nx.Graph``
        is built, so the million-node native pipeline validates its BFS
        trees on the arrays.  Connectivity from the root needs no walk
        here: the constructor already rejects any parent map that is not
        one rooted tree, and the map is fixed afterwards.
        """
        parent = self.parent
        edges = [(node, par) for node, par in parent.items() if par is not None]
        if graph is not None:
            view = view_of(graph)
            index_of = view.index_of
            # The tree's vertices are the root and each edge's child, so
            # looking those up in the view checks the vertex set.
            try:
                children = [index_of(node) for node, _ in edges]
                index_of(self.root)
            except KeyError:
                children = None
            if children is None or len(parent) != len(view):
                raise InvalidGraphError("tree does not span the graph's vertex set")
            on_graph = view.core.has_edges(children, [index_of(par) for _, par in edges])
            if not on_graph.all():
                node, par = edges[int(np.argmin(on_graph))]
                raise InvalidGraphError(f"tree edge ({node}, {par}) is not a graph edge")
        if len(edges) != len(parent) - 1:
            raise InvalidGraphError("rooted tree has the wrong number of edges")


class EulerTourIndex:
    """Flat-array Euler-tour (DFS interval) index of a :class:`RootedTree`.

    All arrays are indexed by the :class:`GraphView` vertex index:

    * ``parent[i]`` -- index of the tree parent (``-1`` for the root);
    * ``depth[i]`` -- hop depth below the root;
    * ``order`` -- the DFS pre-order as a list of indices;
    * ``tin[i]`` -- pre-order position of ``i``;
    * ``tout[i]`` -- the largest ``tin`` in the subtree below ``i``
      (inclusive), so ``v`` lies in the subtree of ``u`` iff
      ``tin[u] <= tin[v] <= tout[u]``.

    The vectorised queries (:meth:`arrays`, :meth:`ancestors_at`,
    :meth:`lcas`) run on ``int64`` copies of these arrays and a
    binary-lifting ancestor table, both built on first use and cached.
    """

    __slots__ = (
        "view", "root", "parent", "depth", "order", "tin", "tout", "_arrays", "_lifting"
    )

    def __init__(self, tree: RootedTree, view: GraphView) -> None:
        n = len(view)
        if len(tree.parent) != n:
            raise InvalidGraphError("tree does not span the graph view's vertex set")
        index_of = view.index_of
        parent = [-1] * n
        depth = [0] * n
        children: list[list[int]] = [[] for _ in range(n)]
        try:
            root = index_of(tree.root)
            for node, par in tree.parent.items():
                index = index_of(node)
                depth[index] = tree.depth[node]
                if par is not None:
                    par_index = index_of(par)
                    parent[index] = par_index
                    children[par_index].append(index)
        except KeyError as error:
            raise InvalidGraphError(
                f"tree node {error.args[0]!r} is not a vertex of the graph view"
            ) from None
        order: list[int] = []
        tin = [0] * n
        stack = [root]
        while stack:
            node = stack.pop()
            tin[node] = len(order)
            order.append(node)
            stack.extend(reversed(children[node]))
        tout = list(tin)
        for node in reversed(order):
            par = parent[node]
            if par >= 0 and tout[node] > tout[par]:
                tout[par] = tout[node]
        self.view = view
        self.root = root
        self.parent = parent
        self.depth = depth
        self.order = order
        self.tin = tin
        self.tout = tout
        self._arrays: tuple[np.ndarray, ...] | None = None
        self._lifting: np.ndarray | None = None

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(parent, depth, tin, tout)`` as ``int64`` arrays."""
        if self._arrays is None:
            self._arrays = tuple(
                np.asarray(values, dtype=np.int64)
                for values in (self.parent, self.depth, self.tin, self.tout)
            )
        return self._arrays

    def _lifting_table(self) -> np.ndarray:
        """Row ``j`` holds every vertex's ``2**j``-th ancestor (the root's is itself)."""
        if self._lifting is None:
            parent, depth, _tin, _tout = self.arrays()
            levels = max(1, int(depth.max(initial=0)).bit_length())
            table = np.empty((levels, len(parent)), dtype=np.int64)
            table[0] = np.where(parent >= 0, parent, np.arange(len(parent)))
            for level in range(1, levels):
                table[level] = table[level - 1][table[level - 1]]
            self._lifting = table
        return self._lifting

    def ancestors_at(self, nodes: np.ndarray, steps: np.ndarray) -> np.ndarray:
        """Return the ``steps[i]``-th ancestor of every ``nodes[i]``.

        ``steps`` must not exceed the node's depth.
        """
        table = self._lifting_table()
        nodes = np.asarray(nodes, dtype=np.int64)
        steps = np.asarray(steps, dtype=np.int64)
        for level in range(len(table)):
            jump = ((steps >> level) & 1).astype(bool)
            if jump.any():
                nodes = np.where(jump, table[level][nodes], nodes)
        return nodes

    def lcas(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Return the LCA of every pair ``(u[i], v[i])`` (binary lifting)."""
        table = self._lifting_table()
        depth = self.arrays()[1]
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        gap = depth[u] - depth[v]
        deeper = gap > 0
        u, v = np.where(deeper, u, v), np.where(deeper, v, u)
        u = self.ancestors_at(u, np.abs(gap))
        for level in range(len(table) - 1, -1, -1):
            up_u, up_v = table[level][u], table[level][v]
            differ = up_u != up_v
            u = np.where(differ, up_u, u)
            v = np.where(differ, up_v, v)
        return np.where(u == v, u, table[0][u])


def bfs_spanning_tree(graph: nx.Graph | GraphView, root: Hashable | None = None) -> RootedTree:
    """Return a BFS spanning tree of ``graph`` rooted at ``root``.

    The BFS tree's height is at most the eccentricity of the root, hence at
    most the diameter ``D`` of the graph -- the property Theorem 1 relies on
    when it plugs ``D`` into the shortcut quality function.

    Runs on the CSR kernel of ``view_of(graph)``: the default root is the
    repr-smallest vertex (index 0) and neighbours are scanned in index
    (= repr) order.  The tree is label-keyed.
    """
    view = view_of(graph)
    if len(view) == 0:
        raise InvalidGraphError("graph is empty")
    root_index = 0
    if root is not None:
        try:
            root_index = view.index_of(root)
        except (KeyError, TypeError):
            raise InvalidGraphError(f"root {root} is not in the graph") from None
    parents, order = view.core.bfs_parents(root_index)
    if len(order) != len(view):
        raise InvalidGraphError("graph is not connected")
    node_of = view.nodes
    parent: dict[Hashable, Hashable | None] = {
        node_of[index]: (None if parents[index] < 0 else node_of[parents[index]])
        for index in order
    }
    return RootedTree(parent, node_of[root_index])


def graph_diameter(graph: nx.Graph | GraphView, exact_threshold: int = 400) -> int:
    """Return the diameter of ``graph`` (exact for small graphs, 2-approx above).

    For graphs with more than ``exact_threshold`` nodes the double-BFS lower
    bound is returned, which is within a factor 2 of the true diameter and is
    standard practice for experiment bookkeeping at scale.  Both regimes run
    on the CSR kernel of ``view_of(graph)``; the double sweep's far vertex is
    the lowest-index (repr-smallest) vertex at maximum distance.
    """
    core = view_of(graph).core
    core.require_connected()
    if core.num_nodes <= exact_threshold:
        return core.exact_diameter()
    return core.double_sweep_diameter()


def steiner_tree_edges(tree: RootedTree, terminals: Sequence[Hashable]) -> set[Edge]:
    """Module-level convenience wrapper around :meth:`RootedTree.steiner_tree_edges`."""
    return tree.steiner_tree_edges(terminals)
