"""(1 + eps)-approximate minimum cut via greedy tree packing (Corollary 1).

The min-cut algorithm the shortcut framework accelerates (Ghaffari--Kuhn,
Nanongkai--Su) follows Karger's tree-packing paradigm:

1. pack ``O(log n / eps^2)`` spanning trees greedily with respect to edge
   loads (each tree is an MST under the current loads; after each tree the
   load of its edges increases);
2. for every packed tree, find the minimum cut that crosses the tree in one
   or two edges (1-/2-respecting cuts); Karger shows that for a sufficient
   packing some packed tree 2-respects a (1 + eps)-minimum cut.

Every tree computation is one distributed MST (whose cost we measure through
:func:`repro.algorithms.mst.boruvka_mst`), and every cut evaluation is a
constant number of subtree aggregations (charged at the measured aggregation
cost).  The 1-/2-respecting minimisation itself is evaluated centrally with a
vectorised all-pairs formula -- the distributed versions of this step in the
cited works are intricate but add only polylogarithmic factors, so the round
accounting charges them as aggregations (see "Deviations from the paper" in
``docs/paper_map.md``).

Implementation
--------------

The greedy packing runs in :class:`~repro.core.GraphView` index space
(per-edge load array, stable argsort Kruskal reproducing
``nx.minimum_spanning_tree``'s tie-breaking, CSR-ordered BFS rooting).  The
1-/2-respecting sweep derives the edge-crossing indicator matrix from the
packed tree's Euler-tour ``tin``/``tout`` intervals in one vectorised
comparison instead of materialising a subtree vertex set per tree edge.

The matrix has the seed implementation's row/column order, so every
downstream float (cut values, argmin tie-breaks, reported sides) is
bit-for-bit equal to the oracle in ``tests/oracles/mincut.py`` --
``tests/test_algorithms_core.py`` pins cut value, side, cut edges, rounds
and per-tree rounds on every registered graph family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable, Sequence

import networkx as nx
import numpy as np

from ..core import view_of
from ..errors import InvalidGraphError
from ..graphs.weights import WEIGHT
from ..congest.aggregation import partwise_aggregate
from ..shortcuts.shortcut import Shortcut
from ..structure.spanning import RootedTree, bfs_spanning_tree
from ..utils import canonical_edge
from .mst import ShortcutBuilder, boruvka_mst, oblivious_builder


@dataclass
class MinCutResult:
    """Result of one approximate min-cut execution.

    Attributes:
        value: the best (smallest) cut weight found.
        cut_edges: the edges crossing the reported cut.
        side: one side of the reported cut (vertex set).
        exact_value: the exact minimum cut (Stoer--Wagner), for reference.
        approximation_ratio: ``value / exact_value`` (>= 1).
        rounds: total CONGEST rounds charged.
        num_trees: how many trees were packed.
    """

    value: float
    cut_edges: frozenset[tuple[Hashable, Hashable]]
    side: frozenset
    exact_value: float
    approximation_ratio: float
    rounds: int
    num_trees: int
    tree_rounds: list[int] = field(default_factory=list)


def exact_min_cut(graph: nx.Graph) -> float:
    """Return the exact global minimum cut value (Stoer--Wagner reference).

    This is the centralised ``networkx`` oracle used for the
    ``approximation_ratio`` bookkeeping; it is not part of the measured
    distributed algorithm.
    """
    if graph.number_of_nodes() < 2:
        raise InvalidGraphError("min cut needs at least two vertices")
    value, _partition = nx.stoer_wagner(graph, weight=WEIGHT)
    return float(value)


def approximate_min_cut(
    graph: nx.Graph,
    epsilon: float = 1.0,
    shortcut_builder: ShortcutBuilder | None = None,
    tree: RootedTree | None = None,
    max_trees: int | None = None,
) -> MinCutResult:
    """Compute a (1 + eps)-approximate minimum cut with CONGEST round accounting.

    Args:
        graph: connected weighted network graph.
        epsilon: approximation slack; the number of packed trees grows as
            ``O(log n / eps^2)``.
        shortcut_builder: shortcut construction used by the underlying
            distributed MST runs; defaults to the oblivious constructor.
        tree: the global spanning tree for T-restriction (defaults to BFS).
        max_trees: optional cap on the packing size (keeps small experiments
            fast); the default cap is 12.

    Returns:
        A :class:`MinCutResult`; the tests assert ``approximation_ratio <=
        1 + epsilon`` on every workload.
    """
    if epsilon <= 0:
        raise InvalidGraphError("epsilon must be positive")
    builder = shortcut_builder if shortcut_builder is not None else oblivious_builder
    view = view_of(graph)
    tree = tree if tree is not None else bfs_spanning_tree(view)
    n = len(view)
    num_trees = _packing_size(n, epsilon, max_trees)
    index_of = view.index_of

    # Measure the distributed MST cost once; each packed tree is one MST
    # computation of the same shape (only the weights change), so each is
    # charged the measured cost of a representative run.
    representative = boruvka_mst(graph, shortcut_builder=builder, tree=tree)
    mst_rounds = representative.rounds

    # The packing state is flat and index-native: edges in the graph's own
    # iteration order (the order every float reduction below follows, which
    # is what keeps the sweep bit-identical to the seed oracle), weights and
    # loads as parallel arrays.
    edges_nx = list(graph.edges())
    num_edges = len(edges_nx)
    edge_u = np.fromiter((index_of(u) for u, _v in edges_nx), dtype=np.int64, count=num_edges)
    edge_v = np.fromiter((index_of(v) for _u, v in edges_nx), dtype=np.int64, count=num_edges)
    base = np.fromiter(
        (data.get(WEIGHT, 1.0) for _u, _v, data in graph.edges(data=True)),
        dtype=np.float64,
        count=num_edges,
    )
    loads = np.zeros(num_edges, dtype=np.float64)
    load_unit = base / (num_edges + 1.0)
    edge_u_list = edge_u.tolist()
    edge_v_list = edge_v.tolist()

    best_value = float("inf")
    best_side: frozenset = frozenset()
    total_rounds = 0
    tree_rounds: list[int] = []

    aggregation_rounds = _charging_probe(graph, tree)
    log_n = max(1, math.ceil(math.log2(n + 2)))
    root_index = index_of(tree.root)

    for _round in range(num_trees):
        # Greedy packing: MST under current loads (load-dominated weights).
        # Stable argsort by packed weight reproduces nx.minimum_spanning_tree
        # exactly: Kruskal's tie-break is "first in graph edge order".
        packed = loads + load_unit
        order = np.argsort(packed, kind="stable").tolist()
        uf = list(range(n))

        def find(vertex: int) -> int:
            root = vertex
            while uf[root] != root:
                root = uf[root]
            while uf[vertex] != root:
                uf[vertex], vertex = root, uf[vertex]
            return root

        accepted: list[int] = []
        for edge_id in order:
            ru, rv = find(edge_u_list[edge_id]), find(edge_v_list[edge_id])
            if ru == rv:
                continue
            uf[rv] = ru
            accepted.append(edge_id)
            if len(accepted) == n - 1:
                break
        loads[accepted] += 1.0

        # Root the packed tree by BFS from the global root; ascending index
        # order is repr order, so this is the tree bfs_spanning_tree builds.
        adjacency: list[list[int]] = [[] for _ in range(n)]
        for edge_id in accepted:
            a, b = edge_u_list[edge_id], edge_v_list[edge_id]
            adjacency[a].append(b)
            adjacency[b].append(a)
        parent = [-2] * n
        parent[root_index] = -1
        queue = [root_index]
        head = 0
        while head < len(queue):
            node = queue[head]
            head += 1
            for neighbour in sorted(adjacency[node]):
                if parent[neighbour] == -2:
                    parent[neighbour] = node
                    queue.append(neighbour)

        value, side, charges = _respecting_cuts(
            view, base, edge_u, edge_v, parent
        )
        if value < best_value and 0 < len(side) < n:
            best_value, best_side = value, side
        rounds_this_tree = mst_rounds + len(charges) * aggregation_rounds * log_n
        total_rounds += rounds_this_tree
        tree_rounds.append(rounds_this_tree)

    cut_edges = frozenset(
        (u, v) for u, v in edges_nx if (u in best_side) != (v in best_side)
    )
    exact = exact_min_cut(graph)
    return MinCutResult(
        value=best_value,
        cut_edges=cut_edges,
        side=best_side,
        exact_value=exact,
        approximation_ratio=best_value / exact if exact > 0 else 1.0,
        rounds=total_rounds,
        num_trees=num_trees,
        tree_rounds=tree_rounds,
    )


def _packing_size(n: int, epsilon: float, max_trees: int | None) -> int:
    """Shared packing-size rule: ``O(log n / eps^2)`` capped at ``max_trees``."""
    target_trees = max(3, math.ceil(math.log2(n + 2) / (epsilon**2)))
    if max_trees is None:
        max_trees = 12
    return min(target_trees, max_trees)


def _charging_probe(graph: nx.Graph, tree: RootedTree) -> int:
    """Measured rounds of one whole-graph aggregation (the per-cut charge).

    One aggregation on the single full-vertex-set part, communicating over
    the spanning tree -- every 1-/2-respecting evaluation batch is charged
    at this measured cost.
    """
    whole_part = [frozenset(graph.nodes())]
    whole_shortcut = Shortcut(
        graph=graph,
        tree=tree,
        parts=whole_part,
        edge_sets=[tree.edge_set()],
        constructor="mincut-charging",
    )
    probe = partwise_aggregate(whole_shortcut, {v: 1 for v in graph.nodes()}, combine=min)
    return probe.rounds


def _respecting_cuts(
    view, base: np.ndarray, edge_u: np.ndarray, edge_v: np.ndarray, parent: list[int]
) -> tuple[float, frozenset, list[int]]:
    """Best 1-/2-respecting cut of the tree given by ``parent`` (index space).

    The seed implementation materialises the subtree vertex set of
    every tree edge and asks a set-membership question per (graph edge,
    tree edge) pair.  Here a subtree is the Euler-tour interval
    ``[tin, tout]`` of the edge's child endpoint, so the whole indicator
    matrix ``X`` is two vectorised interval tests; because the rows follow
    the same graph-edge order and the columns the same sorted-tree-edge
    order as the seed, the downstream matrix algebra -- and therefore
    every argmin tie-break -- is bit-identical.
    """
    n = len(parent)
    node_of = view.nodes
    children_of: list[list[int]] = [[] for _ in range(n)]
    root = -1
    for node, par in enumerate(parent):
        if par >= 0:
            children_of[par].append(node)
        elif par == -1:
            root = node
    tin = [0] * n
    tout = [0] * n
    order: list[int] = []
    stack = [root]
    while stack:
        node = stack.pop()
        tin[node] = len(order)
        order.append(node)
        stack.extend(reversed(children_of[node]))
    for node in order:
        tout[node] = tin[node]
    for node in reversed(order):
        par = parent[node]
        if par >= 0 and tout[node] > tout[par]:
            tout[par] = tout[node]

    # Tree edges in the seed's order: canonical label pairs, sorted.
    entries = sorted(
        (canonical_edge(node_of[child], node_of[parent[child]]), child)
        for child in range(n)
        if parent[child] >= 0
    )
    if not entries:
        return float("inf"), frozenset(), []
    tin_arr = np.asarray(tin, dtype=np.int64)
    tout_arr = np.asarray(tout, dtype=np.int64)
    child_arr = np.fromiter((child for _edge, child in entries), dtype=np.int64, count=len(entries))
    low = tin_arr[child_arr][None, :]
    high = tout_arr[child_arr][None, :]
    tin_u = tin_arr[edge_u][:, None]
    tin_v = tin_arr[edge_v][:, None]
    in_u = (tin_u >= low) & (tin_u <= high)
    in_v = (tin_v >= low) & (tin_v <= high)
    X = (in_u != in_v).astype(np.float64)

    ones_cut = base @ X  # 1-respecting values s_k
    cross = X.T @ (X * base[:, None])  # (X^T W X)
    pair_cut = ones_cut[:, None] + ones_cut[None, :] - 2.0 * cross
    np.fill_diagonal(pair_cut, np.inf)

    best_single = int(np.argmin(ones_cut))
    best_single_value = float(ones_cut[best_single])
    best_pair_flat = int(np.argmin(pair_cut))
    i, j = divmod(best_pair_flat, pair_cut.shape[1])
    best_pair_value = float(pair_cut[i, j])

    def interval_side(*columns: int) -> frozenset:
        members = np.zeros(n, dtype=bool)
        for column in columns:
            child = int(child_arr[column])
            inside = (tin_arr >= tin[child]) & (tin_arr <= tout[child])
            members ^= inside
        return frozenset(node_of[index] for index in np.flatnonzero(members))

    if best_single_value <= best_pair_value:
        side = interval_side(best_single)
        value = best_single_value
    else:
        side = interval_side(i, j)
        value = best_pair_value
    # Charges: one subtree aggregation per tree edge batch (log n batches in
    # the distributed implementations); recorded as a single unit here and
    # converted by the caller.
    return value, side, [1]
