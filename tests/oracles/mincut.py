"""The seed tree-packing min-cut (label-keyed loads, per-edge subtree sets).

The oracle for :func:`repro.algorithms.mincut.approximate_min_cut`.  The
distributed MST cost comes from the oracle
:func:`~oracles.mst.boruvka_mst` and the per-cut charge from the oracle
:func:`~oracles.aggregation.partwise_aggregate`.  The production sweep
builds the identical indicator matrix in the identical order, so every
field must be bit-for-bit equal.
"""

from __future__ import annotations

import math

import networkx as nx
import numpy as np

from repro.algorithms.mincut import MinCutResult, _packing_size, exact_min_cut
from repro.algorithms.mst import ShortcutBuilder
from repro.errors import InvalidGraphError
from repro.graphs.weights import WEIGHT
from repro.shortcuts.shortcut import Shortcut
from repro.structure.spanning import RootedTree

from .aggregation import partwise_aggregate
from .mst import boruvka_mst
from .shortcuts import oblivious_shortcut
from .structure import bfs_spanning_tree


def _charging_probe(graph: nx.Graph, tree: RootedTree) -> int:
    """Measured rounds of one whole-graph aggregation over the spanning tree."""
    whole_shortcut = Shortcut(
        graph=graph,
        tree=tree,
        parts=[frozenset(graph.nodes())],
        edge_sets=[tree.edge_set()],
        constructor="mincut-charging",
    )
    return partwise_aggregate(whole_shortcut, {v: 1 for v in graph.nodes()}, combine=min).rounds


def _respecting_cuts(
    graph: nx.Graph, tree: RootedTree
) -> tuple[float, frozenset, list[int]]:
    """Return the best 1- or 2-respecting cut of ``tree`` (value, side, charges).

    For every tree edge ``e`` let ``S_e`` be the vertex set of the subtree
    below ``e``.  A cut that 1-respects the tree is some ``S_e``; a cut that
    2-respects it is the symmetric difference ``S_e xor S_f`` for a pair of
    tree edges.  Both families are evaluated in one vectorised pass: with the
    indicator matrix ``X[edge, tree_edge] = [exactly one endpoint lies in the
    subtree]``, the cut value of the pair ``(i, j)`` is
    ``s_i + s_j - 2 * (X^T W X)_{ij}`` where ``s`` is the 1-respecting value
    vector.  The returned "charges" list records the number of aggregation-
    equivalent operations, which the caller converts to rounds.
    """
    tree_edges = sorted(tree.edges())
    if not tree_edges:
        return float("inf"), frozenset(), []

    # Subtree membership per tree edge.
    below: list[set] = []
    for u, v in tree_edges:
        child = u if tree.parent.get(u) == v else v
        below.append(tree.subtree_nodes(child))

    graph_edges = list(graph.edges())
    weights = np.array([graph[u][v].get(WEIGHT, 1.0) for u, v in graph_edges], dtype=float)
    # X[e, k] = 1 iff graph edge e crosses the subtree of tree edge k.
    X = np.zeros((len(graph_edges), len(tree_edges)), dtype=float)
    for k, subtree in enumerate(below):
        for e, (u, v) in enumerate(graph_edges):
            X[e, k] = 1.0 if (u in subtree) != (v in subtree) else 0.0

    ones_cut = weights @ X  # 1-respecting values s_k
    cross = X.T @ (X * weights[:, None])  # (X^T W X)
    pair_cut = ones_cut[:, None] + ones_cut[None, :] - 2.0 * cross
    np.fill_diagonal(pair_cut, np.inf)

    best_single = int(np.argmin(ones_cut))
    best_single_value = float(ones_cut[best_single])
    best_pair_flat = int(np.argmin(pair_cut))
    i, j = divmod(best_pair_flat, pair_cut.shape[1])
    best_pair_value = float(pair_cut[i, j])

    if best_single_value <= best_pair_value:
        side = frozenset(below[best_single])
        value = best_single_value
    else:
        side = frozenset(below[i] ^ below[j])
        value = best_pair_value
    return value, side, [1]


def approximate_min_cut(
    graph: nx.Graph,
    epsilon: float = 1.0,
    shortcut_builder: ShortcutBuilder | None = None,
    tree: RootedTree | None = None,
    max_trees: int | None = None,
    seed: int = 0,
) -> MinCutResult:
    """The seed implementation (label-keyed networkx structures)."""
    if epsilon <= 0:
        raise InvalidGraphError("epsilon must be positive")
    builder = shortcut_builder if shortcut_builder is not None else oblivious_shortcut
    tree = tree if tree is not None else bfs_spanning_tree(graph)
    n = graph.number_of_nodes()
    num_trees = _packing_size(n, epsilon, max_trees)

    # Measure the distributed MST cost once; each packed tree is one MST
    # computation of the same shape (only the weights change), so each is
    # charged the measured cost of a representative run.
    representative = boruvka_mst(graph, shortcut_builder=builder, tree=tree)
    mst_rounds = representative.rounds

    loads: dict[tuple, float] = {}
    best_value = float("inf")
    best_side: frozenset = frozenset()
    total_rounds = 0
    tree_rounds: list[int] = []

    # One aggregation on the full-graph part gives the per-cut-evaluation charge.
    aggregation_rounds = _charging_probe(graph, tree)
    log_n = max(1, math.ceil(math.log2(n + 2)))

    for _round in range(num_trees):
        # Greedy packing: MST under current loads (load-dominated weights).
        packed = nx.Graph()
        packed.add_nodes_from(graph.nodes())
        for u, v in graph.edges():
            base = graph[u][v].get(WEIGHT, 1.0)
            load = loads.get((min(u, v, key=repr), max(u, v, key=repr)), 0.0)
            packed.add_edge(u, v, **{WEIGHT: load + base / (graph.number_of_edges() + 1.0)})
        packing_tree_graph = nx.minimum_spanning_tree(packed, weight=WEIGHT)
        packing_tree = bfs_spanning_tree(packing_tree_graph, root=tree.root)
        for u, v in packing_tree.edges():
            key = (min(u, v, key=repr), max(u, v, key=repr))
            loads[key] = loads.get(key, 0.0) + 1.0

        value, side, charges = _respecting_cuts(graph, packing_tree)
        if value < best_value and 0 < len(side) < n:
            best_value, best_side = value, side
        rounds_this_tree = mst_rounds + len(charges) * aggregation_rounds * log_n
        total_rounds += rounds_this_tree
        tree_rounds.append(rounds_this_tree)

    cut_edges = frozenset(
        (u, v) for u, v in graph.edges() if (u in best_side) != (v in best_side)
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
