"""Tests for the part-wise convenience wrappers (Boruvka building blocks)."""

import networkx as nx

from repro.algorithms.partwise import (
    minimum_outgoing_edges,
    partwise_component_ids,
    partwise_maximum,
    partwise_minimum,
    partwise_sum,
)
from repro.core import view_of
from repro.graphs.planar import grid_graph
from repro.graphs.weights import WEIGHT, assign_random_weights
from repro.shortcuts.congestion_capped import oblivious_shortcut
from repro.shortcuts.parts import tree_fragment_parts
from repro.structure.spanning import bfs_spanning_tree


def _instance():
    graph = grid_graph(5, 5)
    assign_random_weights(graph, seed=11, integer=True)
    tree = bfs_spanning_tree(graph)
    parts = tree_fragment_parts(graph, tree, num_parts=5, seed=12)
    shortcut = oblivious_shortcut(graph, tree, parts)
    return graph, parts, shortcut


def test_partwise_min_max_sum_match_central_results():
    graph, parts, shortcut = _instance()
    values = {v: (v * 17) % 29 for v in graph.nodes()}
    assert partwise_minimum(shortcut, values).values == [
        min(values[v] for v in part) for part in parts
    ]
    assert partwise_maximum(shortcut, values).values == [
        max(values[v] for v in part) for part in parts
    ]
    assert partwise_sum(shortcut, values).values == [
        sum(values[v] for v in part) for part in parts
    ]


def test_partwise_component_ids_are_consistent_within_parts():
    graph, parts, shortcut = _instance()
    mapping, rounds = partwise_component_ids(shortcut)
    assert rounds >= 0
    for part in parts:
        ids = {mapping[v] for v in part}
        assert len(ids) == 1
        assert next(iter(ids)) == min(part, key=repr)


def test_minimum_outgoing_edges_are_lightest_crossing_edges():
    graph, parts, shortcut = _instance()
    edges, rounds = minimum_outgoing_edges(graph, shortcut)
    assert rounds >= 1
    part_of = {}
    for index, part in enumerate(parts):
        for v in part:
            part_of[v] = index
    for index, edge in enumerate(edges):
        crossing = [
            (graph[u][v][WEIGHT], (u, v))
            for u, v in graph.edges()
            if (part_of.get(u) == index) != (part_of.get(v) == index)
        ]
        if not crossing:
            assert edge is None
            continue
        assert edge is not None
        best_weight = min(w for w, _ in crossing)
        u, v = edge
        assert graph[u][v][WEIGHT] == best_weight


def test_minimum_outgoing_edge_none_when_single_part():
    graph = grid_graph(3, 3)
    assign_random_weights(graph, seed=1)
    tree = bfs_spanning_tree(graph)
    parts = [frozenset(graph.nodes())]
    shortcut = oblivious_shortcut(graph, tree, parts)
    edges, _rounds = minimum_outgoing_edges(graph, shortcut)
    assert edges == [None]


def test_minimum_outgoing_edges_break_ties_in_index_pair_order():
    """On unit weights each part's MWOE is its first crossing edge in index-pair order."""
    graph = grid_graph(5, 5)
    tree = bfs_spanning_tree(graph)
    parts = tree_fragment_parts(graph, tree, num_parts=5, seed=12)
    shortcut = oblivious_shortcut(graph, tree, parts)
    edges, _rounds = minimum_outgoing_edges(graph, shortcut)
    view = view_of(graph)
    for part, edge in zip(parts, edges):
        crossing = [
            tuple(sorted((view.index_of(u), view.index_of(v))))
            for u, v in graph.edges()
            if (u in part) != (v in part)
        ]
        lo, hi = min(crossing)
        assert edge == (view.nodes[lo], view.nodes[hi])
