"""Tests for rooted spanning trees, Steiner subtrees and tree contraction."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.structure import contract_to as seed_contract_to
from oracles.structure import steiner_tree_edges as seed_steiner_tree_edges

from repro.errors import InvalidGraphError
from repro.graphs.planar import grid_graph, wheel_graph
from repro.structure.spanning import (
    RootedTree,
    bfs_spanning_tree,
    graph_diameter,
    steiner_tree_edges,
)


def test_bfs_tree_spans_and_respects_distances(small_grid):
    tree = bfs_spanning_tree(small_grid, root=0)
    tree.validate(small_grid)
    distances = nx.single_source_shortest_path_length(small_grid, 0)
    assert tree.depth == distances  # BFS tree depth equals graph distance from root
    assert tree.height == max(distances.values())


def test_bfs_tree_height_at_most_diameter(small_grid):
    tree = bfs_spanning_tree(small_grid)
    assert tree.height <= nx.diameter(small_grid)
    assert tree.diameter() <= 2 * tree.height


def test_rooted_tree_rejects_bad_parent_maps():
    with pytest.raises(InvalidGraphError):
        RootedTree({0: None, 1: 5}, root=0)  # parent 5 is not a node
    with pytest.raises(InvalidGraphError):
        RootedTree({0: 1, 1: 0}, root=0)  # root must have parent None


def test_lca_and_tree_path(small_grid):
    tree = bfs_spanning_tree(small_grid, root=0)
    for u, v in [(5, 30), (7, 35), (0, 35)]:
        path = tree.tree_path(u, v)
        assert path[0] == u and path[-1] == v
        # consecutive path nodes are tree edges
        edges = tree.edge_set()
        for a, b in zip(path, path[1:]):
            assert (min(a, b), max(a, b)) in edges or (a, b) in edges or (b, a) in edges
        lca = tree.lowest_common_ancestor(u, v)
        assert lca in path


def test_steiner_tree_spans_terminals_and_is_minimal(small_grid):
    tree = bfs_spanning_tree(small_grid, root=0)
    terminals = [3, 20, 33]
    edges = steiner_tree_edges(tree, terminals)
    subgraph = nx.Graph(list(edges))
    for t in terminals:
        assert t in subgraph
    assert nx.is_connected(subgraph)
    # Minimality: every leaf of the Steiner subtree is a terminal.
    for node in subgraph.nodes():
        if subgraph.degree(node) == 1:
            assert node in terminals


def test_steiner_tree_of_single_terminal_is_empty(small_grid):
    tree = bfs_spanning_tree(small_grid)
    assert tree.steiner_tree_edges([7]) == set()


@st.composite
def trees_with_terminals(draw):
    """A random rooted tree on shuffled labels and a terminal set of one of
    five shapes: empty, one vertex, the root alone, every vertex, or a subset."""
    n = draw(st.integers(1, 40))
    labels = draw(st.permutations(range(n)))
    parent = {labels[0]: None}
    for i in range(1, n):
        parent[labels[i]] = labels[draw(st.integers(0, i - 1))]
    tree = RootedTree(parent, labels[0])
    shape = draw(st.sampled_from(["empty", "single", "root", "full", "subset"]))
    if shape == "empty":
        terminals = []
    elif shape == "single":
        terminals = [draw(st.sampled_from(labels))]
    elif shape == "root":
        terminals = [labels[0]]
    elif shape == "full":
        terminals = list(labels)
    else:
        terminals = draw(st.lists(st.sampled_from(labels), unique=True))
    return tree, terminals


@settings(max_examples=300, deadline=None)
@given(trees_with_terminals())
def test_steiner_tree_walk_matches_pruning_oracle(case):
    tree, terminals = case
    assert tree.steiner_tree_edges(terminals) == seed_steiner_tree_edges(tree, terminals)


def test_contract_to_produces_tree_on_kept_vertices(small_grid):
    tree = bfs_spanning_tree(small_grid, root=0)
    keep = {0, 7, 14, 23, 35}
    contracted = tree.contract_to(keep)
    assert contracted.nodes == keep
    graph = contracted.as_graph()
    assert nx.is_tree(graph)
    assert contracted.diameter() <= tree.diameter()


def test_contract_to_joins_kept_vertices_below_a_long_discarded_path():
    """Kept 21-23 hang below the discarded path 1..20 under the kept root,
    25 below the discarded 24 under 21, and the discarded subtree 30-32
    holds no kept vertex: each discarded component joins its border to the
    repr-smallest border vertex, exactly like the seed contraction."""
    parent = {0: None, 30: 0, 31: 30, 32: 30}
    parent.update({node: node - 1 for node in range(1, 21)})
    parent.update({21: 20, 22: 20, 23: 20, 24: 21, 25: 24})
    tree = RootedTree(parent, 0)
    keep = {0, 21, 22, 23, 25}
    contracted = tree.contract_to(keep)
    assert contracted.parent == {0: None, 21: 0, 22: 0, 23: 0, 25: 21}
    expected = seed_contract_to(tree, keep)
    assert contracted.root == expected.root
    assert list(contracted.parent.items()) == list(expected.parent.items())


def test_contract_to_rejects_foreign_vertices(small_grid):
    tree = bfs_spanning_tree(small_grid)
    with pytest.raises(InvalidGraphError):
        tree.contract_to({0, 999})
    with pytest.raises(InvalidGraphError):
        tree.contract_to(set())


def test_subtree_nodes_and_children(small_grid):
    tree = bfs_spanning_tree(small_grid, root=0)
    all_nodes = tree.subtree_nodes(0)
    assert all_nodes == set(small_grid.nodes())
    for child in tree.children[0]:
        assert tree.subtree_nodes(child) < all_nodes


def test_graph_diameter_exact_and_approximate():
    wheel = wheel_graph(20)
    assert graph_diameter(wheel) == 2
    big = grid_graph(25, 25)
    approx = graph_diameter(big, exact_threshold=10)
    assert approx >= nx.diameter(big) // 2
