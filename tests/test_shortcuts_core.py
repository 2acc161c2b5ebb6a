"""Tests for the Shortcut object, its measures and the part generators."""

import networkx as nx
import pytest

from repro.errors import InvalidPartitionError, InvalidShortcutError
from repro.graphs.planar import grid_graph, wheel_graph
from repro.graphs.weights import assign_random_weights
from repro.shortcuts.parts import (
    boruvka_parts,
    path_parts,
    random_connected_parts,
    singleton_parts,
    tree_fragment_parts,
    validate_parts,
)
from repro.shortcuts.shortcut import Shortcut
from repro.structure.spanning import bfs_spanning_tree

from oracles.quality import block_components


# ------------------------------------------------------------------ parts


def test_validate_parts_accepts_disjoint_connected_sets(small_grid):
    validate_parts(small_grid, [frozenset({0, 1, 2}), frozenset({10, 11})])


def test_validate_parts_rejects_overlap_disconnection_and_foreign_nodes(small_grid):
    with pytest.raises(InvalidPartitionError):
        validate_parts(small_grid, [frozenset({0, 1}), frozenset({1, 2})])
    with pytest.raises(InvalidPartitionError):
        validate_parts(small_grid, [frozenset({0, 35})])
    with pytest.raises(InvalidPartitionError):
        validate_parts(small_grid, [frozenset({0, 999})])
    with pytest.raises(InvalidPartitionError):
        validate_parts(small_grid, [frozenset()])


def test_tree_fragment_parts_cover_all_vertices(small_grid, small_grid_tree):
    parts = tree_fragment_parts(small_grid, small_grid_tree, num_parts=7, seed=1)
    assert len(parts) == 7
    assert set().union(*parts) == set(small_grid.nodes())


def test_path_parts_are_paths_in_the_tree(small_grid, small_grid_tree):
    parts = path_parts(small_grid, small_grid_tree)
    tree_graph = small_grid_tree.as_graph()
    for part in parts:
        induced = tree_graph.subgraph(part)
        assert nx.is_connected(induced)
        assert all(degree <= 2 for _, degree in induced.degree())


def test_random_connected_parts_respect_size(small_grid):
    parts = random_connected_parts(small_grid, num_parts=4, part_size=5, seed=2)
    assert len(parts) == 4
    assert all(len(part) <= 5 for part in parts)


def test_boruvka_parts_shrink_with_phases(weighted_grid):
    zero = boruvka_parts(weighted_grid, phases=0)
    one = boruvka_parts(weighted_grid, phases=1)
    two = boruvka_parts(weighted_grid, phases=2)
    assert len(zero) == weighted_grid.number_of_nodes()
    assert len(one) <= len(zero) // 2
    assert len(two) <= len(one)


def test_singleton_parts(small_grid):
    parts = singleton_parts(small_grid)
    assert len(parts) == small_grid.number_of_nodes()


# ------------------------------------------------------------------ Shortcut measures


def test_shortcut_measures_on_a_hand_checked_instance():
    # Path 0-1-2-3-4 with the BFS tree equal to the graph.
    graph = nx.path_graph(5)
    tree = bfs_spanning_tree(graph, root=0)
    parts = [frozenset({0, 1}), frozenset({3, 4})]
    shortcut = Shortcut(
        graph=graph,
        tree=tree,
        parts=parts,
        edge_sets=[{(1, 2), (2, 3)}, {(2, 3)}],
    )
    shortcut.validate()
    assert shortcut.congestion() == 2  # edge (2, 3) is used by both parts
    # Part 0: component {1,2,3} contains part vertex 1, vertex 0 is isolated -> 2 blocks.
    assert len(block_components(shortcut, 0)) == 2
    # Part 1: component {2,3} contains 3, vertex 4 isolated -> 2 blocks.
    assert len(block_components(shortcut, 1)) == 2
    assert shortcut.block_parameter() == 2
    assert shortcut.quality() == 2 * tree.diameter() + 2
    assert shortcut.is_tree_restricted()


def test_shortcut_rejects_non_tree_edges_when_restricted(wheel):
    hub = max(wheel.nodes(), key=lambda v: wheel.degree(v))
    tree = bfs_spanning_tree(wheel, root=hub)
    non_tree_edge = next(
        (u, v) for u, v in wheel.edges() if (min(u, v), max(u, v)) not in tree.edge_set()
    )
    outer = frozenset(set(wheel.nodes()) - {hub})
    shortcut = Shortcut(wheel, tree, [outer], [{non_tree_edge}])
    assert not shortcut.is_tree_restricted()
    with pytest.raises(InvalidShortcutError):
        shortcut.validate()
    # Non-tree edges are fine when T-restriction is not required (general shortcuts).
    shortcut.validate(require_tree_restricted=False)


def test_shortcut_rejects_non_graph_edges(small_grid, small_grid_tree):
    shortcut = Shortcut(small_grid, small_grid_tree, [frozenset({0})], [{(0, 35)}])
    with pytest.raises(InvalidShortcutError):
        shortcut.validate()


def test_shortcut_rejects_mismatched_edge_sets(small_grid, small_grid_tree):
    with pytest.raises(InvalidShortcutError):
        Shortcut(small_grid, small_grid_tree, [frozenset({0})], [])


def test_shortcut_rejects_a_part_with_a_non_graph_vertex():
    graph = nx.path_graph(4)
    tree = bfs_spanning_tree(graph)
    with pytest.raises(InvalidPartitionError, match="part 0 contains non-graph vertex 'ghost'"):
        Shortcut(graph, tree, [frozenset({0, "ghost"}), frozenset({2, 3})], [set(), {(2, 3)}])


def test_shortcut_rejects_an_edge_with_a_non_graph_endpoint():
    graph = nx.path_graph(4)
    tree = bfs_spanning_tree(graph)
    with pytest.raises(InvalidShortcutError, match="'ghost' of part 1 is not a graph vertex"):
        Shortcut(graph, tree, [frozenset({0, 1}), frozenset({2, 3})], [set(), {(3, "ghost")}])


def test_augmented_subgraph_contains_part_and_shortcut_edges(small_grid, small_grid_tree):
    part = frozenset({0, 1, 6})
    edges = small_grid_tree.steiner_tree_edges({0, 14})
    shortcut = Shortcut(small_grid, small_grid_tree, [part], [edges])
    augmented = shortcut.augmented_subgraph(0)
    assert set(part) <= set(augmented.nodes())
    for u, v in edges:
        assert augmented.has_edge(u, v)


def test_part_diameters_reported_for_each_part(small_grid, small_grid_tree, small_grid_parts):
    edges = [small_grid_tree.steiner_tree_edges(part) for part in small_grid_parts]
    shortcut = Shortcut(small_grid, small_grid_tree, small_grid_parts, edges)
    diameters = shortcut.part_diameters()
    assert len(diameters) == len(small_grid_parts)
    assert all(diameter >= 0 for diameter in diameters)


def test_measure_as_row_round_trip(small_grid, small_grid_tree, small_grid_parts):
    shortcut = Shortcut(
        small_grid,
        small_grid_tree,
        small_grid_parts,
        [small_grid_tree.steiner_tree_edges(part) for part in small_grid_parts],
    )
    row = shortcut.measure().as_row()
    assert row["quality"] == row["block"] * row["tree_diameter"] + row["congestion"]
    assert row["num_parts"] == len(small_grid_parts)
