"""Tests for the distributed MST and approximate min-cut algorithms."""

import networkx as nx
import pytest

from repro.algorithms.mincut import approximate_min_cut, exact_min_cut
from repro.algorithms.mst import boruvka_mst, reference_mst_weight
from repro.algorithms.mst_baselines import (
    gkp_reference_rounds,
    no_shortcut_builder,
    paper_reference_rounds,
    whole_tree_builder,
)
from repro.errors import ConvergenceError
from repro.graphs.minor_free import planar_plus_apex
from repro.graphs.planar import cycle_graph, grid_graph, random_delaunay_triangulation, wheel_graph
from repro.graphs.weights import assign_adversarial_weights, assign_random_weights, assign_unit_weights
from repro.shortcuts.apex import apex_shortcut_from_witness
from repro.structure.spanning import bfs_spanning_tree


# ------------------------------------------------------------------ MST correctness


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_boruvka_matches_reference_on_grids(seed):
    graph = grid_graph(5, 5)
    assign_random_weights(graph, seed=seed, integer=True)
    result = boruvka_mst(graph, validate_shortcuts=True)
    assert abs(result.weight - reference_mst_weight(graph)) < 1e-6
    assert len(result.edges) == graph.number_of_nodes() - 1
    mst_graph = nx.Graph(list(result.edges))
    assert nx.is_tree(mst_graph)


def test_boruvka_matches_reference_on_delaunay():
    graph = random_delaunay_triangulation(60, seed=4)
    assign_random_weights(graph, seed=4, integer=True)
    result = boruvka_mst(graph)
    assert abs(result.weight - reference_mst_weight(graph)) < 1e-6


def test_boruvka_with_all_builders_agree(weighted_grid):
    reference = reference_mst_weight(weighted_grid)
    for builder in (None, no_shortcut_builder, whole_tree_builder):
        result = boruvka_mst(weighted_grid, shortcut_builder=builder)
        assert abs(result.weight - reference) < 1e-6


def test_boruvka_phase_count_is_logarithmic(weighted_grid):
    result = boruvka_mst(weighted_grid)
    assert result.phases <= 2 + weighted_grid.number_of_nodes().bit_length()
    assert len(result.phase_rounds) == result.phases
    assert sum(result.phase_rounds) == result.rounds


def test_phase_budget_error_carries_the_partial_result():
    graph = grid_graph(6, 6)
    assign_random_weights(graph, seed=3, integer=True)
    full = boruvka_mst(graph)
    assert full.phases > 1
    with pytest.raises(ConvergenceError) as caught:
        boruvka_mst(graph, max_phases=1)
    partial = caught.value.partial
    assert partial.phases == 1
    assert partial.phase_rounds == full.phase_rounds[:1]
    assert partial.rounds == full.phase_rounds[0]
    assert partial.phase_qualities == full.phase_qualities[:1]
    # One phase merges every fragment at least once: >= n/2 MST edges.
    assert len(partial.edges) >= 18 and partial.edges < full.edges
    assert partial.weight == sum(graph.edges[edge]["weight"] for edge in partial.edges)


def test_boruvka_on_unit_weights_returns_spanning_tree():
    graph = grid_graph(4, 6)
    assign_unit_weights(graph)
    result = boruvka_mst(graph)
    assert len(result.edges) == graph.number_of_nodes() - 1


def test_shortcuts_help_on_adversarial_wheel_weights():
    """On the wheel with a long light outer path, shortcuts beat the naive runs."""
    wheel = wheel_graph(48)
    hub = max(wheel.nodes(), key=lambda v: wheel.degree(v))
    spine = sorted(set(wheel.nodes()) - {hub})
    assign_adversarial_weights(wheel, spine=spine)
    tree = bfs_spanning_tree(wheel, root=hub)
    naive = boruvka_mst(wheel, shortcut_builder=no_shortcut_builder, tree=tree)
    accelerated = boruvka_mst(wheel, tree=tree)
    assert abs(naive.weight - accelerated.weight) < 1e-6
    assert accelerated.rounds < naive.rounds


def test_apex_builder_on_planar_plus_apex_matches_reference():
    witness = planar_plus_apex(7, 7, apices=1, seed=5)
    graph = witness.graph
    assign_random_weights(graph, seed=5, integer=True)
    tree = bfs_spanning_tree(graph)

    def builder(g, t, parts):
        return apex_shortcut_from_witness(witness, t, parts)

    result = boruvka_mst(graph, shortcut_builder=builder, tree=tree)
    assert abs(result.weight - reference_mst_weight(graph)) < 1e-6
    assert result.phase_qualities  # qualities recorded per phase


# ------------------------------------------------------------------ reference curves


def test_reference_round_formulas_are_monotone():
    assert gkp_reference_rounds(400, 10) > gkp_reference_rounds(100, 10)
    assert paper_reference_rounds(20, 100) > paper_reference_rounds(10, 100)


# ------------------------------------------------------------------ min cut


def test_exact_min_cut_on_cycle_is_two():
    graph = cycle_graph(12)
    assign_unit_weights(graph)
    assert exact_min_cut(graph) == 2.0


def test_approximate_min_cut_within_epsilon_on_grid():
    graph = grid_graph(5, 5)
    assign_random_weights(graph, low=1, high=10, seed=6, integer=True)
    result = approximate_min_cut(graph, epsilon=1.0)
    assert result.value >= result.exact_value - 1e-9
    assert result.approximation_ratio <= 2.0
    assert result.rounds > 0
    assert 0 < len(result.side) < graph.number_of_nodes()


def test_approximate_min_cut_exact_on_cycle():
    graph = cycle_graph(16)
    assign_unit_weights(graph)
    result = approximate_min_cut(graph, epsilon=0.5)
    # A cycle's min cut (2) always 2-respects a packed spanning tree.
    assert result.value == pytest.approx(2.0)
    assert result.approximation_ratio == pytest.approx(1.0)


def test_approximate_min_cut_cut_edges_cross_reported_side():
    graph = grid_graph(4, 4)
    assign_random_weights(graph, low=1, high=5, seed=7, integer=True)
    result = approximate_min_cut(graph, epsilon=1.0)
    for u, v in result.cut_edges:
        assert (u in result.side) != (v in result.side)
    crossing_weight = sum(graph[u][v]["weight"] for u, v in result.cut_edges)
    assert crossing_weight == pytest.approx(result.value)


def test_min_cut_rejects_bad_epsilon(weighted_grid):
    with pytest.raises(Exception):
        approximate_min_cut(weighted_grid, epsilon=0.0)
