"""Tests for genus, treewidth, apex/vortex, clique-sum and L_k generators."""

import networkx as nx
import pytest

from repro.errors import InvalidDecompositionError, InvalidGraphError
from repro.graphs.apex_vortex import add_apices, add_vortex, build_almost_embeddable
from repro.graphs.clique_sum import (
    clique_sum_compose,
    decomposition_from_tree_decomposition,
)
from repro.graphs.genus import genus_grid, genus_upper_bound_from_euler, toroidal_grid
from repro.graphs.lower_bound import lower_bound_graph
from repro.graphs.minor_free import perturbed_planar_graph, planar_plus_apex, sample_lk_graph
from repro.graphs.planar import boundary_cycle, grid_graph, grid_labels, is_planar
from repro.graphs.treewidth import random_caterpillar_tree, random_ktree, random_partial_ktree
from repro.graphs.weights import (
    assign_adversarial_weights,
    assign_random_weights,
    assign_unit_weights,
    total_weight,
)
from repro.structure.tree_decomposition import validate_tree_decomposition


# ---------------------------------------------------------------- genus


def test_toroidal_grid_is_nonplanar_and_4_regular():
    torus = toroidal_grid(5, 6)
    assert torus.genus == 1
    assert not is_planar(torus.graph)
    assert all(degree == 4 for _, degree in torus.graph.degree())


def test_genus_grid_adds_the_requested_number_of_handles():
    result = genus_grid(8, 8, genus=3, seed=1)
    assert result.genus == 3
    assert len(result.handles) == 3
    base_edges = grid_graph(8, 8).number_of_edges()
    assert result.graph.number_of_edges() == base_edges + 3


@pytest.mark.parametrize("seed", [0, 3, 7])
@pytest.mark.parametrize("side", [11, 12])
def test_genus_family_builds_on_sides_past_ten(side, seed):
    """From side 11 on, grid labels are not tuple order; coordinates must map
    through the grid's own labelling (the boundary cycle and the handles)."""
    from repro.scenarios import build_instance

    instance = build_instance("genus", {"side": side}, seed)
    assert boundary_cycle(side, side, grid_graph(side, side))
    handles = genus_grid(side, side, genus=1, seed=seed).handles
    labels = {label: coord for coord, label in grid_labels(side, side).items()}
    for (u, v), in handles:
        (r1, c1), (r2, c2) = labels[u], labels[v]
        assert abs(r1 - r2) + abs(c1 - c2) >= side  # as far apart as promised
    assert instance.graph.number_of_nodes() > side * side


def test_genus_grid_rejects_impossible_requests():
    with pytest.raises(InvalidGraphError):
        genus_grid(3, 3, genus=100, seed=0)


def test_euler_genus_bound_is_zero_for_planar():
    assert genus_upper_bound_from_euler(grid_graph(5, 5)) == 0
    assert genus_upper_bound_from_euler(nx.complete_graph(7)) >= 1


# ---------------------------------------------------------------- treewidth


def test_random_ktree_has_valid_decomposition_of_width_k():
    witness = random_ktree(25, 3, seed=2)
    assert witness.width == 3
    validate_tree_decomposition(witness.graph, witness.decomposition)
    assert max(len(bag) for bag in witness.decomposition.nodes()) == 4


def test_random_partial_ktree_is_connected_subgraph_of_ktree():
    witness = random_partial_ktree(30, 2, keep_probability=0.5, seed=3)
    assert nx.is_connected(witness.graph)
    validate_tree_decomposition(witness.graph, witness.decomposition)


def test_random_caterpillar_tree_is_a_tree():
    tree = random_caterpillar_tree(20, seed=4)
    assert nx.is_tree(tree)
    assert tree.number_of_nodes() == 20


# ---------------------------------------------------------------- apex / vortex


def test_add_apices_connects_and_labels_new_vertices():
    base = grid_graph(4, 4)
    graph, apices = add_apices(base, 2, attach_probability=0.5, seed=5)
    assert len(apices) == 2
    assert graph.number_of_nodes() == 18
    for apex in apices:
        assert graph.degree(apex) >= 1
    # Apices are interconnected by default (Definition 5 (iii)).
    assert graph.has_edge(apices[0], apices[1])


def test_add_vortex_respects_depth_and_arc_adjacency():
    rows = cols = 5
    graph = grid_graph(rows, cols)
    cycle = boundary_cycle(rows, cols)
    augmented, witness = add_vortex(graph, cycle, depth=2, seed=6)
    witness.validate(augmented)
    assert witness.internal_nodes
    # Internal nodes only touch their own arcs.
    for node in witness.internal_nodes:
        arc = set(witness.arcs[node])
        for neighbour in augmented.neighbors(node):
            assert neighbour in arc or neighbour in witness.internal_nodes


def test_add_vortex_rejects_non_cycles():
    graph = grid_graph(4, 4)
    with pytest.raises(InvalidGraphError):
        add_vortex(graph, [0, 5, 10], depth=2)  # not a cycle in the grid


def test_build_almost_embeddable_records_parameters():
    witness = build_almost_embeddable(q=2, g=1, k=2, l=1, base_rows=6, base_cols=6, seed=7)
    q, g, k, l = witness.parameters
    assert q == 2 and g == 1 and l == 1 and k >= 2
    witness.validate()
    assert len(witness.apices) == 2
    assert witness.vortex_nodes()
    # Removing the apices leaves the surface + vortex part connected.
    assert nx.is_connected(witness.non_apex_graph())


# ---------------------------------------------------------------- clique sums


def test_clique_sum_compose_validates_definition_8():
    components = [grid_graph(4, 4), grid_graph(3, 5), grid_graph(4, 3)]
    decomposition = clique_sum_compose(components, k=3, seed=8)
    decomposition.validate()
    assert len(decomposition.bags) == 3
    assert decomposition.max_partial_clique_size() <= 3
    assert nx.is_connected(decomposition.graph)


def test_clique_sum_path_shape_has_linear_depth():
    components = [grid_graph(3, 3) for _ in range(6)]
    decomposition = clique_sum_compose(components, k=2, seed=9, tree_shape="path")
    assert decomposition.depth(root=0) == 5


def test_clique_sum_completed_bag_contains_partial_clique_edges():
    components = [grid_graph(4, 4), grid_graph(4, 4)]
    decomposition = clique_sum_compose(components, k=3, seed=10)
    for edge in decomposition.tree.edges():
        clique = decomposition.partial_cliques[frozenset(edge)]
        for bag_index in edge:
            completed = decomposition.completed_bag_graph(bag_index)
            clique_list = sorted(clique)
            for i in range(len(clique_list)):
                for j in range(i + 1, len(clique_list)):
                    assert completed.has_edge(clique_list[i], clique_list[j])


def test_clique_sum_edge_deletion_keeps_graph_connected():
    components = [grid_graph(4, 4) for _ in range(4)]
    decomposition = clique_sum_compose(components, k=3, seed=11, delete_probability=0.8)
    decomposition.validate()
    assert nx.is_connected(decomposition.graph)


def test_decomposition_from_tree_decomposition_round_trip():
    witness = random_ktree(20, 2, seed=12)
    view = decomposition_from_tree_decomposition(
        witness.graph, witness.decomposition, witness.width
    )
    view.validate()
    assert view.k == witness.width + 1


def test_clique_sum_rejects_empty_or_disconnected_components():
    with pytest.raises(InvalidGraphError):
        clique_sum_compose([], k=2)
    disconnected = nx.Graph()
    disconnected.add_nodes_from([0, 1])
    with pytest.raises(InvalidGraphError):
        clique_sum_compose([disconnected], k=2)


# ---------------------------------------------------------------- L_k samples


def test_sample_lk_graph_is_connected_with_valid_witness():
    sample = sample_lk_graph(num_bags=5, k=3, bag_size=18, seed=13)
    assert nx.is_connected(sample.graph)
    sample.decomposition.validate()
    assert len(sample.decomposition.bags) == 5
    kinds = {bag.kind for bag in sample.decomposition.bags.values()}
    assert kinds <= {"planar", "treewidth", "almost_embeddable"}


def test_planar_plus_apex_witness_is_consistent():
    witness = planar_plus_apex(6, 6, apices=2, seed=14)
    witness.validate()
    assert len(witness.apices) == 2
    assert witness.graph.number_of_nodes() == 38


def test_perturbed_planar_graph_accounts_for_extra_edges():
    graph, witness = perturbed_planar_graph(6, 6, extra_edges=3, extra_apices=1, seed=15)
    assert witness.genus == 3
    assert len(witness.apices) == 1
    witness.validate()
    assert nx.is_connected(graph)


# ---------------------------------------------------------------- lower bound & weights


def test_lower_bound_graph_shape():
    instance = lower_bound_graph(6, 16)
    graph = instance.graph
    assert nx.is_connected(graph)
    assert len(instance.path_starts) == 6
    # Small diameter despite long paths.
    assert nx.diameter(graph) <= 2 * (16).bit_length() + 6
    with pytest.raises(InvalidGraphError):
        lower_bound_graph(0, 5)


def test_weight_assignments():
    graph = grid_graph(4, 4)
    assign_unit_weights(graph)
    assert total_weight(graph) == graph.number_of_edges()
    assign_random_weights(graph, seed=1, integer=True)
    weights = {graph[u][v]["weight"] for u, v in graph.edges()}
    assert len(weights) == graph.number_of_edges()  # tie-breaker makes them unique
    assign_adversarial_weights(graph, seed=2)
    light = [w for _, _, w in graph.edges(data="weight") if w < 100]
    assert light  # the spine edges are light
