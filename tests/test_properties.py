"""Property-based tests (hypothesis) for the core invariants.

These tests generate random instances -- random grid sizes, random parts,
random clique-sum compositions -- and assert the reproduction's structural
invariants: every constructor's output is a valid T-restricted
shortcut whose self-reported numbers match an independent recount, the
congestion cap is always respected, decompositions satisfy their axioms, and
the simulated aggregation always agrees with a centralised computation.
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles.structure import contract_to as seed_contract_to

from repro.congest.aggregation import partwise_aggregate
from repro.graphs.clique_sum import clique_sum_compose
from repro.graphs.planar import grid_graph, random_outerplanar_graph
from repro.graphs.treewidth import random_ktree
from repro.shortcuts.baseline import steiner_shortcut, whole_tree_shortcut
from repro.shortcuts.congestion_capped import congestion_capped_shortcut, oblivious_shortcut
from repro.shortcuts.parts import random_connected_parts, tree_fragment_parts
from repro.structure.heavy_light import fold_decomposition_tree
from repro.structure.spanning import RootedTree, bfs_spanning_tree
from repro.structure.tree_decomposition import validate_tree_decomposition

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def grid_instances(draw):
    """A random small grid with a random family of disjoint connected parts."""
    rows = draw(st.integers(min_value=2, max_value=6))
    cols = draw(st.integers(min_value=2, max_value=6))
    graph = grid_graph(rows, cols)
    seed = draw(st.integers(min_value=0, max_value=10_000))
    num_parts = draw(st.integers(min_value=1, max_value=6))
    style = draw(st.sampled_from(["fragments", "random"]))
    tree = bfs_spanning_tree(graph)
    if style == "fragments":
        parts = tree_fragment_parts(graph, tree, num_parts=num_parts, seed=seed)
    else:
        size = draw(st.integers(min_value=1, max_value=8))
        parts = random_connected_parts(graph, num_parts=num_parts, part_size=size, seed=seed)
    return graph, tree, parts


@SETTINGS
@given(grid_instances())
def test_steiner_shortcut_invariants(instance):
    graph, tree, parts = instance
    shortcut = steiner_shortcut(graph, tree, parts)
    shortcut.validate()
    # Block parameter is 1 for non-singleton Steiner trees (the Steiner tree
    # is connected and touches the part); singleton parts have one block too.
    assert shortcut.block_parameter() <= 1 or all(len(p) == 1 for p in parts)
    # Recount congestion independently.
    recount: dict = {}
    for edges in shortcut.edge_sets:
        for edge in edges:
            recount[edge] = recount.get(edge, 0) + 1
    assert shortcut.congestion() == max(recount.values(), default=0)


@SETTINGS
@given(grid_instances(), st.integers(min_value=1, max_value=5))
def test_congestion_cap_is_respected(instance, budget):
    graph, tree, parts = instance
    shortcut = congestion_capped_shortcut(graph, tree, parts, congestion_budget=budget)
    shortcut.validate()
    assert shortcut.congestion() <= budget
    # Every assigned edge still comes from the part's Steiner tree.
    for part, edges in zip(parts, shortcut.edge_sets):
        steiner = tree.steiner_tree_edges(part)
        assert edges <= steiner


@SETTINGS
@given(grid_instances())
def test_oblivious_beats_or_matches_whole_tree(instance):
    graph, tree, parts = instance
    oblivious = oblivious_shortcut(graph, tree, parts)
    whole = whole_tree_shortcut(graph, tree, parts)
    oblivious.validate()
    assert oblivious.quality() <= whole.quality()


@SETTINGS
@given(grid_instances())
def test_aggregation_matches_central_computation(instance):
    graph, tree, parts = instance
    shortcut = oblivious_shortcut(graph, tree, parts)
    values = {v: (13 * hash(v)) % 101 for v in graph.nodes()}
    result = partwise_aggregate(shortcut, values, combine=min)
    expected = [min(values[v] for v in part) for part in parts]
    assert result.values == expected


@SETTINGS
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from(["random", "path", "star"]),
)
def test_clique_sum_compose_always_satisfies_definition_8(num_extra, k, seed, shape):
    components = [grid_graph(3, 3)] + [random_outerplanar_graph(8, seed=seed + i) for i in range(num_extra)]
    decomposition = clique_sum_compose(components, k=k, seed=seed, tree_shape=shape)
    decomposition.validate()  # raises on any axiom violation
    assert nx.is_connected(decomposition.graph)
    folded = fold_decomposition_tree(decomposition)
    folded.validate()
    assert folded.depth() <= decomposition.depth() + 1


@SETTINGS
@given(
    st.integers(min_value=6, max_value=30),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=10_000),
)
def test_ktree_decomposition_axioms(n, k, seed):
    if n < k + 1:
        n = k + 1
    witness = random_ktree(n, k, seed=seed)
    validate_tree_decomposition(witness.graph, witness.decomposition)
    assert max(len(bag) for bag in witness.decomposition.nodes()) == k + 1


@SETTINGS
@given(grid_instances(), st.data())
def test_tree_contraction_is_a_tree_with_bounded_diameter(instance, data):
    graph, tree, _parts = instance
    nodes = sorted(graph.nodes())
    keep = data.draw(
        st.sets(st.sampled_from(nodes), min_size=1, max_size=min(10, len(nodes)))
    )
    contracted = tree.contract_to(keep)
    assert contracted.nodes == set(keep)
    assert nx.is_tree(contracted.as_graph())
    assert contracted.diameter() <= tree.diameter()


@SETTINGS
@given(st.data())
def test_tree_contraction_matches_the_seed_oracle(data):
    """Random parent maps over shuffled int/str labels: same tree as the seed.

    ``str`` labels sort differently by ``repr`` than their ints do ('10' <
    '9'), so the anchors and the BFS order of the quotient are exercised
    under both orders, and under a mix of the two.
    """
    size = data.draw(st.integers(min_value=1, max_value=40))
    kinds = data.draw(st.lists(st.sampled_from((int, str)), min_size=size, max_size=size))
    labels = data.draw(st.permutations([kind(i) for i, kind in zip(range(size), kinds)]))
    parent = {labels[0]: None}
    for position in range(1, size):
        below = data.draw(st.integers(min_value=0, max_value=position - 1))
        parent[labels[position]] = labels[below]
    # The dict order sets the children order; shuffle it too.
    order = data.draw(st.permutations(labels))
    tree = RootedTree({node: parent[node] for node in order}, labels[0])
    keep = data.draw(st.sets(st.sampled_from(labels), min_size=1, max_size=size))
    contracted = tree.contract_to(keep)
    expected = seed_contract_to(tree, keep)
    assert contracted.root == expected.root
    assert list(contracted.parent.items()) == list(expected.parent.items())
