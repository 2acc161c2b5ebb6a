"""Differential tests for the array-native algorithm layer (PR: algorithms).

Three layers:

* **differential** -- the array-native
  :func:`repro.algorithms.boruvka_mst` and
  :func:`repro.algorithms.approximate_min_cut` must reproduce the seed
  implementations in ``tests/oracles/`` *exactly* (MST edges/weight/rounds/phases/qualities;
  cut value/side/edges/rounds) across every registered graph family, for
  both engine-capable and witness-closure shortcut builders;
* **substrate** -- the index-native :meth:`PartSet.from_member_lists`
  construction and the indexed aggregation entry point agree with their
  label twins;
* **satellites** -- the ROADMAP open items fixed alongside: the
  ``graph_diameter`` approximate-regime tie-break (pinned above the
  400-node exact threshold), the unified simulator exception contract, and
  the view-cache lifecycle.
"""

from __future__ import annotations

import gc
import weakref

import networkx as nx
import pytest

from repro.algorithms.mincut import approximate_min_cut
from repro.algorithms.mst import boruvka_mst, oblivious_builder
from repro.congest.aggregation import partwise_aggregate, partwise_aggregate_indexed
from repro.congest.node import NodeProgram
from repro.congest.simulator import CongestSimulator
from repro.core import PartSet, view_of
from repro.errors import InvalidGraphError
from repro.graphs.planar import cycle_graph, grid_graph, random_delaunay_triangulation
from repro.graphs.weights import WEIGHT
from repro.scenarios import build_instance, family_names
from repro.scenarios.registry import constructor as scenario_constructor
from repro.shortcuts.baseline import steiner_shortcut
from repro.shortcuts.parts import boruvka_parts
from repro.structure.spanning import bfs_spanning_tree, graph_diameter

from oracles import aggregation as oracle_aggregation
from oracles import mincut as oracle_mincut
from oracles import mst as oracle_mst
from oracles import structure as oracle_structure

_INSTANCES: dict = {}


def _family_instance(name):
    if name not in _INSTANCES:
        _INSTANCES[name] = build_instance(name, seed=3)
    return _INSTANCES[name]


def _assert_mst_equal(fast, reference):
    assert fast.edges == reference.edges
    assert fast.weight == reference.weight
    assert fast.rounds == reference.rounds
    assert fast.phases == reference.phases
    assert fast.phase_rounds == reference.phase_rounds
    assert fast.phase_qualities == reference.phase_qualities


def _assert_mincut_equal(fast, reference):
    assert fast.value == reference.value
    assert fast.side == reference.side
    assert fast.cut_edges == reference.cut_edges
    assert fast.rounds == reference.rounds
    assert fast.num_trees == reference.num_trees
    assert fast.tree_rounds == reference.tree_rounds
    assert fast.exact_value == reference.exact_value
    assert fast.approximation_ratio == reference.approximation_ratio


# --------------------------------------------------------------- differential


def _unit_weighted(instance):
    """A copy of the instance graph with every weight 1: ties decide everything."""
    graph = instance.graph.copy()
    nx.set_edge_attributes(graph, 1.0, WEIGHT)
    return graph


@pytest.mark.parametrize("family_name", family_names())
def test_boruvka_fast_path_matches_reference(family_name):
    """Array-native Boruvka == preserved seed loop on every family.

    The unit-weight input makes the canonical edge-order tie-break alone
    decide every MWOE.
    """
    instance = _family_instance(family_name)
    tree = instance.tree
    for weighted in (instance.weighted_graph(3), _unit_weighted(instance)):
        fast = boruvka_mst(weighted, tree=tree)
        reference = oracle_mst.boruvka_mst(weighted, tree=tree)
        _assert_mst_equal(fast, reference)


@pytest.mark.parametrize("unit", [False, True], ids=["family-weights", "unit-weights"])
@pytest.mark.parametrize("family_name", family_names())
def test_boruvka_parts_are_the_mst_loop_fragments(family_name, unit):
    """``boruvka_parts(g, k)`` is the part family the MST loop hands to phase ``k``."""
    instance = _family_instance(family_name)
    graph = _unit_weighted(instance) if unit else instance.weighted_graph(3)
    _assert_boruvka_parts_match_loop(graph, instance.tree)


@pytest.mark.parametrize("graph", [grid_graph(6, 6), cycle_graph(9)], ids=["grid", "cycle"])
def test_boruvka_parts_are_the_mst_loop_fragments_on_unit_weights(graph):
    _assert_boruvka_parts_match_loop(graph, bfs_spanning_tree(graph))


def _assert_boruvka_parts_match_loop(graph, tree):
    seen = []

    def recording(g, t, parts):
        seen.append(list(parts))
        return oblivious_builder(g, t, parts)

    boruvka_mst(graph, shortcut_builder=recording, tree=tree)
    assert seen
    for phase, parts in enumerate(seen):
        assert boruvka_parts(graph, phase) == parts


@pytest.mark.parametrize("family_name", family_names())
def test_mincut_fast_path_matches_reference(family_name):
    """Array-native tree packing + respecting cuts == preserved seed sweep."""
    instance = _family_instance(family_name)
    weighted = instance.weighted_graph(3, low=1, high=10)
    tree = instance.tree
    fast = approximate_min_cut(weighted, epsilon=1.0, tree=tree)
    reference = oracle_mincut.approximate_min_cut(weighted, epsilon=1.0, tree=tree)
    _assert_mincut_equal(fast, reference)


def test_boruvka_engine_bypass_matches_builder_closure():
    """The registry's engine-capable oblivious builder == calling it as a closure."""
    instance = _family_instance("planar")
    weighted = instance.weighted_graph(5)
    tree = instance.tree
    builder = scenario_constructor("oblivious").builder_for(instance)
    assert builder.uses_engine  # the flag the fast loop dispatches on
    via_marker = boruvka_mst(weighted, shortcut_builder=builder, tree=tree)

    def unmarked(graph, t, parts):
        return builder(graph, t, parts)

    via_closure = boruvka_mst(weighted, shortcut_builder=unmarked, tree=tree)
    _assert_mst_equal(via_marker, via_closure)


def test_boruvka_fast_path_with_witness_builder_matches_reference():
    """A non-engine (label-space) builder exercises the label_parts hand-off."""
    instance = _family_instance("apex")
    weighted = instance.weighted_graph(7)
    tree = instance.tree
    builder = scenario_constructor("apex").builder_for(instance)
    assert not getattr(builder, "uses_engine", False)
    fast = boruvka_mst(weighted, shortcut_builder=builder, tree=tree)
    reference = oracle_mst.boruvka_mst(weighted, shortcut_builder=builder, tree=tree)
    _assert_mst_equal(fast, reference)


def test_boruvka_reads_weights_assigned_after_viewing():
    """Weight reassignment between runs over one viewed graph is honoured."""
    from repro.graphs.weights import assign_random_weights

    graph = grid_graph(5, 5)
    view_of(graph)  # freeze the topology into the CSR cache first
    assign_random_weights(graph, seed=11, integer=True)
    first = boruvka_mst(graph)
    assign_random_weights(graph, seed=12, integer=True)
    second = boruvka_mst(graph)
    reference = oracle_mst.boruvka_mst(graph)
    _assert_mst_equal(second, reference)
    assert first.weight != second.weight  # the reassignment was visible


# ----------------------------------------------------------------- substrate


def test_part_set_from_member_lists_is_lazy_and_equal():
    graph = grid_graph(4, 4)
    view = view_of(graph)
    member_lists = [[1, 3, 5], [0, 2], [15]]
    part_set = PartSet.from_member_lists(view, member_lists)
    assert part_set._parts is None, "labels must not materialise eagerly"
    assert part_set.num_parts == 3
    assert part_set.members_of(0) == [1, 3, 5]
    assert part_set.owner_array()[15] == 2
    labels = part_set.label_parts()
    assert labels == [
        frozenset(view.nodes[m] for m in members) for members in member_lists
    ]
    assert part_set.parts is labels  # cached


def test_partwise_aggregate_indexed_matches_label_entry_point():
    graph = grid_graph(5, 5)
    view = view_of(graph)
    tree = bfs_spanning_tree(view)
    parts = [frozenset(list(graph.nodes())[:7]), frozenset(list(graph.nodes())[12:20])]
    parts = [part for part in parts if nx.is_connected(graph.subgraph(part))]
    shortcut = steiner_shortcut(graph, tree, parts)
    label_values = {node: (hash(node) % 97) for node in graph.nodes()}
    indexed_values = [label_values[view.nodes[index]] for index in range(len(view))]
    by_label = partwise_aggregate(shortcut, label_values, combine=min)
    by_index = partwise_aggregate_indexed(shortcut, indexed_values, combine=min)
    assert by_label.values == by_index.values
    assert by_label.rounds == by_index.rounds
    assert by_label.messages == by_index.messages
    assert by_label.per_part_rounds == by_index.per_part_rounds
    reference = oracle_aggregation.partwise_aggregate_indexed(
        shortcut, indexed_values, combine=min
    )
    assert reference.values == by_index.values
    assert reference.rounds == by_index.rounds


# ---------------------------------------------------------------- satellites


@pytest.mark.parametrize(
    "make_graph",
    [
        lambda: cycle_graph(501),  # odd cycle: two farthest vertices tie
        lambda: grid_graph(21, 21),  # 441 nodes: above the exact threshold
        lambda: random_delaunay_triangulation(430, seed=9),
    ],
    ids=["odd-cycle", "grid-21", "delaunay-430"],
)
def test_graph_diameter_tie_break_agrees_above_exact_threshold(make_graph):
    """ROADMAP open item: the approximate regime's far-vertex tie-breaks align."""
    graph = make_graph()
    assert graph.number_of_nodes() > 400
    expected = oracle_structure.graph_diameter(graph)
    assert graph_diameter(graph) == graph_diameter(view_of(graph)) == expected


def test_graph_diameter_agrees_in_exact_regime_too():
    graph = grid_graph(7, 9)
    expected = oracle_structure.graph_diameter(graph)
    assert graph_diameter(graph) == graph_diameter(view_of(graph)) == expected == 14


@pytest.mark.parametrize("core_mode", [False, True], ids=["label", "core"])
def test_simulator_raises_invalid_graph_error_in_both_modes(core_mode):
    """ROADMAP open item: one exception type for empty/disconnected networks."""
    disconnected = nx.Graph()
    disconnected.add_nodes_from([0, 1])
    empty = nx.Graph()
    for network in (empty, disconnected):
        target = view_of(network) if core_mode else network
        with pytest.raises(InvalidGraphError):
            CongestSimulator(target, NodeProgram)


def test_view_cache_releases_dropped_graphs():
    """ROADMAP open item: a viewed graph must be collectable once dropped."""
    graph = grid_graph(3, 3)
    view = view_of(graph)
    assert view_of(graph) is view, "memoised per graph object"
    graph_ref = weakref.ref(graph)
    view_ref = weakref.ref(view)
    del graph, view
    gc.collect()
    assert graph_ref() is None, "the graph<->view cycle must be collectable"
    assert view_ref() is None
