"""Round-trip and differential tests for the CSR kernel (``repro.core``).

Three layers:

* **round trip** -- for every registered graph family, the
  :class:`GraphView` conversion preserves labels, edges and effective edge
  weights, the index bijection is consistent, and witnesses survive (they
  live on the instance, untouched by the view);
* **differential** -- the CoreGraph fast paths (BFS spanning trees, graph
  diameter, shortcut quality measurement, heavy-light chains, core-mode
  simulator) must reproduce the ``networkx`` reference implementations
  *exactly* on every family;
* **end to end** -- a full tiny scenario matrix run on the seed oracles
  (``oracles.seed_paths()`` routes the scenario layer through
  ``tests/oracles/``) is record-for-record identical to the production
  run.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.congest.primitives import broadcast_value, distributed_bfs_tree, flood_max_id
from repro.congest.simulator import CongestSimulator
from repro.core import CoreGraph, GraphView, view_of
from repro.errors import InvalidGraphError
from repro.graphs.native import native_grid, with_hashed_weights
from repro.graphs.planar import grid_graph
from repro.graphs.weights import WEIGHT, assign_random_weights
from repro.scenarios import (
    InstanceCache,
    applicable_constructors,
    build_instance,
    constructor,
    family_names,
    run_matrix,
    scenario_matrix,
)
from repro.shortcuts.parts import singleton_parts, tree_fragment_parts
from repro.structure.heavy_light import heavy_light_chains
from repro.structure.spanning import RootedTree, bfs_spanning_tree, graph_diameter

from oracles import core as oracle_core
from oracles.graphs import NATIVE_GENERATORS
from oracles import quality as oracle_quality
from oracles import seed_paths
from oracles import structure as oracle_structure


# ----------------------------------------------------------------- CoreGraph


def test_core_graph_csr_invariants():
    core = CoreGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3, 2.5)])
    assert core.num_nodes == 4 and core.num_edges == 4
    assert list(core.indptr) == [0, 2, 4, 6, 8]
    assert core.neighbors(0) == [1, 3]
    assert core.neighbor_weights(0) == [1.0, 2.5]
    assert core.has_edge(2, 3) and not core.has_edge(0, 2)
    assert not core.has_edge(0, "elsewhere")
    pairs = [(u, v) for u in range(4) for v in range(4)]
    assert core.has_edges(*zip(*pairs)).tolist() == [core.has_edge(u, v) for u, v in pairs]
    assert core.has_edges([], []).tolist() == []
    assert core.is_connected()
    assert core.exact_diameter() == 2  # the 4-cycle


def test_core_graph_rejects_self_loops_and_range():
    with pytest.raises(InvalidGraphError):
        CoreGraph(3, [(1, 1)])
    with pytest.raises(InvalidGraphError):
        CoreGraph(3, [(0, 7)])


def test_core_graph_bfs_and_connectivity():
    core = CoreGraph(5, [(0, 1), (1, 2), (3, 4)])
    parents, order = core.bfs_parents(0)
    assert parents[0] == -1 and parents[2] == 1 and parents[3] == -2
    assert order == [0, 1, 2]
    assert not core.is_connected()
    with pytest.raises(InvalidGraphError):
        core.eccentricity(0)

    # Disconnected: unreached vertices carry the sentinels.
    assert parents == [-1, 0, 1, -2, -2]
    assert core.bfs_depths(3) == [-1, -1, -1, 0, 1]
    with pytest.raises(InvalidGraphError):
        core.eccentricity(4)
    with pytest.raises(InvalidGraphError):
        core.double_sweep_diameter()

    # A single vertex is connected, with eccentricity and diameter 0.
    single = CoreGraph(1, [])
    assert single.bfs_parents(0) == ([-1], [0])
    assert single.bfs_depths(0) == [0]
    assert single.eccentricity(0) == 0 and single.exact_diameter() == 0
    assert single.is_connected()

    # Out-of-range roots raise instead of wrapping around.
    for root in (-1, 5):
        with pytest.raises(InvalidGraphError):
            core.bfs_parents(root)
        with pytest.raises(InvalidGraphError):
            core.bfs_depths(root)


_EDGE_WEIGHTS = st.sampled_from([1.0, 2.5, 7.0, 0.5])


@st.composite
def edge_lists(draw, valid=True):
    """``(n, edges)``: weighted edge tuples, repeats (with other weights) and
    both orientations included; ``valid=False`` may add self-loops and
    out-of-range endpoints anywhere in the list."""
    n = draw(st.integers(0, 9))
    if valid and n < 2:
        return n, []
    endpoint = st.integers(0, n - 1) if valid else st.integers(-2, n + 2)
    edge = st.tuples(endpoint, endpoint, _EDGE_WEIGHTS)
    if valid:
        edge = edge.filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(edge, max_size=30))
    if edges and draw(st.booleans()):
        u, v, _ = draw(st.sampled_from(edges))
        edges.append((v, u, draw(_EDGE_WEIGHTS)))  # a repeat, reversed
    return n, edges


@settings(max_examples=200, deadline=None)
@given(edge_lists())
@example((0, []))
@example((1, []))
@example((4, [(0, 1, 2.5), (2, 1, 1.0), (1, 0, 7.0), (0, 1, 0.5)]))
def test_core_graph_assembly_matches_dict_of_dicts_oracle(case):
    n, edges = case
    indptr, indices, weights = oracle_core.csr_lists(n, edges)
    for core in (
        CoreGraph(n, edges),
        CoreGraph.from_edges(n, [e[0] for e in edges], [e[1] for e in edges],
                             [e[2] for e in edges]),
    ):
        assert core.indptr.dtype == np.int64 and core.indices.dtype == np.int64
        assert core.weights.dtype == np.float64
        assert core.indptr.tolist() == indptr
        assert core.indices.tolist() == indices
        assert core.weights.tolist() == weights
        assert core.num_nodes == n and core.num_edges == len(indices) // 2


@settings(max_examples=200, deadline=None)
@given(edge_lists(valid=False))
@example((3, [(0, 1, 1.0), (0, 7, 1.0), (1, 1, 1.0)]))
@example((3, [(0, 1, 1.0), (2, 2, 1.0), (-1, 0, 1.0)]))
def test_core_graph_assembly_errors_name_the_first_bad_edge(case):
    n, edges = case
    try:
        oracle_core.csr_lists(n, edges)
    except InvalidGraphError as error:
        expected = str(error)
    else:
        expected = None
    if expected is None:
        CoreGraph(n, edges)
    else:
        with pytest.raises(InvalidGraphError) as raised:
            CoreGraph(n, edges)
        assert str(raised.value) == expected


def test_core_graph_arrays_are_stored_not_copied():
    """The CSR arrays are plain attributes: a weighted copy shares the
    structure, and building, BFS trees and weights leave the per-node list
    adjacency unbuilt."""
    view = native_grid(7, 6)
    core = view.core
    assert core.indptr is core.indptr and core.indices is core.indices
    weighted = with_hashed_weights(view, seed=2)
    assert np.shares_memory(weighted.core.indptr, core.indptr)
    assert np.shares_memory(weighted.core.indices, core.indices)
    bfs_spanning_tree(view)
    bfs_spanning_tree(weighted)
    label_view = view_of(grid_graph(4, 5))
    bfs_spanning_tree(label_view)
    for built in (core, weighted.core, label_view.core):
        assert built._lists is None, "the list adjacency must be built lazily"
    assert core.neighbors(0) == core.indices[: core.indptr[1]].tolist()
    assert core._lists is not None


def _assert_reverse_arcs(core: CoreGraph) -> None:
    reverse = core.reverse_arcs
    assert reverse is core.reverse_arcs, "built once and cached"
    arcs = np.arange(len(core.indices))
    np.testing.assert_array_equal(reverse[reverse], arcs)
    assert not (reverse == arcs).any()
    rows = np.repeat(np.arange(core.num_nodes), np.diff(core.indptr))
    keys = core.arc_keys()
    np.testing.assert_array_equal(keys, rows * core.num_nodes + core.indices)
    np.testing.assert_array_equal(keys[reverse], core.indices * core.num_nodes + rows)


def test_reverse_arcs_are_a_fixed_point_free_involution():
    """On every native generator and its ``nx`` twin, every registered
    family, and graphs with degree-0 rows (first, inner, last, all)."""
    for native, twin, cases in NATIVE_GENERATORS.values():
        for kwargs in cases:
            _assert_reverse_arcs(native(**kwargs).core)
            _assert_reverse_arcs(view_of(twin(**kwargs)).core)
    for family_name in family_names():
        _assert_reverse_arcs(_family_instance(family_name).view.core)
    _assert_reverse_arcs(CoreGraph(6, [(1, 2), (2, 4), (1, 4)]))
    _assert_reverse_arcs(CoreGraph(3, []))


# ---------------------------------------------------------------- round trip


_INSTANCES = {}


def _family_instance(name):
    if name not in _INSTANCES:
        _INSTANCES[name] = build_instance(name, seed=3)
    return _INSTANCES[name]


@pytest.mark.parametrize("family_name", family_names())
def test_graphview_round_trip_per_family(family_name):
    instance = _family_instance(family_name)
    graph = instance.graph
    witness_before = instance.witness
    view = instance.view
    assert view is view_of(graph), "instance view must be the shared memoised one"

    # The bijection is total and consistent.
    assert len(view) == graph.number_of_nodes()
    for index in range(len(view)):
        assert view.index_of(view.node_of(index)) == index
    for node in graph.nodes():
        assert view.node_of(view.index_of(node)) == node
        assert node in view

    # Round trip preserves labels, edges and effective weights.
    rebuilt = view.to_networkx()
    assert set(rebuilt.nodes()) == set(graph.nodes())
    assert {frozenset(edge) for edge in rebuilt.edges()} == {
        frozenset(edge) for edge in graph.edges()
    }
    for u, v, data in graph.edges(data=True):
        assert rebuilt[u][v].get(WEIGHT, 1.0) == data.get(WEIGHT, 1.0)

    # The witness rides on the instance, untouched by the conversion.
    assert instance.witness is witness_before


def test_graphview_round_trip_preserves_weights():
    graph = grid_graph(5, 5)
    assign_random_weights(graph, seed=11, integer=True)
    view = GraphView(graph)
    rebuilt = view.to_networkx()
    for u, v, data in graph.edges(data=True):
        assert rebuilt[u][v][WEIGHT] == data[WEIGHT]


def test_graphview_rejects_self_loops():
    graph = nx.Graph([(0, 1), (1, 1)])
    with pytest.raises(InvalidGraphError):
        GraphView(graph)


class _Alike:
    """A label that prints like every other ``_Alike`` (and is equal only to itself)."""

    def __repr__(self) -> str:
        return "Alike"


def test_graphview_rejects_labels_whose_reprs_clash():
    first, second = _Alike(), _Alike()
    edges = [("c", first), (first, second), (second, "d")]
    for ordered in (edges, [(v, u) for u, v in reversed(edges)]):
        graph = nx.Graph(ordered)
        with pytest.raises(InvalidGraphError, match="share the repr Alike"):
            GraphView(graph)
    # Distinct reprs fix the order whatever the insertion order.
    edges = [("c", 1), (1, 2), (2, "d")]
    views = [GraphView(nx.Graph(ordered)) for ordered in (edges, edges[::-1])]
    assert views[0].nodes == views[1].nodes == ["c", "d", 1, 2]


def test_view_of_is_memoised_per_graph_object():
    a, b = grid_graph(3, 3), grid_graph(3, 3)
    assert view_of(a) is view_of(a)
    assert view_of(a) is not view_of(b)
    assert view_of(view_of(a)) is view_of(a)


# --------------------------------------------------------------- differential


@pytest.mark.parametrize("family_name", family_names())
def test_core_bfs_tree_matches_networkx(family_name):
    instance = _family_instance(family_name)
    nx_tree = oracle_structure.bfs_spanning_tree(instance.graph)
    for network in (instance.graph, instance.view):
        core_tree = bfs_spanning_tree(network)
        assert core_tree.root == nx_tree.root
        assert core_tree.parent == nx_tree.parent
        assert core_tree.depth == nx_tree.depth


@pytest.mark.parametrize("family_name", family_names())
def test_core_diameter_matches_networkx(family_name):
    instance = _family_instance(family_name)
    expected = oracle_structure.graph_diameter(instance.graph)
    assert graph_diameter(instance.view) == graph_diameter(instance.graph) == expected


@pytest.mark.parametrize("family_name", family_names())
def test_part_generators_match_networkx_forest(family_name):
    """Union-find tree fragments and view-order singletons == the seed nx bodies,
    list order included, on every family and for nx and view input alike."""
    instance = _family_instance(family_name)
    graph, tree = instance.graph, instance.tree
    expected_singletons = oracle_structure.singleton_parts(graph)
    for network in (graph, instance.view):
        for num_parts, seed in ((1, 0), (6, 3), (17, 8), (len(tree.parent), 1)):
            assert tree_fragment_parts(
                network, tree, num_parts=num_parts, seed=seed
            ) == oracle_structure.tree_fragment_parts(
                graph, tree, num_parts=num_parts, seed=seed
            ), (num_parts, seed)
        assert singleton_parts(network) == expected_singletons
    assert tree_fragment_parts(graph, num_parts=5, seed=2) == (
        oracle_structure.tree_fragment_parts(graph, num_parts=5, seed=2)
    )


def _message(check):
    with pytest.raises(InvalidGraphError) as raised:
        check()
    return str(raised.value)


def test_tree_validation_messages_match_for_nx_and_view_input():
    graph = grid_graph(3, 4)
    view = view_of(graph)
    tree = bfs_spanning_tree(graph)
    for network in (graph, view):
        tree.validate(network)
    oracle_structure.validate_tree(tree, graph)

    # A tree over a different vertex set (the path 0..10 misses vertex 11).
    short = bfs_spanning_tree(grid_graph(1, 11))
    expected = "tree does not span the graph's vertex set"
    assert _message(lambda: oracle_structure.validate_tree(short, graph)) == expected
    for network in (graph, view):
        assert _message(lambda: short.validate(network)) == expected

    # A spanning tree with a non-graph edge (the grid has no edge (0, 5)).
    parent = dict(tree.parent)
    parent[5] = 0
    foreign_edge = RootedTree(parent, tree.root)
    for network in (graph, view):
        # Named child first, as the parent map holds it.
        assert _message(lambda: foreign_edge.validate(network)) == (
            "tree edge (5, 0) is not a graph edge"
        )
    # The seed named it in nx adjacency order.
    assert _message(lambda: oracle_structure.validate_tree(foreign_edge, graph)) == (
        "tree edge (0, 5) is not a graph edge"
    )


@pytest.mark.parametrize("family_name", family_names())
def test_quality_measurement_matches_reference(family_name):
    """measure() (flat arrays) == the oracle measure (per-part nx graphs)."""
    instance = _family_instance(family_name)
    parts = instance.parts("tree_fragments", num_parts=6, seed=3)
    for name in applicable_constructors(instance):
        shortcut = constructor(name).build(instance, instance.tree, parts)
        assert shortcut.measure() == oracle_quality.measure(shortcut), name


def _reference_heavy_light_chains(tree, root):
    """The pre-CoreGraph dict-of-dict implementation, kept here as the oracle."""
    if tree.number_of_nodes() == 0:
        return []
    parent = {root: None}
    order = []
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        for neighbour in tree.neighbors(node):
            if neighbour not in parent:
                parent[neighbour] = node
                stack.append(neighbour)
    size = {node: 1 for node in parent}
    for node in reversed(order):
        if parent[node] is not None:
            size[parent[node]] += size[node]
    heavy_child = {}
    for node in parent:
        children = [c for c in tree.neighbors(node) if parent.get(c) == node]
        heavy_child[node] = max(children, key=lambda c: (size[c], repr(c))) if children else None
    chains = []
    chain_of = set()
    for node in order:
        if node in chain_of:
            continue
        chain = [node]
        chain_of.add(node)
        current = node
        while heavy_child[current] is not None:
            current = heavy_child[current]
            chain.append(current)
            chain_of.add(current)
        chains.append(chain)
    return chains


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_heavy_light_chains_match_reference(seed):
    import random

    rng = random.Random(seed)
    tree = nx.random_labeled_tree(40, seed=rng.randint(0, 10_000))
    root = min(tree.nodes())
    assert heavy_light_chains(tree, root) == _reference_heavy_light_chains(tree, root)


def test_core_mode_primitives_match_label_mode():
    graph = grid_graph(7, 7)
    assign_random_weights(graph, seed=5, integer=True)
    view = view_of(graph)

    nx_tree, nx_stats = distributed_bfs_tree(graph, 0)
    core_tree, core_stats = distributed_bfs_tree(view, 0)
    assert core_tree.parent == nx_tree.parent
    assert (core_stats.rounds, core_stats.messages, core_stats.words) == (
        nx_stats.rounds,
        nx_stats.messages,
        nx_stats.words,
    )
    assert core_stats.telemetry == nx_stats.telemetry
    assert core_stats.outputs.keys() == nx_stats.outputs.keys()  # label-keyed

    assert flood_max_id(view)[0] == flood_max_id(graph)[0]

    nx_bc = broadcast_value(graph, 0, ("v", 7))
    core_bc = broadcast_value(view, 0, ("v", 7))
    assert core_bc == nx_bc  # outputs carry the value, so full equality holds


# --------------------------------------------------------------- end to end


def test_tiny_matrix_identical_with_and_without_core_paths():
    cache = InstanceCache()
    scenarios = scenario_matrix(size="tiny", cache=cache)
    fast = run_matrix(scenarios, cache=cache)
    with seed_paths():
        reference = run_matrix(scenarios)
    assert fast == reference


def test_mst_scenario_identical_with_and_without_core_paths():
    from repro.scenarios import Scenario, run_scenario

    scenario = Scenario(
        name="planar/steiner/mst",
        family="planar",
        constructor="steiner",
        algorithm="mst",
        params={"side": 6},
        seed=2,
    )
    fast = run_scenario(scenario).as_dict()
    with seed_paths():
        # The seed paths, with the simulated phases on the per-node loop.
        reference = run_scenario(scenario, simulator_cls=CongestSimulator).as_dict()
    for key in ("mst_rounds", "mst_phases", "mst_weight", "sim_rounds", "sim_messages", "sim_words"):
        assert fast["result"][key] == reference["result"][key], key


def test_a_graph_whose_vertices_changed_after_viewing_is_rejected():
    graph = grid_graph(3, 3)
    bfs_spanning_tree(graph)
    graph.add_edge(8, 99)
    with pytest.raises(InvalidGraphError, match="changed after it was viewed"):
        bfs_spanning_tree(graph)
