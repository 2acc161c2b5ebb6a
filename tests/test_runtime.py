"""Differential tests for the vectorized CONGEST runtime.

The runtime's contract (docs/simulator.md) is *observational equality*:
for every compiled program family, a :class:`RuntimeSimulator` execution
must produce a :class:`SimulationResult` **identical** -- rounds, messages,
words, label-keyed outputs and per-round telemetry including executed-node
counts -- to the per-node active-set :class:`CongestSimulator` and the
full-scan :class:`ReferenceSimulator` on the same network.  The suite pins
this across every registered scenario family (all 7) for the BFS and
broadcast programs the MST scenario simulates, plus the flood-max and
convergecast programs, and checks the new mode's exception contract
(empty/disconnected networks, label-space networks, factories without a
compiled twin, bandwidth enforcement).
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.congest import (
    CongestSimulator,
    RuntimeSimulator,
    broadcast_value,
    convergecast_aggregate,
    distributed_bfs_tree,
    flood_max_id,
)
from repro.congest.node import NodeProgram
from repro.core import view_of
from repro.errors import InvalidGraphError, SimulationError
from repro.graphs.planar import grid_graph
from repro.scenarios import (
    InstanceCache,
    Scenario,
    build_instance,
    run_matrix,
    run_scenario,
    scenario_matrix,
)
from repro.scenarios.registry import family, family_names

from oracles.simulator import ReferenceSimulator

ALL_SIMULATORS = [CongestSimulator, ReferenceSimulator, RuntimeSimulator]


def _tiny_instance(name):
    return build_instance(name, family(name).tiny_params, seed=3)


def _values_for(graph, seed=0):
    return {
        node: (index * 31 + seed) % 97
        for index, node in enumerate(sorted(graph.nodes(), key=repr))
    }


# ------------------------------------------------------ all-family equality


@pytest.mark.parametrize("family_name", family_names())
def test_bfs_runtime_matches_per_node_modes_on_every_family(family_name):
    instance = _tiny_instance(family_name)
    view = instance.view
    root = min(instance.graph.nodes(), key=repr)
    trees = {}
    results = {}
    for simulator_cls in ALL_SIMULATORS:
        trees[simulator_cls], results[simulator_cls] = distributed_bfs_tree(
            view, root, simulator_cls=simulator_cls
        )
    # rounds, messages, words, outputs AND per-round telemetry all equal.
    assert results[RuntimeSimulator] == results[CongestSimulator]
    assert results[RuntimeSimulator] == results[ReferenceSimulator]
    # ... and so is the label-keyed tree built from the outputs.
    assert trees[RuntimeSimulator].parent == trees[CongestSimulator].parent
    assert trees[RuntimeSimulator].root == trees[CongestSimulator].root


@pytest.mark.parametrize("family_name", family_names())
def test_broadcast_runtime_matches_per_node_modes_on_every_family(family_name):
    instance = _tiny_instance(family_name)
    view = instance.view
    source = min(instance.graph.nodes(), key=repr)
    value = ("mst", 1234.5)
    results = [
        broadcast_value(view, source, value, simulator_cls=simulator_cls)
        for simulator_cls in ALL_SIMULATORS
    ]
    assert results[2] == results[0]
    assert results[2] == results[1]
    assert set(results[2].outputs.values()) == {value}


@pytest.mark.parametrize("family_name", family_names())
def test_flood_max_runtime_matches_per_node_modes_on_every_family(family_name):
    instance = _tiny_instance(family_name)
    view = instance.view
    outcomes = [
        flood_max_id(view, simulator_cls=simulator_cls)
        for simulator_cls in ALL_SIMULATORS
    ]
    leaders = {leader for leader, _ in outcomes}
    assert len(leaders) == 1
    assert outcomes[2][1] == outcomes[0][1]
    assert outcomes[2][1] == outcomes[1][1]


@pytest.mark.parametrize("family_name", family_names())
def test_convergecast_runtime_matches_per_node_modes_on_every_family(family_name):
    instance = _tiny_instance(family_name)
    view = instance.view
    values = _values_for(instance.graph)
    outcomes = [
        convergecast_aggregate(
            view, instance.tree, values, combine=min, simulator_cls=simulator_cls
        )
        for simulator_cls in ALL_SIMULATORS
    ]
    aggregate, result = outcomes[2]
    assert aggregate == min(values.values())
    assert outcomes[2] == outcomes[0]
    assert outcomes[2] == outcomes[1]
    # Exactly one report per tree edge, up the tree.
    assert result.messages == len(instance.tree.parent) - 1


def test_convergecast_order_sensitive_combine_matches():
    """Float summation folds in the same order in all three modes."""
    instance = _tiny_instance("planar")
    view = instance.view
    values = {node: 0.1 * (index + 1) for index, node in enumerate(
        sorted(instance.graph.nodes(), key=repr)
    )}

    def add(a, b):
        return a + b

    outcomes = [
        convergecast_aggregate(
            view, instance.tree, values, combine=add, simulator_cls=simulator_cls
        )
        for simulator_cls in ALL_SIMULATORS
    ]
    # Bit-identical floats, not approximately equal ones.
    assert outcomes[0][0] == outcomes[1][0] == outcomes[2][0]
    assert outcomes[0] == outcomes[1] == outcomes[2]


# ------------------------------------------------------- scenario workloads


def test_mst_scenario_record_identical_under_runtime_mode():
    scenario = Scenario(
        name="planar/steiner/mst",
        family="planar",
        constructor="steiner",
        algorithm="mst",
        params={"side": 6},
        seed=2,
    )
    core = run_scenario(scenario, simulator_cls=CongestSimulator).as_dict()["result"]
    fast = run_scenario(scenario).as_dict()["result"]
    for key in (
        "mst_rounds",
        "mst_phases",
        "mst_weight",
        "phase_qualities",
        "sim_rounds",
        "sim_messages",
        "sim_words",
        "sim_peak_active_nodes",
        "sim_active_node_rounds",
    ):
        assert fast[key] == core[key], key


@pytest.mark.parametrize(
    "faults", [None, "drop=0.05,crash=0.01:8"], ids=["fail-free", "faulty"]
)
def test_mst_matrix_records_identical_under_default_and_active_mode(faults):
    """The engine's default (runtime) mode reproduces the per-node loop's
    records on every tiny MST cell, fail-free and under faults."""
    cache = InstanceCache()
    scenarios = scenario_matrix(algorithm_name="mst", size="tiny", cache=cache)

    def records(**mode) -> list[dict]:
        rows = run_matrix(scenarios, cache=cache, faults=faults, fault_seed=7, **mode)
        for row in rows:
            row["result"].pop("sim_seconds")
        return rows

    default = records()
    active = records(simulator_cls=CongestSimulator)
    assert len(default) == len(scenarios)
    assert all(row["applicable"] for row in default)
    assert default == active


# ------------------------------------------------------- exception contract


def test_runtime_rejects_disconnected_network():
    graph = nx.Graph()
    graph.add_edges_from([(0, 1), (2, 3)])  # two components
    with pytest.raises(InvalidGraphError, match="not connected"):
        distributed_bfs_tree(view_of(graph), 0, simulator_cls=RuntimeSimulator)


def test_runtime_rejects_empty_network():
    with pytest.raises(InvalidGraphError, match="empty"):
        RuntimeSimulator(view_of(nx.Graph()), NodeProgram)


def test_runtime_requires_a_graph_view():
    """The simulator itself stays index-native; the primitives view their input."""
    from repro.congest.primitives import _BfsProgram, _Programs

    with pytest.raises(InvalidGraphError, match="GraphView"):
        RuntimeSimulator(grid_graph(3, 3), _Programs(_BfsProgram, 0))


def test_runtime_rejects_factories_without_compiled_twin():
    view = view_of(grid_graph(3, 3))
    with pytest.raises(SimulationError, match="compile_runtime"):
        RuntimeSimulator(view, NodeProgram)


@pytest.mark.parametrize("simulator_cls", ALL_SIMULATORS)
def test_bandwidth_enforced_identically(simulator_cls):
    view = view_of(grid_graph(3, 3))
    oversized = tuple(range(50))
    with pytest.raises(SimulationError, match="exceeding the bandwidth"):
        broadcast_value(view, 0, oversized, simulator_cls=simulator_cls)


@pytest.mark.parametrize("simulator_cls", ALL_SIMULATORS)
def test_convergecast_topology_enforced_identically(simulator_cls):
    """A tree edge that is not a network edge raises in every mode."""
    from repro.structure.spanning import RootedTree

    path = nx.Graph()
    path.add_edges_from([(0, 1), (1, 2)])
    bad_tree = RootedTree({0: None, 1: 0, 2: 0}, 0)  # (0, 2) is no edge
    with pytest.raises(SimulationError, match="non-neighbour"):
        convergecast_aggregate(
            view_of(path), bad_tree, {0: 1, 1: 2, 2: 3}, simulator_cls=simulator_cls
        )


# ------------------------------------------------------------- sanity


def test_runtime_builds_no_per_node_programs():
    """The speedup exists because runtime mode skips per-node set-up."""
    view = view_of(grid_graph(5, 5))
    root_index = view.index_of(0)
    from repro.congest.primitives import _BfsProgram, _Programs

    simulator = RuntimeSimulator(view, _Programs(_BfsProgram, root_index))
    assert simulator.programs == {}
    result = simulator.run()
    assert result.rounds > 0
