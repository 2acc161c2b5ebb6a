"""Differential tests for the seeded fault-injection layer.

The fault layer's contract (docs/simulator.md, "Fault model") extends the
mode equality contract: for a fixed :class:`FaultSchedule` (model +
seed), the full-scan oracle :class:`ReferenceSimulator`, the active-set
:class:`CongestSimulator` and the vectorized :class:`RuntimeSimulator`
must produce **identical** :class:`SimulationResult`\\ s -- rounds,
messages, words, outputs and per-round telemetry including the fault
columns (dropped/delayed/duplicated/crashed).  The suite pins this across
every registered scenario family and every built-in fault model, plus the
layer's edge contracts: null models reproduce fail-free runs byte-for-byte,
crashed roots degrade to a documented partial output instead of hanging,
``max_rounds`` truncation raises :class:`RoundLimitError` carrying partial
telemetry, and a pooled faulty sweep is byte-identical to the serial one.
"""

from __future__ import annotations

import json

import networkx as nx
import pytest

from repro.congest import (
    BUILT_IN_FAULT_KINDS,
    CongestSimulator,
    FaultModel,
    FaultSchedule,
    RuntimeSimulator,
    broadcast_value,
    convergecast_aggregate,
    distributed_bfs_tree,
    flood_max_id,
    parse_fault_spec,
    robust_bfs_tree,
)
from repro.congest.node import NodeProgram
from repro.core import view_of
from repro.errors import RoundLimitError, SimulationError
from repro.graphs.planar import grid_graph
from repro.scenarios import run_matrix, scenario_matrix
from repro.scenarios.engine import build_instance
from repro.scenarios.registry import family, family_names

from oracles.simulator import ReferenceSimulator

ALL_SIMULATORS = [CongestSimulator, ReferenceSimulator, RuntimeSimulator]

# One model per built-in kind at a rate high enough to actually fire on
# tiny instances, plus a combined adversarial model mixing everything.
ADVERSARIAL = FaultModel(
    drop=0.1, delay=0.05, max_delay=3, duplicate=0.05, crash=0.05, crash_window=6, shuffle=True
)
ALL_MODELS = [FaultModel.preset(kind, rate=0.1) for kind in BUILT_IN_FAULT_KINDS]
ALL_MODELS.append(ADVERSARIAL)
MODEL_IDS = list(BUILT_IN_FAULT_KINDS) + ["adversarial"]


def _tiny_instance(name):
    return build_instance(name, family(name).tiny_params, seed=3)


def _values_for(graph, seed=0):
    return {
        node: (index * 31 + seed) % 97
        for index, node in enumerate(sorted(graph.nodes(), key=repr))
    }


# ------------------------------------------- three-mode equality under faults


@pytest.mark.parametrize("model", ALL_MODELS, ids=MODEL_IDS)
@pytest.mark.parametrize("family_name", family_names())
def test_robust_bfs_three_mode_equality_on_every_family(family_name, model):
    instance = _tiny_instance(family_name)
    view = instance.view
    root = min(instance.graph.nodes(), key=repr)
    schedule = FaultSchedule(model, seed=11)
    outcomes = [
        robust_bfs_tree(view, root, schedule, simulator_cls=simulator_cls)
        for simulator_cls in ALL_SIMULATORS
    ]
    trees, results, repaired = zip(*outcomes)
    # rounds, messages, words, outputs AND fault telemetry all equal.
    assert results[0] == results[1] == results[2]
    assert repaired[0] == repaired[1] == repaired[2]
    assert trees[0].parent == trees[1].parent == trees[2].parent
    # The repaired tree spans every node regardless of the faults.
    assert set(trees[0].parent) == set(instance.graph.nodes())


@pytest.mark.parametrize("model", ALL_MODELS, ids=MODEL_IDS)
def test_broadcast_three_mode_equality(model):
    instance = _tiny_instance("planar")
    view = instance.view
    source = min(instance.graph.nodes(), key=repr)
    results = [
        broadcast_value(
            view, source, ("mst", 99.5), simulator_cls=cls,
            fault_schedule=FaultSchedule(model, seed=5),
        )
        for cls in ALL_SIMULATORS
    ]
    assert results[0] == results[1] == results[2]
    # Every surviving node that produced an output learned the value.
    assert set(results[0].outputs.values()) <= {("mst", 99.5)}


@pytest.mark.parametrize("model", ALL_MODELS, ids=MODEL_IDS)
def test_flood_max_three_mode_equality(model):
    instance = _tiny_instance("treewidth")
    view = instance.view
    outcomes = [
        flood_max_id(view, simulator_cls=cls, fault_schedule=FaultSchedule(model, seed=2))
        for cls in ALL_SIMULATORS
    ]
    assert outcomes[0] == outcomes[1] == outcomes[2]


@pytest.mark.parametrize("model", ALL_MODELS, ids=MODEL_IDS)
def test_convergecast_three_mode_equality(model):
    instance = _tiny_instance("planar")
    view = instance.view
    values = _values_for(instance.graph)
    outcomes = [
        convergecast_aggregate(
            view, instance.tree, values, combine=min, simulator_cls=cls,
            fault_schedule=FaultSchedule(model, seed=13),
        )
        for cls in ALL_SIMULATORS
    ]
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_label_mode_matches_core_mode_under_faults():
    """The primitives run on the view of an ``nx.Graph``, so both calls are
    view runs; ``tests/test_label_mode.py`` drives label-mode programs on
    the simulator directly under one schedule."""
    graph = grid_graph(4, 4)
    schedule = FaultSchedule(ADVERSARIAL, seed=21)
    _, label_result = distributed_bfs_tree(graph, 0, fault_schedule=schedule)
    _, core_result = distributed_bfs_tree(view_of(graph), 0, fault_schedule=schedule)
    assert label_result.telemetry == core_result.telemetry
    assert (label_result.rounds, label_result.messages, label_result.words) == (
        core_result.rounds, core_result.messages, core_result.words
    )


# --------------------------------------------------- null-model equivalence


@pytest.mark.parametrize("simulator_cls", ALL_SIMULATORS)
def test_null_model_reproduces_fail_free_run_bit_for_bit(simulator_cls):
    instance = _tiny_instance("clique_sum")
    view = instance.view
    root = min(instance.graph.nodes(), key=repr)
    plain_tree, plain = distributed_bfs_tree(view, root, simulator_cls=simulator_cls)
    null_tree, nulled = distributed_bfs_tree(
        view, root, simulator_cls=simulator_cls, fault_schedule=FaultModel()
    )
    assert nulled == plain
    assert null_tree.parent == plain_tree.parent
    # ... including the default-0 fault columns in the telemetry rows.
    assert all(row.dropped == row.delayed == row.duplicated == row.crashed == 0
               for row in nulled.telemetry)


def test_robust_bfs_with_null_schedule_reports_zero_repairs():
    instance = _tiny_instance("planar")
    root = min(instance.graph.nodes(), key=repr)
    tree, _, repaired = robust_bfs_tree(instance.view, root, FaultModel(drop=0.0))
    assert repaired == 0
    assert set(tree.parent) == set(instance.graph.nodes())


# -------------------------------------------------------- crash degradation


@pytest.mark.parametrize("simulator_cls", ALL_SIMULATORS)
def test_crashed_root_degrades_to_partial_outputs(simulator_cls):
    """A root crash cannot hang the run; survivors still terminate."""
    view = view_of(grid_graph(5, 5))
    root = 0
    model = FaultModel(crash_at=((view.index_of(root), 1),))
    tree, result, _repaired = robust_bfs_tree(
        view, root, FaultSchedule(model, seed=0), simulator_cls=simulator_cls
    )
    assert result.crashed_nodes == 1
    assert root not in result.outputs  # crashed nodes produce no output
    # The graft repair still hands back a full spanning tree of the network
    # (robust_bfs_tree validates it against the graph before returning).
    assert set(tree.parent) == set(view.nodes)


def test_crashed_nodes_never_appear_in_outputs():
    view = view_of(grid_graph(4, 4))
    model = FaultModel(crash=0.3, crash_window=4)
    schedule = FaultSchedule(model, seed=3)
    _, result = flood_max_id(view, fault_schedule=schedule)
    crashed = {node for node in range(len(view.nodes))
               if schedule.crash_round(node) is not None}
    assert result.crashed_nodes == len(crashed)
    assert all(view.index_of(label) not in crashed for label in result.outputs)


# ------------------------------------------------------ accounting identity


@pytest.mark.parametrize("model", ALL_MODELS, ids=MODEL_IDS)
def test_totals_match_telemetry_columns(model):
    instance = _tiny_instance("apex")
    root = min(instance.graph.nodes(), key=repr)
    _, result, _ = robust_bfs_tree(instance.view, root, FaultSchedule(model, seed=7))
    assert result.messages == sum(row.messages for row in result.telemetry)
    assert result.words == sum(row.words for row in result.telemetry)
    assert result.dropped == sum(row.dropped for row in result.telemetry)
    assert result.delayed == sum(row.delayed for row in result.telemetry)
    assert result.duplicated == sum(row.duplicated for row in result.telemetry)
    assert result.crashed_nodes == sum(row.crashed for row in result.telemetry)
    # Deliveries are bounded by sent - dropped + duplicated (copies landing
    # in an occupied mailbox slot merge), and nothing is negative.
    assert result.messages - result.dropped + result.duplicated >= 0
    assert all(
        row.dropped >= 0 and row.delayed >= 0 and row.duplicated >= 0 and row.crashed >= 0
        for row in result.telemetry
    )


class _TwoSendsProgram(NodeProgram):
    """Node 0 sends in rounds 1 and 2; node 1 counts what it receives."""

    def __init__(self, context):
        super().__init__(context)
        self.received = 0
        self.halted = context.node != 0

    def on_start(self):
        return {1: ("x",)} if self.context.node == 0 else {}

    def on_round(self, round_number, inbox):
        self.received += len(inbox)
        if self.context.node == 0 and round_number == 2:
            return {1: ("x",)}
        self.halted = True
        return {}

    def result(self):
        return self.received


@pytest.mark.parametrize("simulator_cls", ALL_SIMULATORS)
def test_duplicate_landing_in_an_occupied_slot_merges(simulator_cls):
    """Deliveries < messages - dropped + duplicated once two copies merge.

    With ``duplicate=1.0`` the round-1 send's copy arrives in round 3, the
    same (round, recipient, sender) slot as the round-2 send: the later send
    replaces the copy, so node 1 receives 3 messages, not 4.
    """
    view = view_of(nx.path_graph(2))
    schedule = FaultSchedule(FaultModel(duplicate=1.0), seed=0)
    result = simulator_cls(view, _TwoSendsProgram, fault_schedule=schedule).run()
    assert (result.messages, result.dropped, result.duplicated) == (2, 0, 2)
    delivered = result.outputs[1]
    assert delivered == 3
    assert delivered < result.messages - result.dropped + result.duplicated


# ------------------------------------------------------------ RoundLimitError


class _ChattyProgram(NodeProgram):
    """A program that never quiesces (for truncation tests)."""

    def on_start(self):
        return {neighbour: ("ping",) for neighbour in self.context.neighbours}

    def on_round(self, round_number, inbox):
        return {neighbour: ("ping",) for neighbour in self.context.neighbours}


@pytest.mark.parametrize("simulator_cls", [CongestSimulator, ReferenceSimulator])
def test_round_limit_error_carries_partial_telemetry(simulator_cls):
    view = view_of(grid_graph(2, 2))
    simulator = simulator_cls(view, _ChattyProgram)
    with pytest.raises(RoundLimitError, match="did not converge") as excinfo:
        simulator.run(max_rounds=12)
    partial = excinfo.value.partial
    assert partial is not None
    assert partial.rounds > 0
    assert partial.messages > 0
    assert len(partial.telemetry) >= 12


def test_round_limit_error_is_a_simulation_error():
    assert issubclass(RoundLimitError, SimulationError)


@pytest.mark.parametrize("simulator_cls", [CongestSimulator, ReferenceSimulator])
def test_round_limit_error_under_faults(simulator_cls):
    view = view_of(grid_graph(2, 2))
    simulator = simulator_cls(
        view, _ChattyProgram, fault_schedule=FaultSchedule(FaultModel(drop=0.2), seed=1)
    )
    with pytest.raises(RoundLimitError, match="did not converge") as excinfo:
        simulator.run(max_rounds=12)
    partial = excinfo.value.partial
    assert partial is not None
    assert partial.dropped > 0


# ------------------------------------------------------------ pooled sweeps


def test_faulty_run_matrix_is_pool_safe():
    """``jobs=2`` with a fault spec is byte-identical to the serial sweep."""
    scenarios = scenario_matrix(
        families=["planar", "treewidth"],
        constructors=["steiner"],
        algorithm_name="mst",
        size="tiny",
        seed=1,
    )

    def normalised(records):
        for record in records:
            record["result"].pop("sim_seconds", None)  # wall-clock only
        return json.dumps(records, sort_keys=True, default=str)

    spec = "drop=0.08,crash=0.02:6"
    serial = run_matrix(scenarios, faults=spec, fault_seed=9)
    pooled = run_matrix(scenarios, faults=spec, fault_seed=9, jobs=2)
    assert normalised(serial) == normalised(pooled)
    assert all("faults" in record["result"] for record in serial)


def test_null_fault_spec_leaves_matrix_records_unchanged():
    scenarios = scenario_matrix(
        families=["planar"], constructors=["steiner"], algorithm_name="mst", size="tiny"
    )

    def normalised(records):
        for record in records:
            record["result"].pop("sim_seconds", None)
        return json.dumps(records, sort_keys=True, default=str)

    assert normalised(run_matrix(scenarios)) == normalised(
        run_matrix(scenarios, faults="drop=0", fault_seed=4)
    )


# -------------------------------------------------------------- spec parsing


def test_parse_fault_spec_round_trip():
    model = parse_fault_spec("drop=0.05,delay=0.02:3,dup=0.01,crash=0.05:10,shuffle")
    assert model.drop == 0.05
    assert model.delay == 0.02 and model.max_delay == 3
    assert model.duplicate == 0.01
    assert model.crash == 0.05 and model.crash_window == 10
    assert model.shuffle


def test_parse_fault_spec_rejects_junk():
    with pytest.raises(ValueError):
        parse_fault_spec("drop=2")
    with pytest.raises(ValueError):
        parse_fault_spec("frobnicate=0.1")


def test_fault_model_validation():
    with pytest.raises(ValueError):
        FaultModel(drop=-0.1)
    with pytest.raises(ValueError):
        FaultModel(delay=0.1, max_delay=0)
    # A delay is an int64 array entry in the batched decisions.
    FaultModel(delay=0.1, max_delay=2**63 - 1)
    with pytest.raises(ValueError):
        FaultModel(delay=0.1, max_delay=2**63)
    assert FaultModel().is_null
    assert not FaultModel(shuffle=True).is_null


def test_schedule_is_deterministic_and_seed_sensitive():
    model = FaultModel(drop=0.5)
    a = FaultSchedule(model, seed=1)
    b = FaultSchedule(model, seed=1)
    c = FaultSchedule(model, seed=2)
    senders = [s for s in range(4) for _ in range(4)]
    targets = [t for _ in range(4) for t in range(4)]

    def fates(schedule):
        return [
            (delays.tolist(), duplicates.tolist())
            for delays, duplicates in (
                schedule.fates(r, senders, targets) for r in range(1, 20)
            )
        ]

    fates_a, fates_b, fates_c = fates(a), fates(b), fates(c)
    assert fates_a == fates_b
    assert fates_a != fates_c
