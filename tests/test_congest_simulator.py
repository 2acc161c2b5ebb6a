"""Tests for the active-set simulator: semantics, determinism, telemetry.

The heart of the module is the differential layer: for every workload, the
active-set :class:`CongestSimulator` must produce a :class:`SimulationResult`
*identical* (rounds, messages, words, outputs, per-round telemetry) to the
full-scan :class:`ReferenceSimulator`, which preserves the seed
implementation's execute-everything semantics.  The idle-node fast path is
therefore observationally invisible.
"""

import networkx as nx
import pytest

from repro.congest.node import NodeContext, NodeProgram
from repro.congest.primitives import broadcast_value, distributed_bfs_tree, flood_max_id
from repro.congest.simulator import CongestSimulator
from repro.errors import SimulationError
from repro.graphs.lower_bound import lower_bound_graph
from repro.graphs.planar import grid_graph, wheel_graph

from oracles.simulator import ReferenceSimulator


class _PulseProgram(NodeProgram):
    """Sends its id for a fixed number of rounds, then goes quiet and halts."""

    def __init__(self, context: NodeContext, pulses: int = 3) -> None:
        super().__init__(context)
        self.pulses = pulses

    def on_start(self):
        return {neighbour: 1 for neighbour in self.context.neighbours}

    def on_round(self, round_number, inbox):
        if round_number <= self.pulses:
            return {neighbour: round_number for neighbour in self.context.neighbours}
        self.halted = True
        return {}


class _WakeOnMessageProgram(NodeProgram):
    """Halts immediately; node 0 pokes it later (tests the halted+inbox wake)."""

    def on_start(self):
        if self.context.node == 0:
            self.received_pokes = 0
            return {}
        self.halted = True
        return {}

    def on_round(self, round_number, inbox):
        if self.context.node == 0 and round_number == 4:
            self.halted = True
            return {neighbour: "poke" for neighbour in self.context.neighbours}
        if self.context.node != 0 and inbox:
            self.woken_at = round_number
        self.halted = self.context.node != 0 or round_number >= 4
        return {}

    def result(self):
        return getattr(self, "woken_at", None)


class _DiameterReaderProgram(NodeProgram):
    """Reads context.diameter_bound (forces the lazy computation)."""

    def on_start(self):
        self.seen = self.context.diameter_bound
        self.halted = True
        return {}

    def result(self):
        return self.seen


# ------------------------------------------------------------- differential


@pytest.mark.parametrize(
    "make_graph",
    [
        lambda: grid_graph(5, 5),
        lambda: wheel_graph(16),
        lambda: lower_bound_graph(3, 4).graph,
    ],
    ids=["grid", "wheel", "lower_bound"],
)
@pytest.mark.parametrize(
    "factory",
    [NodeProgram, _PulseProgram, _WakeOnMessageProgram],
    ids=["idle", "pulse", "wake"],
)
def test_active_set_matches_reference_exactly(make_graph, factory):
    fast = CongestSimulator(make_graph(), factory).run()
    slow = ReferenceSimulator(make_graph(), factory).run()
    assert fast == slow  # rounds, messages, words, outputs AND telemetry


@pytest.mark.parametrize(
    "primitive",
    [
        lambda g, cls: distributed_bfs_tree(g, root=0, simulator_cls=cls)[1],
        lambda g, cls: flood_max_id(g, simulator_cls=cls)[1],
        lambda g, cls: broadcast_value(g, 0, ("v", 7), simulator_cls=cls),
    ],
    ids=["bfs", "flood_max", "broadcast"],
)
def test_primitives_match_reference_exactly(primitive):
    graph = grid_graph(6, 6)
    assert primitive(graph, CongestSimulator) == primitive(graph, ReferenceSimulator)


# -------------------------------------------------------------- determinism


def test_determinism_under_node_order_permutation():
    ordered = grid_graph(5, 5)
    shuffled = nx.Graph()
    shuffled.add_nodes_from(reversed(list(ordered.nodes())))
    shuffled.add_edges_from(reversed(list(ordered.edges())))
    for factory in (_PulseProgram, _WakeOnMessageProgram):
        a = CongestSimulator(ordered, factory).run()
        b = CongestSimulator(shuffled, factory).run()
        assert a == b


# --------------------------------------------------------------- quiescence


def test_idle_network_costs_zero_rounds():
    result = CongestSimulator(grid_graph(4, 4), NodeProgram).run()
    assert result.rounds == 0
    assert result.messages == 0
    # The programs still executed (on_start plus one halting on_round).
    assert [entry.active_nodes for entry in result.telemetry] == [16, 16]


def test_rounds_is_last_communication_round():
    result = CongestSimulator(grid_graph(4, 4), _PulseProgram).run()
    by_round = {entry.round: entry for entry in result.telemetry}
    last_with_traffic = max(r for r, entry in by_round.items() if entry.messages > 0)
    # The delivery of the last pulse still counts as a round.
    assert result.rounds == last_with_traffic + 1


def test_halted_nodes_wake_on_message():
    result = CongestSimulator(grid_graph(3, 3), _WakeOnMessageProgram).run()
    neighbours_of_zero = set(grid_graph(3, 3).neighbors(0))
    for node, woken_at in result.outputs.items():
        assert (woken_at == 5) == (node in neighbours_of_zero)


def test_divergent_program_raises():
    class _Chatterbox(NodeProgram):
        def on_start(self):
            return {neighbour: 1 for neighbour in self.context.neighbours}

        def on_round(self, round_number, inbox):
            return {neighbour: 1 for neighbour in self.context.neighbours}

    with pytest.raises(SimulationError, match="did not converge"):
        CongestSimulator(grid_graph(3, 3), _Chatterbox).run(max_rounds=50)


# ---------------------------------------------------------------- telemetry


def test_telemetry_totals_are_consistent():
    result = CongestSimulator(grid_graph(5, 5), _PulseProgram).run()
    assert sum(entry.messages for entry in result.telemetry) == result.messages
    assert sum(entry.words for entry in result.telemetry) == result.words
    assert result.peak_active_nodes() == 25
    assert result.total_active_node_rounds() >= 25


def test_active_set_shrinks_as_programs_halt():
    _, result = distributed_bfs_tree(grid_graph(7, 7), root=0)
    actives = [entry.active_nodes for entry in result.telemetry]
    # The BFS wavefront: everyone runs round 1, then the frontier shrinks to
    # the last corner instead of staying at n (the full-scan cost profile).
    assert actives[0] == 49
    assert actives[-1] < 10


# ------------------------------------------------------------ lazy diameter


def test_diameter_bound_is_lazy(monkeypatch):
    def _boom(*args, **kwargs):
        raise AssertionError("nx.diameter should not be called")

    monkeypatch.setattr(nx, "diameter", _boom)
    # BFS never reads context.diameter_bound: no diameter computation.
    tree, _ = distributed_bfs_tree(grid_graph(6, 6), root=0)
    assert tree.height > 0


def test_diameter_bound_computed_on_demand():
    graph = grid_graph(4, 4)
    simulator = CongestSimulator(graph, _DiameterReaderProgram)
    result = simulator.run()
    assert set(result.outputs.values()) == {nx.diameter(graph)}


def test_explicit_diameter_bound_respected():
    simulator = CongestSimulator(grid_graph(3, 3), _DiameterReaderProgram, diameter_bound=99)
    result = simulator.run()
    assert set(result.outputs.values()) == {99}


def test_rejected_diameter_write_never_resolves_the_bound():
    calls = []

    def resolve():
        calls.append(1)
        return 7

    context = NodeContext(0, (1,), {1: 1.0}, 2, resolve, id_key=int)
    for name in ("diameter_bound", "node", "neighbours", "num_nodes"):
        with pytest.raises(AttributeError, match="read-only"):
            setattr(context, name, 3)
    assert calls == []
    assert context.diameter_bound == 7
    assert calls == [1]


def test_reference_simulator_computes_diameter_eagerly():
    simulator = ReferenceSimulator(grid_graph(4, 4), NodeProgram)
    assert simulator._diameter_bound == nx.diameter(grid_graph(4, 4))


# ------------------------------------------------------------- enforcement


class _OversizedProgram(NodeProgram):
    def on_start(self):
        return {neighbour: tuple(range(50)) for neighbour in self.context.neighbours[:1]}


class _StrangerProgram(NodeProgram):
    def on_start(self):
        return {"not-a-neighbour": 1}


@pytest.mark.parametrize("simulator_cls", [CongestSimulator, ReferenceSimulator])
def test_bandwidth_and_topology_enforced(simulator_cls):
    with pytest.raises(SimulationError, match="exceeding the bandwidth"):
        simulator_cls(grid_graph(3, 3), _OversizedProgram).run()
    with pytest.raises(SimulationError, match="non-neighbour"):
        simulator_cls(grid_graph(3, 3), _StrangerProgram).run()


class _MidRunOversizedProgram(NodeProgram):
    def on_start(self):
        return {neighbour: 1 for neighbour in self.context.neighbours}

    def on_round(self, round_number, inbox):
        if round_number == 3:
            return {neighbour: tuple(range(50)) for neighbour in self.context.neighbours[:1]}
        return {neighbour: 1 for neighbour in self.context.neighbours}


def test_bandwidth_enforced_mid_run():
    with pytest.raises(SimulationError, match="exceeding the bandwidth"):
        CongestSimulator(grid_graph(3, 3), _MidRunOversizedProgram).run()
