"""Label mode: an ``nx.Graph`` network runs on its view behind an adapter.

Handed an ``nx.Graph``, :class:`CongestSimulator` runs the core-mode loop on
``view_of(graph)`` and translates at the program boundary only: programs
see label contexts and label-keyed inboxes, their outboxes are mapped back
to indices, payloads pass through untouched.  These tests pin that

* every primitive returns the same :class:`SimulationResult` on a graph as
  on its view -- node ids cost one word whatever their labels look like --
  fail-free and under an adversarial fault schedule, in every mode;
* the adapter matches the seed's own label-space set-up, kept by the
  :class:`ReferenceSimulator` oracle, on programs that read every field of
  the label context;
* one fault schedule drives a label run and a view run of the same
  network identically when the simulator is called directly; and
* bad input and illegal sends fail as before, naming labels.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.congest import (
    CongestSimulator,
    FaultSchedule,
    RuntimeSimulator,
    broadcast_value,
    convergecast_aggregate,
    distributed_bfs_tree,
    flood_max_id,
    robust_bfs_tree,
)
from repro.congest.node import NodeProgram
from repro.core import view_of
from repro.errors import InvalidGraphError, SimulationError
from repro.graphs.planar import grid_graph, wheel_graph
from repro.graphs.weights import WEIGHT

from oracles.simulator import ReferenceSimulator
from test_faults import ADVERSARIAL

SIDE = 4
LABELINGS = {
    "tuple": lambda index: (index // SIDE, index % SIDE),
    "string25": lambda index: f"vertex-{index:018d}",
}


def _relabelled_grid(labeling: str) -> nx.Graph:
    grid = grid_graph(SIDE, SIDE)
    label = LABELINGS[labeling]
    return nx.relabel_nodes(grid, {node: label(node) for node in grid.nodes()})


def _shuffled(graph: nx.Graph, seed: int) -> nx.Graph:
    """A copy with random weights, nodes and edges inserted in random order."""
    rng = random.Random(seed)
    nodes = list(graph.nodes())
    edges = list(graph.edges())
    rng.shuffle(nodes)
    rng.shuffle(edges)
    shuffled = nx.Graph()
    shuffled.add_nodes_from(nodes)
    for u, v in edges:
        shuffled.add_edge(v, u, **{WEIGHT: rng.randint(1, 50)})
    return shuffled


# --------------------------------------------- primitives: graph == its view


def _bfs(network, root, simulator_cls, schedule):
    tree, result = distributed_bfs_tree(
        network, root, simulator_cls=simulator_cls, fault_schedule=schedule
    )
    return result, tree.parent


def _robust_bfs(network, root, simulator_cls, schedule):
    tree, result, repaired = robust_bfs_tree(
        network, root, schedule, simulator_cls=simulator_cls
    )
    return result, tree.parent, repaired


def _flood_max(network, root, simulator_cls, schedule):
    leader, result = flood_max_id(network, simulator_cls=simulator_cls, fault_schedule=schedule)
    return result, leader


def _broadcast(network, root, simulator_cls, schedule):
    return broadcast_value(
        network, root, 7, simulator_cls=simulator_cls, fault_schedule=schedule
    )


def _convergecast(network, root, simulator_cls, schedule):
    tree, _ = distributed_bfs_tree(network, root)
    values = {node: index for index, node in enumerate(view_of(network).nodes)}
    aggregate, result = convergecast_aggregate(
        network, tree, values, simulator_cls=simulator_cls, fault_schedule=schedule
    )
    return result, aggregate


PRIMITIVES = {
    "bfs": _bfs,
    "robust_bfs": _robust_bfs,
    "flood_max": _flood_max,
    "broadcast": _broadcast,
    "convergecast": _convergecast,
}


@pytest.mark.parametrize("primitive", list(PRIMITIVES), ids=list(PRIMITIVES))
@pytest.mark.parametrize("labeling", list(LABELINGS), ids=list(LABELINGS))
@pytest.mark.parametrize("faulty", [False, True], ids=["fail-free", "adversarial"])
@pytest.mark.parametrize(
    "simulator_cls", [CongestSimulator, RuntimeSimulator], ids=["active", "runtime"]
)
def test_primitive_on_graph_equals_primitive_on_view(
    primitive, labeling, faulty, simulator_cls
):
    graph = _relabelled_grid(labeling)
    root = min(graph.nodes(), key=repr)
    schedule = FaultSchedule(ADVERSARIAL, seed=5) if faulty else None
    run = PRIMITIVES[primitive]
    on_graph = run(graph, root, simulator_cls, schedule)
    on_view = run(view_of(graph), root, simulator_cls, schedule)
    assert on_graph == on_view


@pytest.mark.parametrize("labeling", list(LABELINGS), ids=list(LABELINGS))
def test_flood_max_counts_each_id_as_one_word(labeling):
    _, result = flood_max_id(_relabelled_grid(labeling))
    assert result.words == result.messages > 0


# ------------------------------------------- adapter == seed label set-up


class _IdGossipProgram(NodeProgram):
    """Floods the minimum id (by ``id_key``) with edge weights attached,
    records every (sender, weight) it hears in arrival order, and halts
    once ``D + 1`` rounds have passed."""

    def __init__(self, context) -> None:
        super().__init__(context)
        self.best = context.node
        self.heard: list[tuple[object, float]] = []

    def _offers(self):
        weights = self.context.edge_weights
        return {neighbour: (self.best, weights[neighbour]) for neighbour in self.context.neighbours}

    def on_start(self):
        return self._offers()

    def on_round(self, round_number, inbox):
        id_key = self.context.id_key
        for sender, (best, weight) in inbox.items():
            self.heard.append((sender, weight))
            if id_key(best) < id_key(self.best):
                self.best = best
        if round_number > self.context.diameter_bound + 1:
            self.halted = True
            return {}
        return self._offers()

    def result(self):
        return self.best, tuple(self.heard)


@pytest.mark.parametrize(
    "make_graph",
    [
        lambda: _relabelled_grid("tuple"),
        lambda: _relabelled_grid("string25"),
        lambda: nx.relabel_nodes(wheel_graph(9), lambda node: ("hub", node)),
    ],
    ids=["grid-tuple", "grid-string25", "wheel-tuple"],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_label_adapter_matches_seed_label_setup(make_graph, seed):
    graph = _shuffled(make_graph(), seed)
    adapted = CongestSimulator(graph, _IdGossipProgram, bandwidth_words=8).run()
    seed_run = ReferenceSimulator(graph, _IdGossipProgram, bandwidth_words=8).run()
    assert adapted == seed_run
    assert adapted.messages > 0


# ------------------------------------------ faults, directly on the loop


class _ListenerProgram(NodeProgram):
    """Pings its neighbours for four rounds and records who it heard, in
    delivery order (what the adversarial shuffle permutes)."""

    def __init__(self, context) -> None:
        super().__init__(context)
        self.heard: list[object] = []

    def on_start(self):
        return {neighbour: 1 for neighbour in self.context.neighbours}

    def on_round(self, round_number, inbox):
        self.heard.extend(inbox)
        if round_number > 4:
            self.halted = True
            return {}
        return {neighbour: round_number for neighbour in self.context.neighbours}

    def result(self):
        return tuple(self.heard)


@pytest.mark.parametrize("labeling", list(LABELINGS), ids=list(LABELINGS))
def test_label_run_matches_view_run_under_one_fault_schedule(labeling):
    graph = _relabelled_grid(labeling)
    view = view_of(graph)
    schedule = FaultSchedule(ADVERSARIAL, seed=21)
    labelled = CongestSimulator(graph, _ListenerProgram, fault_schedule=schedule).run()
    indexed = CongestSimulator(view, _ListenerProgram, fault_schedule=schedule).run()
    assert labelled.dropped and labelled.crashed_nodes  # the schedule fired
    node_of = view.nodes
    indexed.outputs = {
        node: tuple(node_of[sender] for sender in heard)
        for node, heard in indexed.outputs.items()
    }
    assert labelled == indexed


# ------------------------------------------------------------ input checks


class _OversizedProgram(NodeProgram):
    def on_start(self):
        return {self.context.neighbours[0]: tuple(range(50))}


class _DiagonalProgram(NodeProgram):
    """Sends to a node of the network that is not a neighbour."""

    def on_start(self):
        if self.context.node == (0, 0):
            return {(1, 1): 1}
        return {}


class _StrangerProgram(NodeProgram):
    def on_start(self):
        return {"stranger": 1}


def test_self_loop_rejected_at_construction():
    graph = _relabelled_grid("tuple")
    graph.add_edge((0, 0), (0, 0))
    with pytest.raises(InvalidGraphError, match="self-loop"):
        CongestSimulator(graph, NodeProgram)


def test_bandwidth_error_names_labels():
    with pytest.raises(SimulationError, match=r"node \(0, 0\) sent a 50-word message to \(0, 1\)"):
        CongestSimulator(_relabelled_grid("tuple"), _OversizedProgram).run()


@pytest.mark.parametrize(
    "program, target",
    [(_DiagonalProgram, r"\(1, 1\)"), (_StrangerProgram, "stranger")],
    ids=["non-adjacent", "unknown"],
)
def test_non_neighbour_error_names_labels(program, target):
    with pytest.raises(
        SimulationError, match=rf"node \(0, 0\) attempted to send to non-neighbour {target}"
    ):
        CongestSimulator(_relabelled_grid("tuple"), program).run()
