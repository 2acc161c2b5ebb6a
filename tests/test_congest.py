"""Tests for the CONGEST simulator, its primitives and part-wise aggregation."""

from collections import namedtuple

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.congest.aggregation import partwise_aggregate
from repro.congest.faults import FaultModel, FaultSchedule
from repro.congest.node import NodeContext, NodeProgram, message_size_in_words
from repro.congest.primitives import distributed_bfs_tree, flood_max_id
from repro.congest.simulator import CongestSimulator
from repro.core import view_of
from repro.errors import SimulationError
from repro.graphs.planar import grid_graph, wheel_graph
from repro.shortcuts.baseline import empty_shortcut, steiner_shortcut, whole_tree_shortcut
from repro.shortcuts.congestion_capped import oblivious_shortcut
from repro.shortcuts.parts import path_parts, tree_fragment_parts
from repro.structure.spanning import bfs_spanning_tree

from oracles import simulator as oracle_simulator


# ------------------------------------------------------------------ model basics


def test_message_size_accounting():
    assert message_size_in_words(None) == 0
    assert message_size_in_words(7) == 1
    assert message_size_in_words((1, 2.5, 3)) == 3
    assert message_size_in_words("tag") == 1
    assert message_size_in_words({"a": 1}) == 2


_Report = namedtuple("_Report", "tag value")

_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=True)
    | st.text(max_size=40)
)
_MESSAGES = st.recursive(
    _SCALARS,
    lambda items: (
        st.lists(items, max_size=5)
        | st.lists(items, max_size=5).map(tuple)
        | st.dictionaries(st.integers() | st.text(max_size=12), items, max_size=4)
    ),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(message=_MESSAGES)
@example(message=_Report("cc", (3, None)))
@example(message=(np.int64(5), np.float64(0.5), np.bool_(True)))
@example(message=("x" * 100, "", "exactly8", "nine char"))
@example(message=[None, (None, [True, 2.0]), {"k": (1, "v")}])
@example(message=np.int64(7))
def test_message_size_matches_the_seed_word_count(message):
    assert message_size_in_words(message) == oracle_simulator.message_size_in_words(message)


class _MixedShapesProgram(NodeProgram):
    """Sends a different message shape to each neighbour for three rounds."""

    SHAPES = (("bfs", 2), ("ok",), _Report("cc", 1.5), ("x" * 20, None), [1, (2,)], None)

    def on_start(self):
        return self._send(0)

    def on_round(self, round_number, inbox):
        if round_number > 3:
            self.halted = True
            return {}
        return self._send(round_number)

    def _send(self, offset):
        shapes = self.SHAPES
        return {
            neighbour: shapes[(self.context.node + offset + i) % len(shapes)]
            for i, neighbour in enumerate(self.context.neighbours)
        }


def test_faulty_run_words_are_each_message_sized_once():
    """The loop adds the words validation sized: the total equals the
    telemetry column and the seed word count of the oracle loop."""
    view = view_of(grid_graph(4, 4))
    model = FaultModel(drop=0.2, delay=0.2, max_delay=2, duplicate=0.2, shuffle=True)
    results = [
        cls(view, _MixedShapesProgram, bandwidth_words=8,
            fault_schedule=FaultSchedule(model, seed=3)).run()
        for cls in (CongestSimulator, oracle_simulator.ReferenceSimulator)
    ]
    core = results[0]
    assert core.words == sum(row.words for row in core.telemetry) > core.messages
    assert core == results[1]


class _ChattyProgram(NodeProgram):
    """Sends an oversized message in round 1 (used to test enforcement)."""

    def on_start(self):
        return {
            neighbour: tuple(range(50)) for neighbour in self.context.neighbours[:1]
        }


class _StrangerProgram(NodeProgram):
    """Sends to a node that is not a neighbour."""

    def on_start(self):
        return {("not", "a", "neighbour"): 1}


def test_simulator_enforces_bandwidth_and_topology():
    graph = grid_graph(3, 3)
    with pytest.raises(SimulationError):
        CongestSimulator(graph, _ChattyProgram).run()
    with pytest.raises(SimulationError):
        CongestSimulator(graph, _StrangerProgram).run()


def test_simulator_rejects_disconnected_and_looped_graphs():
    disconnected = nx.Graph()
    disconnected.add_nodes_from([0, 1])
    with pytest.raises(Exception):
        CongestSimulator(disconnected, NodeProgram)
    looped = nx.Graph()
    looped.add_edge(0, 0)
    looped.add_edge(0, 1)
    with pytest.raises(Exception):
        CongestSimulator(looped, NodeProgram)


def test_idle_programs_terminate_immediately():
    graph = grid_graph(3, 3)
    result = CongestSimulator(graph, NodeProgram).run()
    assert result.messages == 0
    assert result.rounds <= 1


# ------------------------------------------------------------------ primitives


def test_distributed_bfs_tree_matches_distances_and_round_bound():
    graph = grid_graph(5, 5)
    tree, stats = distributed_bfs_tree(graph, root=0)
    distances = nx.single_source_shortest_path_length(graph, 0)
    assert tree.depth == distances
    assert stats.rounds <= nx.diameter(graph) + 3


def test_distributed_bfs_tree_on_wheel_is_constant_rounds():
    wheel = wheel_graph(30)
    hub = max(wheel.nodes(), key=lambda v: wheel.degree(v))
    tree, stats = distributed_bfs_tree(wheel, root=hub)
    assert tree.height == 1
    assert stats.rounds <= 4


def test_flood_max_id_elects_unique_leader():
    graph = grid_graph(4, 4)
    leader, stats = flood_max_id(graph)
    assert leader in graph
    assert stats.rounds <= 2 * nx.diameter(graph) + 4


# ------------------------------------------------------------------ aggregation


def _central_aggregates(parts, values, combine):
    result = []
    for part in parts:
        items = [values[v] for v in part]
        aggregate = items[0]
        for item in items[1:]:
            aggregate = combine(aggregate, item)
        result.append(aggregate)
    return result


def test_partwise_aggregate_matches_central_min(small_grid, small_grid_tree, small_grid_parts):
    shortcut = oblivious_shortcut(small_grid, small_grid_tree, small_grid_parts)
    values = {v: (v * 7) % 23 for v in small_grid.nodes()}
    result = partwise_aggregate(shortcut, values, combine=min)
    assert result.values == _central_aggregates(small_grid_parts, values, min)
    assert result.rounds > 0
    assert max(result.per_part_rounds) <= result.rounds


def test_partwise_aggregate_matches_central_sum(small_grid, small_grid_tree):
    parts = tree_fragment_parts(small_grid, small_grid_tree, num_parts=5, seed=3)
    shortcut = steiner_shortcut(small_grid, small_grid_tree, parts)
    values = {v: 1 for v in small_grid.nodes()}
    result = partwise_aggregate(shortcut, values, combine=lambda a, b: a + b)
    assert result.values == [len(part) for part in parts]


def test_partwise_aggregate_single_vertex_parts(small_grid, small_grid_tree):
    parts = [frozenset({v}) for v in list(small_grid.nodes())[:10]]
    shortcut = empty_shortcut(small_grid, small_grid_tree, parts)
    values = {v: v for v in small_grid.nodes()}
    result = partwise_aggregate(shortcut, values, combine=min)
    assert result.values == [next(iter(p)) for p in parts]
    assert result.rounds == 0


def test_partwise_aggregate_missing_value_raises(small_grid, small_grid_tree, small_grid_parts):
    shortcut = empty_shortcut(small_grid, small_grid_tree, small_grid_parts)
    with pytest.raises(SimulationError):
        partwise_aggregate(shortcut, {0: 1}, combine=min)


def test_congestion_serialises_shared_edges(wheel):
    """Many parts sharing the hub's tree edges must pay congestion in rounds."""
    hub = max(wheel.nodes(), key=lambda v: wheel.degree(v))
    tree = bfs_spanning_tree(wheel, root=hub)
    outer = sorted(set(wheel.nodes()) - {hub})
    # Parts: consecutive arcs of the outer cycle.
    arc = len(outer) // 4
    parts = [frozenset(outer[i * arc : (i + 1) * arc]) for i in range(4)]
    whole = whole_tree_shortcut(wheel, tree, parts)
    lean = oblivious_shortcut(wheel, tree, parts)
    values = {v: v for v in wheel.nodes()}
    rounds_whole = partwise_aggregate(whole, values, combine=min).rounds
    rounds_lean = partwise_aggregate(lean, values, combine=min).rounds
    assert rounds_lean <= rounds_whole + 2  # pruning congestion never hurts much


def test_aggregation_on_wheel_beats_no_shortcut(wheel):
    """The paper's motivating example: the outer cycle aggregates slowly alone."""
    hub = max(wheel.nodes(), key=lambda v: wheel.degree(v))
    tree = bfs_spanning_tree(wheel, root=hub)
    outer = frozenset(set(wheel.nodes()) - {hub})
    values = {v: v for v in wheel.nodes()}
    from repro.shortcuts.apex import apex_shortcut

    with_shortcut = apex_shortcut(wheel, tree, [outer], apices=[hub])
    without = empty_shortcut(wheel, tree, [outer])
    fast = partwise_aggregate(with_shortcut, values, combine=min).rounds
    slow = partwise_aggregate(without, values, combine=min).rounds
    assert fast < slow
