"""Part-wise aggregation pinned to the seed scheduler, with its invariants.

Six layers:

* **every family** -- on every registered family, every applicable
  constructor and seeds 0-2, :func:`repro.congest.aggregation.partwise_aggregate`
  must equal the seed scheduler in ``tests/oracles/aggregation.py`` in
  values, rounds, messages and ``per_part_rounds``, and the schedule must
  satisfy the invariants of Theorem 1's convergecast/broadcast: one up and
  one down message per aggregation-tree edge, at least two tree depths of
  rounds, at least as many rounds as the busiest directed edge carries
  messages, at most one round per message, and a last part finishing in
  the last round; the ``max_rounds`` budget cuts both schedulers off at
  the same round;
* **drawn shortcuts** -- hypothesis draws a random connected graph, its
  BFS tree, disjoint connected parts (some vertices left as relays) and
  per part a random set of tree and non-tree graph edges (shared, empty or
  listed in both orientations); the scheduler must equal the seed one on
  the label shortcut and on the engine's, and so must the quality
  measures;
* **in-round orderings** -- two hand-built shortcuts pin the two orders
  the per-round loop must reproduce within one round: a receiver fires at
  its *last* delivery of the round, and several sends on one directed edge
  queue by trigger position;
* **load** -- the heaviest Boruvka phase of a 60x60 label grid (~730
  messages a round; ``aggregation_at_scale.py`` checks every phase);
* **malformed input** -- an empty part, or a member its part's augmented
  subgraph cannot reach, raises :class:`SimulationError` naming the part
  instead of returning a value the trees never gathered;
* **non-int labels** -- the production code orders edges by index pair,
  the oracles by the repr string of the label pair.  The two can only
  disagree on non-int labels, which no registered family uses, so tuple-
  and string-labelled grids pin aggregation and Boruvka to the oracles.
"""

from __future__ import annotations

from collections import Counter

import networkx as nx
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.algorithms.mst import boruvka_mst
from repro.congest.aggregation import partwise_aggregate, partwise_aggregate_indexed
from repro.errors import SimulationError
from repro.graphs.weights import WEIGHT
from repro.scenarios import applicable_constructors, build_instance, constructor, family_names
from repro.shortcuts.congestion_capped import oblivious_shortcut
from repro.shortcuts.parts import tree_fragment_parts
from repro.shortcuts.shortcut import Shortcut
from repro.structure.spanning import bfs_spanning_tree
from repro.utils import canonical_edge

from aggregation_at_scale import assert_like_the_oracle, grid_phases
from oracles import aggregation as oracle_aggregation
from oracles import mst as oracle_mst
from oracles import quality as oracle_quality


def _values(graph: nx.Graph, seed: int) -> dict:
    return {
        node: (index * 31 + seed) % 17
        for index, node in enumerate(sorted(graph.nodes(), key=repr))
    }


def _assert_same_as_oracle(shortcut, values, combine) -> None:
    fast = partwise_aggregate(shortcut, values, combine=combine)
    reference = oracle_aggregation.partwise_aggregate(shortcut, values, combine=combine)
    assert fast.values == reference.values
    assert fast.rounds == reference.rounds
    assert fast.messages == reference.messages
    assert fast.per_part_rounds == reference.per_part_rounds


def _by_repr(nodes):
    return sorted(nodes, key=repr)


def _assert_schedule_invariants(shortcut, result) -> None:
    # Directed-edge load: each aggregation-tree edge carries one message
    # each way, and a directed edge delivers at most one message a round.
    load: Counter = Counter()
    tree_edges = 0
    deepest = 0
    for index, part in enumerate(shortcut.parts):
        anchor = min(part, key=repr)
        depth = {anchor: 0}
        for u, v in nx.bfs_edges(
            shortcut.augmented_subgraph(index), anchor, sort_neighbors=_by_repr
        ):
            depth[v] = depth[u] + 1
            load[u, v] += 1
            load[v, u] += 1
        tree_edges += len(depth) - 1
        deepest = max(deepest, max(depth.values()))
    assert result.messages == 2 * tree_edges
    assert result.rounds >= 2 * deepest
    assert result.rounds >= max(load.values(), default=0)
    assert result.rounds <= result.messages
    assert max(result.per_part_rounds) == result.rounds


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("family_name", family_names())
def test_aggregation_matches_oracle_on_every_constructor(family_name, seed):
    instance = build_instance(family_name, seed=seed)
    parts = instance.parts("tree_fragments", num_parts=6, seed=seed)
    values = _values(instance.graph, seed)
    for name in applicable_constructors(instance):
        shortcut = constructor(name).build(instance, instance.tree, parts)
        _assert_same_as_oracle(shortcut, values, min)
        _assert_schedule_invariants(shortcut, partwise_aggregate(shortcut, values))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("family_name", family_names())
def test_round_budget_matches_oracle_on_every_constructor(family_name, seed):
    """A schedule of R rounds raises under ``max_rounds=R-2`` and passes under
    ``R-1`` and ``R``, in production and oracle alike: like
    ``CongestSimulator.run``, the schedule may use ``max_rounds + 1`` rounds."""
    instance = build_instance(family_name, seed=seed)
    parts = instance.parts("tree_fragments", num_parts=6, seed=seed)
    values = _values(instance.graph, seed)
    for name in applicable_constructors(instance):
        shortcut = constructor(name).build(instance, instance.tree, parts)
        rounds = partwise_aggregate(shortcut, values).rounds
        assert rounds >= 2
        for aggregate in (partwise_aggregate, oracle_aggregation.partwise_aggregate):
            with pytest.raises(SimulationError):
                aggregate(shortcut, values, max_rounds=rounds - 2)
            for budget in (rounds - 1, rounds):
                assert aggregate(shortcut, values, max_rounds=budget).rounds == rounds


@st.composite
def drawn_shortcut_inputs(draw):
    """A random connected graph, its BFS tree, disjoint connected parts and
    an edge set for every part, as ``(graph, tree, parts, edge_sets)``.

    An edge set draws from the tree edges and from the non-tree graph
    edges, may list an edge in both orientations, may hold edges that
    touch no part vertex, and may be empty; a part may reuse the previous
    part's edge-set object."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(min_value=1, max_value=24))
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from((node, rng.randrange(node)) for node in range(1, n))
    for _ in range(draw(st.integers(min_value=0, max_value=2 * n))):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            graph.add_edge(u, v)
    tree = bfs_spanning_tree(graph, root=rng.randrange(n))
    free = set(graph.nodes)
    parts = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        if not free:
            break
        part = {rng.choice(sorted(free))}
        frontier = set(graph[next(iter(part))]) & free
        for _ in range(rng.randrange(6)):
            frontier -= part
            if not frontier:
                break
            node = rng.choice(sorted(frontier))
            part.add(node)
            frontier |= set(graph[node]) & free
        free -= part
        parts.append(frozenset(part))
    tree_edges = sorted(tree.edge_set())
    other_edges = sorted(
        (min(u, v), max(u, v)) for u, v in graph.edges() if (min(u, v), max(u, v)) not in tree_edges
    )
    share = draw(st.floats(min_value=0.0, max_value=1.0))
    off_tree = draw(st.sampled_from([0.0, 0.0, 0.2, 0.6]))
    edge_sets = []
    for _ in parts:
        if edge_sets and rng.random() < 0.25:
            edge_sets.append(edge_sets[-1])
            continue
        if rng.random() < 0.15:
            edge_sets.append(frozenset())
            continue
        edges = {edge for edge in tree_edges if rng.random() < share}
        edges |= {edge for edge in other_edges if rng.random() < off_tree}
        edges |= {(v, u) for u, v in edges if rng.random() < 0.3}
        edge_sets.append(frozenset(edges))
    return graph, tree, parts, edge_sets


def drawn_shortcuts():
    """The drawn inputs as a label-built :class:`Shortcut`."""
    return drawn_shortcut_inputs().map(lambda drawn: Shortcut(*drawn, constructor="drawn"))


def _cycle_inputs(edge_sets):
    """A 6-cycle rooted at 0 (its tree drops edge 3-4), parts {0, 1, 2} and
    {4, 5}, and the given per-part edge sets."""
    graph = nx.cycle_graph(6)
    parts = [frozenset({0, 1, 2}), frozenset({4, 5})]
    return graph, bfs_spanning_tree(graph, root=0), parts, edge_sets


# Part 0 lists an edge inside itself (its arc repeats a G[P_i] arc); part 1
# a non-tree edge, which leaves the shortcut not tree-restricted.
INSIDE_EDGE = _cycle_inputs([{(1, 2), (2, 3)}, {(4, 5)}])
NON_TREE_EDGE = _cycle_inputs([{(2, 3)}, {(3, 4), (0, 5)}])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(drawn_shortcuts(), st.integers(min_value=0, max_value=100))
@example(Shortcut(*INSIDE_EDGE, constructor="drawn"), 3)
@example(Shortcut(*NON_TREE_EDGE, constructor="drawn"), 5)
def test_drawn_shortcuts_schedule_like_the_oracle(shortcut, seed):
    values = _values(shortcut.graph, seed)
    engine_built = oblivious_shortcut(shortcut.graph, shortcut.tree, shortcut.parts)
    for candidate in (shortcut, engine_built):
        _assert_same_as_oracle(candidate, values, min)
        _assert_same_as_oracle(candidate, values, lambda a, b: a + b)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(drawn_shortcut_inputs())
@example(INSIDE_EDGE)
@example(NON_TREE_EDGE)
def test_drawn_shortcuts_measure_like_the_oracle(drawn):
    """The index-space measures equal the seed label measures, and the
    derived label view is the canonical form of the input edge sets."""
    graph, tree, parts, edge_sets = drawn
    shortcut = Shortcut(graph, tree, parts, edge_sets, constructor="drawn")
    assert shortcut.edge_sets == tuple(
        frozenset(canonical_edge(u, v) for u, v in edges) for edges in edge_sets
    )
    assert shortcut.parts == tuple(parts)
    engine_built = oblivious_shortcut(graph, tree, parts)
    for candidate in (shortcut, engine_built):
        assert candidate.congestion() == oracle_quality.congestion(candidate)
        assert candidate.block_parameter() == oracle_quality.block_parameter(candidate)
        assert candidate.edge_congestion() == oracle_quality.edge_congestion(candidate)
        assert candidate.measure() == oracle_quality.measure(candidate)
        assert candidate.is_tree_restricted() == oracle_quality.is_tree_restricted(candidate)


def test_block_parameter_counts_a_shared_vertex_in_each_part():
    """Parts that share vertex 1 are no Definition 9 family, but they are
    measurable: member 1 of the first part is a block of its own, apart
    from the second part's slot of vertex 1."""
    graph = nx.path_graph(4)
    shortcut = Shortcut(
        graph, bfs_spanning_tree(graph, root=0), [frozenset({0, 1}), frozenset({1, 3})],
        [set(), {(1, 2), (2, 3)}],
    )
    assert shortcut.block_parameter() == oracle_quality.block_parameter(shortcut) == 2


def test_slot_layout_is_built_once_per_shortcut(monkeypatch):
    """A label construction's shortcut, measured and then aggregated (the
    ``family-mst`` path), lays its slots out once; both results still equal
    the oracles."""
    import repro.shortcuts.shortcut as shortcut_module

    calls = []
    real = shortcut_module._slot_layout

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(shortcut_module, "_slot_layout", counting)
    instance = build_instance("planar", seed=1)
    parts = instance.parts("tree_fragments", num_parts=6, seed=1)
    shortcut = constructor("planar").build(instance, instance.tree, parts)
    assert shortcut.quality() == oracle_quality.quality(shortcut)
    values = _values(instance.graph, 1)
    _assert_same_as_oracle(shortcut, values, min)
    assert shortcut.block_parameter() == oracle_quality.block_parameter(shortcut)
    assert len(calls) == 1


def test_a_receiver_fires_at_its_last_delivery_of_the_round():
    """Slot 2 of part A = {1, 2, 3, 5} hears from its children 3 and 5 in
    round 1, at positions 0 (edge 3 -> 2) and 2 (edge 5 -> 2).  Part B =
    {0, 4}, joined through shortcut edges 4-2-1-0, fires its slot 2 at
    position 1 (edge 4 -> 2).  A's up message 2 -> 1 is sent at position 2,
    so it queues behind B's: firing at A's first delivery would put it in
    front and finish A in round 4 and B in round 7."""
    graph = nx.Graph([(0, 1), (1, 2), (2, 3), (2, 4), (2, 5)])
    tree = bfs_spanning_tree(graph, root=0)
    shortcut = Shortcut(
        graph, tree, [frozenset({1, 2, 3, 5}), frozenset({0, 4})], [(), [(0, 1), (1, 2), (2, 4)]]
    )
    values = {node: 10 - node for node in graph}
    result = partwise_aggregate(shortcut, values)
    assert (result.rounds, result.per_part_rounds, result.values) == (6, [5, 6], [5, 6])
    _assert_same_as_oracle(shortcut, values, min)


def test_sends_on_one_edge_in_one_round_queue_by_trigger_position():
    """Parts A = {0, 3} (via 3-2-1-0) and B = {1, 4} (via 4-2-1) both fire
    their slot 2 in round 1, A at position 0 (edge 3 -> 2) and B at
    position 1 (edge 4 -> 2), and both send up 2 -> 1 in that round: A's
    message goes first.  In the other order A would finish in round 7 and B
    in round 4."""
    graph = nx.Graph([(0, 1), (1, 2), (2, 3), (2, 4)])
    tree = bfs_spanning_tree(graph, root=0)
    shortcut = Shortcut(
        graph,
        tree,
        [frozenset({0, 3}), frozenset({1, 4})],
        [[(0, 1), (1, 2), (2, 3)], [(1, 2), (2, 4)]],
    )
    values = {node: node for node in graph}
    result = partwise_aggregate(shortcut, values)
    assert (result.rounds, result.per_part_rounds, result.values) == (6, [6, 5], [0, 1])
    _assert_same_as_oracle(shortcut, values, min)


def test_heaviest_phase_of_a_60x60_grid_schedules_like_the_oracle():
    """The Boruvka phase with the most messages a round of a 60x60 label
    grid (seed 7), pinned to the seed scheduler."""
    shortcut, values, result = max(
        grid_phases(), key=lambda phase: phase[2].messages / max(1, phase[2].rounds)
    )
    assert result.messages / result.rounds > 700
    assert_like_the_oracle(shortcut, values, result)


def test_unreachable_member_raises_instead_of_a_silent_value():
    """Part {0, 3} of a 4-path with no shortcut edges cannot gather vertex 3."""
    graph = nx.path_graph(4)
    tree = bfs_spanning_tree(graph)
    shortcut = Shortcut(graph, tree, [frozenset({1}), frozenset({0, 3})], [(), ()])
    with pytest.raises(SimulationError, match="part 1"):
        partwise_aggregate(shortcut, {node: node for node in graph})
    # A shortcut edge set that reconnects the part makes it aggregate again.
    bridged = Shortcut(
        graph, tree, [frozenset({1}), frozenset({0, 3})], [(), [(0, 1), (1, 2), (2, 3)]]
    )
    result = partwise_aggregate(bridged, {node: node for node in graph})
    assert result.values == [1, 0]
    assert result == oracle_aggregation.partwise_aggregate(
        bridged, {node: node for node in graph}
    )


def test_empty_part_raises_a_simulation_error():
    graph = nx.path_graph(4)
    tree = bfs_spanning_tree(graph)
    shortcut = Shortcut(graph, tree, [frozenset({0, 1}), frozenset()], [(), ()])
    with pytest.raises(SimulationError, match="part 1 is empty"):
        partwise_aggregate(shortcut, {node: node for node in graph})


def _tuple_grid() -> nx.Graph:
    # Labels (1, 2) and (1, 10) share the repr prefix "(1, ".
    return nx.grid_2d_graph(12, 12)


def _string_grid() -> nx.Graph:
    grid = nx.grid_2d_graph(11, 11)
    return nx.relabel_nodes(grid, {node: f"{node[0]}-{node[1]}" for node in grid})


NON_INT_GRIDS = [_tuple_grid, _string_grid]


@pytest.mark.parametrize("make_graph", NON_INT_GRIDS, ids=["tuple", "string"])
def test_aggregation_on_non_int_labels_matches_oracle(make_graph):
    graph = make_graph()
    tree = bfs_spanning_tree(graph)
    parts = tree_fragment_parts(graph, tree, num_parts=14, seed=5)
    shortcut = oblivious_shortcut(graph, tree, parts)
    values = _values(graph, 3)
    _assert_same_as_oracle(shortcut, values, min)
    _assert_same_as_oracle(shortcut, values, lambda a, b: a + b)
    _assert_schedule_invariants(shortcut, partwise_aggregate(shortcut, values))


@pytest.mark.parametrize("make_graph", NON_INT_GRIDS, ids=["tuple", "string"])
@pytest.mark.parametrize("weights", ["unit", "three-valued"])
def test_boruvka_on_non_int_labels_matches_oracle(make_graph, weights):
    """Equal weights make every MWOE a canonical-edge-order tie-break."""
    graph = make_graph()
    if weights == "three-valued":
        for index, (u, v) in enumerate(sorted(graph.edges(), key=repr)):
            graph[u][v][WEIGHT] = float(1 + (index * 7) % 3)
    tree = bfs_spanning_tree(graph)
    fast = boruvka_mst(graph, tree=tree)
    reference = oracle_mst.boruvka_mst(graph, tree=tree)
    assert fast.edges == reference.edges
    assert fast.weight == reference.weight
    assert fast.rounds == reference.rounds
    assert fast.phase_rounds == reference.phase_rounds
    assert fast.phase_qualities == reference.phase_qualities
