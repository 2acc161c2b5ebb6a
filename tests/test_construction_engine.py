"""Differential and property tests for the array-native construction engine.

Four layers:

* **differential** -- the :class:`~repro.shortcuts.ConstructionEngine` fast
  path of ``oblivious_shortcut`` / ``congestion_capped_shortcut`` must
  reproduce the seed ``networkx`` implementation in ``tests/oracles/``
  *exactly*
  (edge sets, congestion, blocks, chosen budget) across every registered
  graph family and every part generator kind;
* **property** -- the budget sweep's per-budget quality must equal a
  from-scratch ``congestion_capped_shortcut`` at each budget, including
  unsorted, duplicated and negative budget schedules;
* **shapes** -- the array passes pinned to the seed ``_congestion_capped``
  on the trees and families that stress them: a path (the deepest
  binary-lifting table) and a star (depth 1), parts whose members are
  ancestors of one another, a part holding the root, all-singleton
  families, and budgets of 0, below 0 and above ``max_owner_count``;
* **substrate** -- the Euler-tour index and the int-indexed
  :class:`~repro.core.PartSet` agree with the label-keyed
  :class:`RootedTree` / ``frozenset`` structures they replace.
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import part_set_of, view_of
from repro.graphs.planar import grid_graph, wheel_graph
from repro.scenarios import build_instance, family_names
from repro.shortcuts.congestion_capped import (
    congestion_capped_shortcut,
    default_budget_schedule,
    oblivious_shortcut,
)
from repro.shortcuts.engine import ConstructionEngine
from repro.shortcuts.parts import path_parts, singleton_parts, tree_fragment_parts
from repro.structure.spanning import RootedTree, bfs_spanning_tree

from oracles import quality as oracle_quality
from oracles import shortcuts as oracle_shortcuts
from oracles import structure as oracle_structure

PART_KINDS = ("tree_fragments", "path", "singleton")

_INSTANCES: dict = {}


def _family_instance(name):
    if name not in _INSTANCES:
        _INSTANCES[name] = build_instance(name, seed=3)
    return _INSTANCES[name]


def _family_parts(instance, kind):
    if kind == "tree_fragments":
        return instance.parts("tree_fragments", num_parts=6, seed=3)
    return instance.parts(kind)


# --------------------------------------------------------------- differential


@pytest.mark.parametrize("kind", PART_KINDS)
@pytest.mark.parametrize("family_name", family_names())
def test_oblivious_engine_matches_reference(family_name, kind):
    """Engine sweep == preserved seed sweep: edge sets, measures, chosen budget."""
    instance = _family_instance(family_name)
    graph, tree = instance.graph, instance.tree
    parts = _family_parts(instance, kind)
    fast = oblivious_shortcut(graph, tree, parts)
    reference = oracle_shortcuts.oblivious_shortcut(graph, tree, parts)
    assert fast.edge_sets == reference.edge_sets
    assert fast.chosen_budget == reference.chosen_budget
    assert fast.chosen_quality == reference.chosen_quality
    assert fast.constructor == reference.constructor == "oblivious"
    assert fast.congestion() == oracle_quality.congestion(reference)
    assert fast.block_parameter() == oracle_quality.block_parameter(reference)
    assert fast.measure() == reference.measure() == oracle_quality.measure(reference)


@pytest.mark.parametrize("family_name", family_names())
def test_congestion_capped_engine_matches_reference_per_budget(family_name):
    instance = _family_instance(family_name)
    graph, tree = instance.graph, instance.tree
    parts = _family_parts(instance, "tree_fragments")
    for budget in (0, 1, 2, 3, len(parts)):
        fast = congestion_capped_shortcut(graph, tree, parts, congestion_budget=budget)
        reference = oracle_shortcuts.congestion_capped_shortcut(
            graph, tree, parts, congestion_budget=budget
        )
        assert fast.edge_sets == reference.edge_sets, budget
        assert fast.constructor == reference.constructor, budget
        fast.validate()
        assert fast.congestion() <= max(0, budget)


# ------------------------------------------------------------------ property


@pytest.mark.parametrize(
    "make_graph",
    [lambda: grid_graph(7, 7), lambda: wheel_graph(20)],
    ids=["grid", "wheel"],
)
def test_incremental_sweep_matches_from_scratch_at_every_budget(make_graph):
    graph = make_graph()
    tree = bfs_spanning_tree(graph)
    parts = path_parts(graph, tree)
    engine = ConstructionEngine(graph, tree, part_set_of(view_of(graph), parts))
    budgets = list(range(len(parts) + 2))
    qualities = engine.quality_sweep(budgets)
    for budget in budgets:
        from_scratch = congestion_capped_shortcut(
            graph, tree, parts, congestion_budget=budget
        )
        assert qualities[budget] == from_scratch.quality(), budget


def test_sweep_handles_unsorted_duplicate_and_negative_budgets():
    graph = grid_graph(6, 6)
    tree = bfs_spanning_tree(graph)
    comb_graph, comb_tree, comb_parts = _comb(5)
    for graph, tree, parts in (
        (graph, tree, tree_fragment_parts(graph, tree, num_parts=7, seed=5)),
        (comb_graph, comb_tree, comb_parts),
    ):
        budgets = [4, 1, 4, -3, 2, 1, 9]
        fast = oblivious_shortcut(graph, tree, parts, budgets=budgets)
        reference = oracle_shortcuts.oblivious_shortcut(graph, tree, parts, budgets=budgets)
        assert fast.edge_sets == reference.edge_sets
        assert fast.chosen_budget == reference.chosen_budget
        assert fast.measure() == reference.measure()


def test_default_budget_schedule_is_strictly_increasing_to_num_parts():
    for num_parts in range(1, 40):
        schedule = default_budget_schedule(num_parts)
        assert schedule[-1] == num_parts
        assert len(set(schedule)) == len(schedule)
        assert schedule == sorted(schedule)
        # The doubling ladder is intact below the final budget.
        assert all(b == 2**i for i, b in enumerate(schedule[:-1]))


def test_oblivious_validates_parts_once_per_sweep(monkeypatch):
    import repro.shortcuts.congestion_capped as module

    graph = grid_graph(5, 5)
    tree = bfs_spanning_tree(graph)
    parts = tree_fragment_parts(graph, tree, num_parts=5, seed=1)
    for owner in (module, oracle_shortcuts):
        calls = {"count": 0}
        real = owner.validate_parts

        def counting(graph, parts, real=real, calls=calls):
            calls["count"] += 1
            return real(graph, parts)

        monkeypatch.setattr(owner, "validate_parts", counting)
        owner.oblivious_shortcut(graph, tree, parts)
        assert calls["count"] == 1, owner.__name__


def test_chosen_budget_is_none_for_direct_constructions():
    graph = grid_graph(4, 4)
    tree = bfs_spanning_tree(graph)
    parts = tree_fragment_parts(graph, tree, num_parts=3, seed=2)
    assert congestion_capped_shortcut(graph, tree, parts).chosen_budget is None
    assert oblivious_shortcut(graph, tree, parts).chosen_budget is not None
    assert oblivious_shortcut(graph, tree, []).chosen_budget is None


# -------------------------------------------------------------------- shapes


def _assert_engine_matches_seed(graph, tree, parts, budgets):
    """Edge sets, congestion, blocks, priced quality and chosen budget."""
    engine = ConstructionEngine(graph, tree, part_set_of(view_of(graph), parts))
    qualities = engine.quality_sweep(budgets)
    for budget in budgets:
        fast = engine.build_shortcut(budget)
        seed = oracle_shortcuts._congestion_capped(graph, tree, parts, max(0, budget))
        assert fast.edge_sets == seed.edge_sets, budget
        assert fast.congestion() == oracle_quality.congestion(seed), budget
        assert fast.block_parameter() == oracle_quality.block_parameter(seed), budget
        assert qualities[max(0, budget)] == oracle_quality.quality(seed), budget
    fast = oblivious_shortcut(graph, tree, parts, budgets=budgets)
    seed = oracle_shortcuts.oblivious_shortcut(graph, tree, parts, budgets=budgets)
    assert fast.edge_sets == seed.edge_sets
    assert fast.chosen_budget == seed.chosen_budget
    assert fast.chosen_quality == seed.chosen_quality


def _snake_tree(rows: int, cols: int) -> RootedTree:
    """The boustrophedon Hamiltonian path of a grid, rooted at one end."""
    order = [
        (row, col if row % 2 == 0 else cols - 1 - col)
        for row in range(rows)
        for col in range(cols)
    ]
    parent = {order[0]: None}
    parent.update({node: previous for previous, node in zip(order, order[1:])})
    return RootedTree(parent, order[0])


def _comb(teeth: int) -> tuple[nx.Graph, RootedTree, list[frozenset]]:
    """Three rows of leaves hanging off one spine, and five parts over them.

    The tree is the spine ``0 - 1 - ... - teeth`` rooted at 0, with leaf
    ``100 * row + i`` hanging off spine vertex ``i`` (``row`` 1-3,
    ``i >= 1``); the graph also joins each row's leaves into a path.  Parts:
    row 1 plus spine vertex 2 (a member on other members' paths to the
    top, spine vertex 1), rows 2 and 3, and the one-vertex parts ``{0}``
    and ``{teeth}``.  The three row parts request every spine edge from 2
    down, and below 2 they all have the same benefit there, so the part
    index breaks the rank ties.
    """
    parent = {0: None}
    parent.update({i: i - 1 for i in range(1, teeth + 1)})
    graph = nx.Graph((i - 1, i) for i in range(1, teeth + 1))
    rows = []
    for row in (1, 2, 3):
        leaves = [100 * row + i for i in range(1, teeth + 1)]
        parent.update({leaf: i for i, leaf in enumerate(leaves, start=1)})
        graph.add_edges_from((leaf, i) for i, leaf in enumerate(leaves, start=1))
        graph.add_edges_from(zip(leaves, leaves[1:]))
        rows.append(frozenset(leaves))
    parts = [rows[0] | {2}, rows[1], rows[2], frozenset({0}), frozenset({teeth})]
    return graph, RootedTree(parent, 0), parts


def _budgets(num_parts: int) -> list[int]:
    """Negative, zero, small and past-``max_owner_count`` budgets."""
    return [-2, 0, 1, 2, 3, 5, num_parts, num_parts + 7]


def test_engine_matches_seed_on_a_path_rooted_inside():
    graph = nx.path_graph(40)
    tree = bfs_spanning_tree(graph, root=13)
    parts = [frozenset(range(start, start + 5)) for start in range(0, 40, 5)]
    _assert_engine_matches_seed(graph, tree, parts, _budgets(len(parts)))


def test_engine_matches_seed_on_a_grid_with_a_hamiltonian_path_tree():
    """Depth n - 1, and grid-connected parts whose Steiner paths overlap."""
    graph = nx.grid_2d_graph(6, 7)
    tree = _snake_tree(6, 7)
    parts = [frozenset((row, col) for row in range(6)) for col in range(7)]
    engine = ConstructionEngine(graph, tree, part_set_of(view_of(graph), parts))
    assert engine.max_owner_count > 3
    assert len(engine.euler._lifting_table()) == (6 * 7 - 1).bit_length()
    _assert_engine_matches_seed(graph, tree, parts, _budgets(len(parts)))


def test_engine_matches_seed_on_a_star_tree():
    graph = wheel_graph(16)
    tree = bfs_spanning_tree(graph, root=0)
    assert tree.height == 1
    rim = [frozenset({1, 2, 3}), frozenset({4}), frozenset({5, 6, 7, 8, 9})]
    with_hub = [frozenset({0, 10, 11})] + rim
    for parts in (rim, with_hub):
        _assert_engine_matches_seed(graph, tree, parts, _budgets(len(parts)))


def test_engine_matches_seed_on_ancestor_chains_and_the_root():
    """Heavy paths are root-ward chains: every member is an ancestor of the
    next, so each part's first segment has length zero; one part holds the
    root.  On the comb (:func:`_comb`) a member lies on other members'
    paths up to a top that is no member, ranks tie across parts, and two
    parts have one vertex."""
    graph, tree, parts = _comb(5)
    engine = ConstructionEngine(graph, tree, part_set_of(view_of(graph), parts))
    assert engine.max_owner_count == 3
    spine_edge = engine.pair_edge == view_of(graph).index_of(4)
    assert engine.pair_benefit[spine_edge].tolist() == [2, 2, 2]
    assert engine.pair_rank[spine_edge].tolist() == [0, 1, 2]
    _assert_engine_matches_seed(graph, tree, parts, _budgets(len(parts)))

    graph = grid_graph(7, 7)
    tree = bfs_spanning_tree(graph)
    parts = path_parts(graph, tree)
    assert any(tree.root in part for part in parts)
    _assert_engine_matches_seed(graph, tree, parts, _budgets(len(parts)))
    fragments = tree_fragment_parts(graph, tree, num_parts=9, seed=4)
    assert any(tree.root in part for part in fragments)
    _assert_engine_matches_seed(graph, tree, fragments, _budgets(len(fragments)))


def test_engine_matches_seed_on_all_singletons():
    """Boruvka's first phase: no Steiner pair at all."""
    graph = grid_graph(5, 6)
    tree = bfs_spanning_tree(graph)
    parts = singleton_parts(graph)
    engine = ConstructionEngine(graph, tree, part_set_of(view_of(graph), parts))
    assert engine.max_owner_count == 0
    assert len(engine.pair_edge) == 0
    assert [len(edges) for edges in engine.steiner_edges] == [0] * len(parts)
    _assert_engine_matches_seed(graph, tree, parts, [0])
    _assert_engine_matches_seed(graph, tree, parts, _budgets(len(parts)))


def test_engine_budget_zero_and_negative_keep_no_edge():
    graph = grid_graph(6, 6)
    tree = bfs_spanning_tree(graph)
    parts = tree_fragment_parts(graph, tree, num_parts=6, seed=2)
    engine = ConstructionEngine(graph, tree, part_set_of(view_of(graph), parts))
    for budget in (0, -1, -50):
        assert all(not edges for edges in engine.build_shortcut(budget).edge_sets)
    qualities = engine.quality_sweep([0, -4])
    assert set(qualities) == {0}
    _assert_engine_matches_seed(graph, tree, parts, [0])
    _assert_engine_matches_seed(graph, tree, parts, [-3])


def test_engine_steiner_pairs_count_matches_seed_steiner_trees():
    graph = grid_graph(6, 6)
    tree = bfs_spanning_tree(graph)
    parts = tree_fragment_parts(graph, tree, num_parts=5, seed=8)
    engine = ConstructionEngine(graph, tree, part_set_of(view_of(graph), parts))
    for part, edges in zip(parts, engine.steiner_edges):
        assert len(edges) == len(tree.steiner_tree_edges(part))


def test_engine_rejects_an_empty_part():
    from repro.errors import InvalidPartitionError

    graph = grid_graph(3, 3)
    tree = bfs_spanning_tree(graph)
    parts = [frozenset({0}), frozenset()]
    with pytest.raises(InvalidPartitionError, match="part 1 is empty"):
        ConstructionEngine(graph, tree, part_set_of(view_of(graph), parts))


# ----------------------------------------------------------------- substrate


def test_euler_index_intervals_match_subtree_nodes():
    graph = grid_graph(5, 5)
    tree = bfs_spanning_tree(graph)
    view = view_of(graph)
    euler = tree.euler_index(view)
    assert euler is tree.euler_index(view), "euler index must be cached per view"
    index_of, node_of = view.index_of, view.nodes
    for node in tree.nodes:
        subtree = tree.subtree_nodes(node)
        ancestor = index_of(node)
        interval = {
            node_of[v]
            for v in range(len(view))
            if euler.tin[ancestor] <= euler.tin[v] <= euler.tout[ancestor]
        }
        assert interval == subtree, node
    pairs = [(u, v) for u in tree.nodes for v in tree.nodes]
    lcas = euler.lcas([index_of(u) for u, _ in pairs], [index_of(v) for _, v in pairs])
    for (u, v), lca in zip(pairs, lcas.tolist()):
        assert node_of[lca] == tree.lowest_common_ancestor(u, v), (u, v)
    depth = euler.arrays()[1]
    nodes = list(range(len(view)))
    for steps in range(int(depth.max()) + 1):
        reachable = [node for node in nodes if depth[node] >= steps]
        ancestors = euler.ancestors_at(reachable, [steps] * len(reachable))
        for node, ancestor in zip(reachable, ancestors.tolist()):
            walked = node_of[node]
            for _ in range(steps):
                walked = tree.parent[walked]
            assert node_of[ancestor] == walked


def test_part_set_arrays_and_memoisation():
    graph = grid_graph(5, 5)
    tree = bfs_spanning_tree(graph)
    parts = tree_fragment_parts(graph, tree, num_parts=4, seed=7)
    view = view_of(graph)
    part_set = part_set_of(graph, parts)
    assert part_set is part_set_of(view, parts), "memoised per (view, parts)"
    assert part_set is part_set_of(view, [frozenset(p) for p in parts]), "value-keyed"
    assert len(part_set) == len(parts)
    owner = part_set.owner_array()
    for index, part in enumerate(parts):
        members = part_set.members_of(index)
        assert members == sorted(members)
        assert {view.nodes[m] for m in members} == set(part)
        assert all(owner[m] == index for m in members)
        assert part_set.connected(index) == nx.is_connected(graph.subgraph(part))


def test_part_set_connectivity_detects_disconnection():
    graph = grid_graph(3, 3)
    part_set = part_set_of(graph, [frozenset({0, 8})])
    assert not part_set.connected(0)


def test_part_sets_live_and_die_with_their_view():
    import gc
    import weakref

    from repro.core import GraphView

    graph = grid_graph(3, 3)
    view = GraphView(graph)  # deliberately bypasses the view_of memo
    part_set = part_set_of(view, [frozenset({0, 1})])
    assert view._part_sets, "part sets are memoised on the view itself"
    finalizer = weakref.ref(view)
    del view, part_set
    gc.collect()
    assert finalizer() is None, "dropping the view must drop its part sets"


def _first_violation(callable_):
    from repro.errors import InvalidPartitionError

    try:
        callable_()
    except InvalidPartitionError as error:
        return str(error)
    return None


DEFECTS = ("empty", "overlap", "outside", "disconnected", "merge", "drop")


@st.composite
def defective_families(draw):
    """A small grid or path, a covering family of connected parts over it,
    and up to three defects at random positions: an empty part, a part
    overlapping another, a part with a non-graph vertex, a part of two
    non-adjacent vertices, two parts merged into one (disconnected unless
    they touch) and a dropped part."""
    if draw(st.booleans()):
        graph = nx.grid_2d_graph(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    else:
        graph = nx.path_graph(draw(st.integers(1, 8)))
    nodes = sorted(graph, key=repr)
    tree_edges = sorted(nx.bfs_tree(graph, nodes[0]).edges(), key=repr)
    cut = set(draw(st.lists(st.sampled_from(tree_edges), unique=True))) if tree_edges else set()
    forest = nx.Graph([edge for edge in tree_edges if edge not in cut])
    forest.add_nodes_from(nodes)
    components = sorted(map(frozenset, nx.connected_components(forest)), key=repr)
    parts = list(draw(st.permutations(components)))
    for defect in draw(st.lists(st.sampled_from(DEFECTS), max_size=3)):
        position = draw(st.integers(0, len(parts)))
        vertex = draw(st.sampled_from(nodes))
        if defect == "empty":
            parts.insert(position, frozenset())
        elif defect == "overlap":
            parts.insert(position, frozenset({vertex}))
        elif defect == "outside":
            parts.insert(position, frozenset({vertex, 99}))
        elif defect == "disconnected":
            far = [node for node in nodes if node != vertex and not graph.has_edge(node, vertex)]
            if far:
                parts.insert(position, frozenset({vertex, draw(st.sampled_from(far))}))
        elif len(parts) >= 2:
            first, second = draw(st.lists(
                st.integers(0, len(parts) - 1), min_size=2, max_size=2, unique=True
            ))
            if defect == "merge":
                parts[first] = parts[first] | parts[second]
            del parts[second]
    return graph, parts


@settings(max_examples=300, deadline=None)
@given(defective_families(), st.booleans())
@example((nx.path_graph(4), [frozenset({0}), frozenset({0}), frozenset({99})]), False)
@example((nx.path_graph(4), [frozenset({0, 3}), frozenset({99})]), False)
@example((nx.path_graph(4), [frozenset({0}), frozenset(), frozenset({99})]), False)
def test_validate_parts_reports_same_violation_in_both_modes(case, as_view):
    """A later part's bad vertex must not mask an earlier violation (parity)."""
    from repro.shortcuts.parts import validate_parts

    graph, parts = case
    fast = _first_violation(lambda: validate_parts(view_of(graph) if as_view else graph, parts))
    reference = _first_violation(lambda: oracle_shortcuts.validate_parts(graph, parts))
    assert fast == reference, parts


@settings(max_examples=300, deadline=None)
@given(defective_families(), st.booleans())
@example((nx.path_graph(4), [frozenset({0, 3}), frozenset({99})]), False)
def test_cell_validate_reports_same_violation_in_both_modes(case, require_cover):
    from repro.structure.cells import CellPartition

    graph, cells = case
    partition = CellPartition(cells=cells)
    fast = _first_violation(lambda: partition.validate(graph, require_cover))
    reference = _first_violation(
        lambda: oracle_structure.validate_cells(partition, graph, require_cover)
    )
    assert fast == reference, cells


def test_validate_gates_tolerates_stale_cells_like_reference():
    """Cells with non-graph vertices: both modes ignore them (cell_of semantics)."""
    from repro.structure.cells import CellPartition
    from repro.structure.gates import CombinatorialGate, GateCollection, validate_gates

    graph = nx.path_graph(4)
    partition = CellPartition(cells=[frozenset({0, 1}), frozenset({2, 3, 99})])
    gate = frozenset({1, 2})
    collection = GateCollection(
        gates=[CombinatorialGate(fence=gate, gate=gate)], partition=partition
    )
    fast = validate_gates(graph, collection)
    reference = oracle_structure.validate_gates(graph, collection)
    assert fast == reference


def test_scenario_instance_memoises_part_set():
    instance = _family_instance("planar")
    first = instance.part_set("tree_fragments", num_parts=6, seed=3)
    assert first is instance.part_set("tree_fragments", num_parts=6, seed=3)
    assert first.view is instance.view
