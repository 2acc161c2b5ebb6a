"""Construction plans: reused by every Boruvka phase and every spanning tree.

The six paper constructions (Theorems 4-9) split into part-independent
structure and a per-parts step.  What reads only the graph and its witness
is memoised on the graph (:func:`repro.core.graph_memo`), what reads the
tree on the :class:`~repro.structure.spanning.RootedTree`.  Reused structure
must serve any later parts exactly as freshly built structure does: every
phase of a Boruvka run is replayed on the run's (warm) tree, on a copy of
it whose tree memo is cold, and on a fresh instance whose graph memo is
cold too.  All four edge-set lists must agree, and their digests must equal
the ones recorded in ``tests/golden/construction_edge_sets.json``.  That
file pins the edge sets across refactors of the construction layer;
regenerate it (and review the diff like any other behavioural change)
with::

    PYTHONPATH=src python tests/test_construction_plans.py --write

The scope tests pin each memo's owner, lifetime and keys, and the frozen
host graphs.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import pathlib
import sys
import weakref
from unittest import mock

import networkx as nx
import pytest

from repro.algorithms.mst import boruvka_mst
from repro.core.view import _MEMO_ATTR
from repro.errors import InvalidDecompositionError, InvalidGraphError
from repro.graphs.clique_sum import Bag, CliqueSumDecomposition
from repro.graphs.planar import is_planar
from repro.scenarios import registry
from repro.scenarios.engine import Scenario, build_instance, run_matrix
from repro.scenarios.instances import InstanceCache
from repro.shortcuts import clique_sum as clique_sum_module
from repro.shortcuts import genus_vortex as genus_vortex_module
from repro.shortcuts import treewidth as treewidth_module
from repro.shortcuts.apex import apex_plan
from repro.shortcuts.clique_sum import clique_sum_plan, clique_sum_shortcut
from repro.shortcuts.genus_vortex import genus_vortex_plan
from repro.shortcuts.planar import planar_shortcut
from repro.shortcuts.treewidth import treewidth_plan
from repro.structure.spanning import RootedTree, bfs_spanning_tree

GOLDEN_PATH = pathlib.Path(__file__).resolve().parent / "golden" / "construction_edge_sets.json"

# (family, constructor): the cells of the family-mst benchmark workload.
CELLS = [
    ("planar", "planar"),
    ("treewidth", "treewidth"),
    ("clique_sum", "clique_sum"),
    ("apex", "apex"),
    ("genus", "genus_vortex"),
    ("minor_free", "minor_free"),
]

# Which memos a construction fills: the planarity verdict reads only the
# graph, and the apex plan's cells are the components of T minus the apices.
OWNERS = {"planar": {"graph"}, "apex": {"tree"}}


def _instance(family_name: str, size: str, seed: int = 0):
    spec = registry.family(family_name)
    params = spec.tiny_params if size == "tiny" else spec.default_params
    return build_instance(family_name, params, seed)


def _digest(edge_sets) -> str:
    """A stable digest of one shortcut's edge sets, part order included."""
    canonical = json.dumps([sorted(map(repr, edges)) for edges in edge_sets])
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _graph_memo(graph: nx.Graph) -> dict:
    return vars(graph).get(_MEMO_ATTR, {})


def _replay(family_name: str, constructor_name: str, size: str, seed: int) -> list[str]:
    """Check warm structure against cold; return the digest of every shortcut.

    Each shortcut is built three more times: on the run's warm tree, on a
    copy of the tree (cold tree memo, warm graph memo), and on a fresh
    instance (both memos cold).
    """
    instance = _instance(family_name, size, seed)
    graph = instance.weighted_graph(seed)
    builder = registry.constructor(constructor_name).builder_for(instance)
    tree = bfs_spanning_tree(graph)
    phases = []

    def recording_builder(graph, tree, parts):
        shortcut = builder(graph, tree, parts)
        phases.append((list(parts), shortcut.edge_sets))
        return shortcut

    def fully_cold(parts):
        fresh = _instance(family_name, size, seed)
        fresh_builder = registry.constructor(constructor_name).builder_for(fresh)
        return fresh_builder(graph, RootedTree(tree.parent, tree.root), parts).edge_sets

    boruvka_mst(graph, shortcut_builder=recording_builder, tree=tree)
    assert len(phases) > 1
    filled = {
        owner
        for owner, memo in (("graph", _graph_memo(instance.graph)), ("tree", tree._memo))
        if memo
    }
    assert filled == OWNERS.get(constructor_name, {"graph", "tree"})
    digests = []
    for parts, edge_sets in phases:
        cold = fully_cold(parts)
        assert edge_sets == cold
        assert builder(graph, RootedTree(tree.parent, tree.root), parts).edge_sets == cold
        assert builder(graph, tree, parts).edge_sets == cold
        digests.append(_digest(cold))
    # Families unlike the phases' (fewer, larger parts; a new part order)
    # reach bags and cells the run's phases may not have.
    for num_parts in (2, 5, 9):
        parts = list(reversed(instance.parts(num_parts=num_parts, seed=seed)))
        cold = fully_cold(parts)
        assert builder(graph, RootedTree(tree.parent, tree.root), parts).edge_sets == cold
        assert builder(graph, tree, parts).edge_sets == cold
        digests.append(_digest(cold))
    return digests


def _golden_key(constructor_name: str, size: str, seed: int) -> str:
    return f"{constructor_name}/{size}/{seed}"


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("size", ["tiny", "default"])
@pytest.mark.parametrize("family_name, constructor_name", CELLS)
def test_reused_plan_gives_the_cold_plans_shortcut(family_name, constructor_name, size, seed):
    digests = _replay(family_name, constructor_name, size, seed)
    with GOLDEN_PATH.open(encoding="utf-8") as handle:
        golden = json.load(handle)
    assert digests == golden[_golden_key(constructor_name, size, seed)]


def test_plans_die_with_their_tree():
    refs = []
    clique_sum = _instance("clique_sum", "tiny")
    tree = bfs_spanning_tree(clique_sum.graph)
    plan = clique_sum_plan(clique_sum.graph, tree, clique_sum.witness)
    plan.shortcut(clique_sum.parts(num_parts=4, seed=0))
    assert plan._bags, "no bag was built"
    refs += [weakref.ref(plan), weakref.ref(treewidth_plan(clique_sum.graph, tree))]

    minor_free = _instance("minor_free", "tiny")
    minor_tree = bfs_spanning_tree(minor_free.graph)
    builder = registry.constructor("minor_free").builder_for(minor_free)
    builder(minor_free.graph, minor_tree, minor_free.parts(num_parts=4, seed=0))
    (minor_plan,) = [plan for _sources, plan in minor_tree._memo.values()]
    refs.append(weakref.ref(minor_plan))
    # Nested plans: the apex plans of almost-embeddable bags live on the
    # plan's cached bag trees.
    nested = [
        plan for _vertices, _completed, bag_tree in minor_plan._bags.values()
        for _sources, plan in bag_tree._memo.values()
    ]
    assert nested, "no almost-embeddable bag built an apex plan"
    refs += [weakref.ref(plan) for plan in nested]

    genus = _instance("genus", "tiny")
    genus_tree = bfs_spanning_tree(genus.graph)
    refs.append(weakref.ref(genus_vortex_plan(genus.witness, genus_tree)))

    apex = _instance("apex", "tiny")
    apex_tree = bfs_spanning_tree(apex.graph)
    witness = apex.witness
    groups = [vortex.all_nodes() for vortex in witness.vortices]
    refs.append(weakref.ref(apex_plan(apex.graph, apex_tree, witness.apices, groups)))

    del plan, minor_plan, nested, tree, minor_tree, genus_tree, apex_tree, builder
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


def test_each_witness_graph_and_fold_gets_its_own_plan():
    instance = _instance("clique_sum", "tiny")
    graph, witness = instance.graph, instance.witness
    tree = bfs_spanning_tree(graph)
    plan = clique_sum_plan(graph, tree, witness)
    assert clique_sum_plan(graph, tree, witness) is plan
    twin = dataclasses.replace(witness)
    twin_plan = clique_sum_plan(graph, tree, twin)
    assert twin_plan is not plan and twin_plan.decomposition is twin
    unfolded = clique_sum_plan(graph, tree, witness, fold=False)
    assert unfolded is not plan and not unfolded.fold
    assert unfolded.layout is not plan.layout
    assert clique_sum_plan(graph, tree, witness) is plan

    other_graph = graph.copy()
    assert treewidth_plan(other_graph, tree) is not treewidth_plan(graph, tree)
    assert treewidth_plan(graph, tree) is treewidth_plan(graph, tree)

    apex = _instance("apex", "tiny")
    apex_tree = bfs_spanning_tree(apex.graph)
    apices = apex.witness.apices
    with_apices = apex_plan(apex.graph, apex_tree, apices)
    assert apex_plan(apex.graph, apex_tree, list(apices)) is with_apices
    assert apex_plan(apex.graph, apex_tree, ()) is not with_apices


def _memo_refs(graph: nx.Graph) -> list[weakref.ref]:
    """Weak references to the graph and to every object its memo holds."""
    held = [graph]
    for _sources, value in _graph_memo(graph).values():
        held += value if isinstance(value, tuple) else (value,)
    return [weakref.ref(item) for item in held if not isinstance(item, (bool, set))]


def test_graph_memo_entries_die_with_their_instance():
    refs = []
    for family_name, constructor_name in CELLS:
        instance = _instance(family_name, "tiny")
        builder = registry.constructor(constructor_name).builder_for(instance)
        assert registry.constructor(constructor_name).applicable(instance)
        parts = instance.parts(num_parts=4, seed=0)
        base = bfs_spanning_tree(instance.graph)
        for tree in (base, RootedTree(base.parent, base.root)):
            builder(instance.graph, tree, parts)
        refs += _memo_refs(instance.graph)
    assert len(refs) > len(CELLS) + 5, "the constructions left little on their graphs"
    del instance, builder, parts, base, tree
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


def test_planarity_is_checked_once_per_graph():
    planar = _instance("planar", "tiny")
    tree = bfs_spanning_tree(planar.graph)
    parts = planar.parts(num_parts=3, seed=0)
    with mock.patch.object(nx, "check_planarity", wraps=nx.check_planarity) as check:
        planar_shortcut(planar.graph, tree, parts)
        planar_shortcut(planar.graph, tree, parts)
        planar_shortcut(planar.graph, RootedTree(tree.parent, tree.root), parts)
        assert registry.constructor("planar").applicable(planar)
        assert check.call_count == 1
        assert is_planar(planar.graph)  # the public check stays pure
        assert check.call_count == 2
    assert not tree._memo, "the planarity verdict reads no tree"
    k5 = nx.complete_graph(5)
    k5_tree = bfs_spanning_tree(k5)
    with mock.patch.object(nx, "check_planarity", wraps=nx.check_planarity) as check:
        for tree in (k5_tree, RootedTree(k5_tree.parent, k5_tree.root)):
            with pytest.raises(InvalidGraphError, match="non-planar"):
                planar_shortcut(k5, tree, [frozenset({0})])
    assert check.call_count == 1


def _counting(owner, name):
    return mock.patch.object(owner, name, wraps=getattr(owner, name))


def test_witness_structure_is_built_once_per_graph():
    treewidth = _instance("treewidth", "tiny")
    genus = _instance("genus", "tiny")
    clique_sum = _instance("clique_sum", "tiny")
    assert genus.witness.vortices, "the genus witness takes the Lemma 2/3 path"
    builds = {
        "treewidth": lambda tree: [treewidth_plan(treewidth.graph, tree)],
        "genus": lambda tree: [genus_vortex_plan(genus.witness, tree)],
        # Both arms of the fold ablation share the bag graphs.
        "clique_sum": lambda tree: [
            clique_sum_plan(clique_sum.graph, tree, clique_sum.witness, fold=fold)
            for fold in (True, False)
        ],
    }
    completed_bag_graph = CliqueSumDecomposition.completed_bag_graph
    with _counting(treewidth_module, "greedy_tree_decomposition") as greedy, \
            _counting(genus_vortex_module, "genus_vortex_decomposition") as lemma3, \
            _counting(treewidth_module, "decomposition_from_tree_decomposition") as view, \
            _counting(clique_sum_module, "fold_decomposition_tree") as fold, \
            mock.patch.object(
                CliqueSumDecomposition, "completed_bag_graph",
                autospec=True, side_effect=completed_bag_graph,
            ) as completed:
        bags = 0
        for instance in (treewidth, genus, clique_sum):
            base = bfs_spanning_tree(instance.graph)
            trees = [base, RootedTree(base.parent, base.root)]  # plans die with them
            plans = [builds[instance.family](tree) for tree in trees]
            for first, second in zip(*plans):
                assert first is not second and first.layout is second.layout
            for plan in (plan for tree_plans in plans for plan in tree_plans):
                for bag_index in plan.decomposition.bags:
                    plan.bag(bag_index)
            bags += len(plans[0][0].decomposition.bags)
    assert (greedy.call_count, lemma3.call_count, view.call_count) == (1, 1, 2)
    assert fold.call_count == 3
    assert completed.call_count == bags


def test_warm_scenario_records_equal_cold_ones():
    scenarios = [
        Scenario(
            name=f"{family_name}/{constructor_name}/mst",
            family=family_name,
            constructor=constructor_name,
            algorithm="mst",
            params=registry.family(family_name).tiny_params,
            seed=seed,
        )
        for family_name, constructor_name in CELLS
        for seed in (0, 1)
    ]

    def records(cache):
        found = run_matrix(scenarios, cache=cache)
        for record in found:
            assert record["result"].pop("sim_seconds") >= 0
        return found

    shared = InstanceCache()
    first, second = records(shared), records(shared)
    assert shared.hits >= len(scenarios)
    assert first == second == records(InstanceCache())


def test_cached_host_graphs_are_frozen():
    instance = _instance("clique_sum", "tiny")
    tree = bfs_spanning_tree(instance.graph)
    plan = clique_sum_plan(instance.graph, tree, instance.witness)
    bag = next(iter(instance.witness.bags))
    _vertices, completed, _bag_tree = plan.bag(bag)
    apex = _instance("apex", "tiny")
    apex_tree = bfs_spanning_tree(apex.graph)  # a plan lives only as long as its tree
    cell_plan = apex_plan(apex.graph, apex_tree, apex.witness.apices)
    _cell_tree, cell_graph = cell_plan.cell_host(0)
    for graph in (completed, cell_graph):
        assert nx.is_frozen(graph)
        with pytest.raises(nx.NetworkXError, match="Frozen"):
            graph.add_edge("x", "y")


@pytest.mark.parametrize("size", ["tiny", "default"])
@pytest.mark.parametrize("family_name", ["clique_sum", "treewidth", "genus", "minor_free"])
def test_every_repaired_tree_edge_is_a_bag_edge(family_name, size):
    instance = _instance(family_name, size)
    graph, witness = instance.graph, instance.witness
    tree = bfs_spanning_tree(graph)
    if family_name == "clique_sum":
        plan = clique_sum_plan(graph, tree, witness)
    elif family_name == "treewidth":
        plan = treewidth_plan(graph, tree)
    elif family_name == "genus":
        plan = genus_vortex_plan(witness, tree)
    else:
        plan = clique_sum_plan(graph, tree, witness.decomposition)
    for bag_index in plan.decomposition.bags:
        _vertices, completed, bag_tree = plan.bag(bag_index)
        assert all(completed.has_edge(u, v) for u, v in bag_tree.edges())


def test_a_repaired_tree_edge_outside_its_bag_is_rejected():
    # The path 0-1-2 with bags {0, 2} and {1} sharing no vertex: contracting
    # T onto {0, 2} joins 0 and 2, which the completed bag {0, 2} lacks.
    graph = nx.path_graph(3)
    broken = CliqueSumDecomposition(
        graph=graph,
        tree=nx.Graph([(0, 1)]),
        bags={0: Bag(0, frozenset({0, 2})), 1: Bag(1, frozenset({1}))},
        partial_cliques={frozenset({0, 1}): frozenset()},
        k=1,
    )
    with pytest.raises(InvalidDecompositionError, match="bag 0"):
        clique_sum_shortcut(
            graph, bfs_spanning_tree(graph), [frozenset({0})], decomposition=broken
        )


def test_a_mutating_local_shortcutter_fails_loudly():
    instance = _instance("clique_sum", "tiny")

    def mutating(bag_graph, bag_tree, subparts, bag):
        bag_graph.remove_edges_from(list(bag_graph.edges()))

    with pytest.raises(nx.NetworkXError, match="Frozen"):
        clique_sum_shortcut(
            instance.graph,
            bfs_spanning_tree(instance.graph),
            instance.parts(num_parts=4, seed=0),
            decomposition=instance.witness,
            local_shortcutter=mutating,
        )


def _write_golden() -> None:
    digests = {
        _golden_key(constructor_name, size, seed): _replay(family_name, constructor_name, size, seed)
        for family_name, constructor_name in CELLS
        for size in ("tiny", "default")
        for seed in (0, 1, 2)
    }
    with GOLDEN_PATH.open("w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(digests)} edge-set digest lists to {GOLDEN_PATH}")


if __name__ == "__main__":
    if "--write" in sys.argv:
        _write_golden()
    else:
        print(__doc__)
