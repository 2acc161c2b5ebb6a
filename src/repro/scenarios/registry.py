"""The declarative registries behind the scenario engine.

Three registries map names to specs:

* **families** -- graph-family generators (one per substrate of the paper:
  planar, partial k-tree, clique-sum, apex, genus+vortex, minor-free L_k,
  and the Omega(sqrt n) lower-bound instance), each with a default and a
  tiny (CI smoke) parameterisation;
* **constructors** -- shortcut constructions, each with an applicability
  predicate over the instance (family constructions require the matching
  witness; the four baselines apply everywhere);
* **algorithms** -- runnable workloads (quality measurement, part-wise
  aggregation, distributed MST, approximate min-cut) that consume a
  shortcut builder and return a JSON-friendly record.

The registries are plain module-level dicts populated at import time; user
code can :func:`register_family` / :func:`register_constructor` /
:func:`register_algorithm` additional entries, which the matrix runner then
picks up like the built-ins.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import networkx as nx

from ..algorithms.mincut import approximate_min_cut
from ..algorithms.mst import boruvka_mst, native_mst_weight, reference_mst_weight
from ..congest.aggregation import partwise_aggregate
from ..core import GraphView, view_of
from ..congest.faults import FaultModel, FaultSchedule
from ..congest.primitives import broadcast_value, robust_bfs_tree
from ..congest.simulator import CongestSimulator
from ..graphs.apex_vortex import AlmostEmbeddableGraph, build_almost_embeddable
from ..graphs.clique_sum import CliqueSumDecomposition, clique_sum_compose
from ..graphs.lower_bound import lower_bound_graph
from ..graphs.minor_free import MinorFreeGraph, planar_plus_apex, sample_lk_graph
from ..graphs.native import native_grid
from ..graphs.planar import grid_graph
from ..graphs.treewidth import TreewidthWitness, random_partial_ktree
from ..shortcuts.apex import apex_shortcut_from_witness
from ..shortcuts.baseline import empty_shortcut, steiner_shortcut, whole_tree_shortcut
from ..shortcuts.clique_sum import clique_sum_shortcut
from ..shortcuts.congestion_capped import oblivious_shortcut
from ..shortcuts.genus_vortex import genus_vortex_shortcut
from ..shortcuts.minor_free import minor_free_shortcut
from ..shortcuts.planar import planar_shortcut, planarity
from ..shortcuts.shortcut import Shortcut
from ..shortcuts.treewidth import treewidth_shortcut
from ..structure.spanning import RootedTree
from .instances import ScenarioInstance

Parts = Sequence[frozenset]
ShortcutBuilder = Callable[[nx.Graph, RootedTree, Parts], Shortcut]


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilySpec:
    """One graph family: a builder plus default/tiny parameterisations.

    ``native_build``, when present, is the CSR-first twin of ``build``: it
    returns a :class:`ScenarioInstance` wrapping a
    :class:`~repro.core.GraphView` from :mod:`repro.graphs.native` instead
    of an ``nx.Graph``, which is what lets ``instantiate(native=True)``
    accept sizes the label path cannot (the S7 million-node gate).
    """

    name: str
    description: str
    build: Callable[..., ScenarioInstance]
    default_params: Mapping[str, object]
    tiny_params: Mapping[str, object]
    native_build: Callable[..., ScenarioInstance] | None = None

    def instantiate(
        self,
        params: Mapping[str, object] | None = None,
        seed: int = 0,
        native: bool = False,
    ) -> ScenarioInstance:
        merged = dict(self.default_params)
        if params:
            merged.update(params)
        if native:
            if self.native_build is None:
                raise ValueError(
                    f"family {self.name!r} has no native (CSR-first) builder"
                )
            return self.native_build(seed=seed, **merged)
        return self.build(seed=seed, **merged)


_FAMILIES: dict[str, FamilySpec] = {}


def register_family(spec: FamilySpec) -> FamilySpec:
    if spec.name in _FAMILIES:
        raise ValueError(f"family {spec.name!r} already registered")
    _FAMILIES[spec.name] = spec
    return spec


def family(name: str) -> FamilySpec:
    try:
        return _FAMILIES[name]
    except KeyError:
        raise KeyError(f"unknown family {name!r}; known: {sorted(_FAMILIES)}") from None


def family_names() -> list[str]:
    return sorted(_FAMILIES)


def _build_planar(seed: int = 0, side: int = 8) -> ScenarioInstance:
    return ScenarioInstance(
        "planar", {"side": side}, seed, grid_graph(side, side), witness=None
    )


def _build_planar_native(seed: int = 0, side: int = 8) -> ScenarioInstance:
    """CSR-first twin of :func:`_build_planar` (label-identical instance)."""
    return ScenarioInstance(
        "planar", {"side": side}, seed, native_grid(side, side), witness=None
    )


def _build_treewidth(seed: int = 0, n: int = 40, k: int = 3) -> ScenarioInstance:
    witness = random_partial_ktree(n, k, seed=seed)
    return ScenarioInstance("treewidth", {"n": n, "k": k}, seed, witness.graph, witness)


def _build_clique_sum(
    seed: int = 0,
    num_bags: int = 4,
    bag_side: int = 4,
    k: int = 3,
    tree_shape: str = "random",
) -> ScenarioInstance:
    components = [grid_graph(bag_side, bag_side) for _ in range(num_bags)]
    decomposition = clique_sum_compose(components, k=k, seed=seed, tree_shape=tree_shape)
    params = {"num_bags": num_bags, "bag_side": bag_side, "k": k, "tree_shape": tree_shape}
    return ScenarioInstance("clique_sum", params, seed, decomposition.graph, decomposition)


def _build_apex(seed: int = 0, rows: int = 7, cols: int = 7, apices: int = 1) -> ScenarioInstance:
    witness = planar_plus_apex(rows, cols, apices=apices, seed=seed)
    params = {"rows": rows, "cols": cols, "apices": apices}
    return ScenarioInstance("apex", params, seed, witness.graph, witness)


def _build_genus(
    seed: int = 0, g: int = 1, depth: int = 2, vortices: int = 1, side: int = 5
) -> ScenarioInstance:
    witness = build_almost_embeddable(
        q=0, g=g, k=depth, l=vortices, base_rows=side, base_cols=side, seed=seed
    )
    params = {"g": g, "depth": depth, "vortices": vortices, "side": side}
    return ScenarioInstance("genus", params, seed, witness.graph, witness)


def _build_minor_free(
    seed: int = 0, num_bags: int = 3, k: int = 3, bag_size: int = 20
) -> ScenarioInstance:
    witness = sample_lk_graph(num_bags=num_bags, k=k, bag_size=bag_size, seed=seed)
    params = {"num_bags": num_bags, "k": k, "bag_size": bag_size}
    return ScenarioInstance("minor_free", params, seed, witness.graph, witness)


def _build_lower_bound(seed: int = 0, num_paths: int = 4, path_length: int = 6) -> ScenarioInstance:
    witness = lower_bound_graph(num_paths, path_length)
    params = {"num_paths": num_paths, "path_length": path_length}
    return ScenarioInstance("lower_bound", params, seed, witness.graph, witness)


register_family(FamilySpec(
    name="planar",
    description="square grid (Theorem 4 substrate)",
    build=_build_planar,
    default_params={"side": 8},
    tiny_params={"side": 5},
    native_build=_build_planar_native,
))
register_family(FamilySpec(
    name="treewidth",
    description="random partial k-tree (Theorem 5 substrate)",
    build=_build_treewidth,
    default_params={"n": 40, "k": 3},
    tiny_params={"n": 18, "k": 2},
))
register_family(FamilySpec(
    name="clique_sum",
    description="k-clique-sum of grids with decomposition witness (Theorem 7)",
    build=_build_clique_sum,
    default_params={"num_bags": 4, "bag_side": 4, "k": 3, "tree_shape": "random"},
    tiny_params={"num_bags": 2, "bag_side": 3, "k": 2, "tree_shape": "random"},
))
register_family(FamilySpec(
    name="apex",
    description="planar grid plus apices with almost-embeddable witness (Theorem 8)",
    build=_build_apex,
    default_params={"rows": 7, "cols": 7, "apices": 1},
    tiny_params={"rows": 4, "cols": 4, "apices": 1},
))
register_family(FamilySpec(
    name="genus",
    description="apex-free almost-embeddable graph: genus surface plus vortices (Theorem 9)",
    build=_build_genus,
    default_params={"g": 1, "depth": 2, "vortices": 1, "side": 5},
    tiny_params={"g": 1, "depth": 2, "vortices": 1, "side": 4},
))
register_family(FamilySpec(
    name="minor_free",
    description="sampled member of L_k with clique-sum witness (Theorem 6)",
    build=_build_minor_free,
    default_params={"num_bags": 3, "k": 3, "bag_size": 20},
    tiny_params={"num_bags": 2, "k": 2, "bag_size": 10},
))
register_family(FamilySpec(
    name="lower_bound",
    description="Das-Sarma-style Omega(sqrt n) hard instance (general-graph baseline)",
    build=_build_lower_bound,
    default_params={"num_paths": 4, "path_length": 6},
    tiny_params={"num_paths": 3, "path_length": 4},
))


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstructorSpec:
    """One shortcut construction with its applicability predicate."""

    name: str
    description: str
    applicable: Callable[[ScenarioInstance], bool]
    build: Callable[[ScenarioInstance, RootedTree, Parts], Shortcut]

    def builder_for(self, instance: ScenarioInstance) -> ShortcutBuilder:
        """Return a ``(graph, tree, parts) -> Shortcut`` closure over the witness.

        The distributed algorithms re-invoke the builder once per phase with
        fresh parts; the closure pins the instance (and hence the structural
        witness) while letting the phase supply graph, tree and parts.

        A spec whose ``build`` carries ``uses_engine`` (the oblivious
        constructor) passes the flag through, so the array-native Boruvka
        loop can drive the construction engine on its per-phase part sets
        instead of materialising label fragments for the closure.
        """

        def build(graph: nx.Graph, tree: RootedTree, parts: Parts) -> Shortcut:
            return self.build(instance, tree, parts)

        build.uses_engine = bool(getattr(self.build, "uses_engine", False))
        return build


_CONSTRUCTORS: dict[str, ConstructorSpec] = {}


def register_constructor(spec: ConstructorSpec) -> ConstructorSpec:
    if spec.name in _CONSTRUCTORS:
        raise ValueError(f"constructor {spec.name!r} already registered")
    _CONSTRUCTORS[spec.name] = spec
    return spec


def constructor(name: str) -> ConstructorSpec:
    try:
        return _CONSTRUCTORS[name]
    except KeyError:
        raise KeyError(
            f"unknown constructor {name!r}; known: {sorted(_CONSTRUCTORS)}"
        ) from None


def constructor_names() -> list[str]:
    return sorted(_CONSTRUCTORS)


def applicable_constructors(instance: ScenarioInstance) -> list[str]:
    """Return the names of every registered constructor usable on ``instance``."""
    return [name for name in sorted(_CONSTRUCTORS) if _CONSTRUCTORS[name].applicable(instance)]


def _always(_instance: ScenarioInstance) -> bool:
    return True


register_constructor(ConstructorSpec(
    name="empty",
    description="no shortcut edges (the naive baseline)",
    applicable=_always,
    build=lambda inst, tree, parts: empty_shortcut(inst.graph, tree, parts),
))
register_constructor(ConstructorSpec(
    name="whole_tree",
    description="every part gets the whole spanning tree",
    applicable=_always,
    build=lambda inst, tree, parts: whole_tree_shortcut(inst.graph, tree, parts),
))
register_constructor(ConstructorSpec(
    name="steiner",
    description="per-part Steiner subtree of T",
    applicable=_always,
    build=lambda inst, tree, parts: steiner_shortcut(inst.graph, tree, parts),
))
def _oblivious_build(inst: ScenarioInstance, tree: RootedTree, parts: Parts) -> Shortcut:
    return oblivious_shortcut(inst.graph, tree, parts)


# The array-native Boruvka loop recognises this flag and drives the
# construction engine directly on its per-phase fragments; the result is
# pinned identical to calling the builder (the engine differential tests).
_oblivious_build.uses_engine = True

register_constructor(ConstructorSpec(
    name="oblivious",
    description="structure-oblivious congestion-capped search (HIZ16a)",
    applicable=_always,
    build=_oblivious_build,
))
def _planar_applicable(inst: ScenarioInstance) -> bool:
    if inst.native and inst.family == "planar":
        # Native grids are planar by construction; skipping the nx check
        # keeps the applicability probe array-only at million-node sizes.
        return True
    return planarity(inst.graph)


register_constructor(ConstructorSpec(
    name="planar",
    description="Theorem 4 planar construction (planar graphs only)",
    applicable=_planar_applicable,
    build=lambda inst, tree, parts: planar_shortcut(inst.graph, tree, parts),
))
register_constructor(ConstructorSpec(
    name="treewidth",
    description="Theorem 5 construction over a tree decomposition",
    applicable=lambda inst: isinstance(inst.witness, TreewidthWitness),
    build=lambda inst, tree, parts: treewidth_shortcut(inst.graph, tree, parts),
))
register_constructor(ConstructorSpec(
    name="clique_sum",
    description="Theorem 7 construction over the clique-sum witness",
    applicable=lambda inst: isinstance(inst.witness, CliqueSumDecomposition),
    build=lambda inst, tree, parts: clique_sum_shortcut(
        inst.graph, tree, parts, decomposition=inst.witness
    ),
))
register_constructor(ConstructorSpec(
    name="apex",
    description="Lemma 9/10 + Theorem 8 construction over the apex witness",
    applicable=lambda inst: isinstance(inst.witness, AlmostEmbeddableGraph)
    and bool(inst.witness.apices),
    build=lambda inst, tree, parts: apex_shortcut_from_witness(inst.witness, tree, parts),
))
register_constructor(ConstructorSpec(
    name="genus_vortex",
    description="Theorem 9 construction for apex-free almost-embeddable graphs",
    applicable=lambda inst: isinstance(inst.witness, AlmostEmbeddableGraph)
    and not inst.witness.apices,
    build=lambda inst, tree, parts: genus_vortex_shortcut(inst.witness, tree, parts),
))
register_constructor(ConstructorSpec(
    name="minor_free",
    description="Theorem 6 full excluded-minor pipeline over the L_k witness",
    applicable=lambda inst: isinstance(inst.witness, MinorFreeGraph),
    build=lambda inst, tree, parts: minor_free_shortcut(inst.witness, tree, parts),
))


# ---------------------------------------------------------------------------
# Algorithms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlgorithmSpec:
    """One runnable workload over (instance, shortcut builder).

    ``uses_parts`` tells the engine whether the runner consumes the scenario's
    part family; workloads that generate their own parts per phase (MST,
    min-cut) set it to False so the engine never derives an unused partition.

    The engine calls ``run(instance, tree, parts, builder, seed=...,
    simulator_cls=..., **algorithm_params)``; the built-in runners give
    ``simulator_cls`` no default, so its default lives in the engine alone.
    """

    name: str
    description: str
    run: Callable[..., dict]
    uses_parts: bool = True


_ALGORITHMS: dict[str, AlgorithmSpec] = {}


def register_algorithm(spec: AlgorithmSpec) -> AlgorithmSpec:
    if spec.name in _ALGORITHMS:
        raise ValueError(f"algorithm {spec.name!r} already registered")
    _ALGORITHMS[spec.name] = spec
    return spec


def algorithm(name: str) -> AlgorithmSpec:
    try:
        return _ALGORITHMS[name]
    except KeyError:
        raise KeyError(f"unknown algorithm {name!r}; known: {sorted(_ALGORITHMS)}") from None


def algorithm_names() -> list[str]:
    return sorted(_ALGORITHMS)


def _telemetry_summary(*results) -> dict[str, int]:
    """Summarise the per-round telemetry of one or more simulator runs."""
    return {
        "sim_rounds": sum(result.rounds for result in results),
        "sim_messages": sum(result.messages for result in results),
        "sim_words": sum(result.words for result in results),
        "sim_peak_active_nodes": max(
            (result.peak_active_nodes() for result in results), default=0
        ),
        "sim_active_node_rounds": sum(
            result.total_active_node_rounds() for result in results
        ),
    }


def _note_faults(record: dict, faults: FaultModel | None, fault_seed: int) -> None:
    """Stamp an *active* fault spec into a record.

    Fail-free runs (``faults`` absent or null) leave the record untouched, so
    golden records produced before the fault layer stay byte-identical.
    """
    if faults is not None and not faults.is_null:
        record["faults"] = faults.as_dict()
        record["fault_seed"] = fault_seed


def _run_quality(
    instance: ScenarioInstance,
    tree: RootedTree,
    parts: Parts,
    builder: ShortcutBuilder,
    seed: int = 0,
    *,
    simulator_cls: type[CongestSimulator],
    validate: bool = True,
    faults: FaultModel | None = None,
    fault_seed: int = 0,
) -> dict:
    """Shortcut construction is centralised; ``faults`` is recorded, not applied."""
    shortcut = builder(instance.graph, tree, parts)
    if validate:
        shortcut.validate()
    record = {"shortcut": shortcut.measure().as_row(), "constructor": shortcut.constructor}
    _note_faults(record, faults, fault_seed)
    return record


def _run_aggregate(
    instance: ScenarioInstance,
    tree: RootedTree,
    parts: Parts,
    builder: ShortcutBuilder,
    seed: int = 0,
    *,
    simulator_cls: type[CongestSimulator],
    faults: FaultModel | None = None,
    fault_seed: int = 0,
) -> dict:
    """Schedule-level aggregation has no node programs; ``faults`` is recorded only."""
    shortcut = builder(instance.graph, tree, parts)
    values = {node: (index * 31 + seed) % 97 for index, node in enumerate(
        sorted(instance.graph.nodes(), key=repr)
    )}
    result = partwise_aggregate(shortcut, values, combine=min)
    record = {
        "shortcut": shortcut.measure().as_row(),
        "aggregation_rounds": result.rounds,
        "aggregation_messages": result.messages,
    }
    _note_faults(record, faults, fault_seed)
    return record


def _run_mst(
    instance: ScenarioInstance,
    tree: RootedTree,
    parts: Parts,
    builder: ShortcutBuilder,
    seed: int = 0,
    *,
    simulator_cls: type[CongestSimulator],
    faults: FaultModel | None = None,
    fault_seed: int = 0,
) -> dict:
    """Distributed MST: simulated BFS-tree build + Boruvka + result broadcast.

    The BFS-tree construction and the final announcement run as genuine node
    programs under ``simulator_cls``; their wall-clock time is reported as
    ``sim_seconds`` (the quantity the speedup benchmark compares across
    simulator implementations) alongside the simulators' round telemetry.
    Both phases run on the weighted graph's :class:`~repro.core.GraphView`,
    which is what :class:`~repro.congest.runtime.RuntimeSimulator` (the
    scenario engine's default) needs to run its compiled programs.

    An active ``faults`` model runs both simulated phases under one seeded
    :class:`~repro.congest.faults.FaultSchedule`: the BFS build
    (:func:`~repro.congest.primitives.robust_bfs_tree`, the fail-free flood
    with no schedule) switches to its retry/ack flood (its graft-repair
    count is reported as ``bfs_repaired``) and the announcement to the
    fault-tolerant broadcast.  Fault-only record fields appear *only*
    in that case, so fail-free records are unchanged.
    """
    weighted = instance.weighted_graph(seed)
    network = view_of(weighted)
    root = network.nodes[0]
    schedule = None
    if faults is not None and not faults.is_null:
        schedule = FaultSchedule(faults, seed=fault_seed)
    started = time.perf_counter()
    sim_tree, bfs_stats, repaired = robust_bfs_tree(
        network, root, schedule, simulator_cls=simulator_cls
    )
    sim_seconds = time.perf_counter() - started
    result = boruvka_mst(weighted, shortcut_builder=builder, tree=sim_tree)
    started = time.perf_counter()
    announce_stats = broadcast_value(
        network, root, round(result.weight, 6),
        simulator_cls=simulator_cls, fault_schedule=schedule,
    )
    sim_seconds += time.perf_counter() - started
    if isinstance(weighted, GraphView):
        # scipy's minimum_spanning_tree is the nx-free oracle; it sums the
        # tree weights in a different order, so compare relatively.
        reference = native_mst_weight(weighted)
        matches = abs(result.weight - reference) <= 1e-9 * max(1.0, abs(reference))
    else:
        matches = abs(result.weight - reference_mst_weight(weighted)) < 1e-6
    record = {
        "mst_rounds": result.rounds,
        "mst_phases": result.phases,
        "mst_weight": result.weight,
        "weight_matches_reference": matches,
        "phase_qualities": list(result.phase_qualities),
        "sim_seconds": sim_seconds,
    }
    record.update(_telemetry_summary(bfs_stats, announce_stats))
    if schedule is not None:
        _note_faults(record, faults, fault_seed)
        record["bfs_repaired"] = repaired
        record["sim_dropped"] = bfs_stats.dropped + announce_stats.dropped
        record["sim_delayed"] = bfs_stats.delayed + announce_stats.delayed
        record["sim_duplicated"] = bfs_stats.duplicated + announce_stats.duplicated
        # Crash decisions are per node (same schedule drives both phases), so
        # the distinct crash count is the max over phases, not the sum.
        record["sim_crashed_nodes"] = max(
            bfs_stats.crashed_nodes, announce_stats.crashed_nodes
        )
        record["announce_reached"] = len(announce_stats.outputs)
    return record


def _run_mincut(
    instance: ScenarioInstance,
    tree: RootedTree,
    parts: Parts,
    builder: ShortcutBuilder,
    seed: int = 0,
    *,
    simulator_cls: type[CongestSimulator],
    epsilon: float = 1.0,
    low: float = 1.0,
    high: float = 100.0,
    faults: FaultModel | None = None,
    fault_seed: int = 0,
) -> dict:
    """Tree-packing min-cut is centralised; ``faults`` is recorded, not applied."""
    # The tree-packing min-cut is centralised label-space code: a native
    # instance's weighted view materialises its nx.Graph here, once.
    weighted = view_of(instance.weighted_graph(seed, low=low, high=high)).graph
    result = approximate_min_cut(weighted, epsilon=epsilon, shortcut_builder=builder, tree=tree)
    record = {
        "mincut_value": result.value,
        "mincut_exact": result.exact_value,
        "approximation_ratio": result.approximation_ratio,
        "mincut_rounds": result.rounds,
        "num_trees": result.num_trees,
    }
    _note_faults(record, faults, fault_seed)
    return record


register_algorithm(AlgorithmSpec(
    name="quality",
    description="construct the shortcut and measure congestion/block/quality",
    run=_run_quality,
))
register_algorithm(AlgorithmSpec(
    name="aggregate",
    description="part-wise min-aggregation over the shortcut (Theorem 1 primitive)",
    run=_run_aggregate,
))
register_algorithm(AlgorithmSpec(
    name="mst",
    description="distributed Boruvka MST with simulated BFS build + broadcast",
    run=_run_mst,
    uses_parts=False,
))
register_algorithm(AlgorithmSpec(
    name="mincut",
    description="(1+eps)-approximate min-cut via tree packing",
    run=_run_mincut,
    uses_parts=False,
))
