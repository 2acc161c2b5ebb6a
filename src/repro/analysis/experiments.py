"""One function per experiment of the reproduction.

The "Experiments" section of ``docs/paper_map.md`` lists them.

Every function returns a plain dict (JSON-friendly) containing the measured
quantities and the paper's corresponding target, so that the benchmark
drivers can simply print them and the golden records can pin them.  The
instance sizes default to values that run in a couple of seconds on a laptop;
the benchmark files pass larger sizes where useful.

The experiments are ported onto the scenario engine
(:mod:`repro.scenarios`): instances come from the family registry and
shortcuts from the constructor registry, so every experiment exercises the
same code paths as a declarative scenario sweep (and the golden-record
regression test pins the outputs so engine refactors cannot silently drift).
Bespoke set-ups with no registry counterpart -- the adversarial wheel, the
perturbed planar graph of E8, the Figure 1 constructions -- remain direct.
"""

from __future__ import annotations

import math
import time
from typing import Sequence

import networkx as nx

from ..algorithms.mincut import approximate_min_cut
from ..algorithms.mst import boruvka_mst, native_mst_weight, reference_mst_weight
from ..algorithms.mst_baselines import (
    gkp_reference_rounds,
    no_shortcut_builder,
    paper_reference_rounds,
)
from ..congest.faults import FaultModel
from ..congest.primitives import broadcast_value, distributed_bfs_tree
from ..congest.runtime import RuntimeSimulator
from ..congest.simulator import CongestSimulator
from ..core import nx_materializations, view_of
from ..graphs.apex_vortex import build_almost_embeddable
from ..graphs.clique_sum import clique_sum_compose
from ..graphs.minor_free import perturbed_planar_graph
from ..graphs.planar import grid_graph, is_planar, wheel_graph
from ..scenarios.engine import Scenario, build_instance, run_matrix, run_scenario, scenario_matrix
from ..scenarios.instances import InstanceCache
from ..scenarios.registry import constructor as scenario_constructor
from ..graphs.weights import assign_adversarial_weights
from ..shortcuts.apex import apex_shortcut, apex_shortcut_from_witness
from ..shortcuts.baseline import empty_shortcut, steiner_shortcut
from ..shortcuts.clique_sum import clique_sum_shortcut
from ..shortcuts.engine import ConstructionEngine
from ..shortcuts.minor_free import minor_free_quality_bounds
from ..shortcuts.parts import path_parts
from ..shortcuts.planar import planar_quality_bounds
from ..structure.cell_assignment import compute_cell_assignment
from ..structure.cells import cells_from_tree_without_apices
from ..structure.gates import planar_gates, trivial_gates, validate_gates
from ..structure.spanning import bfs_spanning_tree, graph_diameter
from ..structure.tree_decomposition import genus_vortex_decomposition
from .quality import fit_growth_exponent


def experiment_planar_quality(sides: Sequence[int] = (6, 10, 14, 18)) -> dict:
    """E1 -- Theorem 4: planar shortcut quality versus diameter.

    Sweeps square grids (diameter ``2(side-1)``), measures the planar
    constructor's block/congestion/quality on path-shaped parts, and fits the
    growth exponent of quality versus tree diameter (target: ~1 up to logs).
    """
    planar = scenario_constructor("planar")
    rows = []
    diameters = []
    qualities = []
    for side in sides:
        instance = build_instance("planar", {"side": side})
        parts = instance.parts("path")
        shortcut = planar.build(instance, instance.tree, parts)
        measure = shortcut.measure()
        bounds = planar_quality_bounds(measure.tree_diameter)
        rows.append(
            {
                "side": side,
                "n": instance.graph.number_of_nodes(),
                "tree_diameter": measure.tree_diameter,
                "block": measure.block,
                "congestion": measure.congestion,
                "quality": measure.quality,
                "target_quality": bounds["quality"],
            }
        )
        diameters.append(measure.tree_diameter)
        qualities.append(measure.quality)
    return {
        "experiment": "E1-planar-quality",
        "rows": rows,
        "quality_vs_diameter_exponent": fit_growth_exponent(diameters, qualities),
        "paper_target_exponent": 1.0,
    }


def experiment_treewidth_quality(
    widths: Sequence[int] = (2, 3, 4), n: int = 60, seed: int = 7
) -> dict:
    """E2 -- Theorem 5: treewidth-k shortcut quality versus k."""
    treewidth = scenario_constructor("treewidth")
    rows = []
    for width in widths:
        instance = build_instance("treewidth", {"n": n, "k": width}, seed=seed + width)
        parts = instance.parts("tree_fragments", num_parts=8, seed=seed + width)
        shortcut = treewidth.build(instance, instance.tree, parts)
        measure = shortcut.measure()
        log_n = math.log2(instance.graph.number_of_nodes() + 2)
        rows.append(
            {
                "k": width,
                "n": instance.graph.number_of_nodes(),
                "block": measure.block,
                "congestion": measure.congestion,
                "quality": measure.quality,
                "target_block": float(width + 1),
                "target_congestion": (width + 1) * log_n**2,
            }
        )
    return {"experiment": "E2-treewidth-quality", "rows": rows}


def experiment_clique_sum(
    num_bags: int = 8, bag_side: int = 5, k: int = 3, seed: int = 11
) -> dict:
    """E3 -- Theorem 7: clique-sum composition with and without folding.

    Builds a deliberately path-shaped decomposition tree (worst case for the
    depth-dependent Lemma 1 congestion) and compares the folded and unfolded
    constructions, plus the per-bag quality for reference.
    """
    instance = build_instance(
        "clique_sum",
        {"num_bags": num_bags, "bag_side": bag_side, "k": k, "tree_shape": "path"},
        seed=seed,
    )
    decomposition = instance.witness
    tree = instance.tree
    parts = instance.parts("tree_fragments", num_parts=10, seed=seed)
    folded = scenario_constructor("clique_sum").build(instance, tree, parts)
    unfolded = clique_sum_shortcut(
        instance.graph, tree, parts, decomposition=decomposition, fold=False
    )
    baseline = scenario_constructor("oblivious").build(instance, tree, parts)
    return {
        "experiment": "E3-clique-sum",
        "decomposition_depth": decomposition.depth(),
        "num_bags": num_bags,
        "folded": folded.measure().as_row(),
        "unfolded": unfolded.measure().as_row(),
        "oblivious_baseline": baseline.measure().as_row(),
    }


def experiment_apex(cycle_size: int = 64, grid_side: int = 10, seed: int = 13) -> dict:
    """E4 -- Lemma 9 / Theorem 8: the apex collapses the diameter, shortcuts adapt.

    Two instances: the wheel (cycle plus hub, the paper's running example)
    with the outer cycle as a single part, and a grid plus apex with
    path-shaped parts.  Reports the naive (empty-shortcut) quality, the apex
    construction's quality, and the diameter before/after adding the apex.
    """
    wheel = wheel_graph(cycle_size)
    hub = max(wheel.nodes(), key=lambda v: wheel.degree(v))
    tree = bfs_spanning_tree(wheel, root=hub)
    outer = frozenset(set(wheel.nodes()) - {hub})
    apex = apex_shortcut(wheel, tree, [outer], apices=[hub])
    naive = empty_shortcut(wheel, tree, [outer])

    instance = build_instance(
        "apex", {"rows": grid_side, "cols": grid_side, "apices": 1}, seed=seed
    )
    witness = instance.witness
    grid_tree = instance.tree
    parts = instance.parts("path")
    grid_apex = scenario_constructor("apex").build(instance, grid_tree, parts)
    cells = cells_from_tree_without_apices(grid_tree, witness.apices)
    assignment = compute_cell_assignment(parts, cells)
    return {
        "experiment": "E4-apex",
        "wheel": {
            "cycle_size": cycle_size,
            "diameter_without_apex": cycle_size // 2,
            "diameter_with_apex": graph_diameter(wheel),
            "naive_quality": naive.quality(),
            "apex_quality": apex.quality(),
        },
        "grid_plus_apex": {
            "n": instance.graph.number_of_nodes(),
            "quality": grid_apex.measure().as_row(),
            "num_cells": len(cells),
            "cell_assignment_beta": assignment.beta,
            "cell_assignment_max_skipped": assignment.max_skipped,
        },
    }


def experiment_minor_free_quality(
    bag_counts: Sequence[int] = (3, 5, 7), k: int = 3, bag_size: int = 25, seed: int = 17
) -> dict:
    """E5 -- Theorem 6: quality on sampled L_k graphs versus the O~(d^2) target."""
    minor_free = scenario_constructor("minor_free")
    rows = []
    diameters = []
    qualities = []
    for num_bags in bag_counts:
        instance = build_instance(
            "minor_free",
            {"num_bags": num_bags, "k": k, "bag_size": bag_size},
            seed=seed + num_bags,
        )
        sample = instance.witness
        parts = instance.parts("tree_fragments", num_parts=2 * num_bags, seed=seed)
        shortcut = minor_free.build(instance, instance.tree, parts)
        measure = shortcut.measure()
        bounds = minor_free_quality_bounds(measure.tree_diameter, sample.number_of_nodes)
        rows.append(
            {
                "num_bags": num_bags,
                "n": sample.number_of_nodes,
                "tree_diameter": measure.tree_diameter,
                "block": measure.block,
                "congestion": measure.congestion,
                "quality": measure.quality,
                "target_block": bounds["block"],
                "target_congestion": bounds["congestion"],
                "target_quality": bounds["quality"],
            }
        )
        diameters.append(measure.tree_diameter)
        qualities.append(measure.quality)
    return {
        "experiment": "E5-minor-free-quality",
        "rows": rows,
        "quality_vs_diameter_exponent": fit_growth_exponent(diameters, qualities),
        "paper_target_exponent_upper": 2.0,
    }


def experiment_mst_rounds(
    grid_side: int = 10,
    lower_bound_paths: int = 8,
    lower_bound_length: int = 8,
    seed: int = 19,
) -> dict:
    """E6 -- Corollary 1: MST rounds on excluded-minor versus general graphs.

    Compares (i) a planar+apex network (excluded minor, tiny diameter) under
    the shortcut-accelerated MST and the no-shortcut baseline, and (ii) the
    lower-bound-style graph where any strategy degrades towards sqrt(n).
    Also reports the analytic reference curves the paper compares against.
    """
    instance = build_instance(
        "apex", {"rows": grid_side, "cols": grid_side, "apices": 1}, seed=seed
    )
    graph = instance.weighted_graph(seed)
    tree = instance.tree
    diameter = graph_diameter(graph)

    apex_builder = scenario_constructor("apex").builder_for(instance)
    accelerated = boruvka_mst(graph, shortcut_builder=apex_builder, tree=tree)
    naive = boruvka_mst(graph, shortcut_builder=no_shortcut_builder, tree=tree)
    reference_weight = reference_mst_weight(graph)

    hard_instance = build_instance(
        "lower_bound", {"num_paths": lower_bound_paths, "path_length": lower_bound_length}
    )
    hard_graph = hard_instance.weighted_graph(seed + 1)
    hard_diameter = graph_diameter(hard_graph)
    hard_run = boruvka_mst(hard_graph, shortcut_builder=no_shortcut_builder)

    # The separation is most visible when MST fragments are much longer than
    # the graph diameter: the wheel with adversarial weights (Section 1.3.3).
    wheel = wheel_graph(6 * grid_side)
    hub = max(wheel.nodes(), key=lambda v: wheel.degree(v))
    spine = sorted(set(wheel.nodes()) - {hub})
    assign_adversarial_weights(wheel, spine=spine, seed=seed)
    wheel_tree = bfs_spanning_tree(wheel, root=hub)

    def wheel_builder(g, t, parts):
        return apex_shortcut(g, t, parts, apices=[hub])

    wheel_accelerated = boruvka_mst(wheel, shortcut_builder=wheel_builder, tree=wheel_tree)
    wheel_naive = boruvka_mst(wheel, shortcut_builder=no_shortcut_builder, tree=wheel_tree)

    return {
        "experiment": "E6-mst-rounds",
        "wheel_adversarial": {
            "n": wheel.number_of_nodes(),
            "diameter": 2,
            "accelerated_rounds": wheel_accelerated.rounds,
            "naive_rounds": wheel_naive.rounds,
            "accelerated_wins": wheel_accelerated.rounds < wheel_naive.rounds,
        },
        "planar_plus_apex": {
            "n": graph.number_of_nodes(),
            "diameter": diameter,
            "accelerated_rounds": accelerated.rounds,
            "naive_rounds": naive.rounds,
            "weight_matches_reference": abs(accelerated.weight - reference_weight) < 1e-6,
            "paper_reference_D2": paper_reference_rounds(diameter, graph.number_of_nodes()),
            "general_graph_reference_sqrt_n": gkp_reference_rounds(
                graph.number_of_nodes(), diameter
            ),
        },
        "lower_bound_graph": {
            "n": hard_graph.number_of_nodes(),
            "diameter": hard_diameter,
            "rounds": hard_run.rounds,
            "general_graph_reference_sqrt_n": gkp_reference_rounds(
                hard_graph.number_of_nodes(), hard_diameter
            ),
        },
    }


def experiment_mincut(grid_side: int = 8, epsilon: float = 1.0, seed: int = 23) -> dict:
    """E7 -- Corollary 1: (1+eps)-approximate min-cut accuracy and rounds."""
    instance = build_instance(
        "apex", {"rows": grid_side, "cols": grid_side, "apices": 1}, seed=seed
    )
    graph = instance.weighted_graph(seed, low=1, high=10)
    result = approximate_min_cut(
        graph,
        epsilon=epsilon,
        shortcut_builder=scenario_constructor("apex").builder_for(instance),
        tree=instance.tree,
    )
    return {
        "experiment": "E7-mincut",
        "n": graph.number_of_nodes(),
        "epsilon": epsilon,
        "approx_value": result.value,
        "exact_value": result.exact_value,
        "approximation_ratio": result.approximation_ratio,
        "rounds": result.rounds,
        "num_trees": result.num_trees,
    }


def experiment_robustness(grid_side: int = 9, extra_edges: int = 4, seed: int = 29) -> dict:
    """E8 -- Robustness: perturbed planar graphs stay excluded-minor-friendly.

    A planar grid with a few random edges and an apex is generally not planar
    (so Theorem 4 machinery is inapplicable), yet the apex/minor-free
    construction still produces good shortcuts -- which is the introduction's
    argument for studying excluded minors rather than planarity.
    """
    graph, witness = perturbed_planar_graph(
        grid_side, grid_side, extra_edges=extra_edges, extra_apices=1, seed=seed
    )
    tree = bfs_spanning_tree(graph)
    parts = path_parts(graph, tree)
    still_planar = is_planar(graph)
    apex = apex_shortcut_from_witness(witness, tree, parts)
    fallback = steiner_shortcut(graph, tree, parts)
    return {
        "experiment": "E8-robustness",
        "n": graph.number_of_nodes(),
        "still_planar": still_planar,
        "planar_construction_applicable": still_planar,
        "apex_quality": apex.measure().as_row(),
        "steiner_quality": fallback.measure().as_row(),
    }


def experiment_fault_degradation(
    side: int = 7,
    rates: Sequence[float] = (0.0, 0.01, 0.05),
    kinds: Sequence[str] = ("drop", "delay", "crash"),
    seed: int = 41,
    fault_seed: int = 7,
) -> dict:
    """E8 -- graceful degradation: the simulated MST phases under seeded faults.

    Sweeps every built-in fault ``kind`` over the fault ``rates`` on the
    planar MST scenario (BFS build + announcement run as genuine node
    programs; see :func:`repro.scenarios.registry._run_mst`).  Two contracts
    are asserted, not just measured:

    * **rate 0 is free**: a null model is normalised away, so the rate-0
      cell must reproduce the fail-free record byte-for-byte;
    * **mode independence**: for the highest rate of each kind the record
      is re-computed under the vectorized runtime simulator and must match
      the active-set record exactly (the fault layer's mode equality
      contract).

    The returned rows form the degradation trajectory the E8 benchmark
    appends to ``benchmarks/BENCH_E8.json``: message overhead (retries),
    repaired tree edges and announcement coverage as the fault rate grows.
    """
    scenario = Scenario(
        name="fault-degradation",
        family="planar",
        constructor="steiner",
        algorithm="mst",
        params={"side": side},
        seed=seed,
    )
    cache = InstanceCache()

    def record_for(model: FaultModel | None, simulator_cls=CongestSimulator) -> dict:
        record = run_scenario(
            scenario,
            cache=cache,
            simulator_cls=simulator_cls,
            faults=model,
            fault_seed=fault_seed,
        ).as_dict()
        record["result"].pop("sim_seconds", None)  # wall-clock is not contractual
        return record

    baseline = record_for(None)
    n = baseline["instance"]["n"]
    rate_zero_ok = True
    modes_ok = True
    rows = []
    for kind in kinds:
        for rate in rates:
            model = FaultModel.preset(kind, rate=rate)
            record = record_for(model)
            if model.is_null:
                rate_zero_ok = rate_zero_ok and record == baseline
            elif rate == max(rates):
                modes_ok = modes_ok and record_for(model, RuntimeSimulator) == record
            result = record["result"]
            rows.append({
                "kind": kind,
                "rate": rate,
                "sim_rounds": result["sim_rounds"],
                "sim_messages": result["sim_messages"],
                "message_overhead": result["sim_messages"] / baseline["result"]["sim_messages"],
                "dropped": result.get("sim_dropped", 0),
                "delayed": result.get("sim_delayed", 0),
                "duplicated": result.get("sim_duplicated", 0),
                "crashed_nodes": result.get("sim_crashed_nodes", 0),
                "bfs_repaired": result.get("bfs_repaired", 0),
                "announce_reached": result.get("announce_reached", n),
                "weight_matches_reference": result["weight_matches_reference"],
                "matches_fail_free": result == baseline["result"],
            })
    return {
        "experiment": "E8-fault-degradation",
        "n": n,
        "rates": list(rates),
        "kinds": list(kinds),
        "fault_seed": fault_seed,
        "baseline_sim_messages": baseline["result"]["sim_messages"],
        "baseline_sim_rounds": baseline["result"]["sim_rounds"],
        "rate_zero_matches_fail_free": rate_zero_ok,
        "modes_equal": modes_ok,
        "rows": rows,
    }


def experiment_genus_vortex_treewidth(
    sides: Sequence[int] = (5, 7, 9), genus: int = 1, depth: int = 2, vortices: int = 1, seed: int = 31
) -> dict:
    """E9 -- Lemma 2/3: Genus+Vortex treewidth scales with (g+1) k l D."""
    rows = []
    for side in sides:
        instance = build_instance(
            "genus",
            {"g": genus, "depth": depth, "vortices": vortices, "side": side},
            seed=seed + side,
        )
        witness = instance.witness
        decomposition = genus_vortex_decomposition(witness)
        graph = witness.non_apex_graph()
        diameter = graph_diameter(graph)
        target = (genus + 1) * depth * max(1, vortices) * diameter
        rows.append(
            {
                "side": side,
                "n": graph.number_of_nodes(),
                "diameter": diameter,
                "measured_width": decomposition.width,
                "target_width": target,
                "within_target": decomposition.width <= target,
            }
        )
    return {"experiment": "E9-genus-vortex-treewidth", "rows": rows}


def experiment_cells_and_gates(grid_side: int = 10, seed: int = 37) -> dict:
    """E10 -- Lemmas 4-7: cell assignment beta and combinatorial gate size."""
    instance = build_instance(
        "apex", {"rows": grid_side, "cols": grid_side, "apices": 1}, seed=seed
    )
    witness = instance.witness
    tree = instance.tree
    surface = witness.non_apex_graph()
    cells = cells_from_tree_without_apices(tree, witness.apices)
    parts = path_parts(surface)
    assignment = compute_cell_assignment(parts, cells)
    trivial = trivial_gates(surface, cells)
    s_trivial = validate_gates(surface, trivial)
    refined = planar_gates(surface, cells)
    s_refined = validate_gates(surface, refined)
    cell_diameter = max(cells.measured_diameters(surface), default=0)
    return {
        "experiment": "E10-cells-gates",
        "num_cells": len(cells),
        "num_parts": len(parts),
        "cell_diameter": cell_diameter,
        "beta": assignment.beta,
        "beta_target_O_d": cell_diameter,
        "max_skipped": assignment.max_skipped,
        "gate_s_trivial": s_trivial,
        "gate_s_refined": s_refined,
        "gate_s_target_O_d": 36 * max(1, cell_diameter),
    }


def experiment_constructions(seed: int = 41) -> dict:
    """F1 -- Figure 1: apex, vortex and clique-sum constructions as illustrated."""
    almost = build_almost_embeddable(q=1, g=0, k=2, l=1, base_rows=6, base_cols=6, seed=seed)
    grid_a = grid_graph(4, 4)
    grid_b = grid_graph(4, 4)
    composition = clique_sum_compose([grid_a, grid_b], k=3, seed=seed)
    q, g, k, l = almost.parameters
    return {
        "experiment": "F1-constructions",
        "almost_embeddable": {
            "q": q,
            "g": g,
            "k": k,
            "l": l,
            "n": almost.graph.number_of_nodes(),
            "apices": len(almost.apices),
            "vortex_internal_nodes": len(almost.vortex_nodes()),
        },
        "clique_sum": {
            "bags": len(composition.bags),
            "shared_clique_size": composition.max_partial_clique_size(),
            "n": composition.graph.number_of_nodes(),
        },
    }


def experiment_scenario_matrix(
    size: str = "tiny",
    algorithm: str = "quality",
    seed: int = 0,
    families: Sequence[str] | None = None,
    constructors: Sequence[str] | None = None,
    num_parts: int = 6,
) -> dict:
    """S1 -- the full scenario matrix: every family x applicable constructor.

    This is the "as many scenarios as you can imagine" sweep of the ROADMAP,
    run through one declarative entry point; the benchmark smoke runs it on
    tiny sizes, and ``python -m repro.scenarios`` exposes the same sweep on
    the command line.
    """
    cache = InstanceCache()
    scenarios = scenario_matrix(
        families=families,
        constructors=constructors,
        algorithm_name=algorithm,
        size=size,
        seed=seed,
        parts={"kind": "tree_fragments", "num_parts": num_parts},
        cache=cache,
    )
    records = run_matrix(scenarios, cache=cache)
    per_family: dict[str, int] = {}
    for record in records:
        if record["applicable"]:
            per_family[record["family"]] = per_family.get(record["family"], 0) + 1
    return {
        "experiment": "S1-scenario-matrix",
        "size": size,
        "algorithm": algorithm,
        "num_records": len(records),
        "constructors_per_family": dict(sorted(per_family.items())),
        "instance_cache": {"instances": len(cache), "hits": cache.hits, "misses": cache.misses},
        "records": records,
    }


def experiment_runtime_speedup(
    side: int = 30, seed: int = 19, constructor: str = "empty", repeats: int = 3
) -> dict:
    """S6 -- vectorized runtime versus the per-node core mode on a grid MST.

    Runs the same MST scenario (simulated BFS-tree construction, Boruvka
    phases, simulated result broadcast) on a ``side x side`` grid twice:
    once under the per-node active-set :class:`CongestSimulator` in core
    mode (the previous fastest mode) and once under the vectorized
    :class:`~repro.congest.runtime.RuntimeSimulator`, whose compiled batch
    programs advance whole frontiers per round on flat arrays.  Both arms
    must agree on *every* measured quantity -- MST rounds/phases/weight and
    the full simulated-phase telemetry (rounds, messages, words, peak
    active nodes, active-node-rounds) -- and the record reports the
    wall-clock ratio of the end-to-end simulated phases (``sim_seconds``,
    best of ``repeats`` per arm), which
    ``benchmarks/bench_runtime_speedup.py`` gates at >=3x.
    """
    cache = InstanceCache()
    # Warm the shared cache (instance, spanning tree, weighted copy and its
    # GraphView) so neither timed arm pays for one-off derivations.
    warm = build_instance("planar", {"side": side}, seed=seed, cache=cache)
    view_of(warm.weighted_graph(seed))
    scenario = Scenario(
        name=f"planar/{constructor}/mst",
        family="planar",
        constructor=constructor,
        algorithm="mst",
        params={"side": side},
        seed=seed,
    )

    def run(simulator_cls) -> dict:
        best: dict | None = None
        for _ in range(max(1, repeats)):
            started = time.perf_counter()
            record = run_scenario(scenario, cache=cache, simulator_cls=simulator_cls)
            total = time.perf_counter() - started
            result = dict(record.as_dict()["result"])
            result["total_seconds"] = total
            if best is None or result["sim_seconds"] < best["sim_seconds"]:
                best = result
        return best

    core = run(CongestSimulator)
    runtime = run(RuntimeSimulator)
    telemetry_keys = (
        "mst_rounds",
        "mst_phases",
        "mst_weight",
        "sim_rounds",
        "sim_messages",
        "sim_words",
        "sim_peak_active_nodes",
        "sim_active_node_rounds",
    )
    agree = all(core[key] == runtime[key] for key in telemetry_keys)
    report_keys = ("mst_rounds", "sim_rounds", "sim_seconds", "total_seconds")
    return {
        "experiment": "S6-runtime-speedup",
        "n": side * side,
        "constructor": constructor,
        "runtime": {key: runtime[key] for key in report_keys},
        "core": {key: core[key] for key in report_keys},
        "results_agree": agree,
        "sim_speedup": core["sim_seconds"] / max(runtime["sim_seconds"], 1e-9),
        "total_speedup": core["total_seconds"] / max(runtime["total_seconds"], 1e-9),
    }


def experiment_native_scale(
    side: int = 1000,
    seed: int = 7,
    num_parts: int = 64,
    shortcut_budget: int = 16,
) -> dict:
    """S7 -- the CSR-native instance pipeline at million-node scale, nx-free.

    Builds a ``side x side`` grid straight into CSR form through the scenario
    registry's native builder (``build_instance(..., native=True)``), then
    pushes the one instance through every layer the engine composes: BFS
    spanning tree, tree-fragment parts, :class:`ConstructionEngine` quality
    sweep + shortcut build, hashed-weight engine MST checked against the
    scipy oracle, and the vectorized-runtime BFS + broadcast simulation.
    No ``nx.Graph`` may ever materialise -- the record carries the adapter's
    materialisation delta so ``benchmarks/bench_s7_scale.py`` can gate it at
    zero alongside the wall-clock and peak-RSS budgets.  Every row carries
    ``schema`` so the trajectory file can shed rows from older layouts.
    """
    import resource

    nx_before = nx_materializations()
    started = time.perf_counter()

    t0 = time.perf_counter()
    instance = build_instance("planar", {"side": side}, seed=seed, native=True)
    view = instance.view
    build_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    tree = instance.tree
    tree_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    part_set = instance.part_set("tree_fragments", num_parts=num_parts, seed=seed)
    parts_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    engine = ConstructionEngine(view, tree, part_set=part_set)
    quality = engine.quality_sweep([shortcut_budget])[shortcut_budget]
    engine.build_shortcut(shortcut_budget)
    shortcut_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    weighted = instance.weighted_graph(seed)
    mst = boruvka_mst(weighted, tree=tree)
    mst_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    oracle = native_mst_weight(weighted)
    oracle_seconds = time.perf_counter() - t0

    root = min(view.nodes, key=repr)
    t0 = time.perf_counter()
    bfs_tree, bfs_stats = distributed_bfs_tree(
        view, root, simulator_cls=RuntimeSimulator
    )
    bfs_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    broadcast_stats = broadcast_value(
        view, root, round(mst.weight, 6), simulator_cls=RuntimeSimulator
    )
    broadcast_seconds = time.perf_counter() - t0

    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "schema": "s7-native-scale/1",
        "experiment": "S7-native-scale",
        "side": side,
        "n": view.core.num_nodes,
        "m": view.core.num_edges,
        "seed": seed,
        "num_parts": num_parts,
        "shortcut_budget": shortcut_budget,
        "build_seconds": build_seconds,
        "tree_seconds": tree_seconds,
        "tree_height": tree.height,
        "parts_seconds": parts_seconds,
        "shortcut_seconds": shortcut_seconds,
        "shortcut_quality": quality,
        "mst_seconds": mst_seconds,
        "mst_rounds": mst.rounds,
        "mst_phases": mst.phases,
        "mst_weight": mst.weight,
        "mst_weight_matches_oracle": bool(
            abs(mst.weight - oracle) <= 1e-9 * max(1.0, abs(oracle))
        ),
        "oracle_seconds": oracle_seconds,
        "bfs_seconds": bfs_seconds,
        "bfs_rounds": bfs_stats.rounds,
        "bfs_tree_height": bfs_tree.height,
        "broadcast_seconds": broadcast_seconds,
        "broadcast_rounds": broadcast_stats.rounds,
        "nx_materializations": nx_materializations() - nx_before,
        "peak_rss_mib": peak_rss_mib,
        "total_seconds": time.perf_counter() - started,
    }
