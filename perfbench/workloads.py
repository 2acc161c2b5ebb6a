"""The benchmark's workloads: how each one sets up, runs one op and checks it.

Every workload is a closed loop on one thread: :func:`run.main` calls
``setup`` (timed as ``setup_s``), then ``prepare`` (untimed: expected
outputs for the checks), then ``op`` repeatedly.  ``op`` returns an
:class:`Outcome` holding the problems its output check found (empty when
the op is correct) and the op's deterministic counters, which repeat
exactly for a given seed on any machine.

The seed drives every input: the edge-weight seed, the fault seed, the
convergecast values and the family generators' seed.

The scipy modules the program imports lazily (``scipy.spatial`` for the
Delaunay bags some minor-free seeds draw, ``scipy.sparse.csgraph`` for the
MST oracle) are imported up front, so ``peak_rss_mib`` does not depend on
whether a seed happens to reach them.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable

import scipy.sparse.csgraph  # noqa: F401
import scipy.spatial  # noqa: F401

from repro.algorithms.mst import native_mst_weight
from repro.congest import primitives
from repro.congest.faults import FaultQueue, FaultSchedule, parse_fault_spec
from repro.congest.runtime import RuntimeSimulator
from repro.congest.simulator import CongestSimulator
from repro.scenarios.engine import Scenario, build_instance, run_matrix, run_scenario
from repro.scenarios.instances import InstanceCache

MODES = (("core", CongestSimulator), ("runtime", RuntimeSimulator))
# Message faults are drawn from the seed.  Crashes are pinned instead: one
# node crashes in round CRASH_ROUND at each of CRASH_DEPTHS (fractions of the
# grid side, as BFS depth from the corner root).  Randomly drawn crashes
# (crash=0.001:16) moved the convergecast between 104 and 918 timeout-bound
# rounds from seed to seed on a 50x50 grid, which no run-to-run bound can
# absorb; a pinned depth keeps the crash-stop, graft-repair and timeout
# paths on every op at a fixed cost.
FAULT_SPEC = "drop=0.01,delay=0.01:3,dup=0.01"
CRASH_DEPTHS = (0.5, 1.0, 1.5)
CRASH_ROUND = 3


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)

    def expect(self, holds: bool, problem: str) -> None:
        if not holds:
            self.problems.append(problem)


@dataclass(frozen=True)
class Workload:
    name: str
    params: dict
    setup: Callable  # (seed, tracer) -> state
    prepare: Callable  # (state) -> None, untimed
    op: Callable  # (state) -> Outcome
    fail_free_messages: Callable | None = None  # (state) -> int, for goodput


def _build(family, params, seed, tracer, cache=None, native=False):
    """build_instance + weighted copy + BFS spanning tree: the set-up layers."""
    with tracer.span("graphs.build"):
        instance = build_instance(family, params, seed, cache, native=native)
    with tracer.span("graphs.weights"):
        weighted = instance.weighted_graph(seed)
    with tracer.span("structure.spanning.bfs_tree"):
        instance.tree
    return instance, weighted


# -- grid-mst and family-mst -------------------------------------------------
#
# One MST op covers k instances per cell, drawn from the sub-seeds
# k*seed ... k*seed + k - 1 (k = "instances_per_op").  The number of Boruvka
# phases of one instance moves with its weights (6 or 7 on one grid), which
# moves its round count by ~20 % from seed to seed; summing over several
# instances keeps the op's counters within their bounds across seeds.

GRID_MST = {
    "family": "planar", "side": 40, "constructor": "oblivious", "native": True,
    "instances_per_op": 4,
}
FAMILY_CELLS = (
    ("planar", "planar", {"side": 12}),
    ("treewidth", "treewidth", {"n": 100, "k": 3}),
    ("clique_sum", "clique_sum", {"num_bags": 6, "bag_side": 5, "k": 3}),
    ("apex", "apex", {"rows": 12, "cols": 12, "apices": 1}),
    ("genus", "genus_vortex", {"side": 10}),
    ("minor_free", "minor_free", {"num_bags": 4, "bag_size": 30, "k": 3}),
)
FAMILY_MST = {"cells": [list(cell) for cell in FAMILY_CELLS], "instances_per_op": 2}


def _mst_setup(cells, count, native):
    def setup(seed, tracer):
        cache = InstanceCache()
        scenarios, weighted = [], []
        for sub_seed in range(count * seed, count * seed + count):
            for family, constructor, params in cells:
                _, graph = _build(family, params, sub_seed, tracer, cache, native=native)
                weighted.append(graph)
                scenarios.append(Scenario(
                    name=f"{family}/{constructor}/mst", family=family,
                    constructor=constructor, algorithm="mst", params=params,
                    seed=sub_seed, native=native,
                ))
        return {"cache": cache, "scenarios": scenarios, "weighted": weighted}

    return setup


def _grid_mst_prepare(state):
    state["expected"] = [native_mst_weight(graph) for graph in state["weighted"]]


def _grid_mst_op(state):
    outcome = Outcome()
    results = []
    for scenario, graph, expected in zip(
        state["scenarios"], state["weighted"], state["expected"]
    ):
        result = run_scenario(scenario, cache=state["cache"]).result
        results.append(result)
        n = len(graph)
        outcome.expect(
            abs(result["mst_weight"] - expected) <= 1e-9 * max(1.0, abs(expected)),
            f"seed {scenario.seed}: MST weight {result['mst_weight']} != oracle {expected}",
        )
        outcome.expect(
            result["mst_phases"] <= math.ceil(math.log2(n)) + 2,
            f"seed {scenario.seed}: {result['mst_phases']} Boruvka phases for n={n}",
        )
    outcome.counters = _mst_counters(results)
    return outcome


def _family_mst_op(state):
    records = run_matrix(state["scenarios"], cache=state["cache"], jobs=1)
    outcome = Outcome()
    for record in records:
        name = f"{record['scenario']} seed {record['seed']}"
        outcome.expect(record["applicable"], f"{name} not applicable")
        outcome.expect(
            record["result"].get("weight_matches_reference") is True,
            f"{name}: MST weight != reference",
        )
    outcome.counters = _mst_counters([record["result"] for record in records])
    return outcome


def _mst_counters(results):
    return {
        "sim_rounds": sum(r["mst_rounds"] + r["sim_rounds"] for r in results),
        "sim_messages": sum(r["sim_messages"] for r in results),
        "shortcut_quality": sum(sum(r["phase_qualities"]) for r in results),
        "mst_phases": sum(r["mst_phases"] for r in results),
    }


# -- grid-sim and grid-sim-faulty ----------------------------------------------

GRID_SIM = {"family": "planar", "side": 80, "native": True}
GRID_SIM_FAULTY = {
    "family": "planar", "side": 30, "native": True, "faults": FAULT_SPEC,
    "crash_depths": list(CRASH_DEPTHS), "crash_round": CRASH_ROUND,
}


def _sim_setup(side):
    def setup(seed, tracer):
        instance, network = _build("planar", {"side": side}, seed, tracer, native=True)
        return {"seed": seed, "side": side, "instance": instance, "network": network}

    return setup


def _sim_prepare(state):
    network = state["network"]
    rng = random.Random(state["seed"])
    state["root"] = min(network.nodes, key=repr)
    state["values"] = {node: rng.randrange(1 << 30) for node in network.nodes}
    state["minimum"] = min(state["values"].values())


def _faulty_prepare(state):
    """Pin the crashes: the lowest-index node at each chosen BFS depth."""
    _sim_prepare(state)
    network, side = state["network"], state["side"]
    core = network.core
    depth = {network.index_of(state["root"]): 0}
    queue = deque(depth)
    while queue:
        node = queue.popleft()
        for neighbour in core.neighbors(node):
            if neighbour not in depth:
                depth[neighbour] = depth[node] + 1
                queue.append(neighbour)
    pins = []
    for fraction in CRASH_DEPTHS:
        level = int(fraction * (side - 1))
        pins.append((min(node for node, d in depth.items() if d == level), CRASH_ROUND))
    state["model"] = replace(parse_fault_spec(FAULT_SPEC), crash_at=tuple(pins))


def _fail_free_messages(state):
    """Messages of the same three programs on the same grid without faults."""
    return _sim_counters(_simulate(state, None, modes=MODES[:1])["core"]["stats"])[
        "sim_messages"
    ]


def _simulate(state, schedule, modes=MODES):
    """BFS, broadcast and convergecast under each simulator mode."""
    network, root, values = state["network"], state["root"], state["values"]
    runs = {}
    for mode, cls in modes:
        if schedule is None:
            tree, bfs = primitives.distributed_bfs_tree(network, root, simulator_cls=cls)
            repaired = 0
        else:
            tree, bfs, repaired = primitives.robust_bfs_tree(
                network, root, schedule, simulator_cls=cls
            )
        broadcast = primitives.broadcast_value(
            network, root, state["seed"], simulator_cls=cls, fault_schedule=schedule
        )
        aggregate, convergecast = primitives.convergecast_aggregate(
            network, tree, values, min, simulator_cls=cls, fault_schedule=schedule
        )
        runs[mode] = {
            "tree": tree.parent, "height": tree.height, "repaired": repaired,
            "aggregate": aggregate, "stats": (bfs, broadcast, convergecast),
        }
    return runs


def _sim_counters(stats):
    return {
        "sim_rounds": sum(result.rounds for result in stats),
        "sim_messages": sum(result.messages for result in stats),
    }


def _grid_sim_op(state):
    runs = _simulate(state, None)
    outcome = Outcome()
    n, side = len(state["network"]), state["side"]
    core = runs["core"]
    bfs, broadcast, _ = core["stats"]
    outcome.expect(len(core["tree"]) == n, "BFS tree does not span the grid")
    outcome.expect(
        core["height"] == 2 * (side - 1), f"BFS height {core['height']} from the corner"
    )
    outcome.expect(
        len(broadcast.outputs) == n
        and all(value == state["seed"] for value in broadcast.outputs.values()),
        "broadcast did not reach every node",
    )
    outcome.expect(core["aggregate"] == state["minimum"], "convergecast != min(values)")
    outcome.expect(runs["runtime"] == core, "core and runtime results differ")
    outcome.counters = _sim_counters(core["stats"])
    return outcome


def _simulate_counting_deliveries(state, schedule, mode):
    """One mode's faulty run, counting every message the fault queue hands out."""
    original = FaultQueue.deliveries
    delivered = [0]

    def deliveries(queue, round_number):
        bucket = original(queue, round_number)
        delivered[0] += sum(len(inbox) for inbox in bucket.values())
        return bucket

    FaultQueue.deliveries = deliveries
    try:
        run = _simulate(state, schedule, modes=(mode,))[mode[0]]
    finally:
        FaultQueue.deliveries = original
    run["delivered"] = delivered[0]
    return run


def _grid_sim_faulty_op(state):
    outcome = Outcome()
    schedule = FaultSchedule(state["model"], seed=state["seed"])
    core, runtime = (_simulate_counting_deliveries(state, schedule, mode) for mode in MODES)
    stats = core["stats"]
    outcome.expect(len(core["tree"]) == len(state["network"]), "robust BFS tree does not span")
    crashed = max(result.crashed_nodes for result in stats)
    outcome.expect(crashed == len(CRASH_DEPTHS), f"{crashed} nodes crashed")
    # A copy that lands in a (round, recipient, sender) mailbox slot already
    # holding a message replaces it, so deliveries can fall short of
    # messages - dropped + duplicated; the shortfall is counted as "merged".
    sent = sum(result.messages - result.dropped + result.duplicated for result in stats)
    delivered = core["delivered"]
    outcome.expect(
        delivered <= sent, f"{delivered} delivered > messages - dropped + duplicated = {sent}"
    )
    outcome.expect(runtime == core, "core and runtime results differ")
    outcome.counters = _sim_counters(stats)
    outcome.counters.update({
        "delivered": delivered,
        "merged": sent - delivered,
        "dropped": sum(result.dropped for result in stats),
        "delayed": sum(result.delayed for result in stats),
        "duplicated": sum(result.duplicated for result in stats),
        "crashed_nodes": crashed,
        "bfs_repaired": core["repaired"],
    })
    return outcome


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "grid-mst",
            GRID_MST,
            _mst_setup(
                [("planar", "oblivious", {"side": GRID_MST["side"]})],
                GRID_MST["instances_per_op"], True,
            ),
            _grid_mst_prepare, _grid_mst_op,
        ),
        Workload(
            "family-mst",
            FAMILY_MST,
            _mst_setup(FAMILY_CELLS, FAMILY_MST["instances_per_op"], False),
            lambda state: None, _family_mst_op,
        ),
        Workload(
            "grid-sim",
            GRID_SIM, _sim_setup(GRID_SIM["side"]), _sim_prepare, _grid_sim_op,
        ),
        Workload(
            "grid-sim-faulty",
            GRID_SIM_FAULTY, _sim_setup(GRID_SIM_FAULTY["side"]), _faulty_prepare,
            _grid_sim_faulty_op, _fail_free_messages,
        ),
    )
}
