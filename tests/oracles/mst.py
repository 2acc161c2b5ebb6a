"""The seed Boruvka MST loop (label-keyed fragments, per-phase frozenset families).

The oracle for :func:`repro.algorithms.mst.boruvka_mst`.  Every phase
builds its shortcut with the oracle :func:`~oracles.shortcuts.oblivious_shortcut`
(unless a builder is given), prices it with the oracle
:func:`~oracles.quality.quality` and aggregates with the oracle
:func:`~oracles.aggregation.partwise_aggregate`.  The production loop must
return the same MST edges, weight, rounds, phases, per-phase rounds and
qualities.
"""

from __future__ import annotations

from typing import Hashable

import networkx as nx

from repro.algorithms.mst import MstResult, ShortcutBuilder
from repro.core import GraphView
from repro.errors import ConvergenceError
from repro.graphs.weights import WEIGHT
from repro.structure.spanning import RootedTree
from repro.utils import canonical_edge

from .aggregation import partwise_aggregate
from .quality import quality
from .shortcuts import oblivious_shortcut
from .structure import bfs_spanning_tree


def _edge_weight(graph: nx.Graph, u: Hashable, v: Hashable) -> float:
    return graph[u][v].get(WEIGHT, 1.0)


def boruvka_mst(
    graph: nx.Graph | GraphView,
    shortcut_builder: ShortcutBuilder | None = None,
    tree: RootedTree | None = None,
    max_phases: int | None = None,
    validate_shortcuts: bool = False,
) -> MstResult:
    """The seed implementation; a :class:`GraphView` runs on its ``nx`` adapter."""
    if isinstance(graph, GraphView):
        graph = graph.graph
    builder = shortcut_builder if shortcut_builder is not None else oblivious_shortcut
    tree = tree if tree is not None else bfs_spanning_tree(graph)
    nodes = sorted(graph.nodes(), key=repr)
    if max_phases is None:
        max_phases = 2 + max(1, len(nodes)).bit_length()

    fragment: dict[Hashable, int] = {node: index for index, node in enumerate(nodes)}
    mst_edges: set[tuple[Hashable, Hashable]] = set()
    total_rounds = 0
    phase_rounds: list[int] = []
    phase_qualities: list[int] = []
    sync_cost = max(1, tree.height)

    def fragments_as_parts() -> list[frozenset]:
        groups: dict[int, set[Hashable]] = {}
        for node, frag in fragment.items():
            groups.setdefault(frag, set()).add(node)
        return [frozenset(group) for _, group in sorted(groups.items())]

    for phase in range(max_phases):
        parts = fragments_as_parts()
        if len(parts) <= 1:
            break
        shortcut = builder(graph, tree, parts)
        if validate_shortcuts:
            shortcut.validate()
        phase_qualities.append(quality(shortcut))

        # Every node's best outgoing edge (1 round of neighbour exchange lets
        # every node learn its neighbours' fragment ids).
        infinity = (float("inf"), "", None, None)
        candidate: dict[Hashable, tuple[float, str, Hashable | None, Hashable | None]] = {}
        for node in nodes:
            best = infinity
            for neighbour in graph.neighbors(node):
                if fragment[neighbour] == fragment[node]:
                    continue
                weight = _edge_weight(graph, node, neighbour)
                key = (weight, repr(canonical_edge(node, neighbour)), node, neighbour)
                if key[:2] < best[:2]:
                    best = key
            candidate[node] = best

        aggregation = partwise_aggregate(
            shortcut,
            values=candidate,
            combine=lambda a, b: a if a[:2] <= b[:2] else b,
        )
        # Fragment leaders now know the MWOE; a second aggregation round trip
        # (merge coordination: agreeing on the merged fragment identifier) is
        # charged at the same measured cost.
        rounds_this_phase = 1 + 2 * aggregation.rounds + sync_cost
        total_rounds += rounds_this_phase
        phase_rounds.append(rounds_this_phase)

        # Apply the merges centrally (the simulation already charged the
        # communication); standard union-find with the MWOEs as merge edges.
        union: dict[int, int] = {frag: frag for frag in set(fragment.values())}

        def find(frag: int) -> int:
            while union[frag] != frag:
                union[frag] = union[union[frag]]
                frag = union[frag]
            return frag

        merged_any = False
        for part_index, part in enumerate(shortcut.parts):
            mwoe = aggregation.values[part_index]
            if mwoe is None or mwoe[2] is None:
                continue
            weight, _key, u, v = mwoe
            if weight == float("inf"):
                continue
            ru, rv = find(fragment[u]), find(fragment[v])
            if ru == rv:
                continue
            union[max(ru, rv)] = min(ru, rv)
            mst_edges.add(canonical_edge(u, v))
            merged_any = True
        if not merged_any:
            raise ConvergenceError("Boruvka phase made no progress; graph may be disconnected")
        fragment = {node: find(frag) for node, frag in fragment.items()}
    else:
        if len(set(fragment.values())) > 1:
            raise ConvergenceError("Boruvka did not converge within the phase budget")

    weight = sum(_edge_weight(graph, u, v) for u, v in mst_edges)
    return MstResult(
        edges=frozenset(mst_edges),
        weight=weight,
        rounds=total_rounds,
        phases=len(phase_rounds),
        phase_rounds=phase_rounds,
        phase_qualities=phase_qualities,
    )
