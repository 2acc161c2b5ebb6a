"""Part-wise aggregation over a shortcut, simulated at the message-schedule level.

This is the primitive the whole shortcut framework exists to accelerate
(Section 1.3.3): every part must compute an associative aggregate
(min / max / sum) of values held by its members.  Theorem 1's algorithm does
this by convergecasting towards a per-part leader on ``G[P_i] + H_i`` and
broadcasting the result back; the cost is governed by the dilation of those
subgraphs (block parameter times tree diameter) plus the congestion of edges
shared by several parts.

The simulation here is faithful to the CONGEST accounting without running
full node programs: every part builds a BFS aggregation tree of its
augmented subgraph, each aggregation-tree edge must carry one "up" message
(after all of the child's children have reported) and one "down" message
(after the parent has learned the result), and **each directed graph edge
delivers at most one message per round** -- so edges used by many parts
serialise, which is exactly how congestion costs rounds in the model.  A
greedy FIFO schedule is used; optimal scheduling is NP-hard but within
``O(congestion + dilation)`` of the greedy one, so the measured shape is the
one the theory predicts.

This schedule-level simulation sits *beside* the node-program simulator
and its execution modes (``docs/simulator.md``): the single-tree
convergecast that does run as node programs is
:func:`repro.congest.primitives.convergecast_aggregate`; this module is
the many-parts, shared-edges generalisation whose round counts realise the
quality -> rounds argument of Theorem 1.

The schedule is value-free: a message is ``(part, receiver, is_up)``, and
its timing depends only on the aggregation trees and on edge contention,
never on what the message carries.  Every round, the directed edges with a
queued message deliver in the canonical edge order -- index-pair order,
keyed by the int ``u * n + v`` over :class:`~repro.core.GraphView`
indices.  A part's aggregate is then one fold of ``combine`` over its
members in ascending index order, which equals the value the convergecast
would deliver for any exact, associative and commutative ``combine``.
Rounds, messages, ``per_part_rounds`` and values are identical to the seed
label scheduler in ``tests/oracles/aggregation.py``; the differential
tests pin the two equal on every family.

Two entry points share the scheduler: :func:`partwise_aggregate` takes
label-keyed values, :func:`partwise_aggregate_indexed` a flat sequence
indexed by vertex index (the Boruvka loop of :mod:`repro.algorithms.mst`).

Shortcuts built by the array-native construction engine carry their part
family and shortcut edges as vertex-index arrays
(:meth:`repro.shortcuts.engine.ConstructionEngine.build_shortcut`); the
scheduler consumes those directly and only falls back to the label
``edge_sets`` for shortcuts built in label space.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Hashable, Mapping, Sequence

from ..errors import SimulationError
from ..shortcuts.shortcut import Shortcut

Value = object


@dataclass
class AggregationResult:
    """Outcome of one part-wise aggregation.

    Attributes:
        values: per-part aggregate value, indexed like the shortcut's parts.
        rounds: number of synchronous rounds the greedy schedule needed
            (convergecast plus broadcast, including congestion delays).
        messages: total messages sent.
        per_part_rounds: the round in which each part finished (its broadcast
            completed); the maximum equals ``rounds``.
    """

    values: list[Value]
    rounds: int
    messages: int
    per_part_rounds: list[int] = field(default_factory=list)


def partwise_aggregate(
    shortcut: Shortcut,
    values: Mapping[Hashable, Value],
    combine: Callable[[Value, Value], Value] = min,
    max_rounds: int = 1_000_000,
) -> AggregationResult:
    """Aggregate ``values`` within every part of ``shortcut`` and count rounds.

    Args:
        shortcut: the shortcut whose augmented subgraphs define each part's
            communication graph.
        values: per-vertex input values; every vertex of every part must have
            one (a part vertex without a value raises
            :class:`~repro.errors.SimulationError`).  Vertices outside all
            parts are ignored (they only relay).
        combine: exact, associative and commutative binary operation (min by
            default).  Each part's members are folded in ascending index
            order, so a float sum may differ in the last ulp from a fold in
            aggregation-tree order.
        max_rounds: safety bound on the schedule length.  As in
            :meth:`~repro.congest.simulator.CongestSimulator.run`, the
            schedule may use ``max_rounds + 1`` rounds; a longer one raises
            :class:`~repro.errors.SimulationError`.

    Returns:
        An :class:`AggregationResult` with per-part aggregates and the exact
        number of rounds used by the greedy schedule.

    """
    for index, part in enumerate(shortcut.parts):
        for vertex in part:
            if vertex not in values:
                raise SimulationError(f"no input value for vertex {vertex} of part {index}")
    labels = shortcut.part_set().view.nodes
    indexed = [values.get(label) for label in labels]
    return partwise_aggregate_indexed(shortcut, indexed, combine, max_rounds)


def partwise_aggregate_indexed(
    shortcut: Shortcut,
    values: Sequence[Value],
    combine: Callable[[Value, Value], Value] = min,
    max_rounds: int = 1_000_000,
) -> AggregationResult:
    """Index-space twin of :func:`partwise_aggregate`.

    ``values`` is a sequence of length ``n`` indexed by the
    :class:`~repro.core.GraphView` vertex index.  This is the entry point
    for callers that already hold their state in flat arrays, like the
    Boruvka MWOE step.
    """
    rounds, messages, per_part_rounds = _schedule(shortcut, max_rounds)
    aggregates = [
        reduce(combine, [values[member] for member in members])
        for _index, members in shortcut.part_set().iter_members()
    ]
    return AggregationResult(aggregates, rounds, messages, per_part_rounds)


def _schedule(shortcut: Shortcut, max_rounds: int) -> tuple[int, int, list[int]]:
    """Run the greedy schedule; return ``(rounds, messages, per_part_rounds)``."""
    part_set = shortcut.part_set()
    view = part_set.view
    n = len(view)
    num_parts = part_set.num_parts
    indptr, indices = view.core._indptr_list, view.core._indices_list
    if shortcut._core_edges is not None:
        edge_lists = shortcut._core_edges
    else:
        index_of = view.index_of
        edge_lists = [
            [(index_of(u), index_of(v)) for u, v in edges] for edges in shortcut.edge_sets
        ]

    # Per-part aggregation trees: BFS over the augmented subgraph from the
    # part's minimum index, children recorded in discovery order.
    parents: list[dict[int, int | None]] = []
    children: list[dict[int, list[int]]] = []
    pending_children: list[dict[int, int]] = []
    awaiting_down: list[int] = []  # tree vertices still to hear the broadcast
    for index in range(num_parts):
        members = part_set.members_of(index)
        member_set = set(members)
        adjacency: dict[int, list[int]] = {
            u: [v for v in indices[indptr[u] : indptr[u + 1]] if v in member_set]
            for u in members
        }
        for a, b in edge_lists[index]:
            row = adjacency.setdefault(a, [])
            if b not in row:
                row.append(b)
            row = adjacency.setdefault(b, [])
            if a not in row:
                row.append(a)
        anchor = members[0]
        parent: dict[int, int | None] = {anchor: None}
        kids: dict[int, list[int]] = {}
        queue: deque[int] = deque([anchor])
        while queue:
            u = queue.popleft()
            for v in sorted(adjacency[u]):
                if v not in parent:
                    parent[v] = u
                    kids.setdefault(u, []).append(v)
                    queue.append(v)
        parents.append(parent)
        children.append(kids)
        pending_children.append({node: len(kids.get(node, ())) for node in parent})
        awaiting_down.append(len(parent) - 1)

    # One FIFO queue per directed edge ``u * n + v``; ``active`` holds the
    # keys of non-empty queues in ascending order, ``fresh`` the keys that
    # became non-empty since the last round started.
    edge_queues: defaultdict[int, deque] = defaultdict(deque)
    fresh: list[int] = []
    outstanding = 0

    def enqueue(index: int, sender: int, receiver: int, is_up: bool) -> None:
        nonlocal outstanding
        key = sender * n + receiver
        queue = edge_queues[key]
        if not queue:
            fresh.append(key)
        queue.append((index, receiver, is_up))
        outstanding += 1

    for index, parent in enumerate(parents):
        pending = pending_children[index]
        for node, par in parent.items():
            if par is not None and pending[node] == 0:
                enqueue(index, node, par, True)

    per_part_done = [0] * num_parts
    rounds = 0
    messages = 0
    active: list[int] = []
    while outstanding > 0:
        if rounds > max_rounds:
            raise SimulationError("aggregation schedule exceeded the round budget")
        rounds += 1
        if fresh:
            active += fresh
            active.sort()
            fresh.clear()
        # Each directed edge delivers at most one message per round.
        delivered = []
        still_active = []
        for key in active:
            queue = edge_queues[key]
            delivered.append(queue.popleft())
            if queue:
                still_active.append(key)
        active = still_active
        outstanding -= len(delivered)
        messages += len(delivered)
        for index, receiver, is_up in delivered:
            if is_up:
                pending = pending_children[index]
                pending[receiver] -= 1
                if pending[receiver]:
                    continue
                grand = parents[index][receiver]
                if grand is not None:
                    enqueue(index, receiver, grand, True)
                    continue
                # The root has heard from every child: start the broadcast.
            else:
                awaiting_down[index] -= 1
                if not awaiting_down[index]:
                    per_part_done[index] = rounds
            for node in children[index].get(receiver, ()):
                enqueue(index, receiver, node, False)

    return rounds, messages, per_part_done
