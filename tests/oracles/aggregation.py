"""The seed part-wise aggregation scheduler (label-keyed, ``nx`` subgraphs).

The oracle for :func:`repro.congest.aggregation.partwise_aggregate` and
:func:`~repro.congest.aggregation.partwise_aggregate_indexed`: per-part
``nx`` augmented subgraphs, label-keyed parent maps, and a full re-sort
(and re-``repr``) of every queue key each round.  The production
index-space scheduler must be round-, message- and value-identical.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Sequence

import networkx as nx

from repro.congest.aggregation import AggregationResult
from repro.core import view_of
from repro.errors import SimulationError
from repro.shortcuts.shortcut import Shortcut

Value = object
DirectedEdge = tuple[Hashable, Hashable]


@dataclass
class _Task:
    """One message that must traverse one directed edge for one part."""

    part: int
    edge: DirectedEdge
    kind: str  # "up" or "down"
    child: Hashable  # the aggregation-subtree child whose data moves (for "up")


def _aggregation_tree(augmented: nx.Graph, anchor: Hashable) -> dict[Hashable, Hashable | None]:
    """Return a BFS parent map of the component of ``anchor`` in the augmented graph."""
    component = nx.node_connected_component(augmented, anchor)
    parent: dict[Hashable, Hashable | None] = {anchor: None}
    queue: deque[Hashable] = deque([anchor])
    while queue:
        node = queue.popleft()
        for neighbour in sorted(augmented.neighbors(node), key=repr):
            if neighbour in component and neighbour not in parent:
                parent[neighbour] = node
                queue.append(neighbour)
    return parent


def partwise_aggregate_indexed(
    shortcut: Shortcut,
    values: Sequence[Value],
    combine: Callable[[Value, Value], Value] = min,
    max_rounds: int = 1_000_000,
) -> AggregationResult:
    """The indexed entry point: relabel the values once, then run the seed scheduler."""
    view = view_of(shortcut.graph)
    labelled = {view.nodes[index]: value for index, value in enumerate(values)}
    return partwise_aggregate(shortcut, labelled, combine, max_rounds)


def partwise_aggregate(
    shortcut: Shortcut,
    values: Mapping[Hashable, Value],
    combine: Callable[[Value, Value], Value] = min,
    max_rounds: int = 1_000_000,
) -> AggregationResult:
    """The seed label-keyed scheduler."""
    num_parts = shortcut.num_parts
    aggregates: list[Value] = [None] * num_parts
    per_part_done: list[int] = [0] * num_parts

    # Per-part aggregation trees and bookkeeping.
    parents: list[dict[Hashable, Hashable | None]] = []
    pending_children: list[dict[Hashable, int]] = []
    partial: list[dict[Hashable, Value]] = []
    for index in range(num_parts):
        part = shortcut.parts[index]
        for vertex in part:
            if vertex not in values:
                raise SimulationError(f"no input value for vertex {vertex} of part {index}")
        augmented = shortcut.augmented_subgraph(index)
        anchor = min(part, key=repr)
        parent = _aggregation_tree(augmented, anchor)
        parents.append(parent)
        counts: dict[Hashable, int] = {node: 0 for node in parent}
        for node, par in parent.items():
            if par is not None:
                counts[par] += 1
        pending_children.append(counts)
        partial.append(
            {
                node: values[node] if node in part else None
                for node in parent
            }
        )

    # Build the initial set of ready "up" tasks: leaves of each aggregation tree.
    edge_queues: dict[DirectedEdge, deque[_Task]] = {}
    outstanding = 0

    def enqueue(task: _Task) -> None:
        nonlocal outstanding
        queue = edge_queues.get(task.edge)
        if queue is None:
            queue = edge_queues[task.edge] = deque()
        queue.append(task)
        outstanding += 1

    for index in range(num_parts):
        parent = parents[index]
        for node, par in parent.items():
            if par is not None and pending_children[index][node] == 0:
                enqueue(_Task(part=index, edge=(node, par), kind="up", child=node))

    # Down-phase bookkeeping: which vertices still await the broadcast.
    awaiting_down: list[set[Hashable]] = [set() for _ in range(num_parts)]

    rounds = 0
    messages = 0
    while outstanding > 0:
        if rounds > max_rounds:
            raise SimulationError("aggregation schedule exceeded the round budget")
        rounds += 1
        delivered: list[_Task] = []
        # Each directed edge delivers at most one message per round.
        for edge in sorted(edge_queues.keys(), key=repr):
            queue = edge_queues[edge]
            if queue:
                delivered.append(queue.popleft())
                outstanding -= 1
                messages += 1
        for task in delivered:
            index = task.part
            parent = parents[index]
            if task.kind == "up":
                sender, receiver = task.edge
                value = partial[index][sender]
                current = partial[index][receiver]
                if value is not None:
                    partial[index][receiver] = (
                        value if current is None else combine(current, value)
                    )
                pending_children[index][receiver] -= 1
                if pending_children[index][receiver] == 0:
                    grand = parent[receiver]
                    if grand is not None:
                        enqueue(_Task(part=index, edge=(receiver, grand), kind="up", child=receiver))
                    else:
                        # The root has the aggregate: start the broadcast.
                        aggregates[index] = partial[index][receiver]
                        awaiting_down[index] = {
                            node for node, par in parent.items() if par is not None
                        }
                        if not awaiting_down[index]:
                            per_part_done[index] = rounds
                        for node, par in parent.items():
                            if par == receiver:
                                enqueue(
                                    _Task(part=index, edge=(receiver, node), kind="down", child=node)
                                )
            else:  # down
                sender, receiver = task.edge
                awaiting_down[index].discard(receiver)
                if not awaiting_down[index]:
                    per_part_done[index] = rounds
                for node, par in parents[index].items():
                    if par == receiver:
                        enqueue(_Task(part=index, edge=(receiver, node), kind="down", child=node))

    # Single-vertex parts never enqueue anything; their aggregate is their value.
    for index in range(num_parts):
        if aggregates[index] is None:
            part = shortcut.parts[index]
            part_values = [values[v] for v in part]
            aggregate = part_values[0]
            for value in part_values[1:]:
                aggregate = combine(aggregate, value)
            aggregates[index] = aggregate
            per_part_done[index] = max(per_part_done[index], 0)

    return AggregationResult(
        values=aggregates,
        rounds=rounds,
        messages=messages,
        per_part_rounds=per_part_done,
    )
