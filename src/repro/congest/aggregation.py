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
greedy FIFO schedule is used.  Leighton, Maggs and Rao prove that an
``O(congestion + dilation)`` schedule always exists; greedy FIFO carries no
such guarantee, so the measured rounds are an upper bound on what an
optimal schedule needs, not a constant-factor match.

This schedule-level simulation sits *beside* the node-program simulator
and its execution modes (``docs/simulator.md``): the single-tree
convergecast that does run as node programs is
:func:`repro.congest.primitives.convergecast_aggregate`; this module is
the many-parts, shared-edges generalisation whose round counts realise the
quality -> rounds argument of Theorem 1.

**The trees.**  A *slot* is a (part, vertex) pair of a part's augmented
subgraph.  All parts' subgraphs are laid out as one block-diagonal slot
graph with sorted CSR rows, and a virtual root links to every part's
anchor (its minimum member index) in part order.  One
``scipy.sparse.csgraph.breadth_first_order`` call from that root yields
every part's BFS tree over ascending neighbours, with children in
discovery order, as flat per-slot ``parent`` / child-count / children-CSR
arrays.  A part member the BFS does not reach, or an empty part, raises
:class:`~repro.errors.SimulationError` naming the part: its aggregate
could not be gathered.

**The schedule** is value-free: a message is the child slot of its tree
edge plus a direction, and its timing depends only on the trees and on
edge contention, never on what the message carries.  The leaves report
first, in part order and then BFS discovery order within a part.  Every
round, the directed edges with a queued message deliver in the canonical
edge order -- index-pair order, keyed by the int ``u * n + v`` over
:class:`~repro.core.GraphView` indices.  A part's aggregate is then one
fold of ``combine`` over its members in ascending index order, which
equals the value the convergecast would deliver for any exact,
associative and commutative ``combine``.  Rounds, messages,
``per_part_rounds`` and values are identical to the seed label scheduler
in ``tests/oracles/aggregation.py``; the differential tests pin the two
equal on every family and on hypothesis-drawn shortcuts.

Two entry points share the scheduler: :func:`partwise_aggregate` takes
label-keyed values, :func:`partwise_aggregate_indexed` a flat sequence
indexed by vertex index (the Boruvka loop of :mod:`repro.algorithms.mst`).
Both read the shortcut's edges as
:class:`~repro.shortcuts.shortcut.IndexEdges`
(:meth:`~repro.shortcuts.shortcut.Shortcut.index_edges`), the one edge
representation every shortcut holds.
"""

from __future__ import annotations

from array import array
from collections import defaultdict, deque
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Hashable, Mapping, NamedTuple, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

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

    Raises:
        SimulationError: a part is empty, or one of its members is not
            connected to the part's anchor in ``G[P_i] + H_i``, so the
            trees could never gather its value.
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


class _Trees(NamedTuple):
    """Every part's aggregation tree as flat per-slot tables.

    ``parent`` is a slot (``-1`` at anchors and unreached slots),
    ``pending`` the child count, ``children[child_start[s] :
    child_start[s + 1]]`` the children of ``s`` in discovery order and
    ``part`` the slot's part.  The message keys of a tree edge, by its
    child slot ``c``: ``up_key[c]`` for ``c -> parent(c)``,
    ``down_key[c]`` for ``parent(c) -> c``.  ``leaves`` are in part order,
    then discovery order; ``awaiting[p]`` counts part ``p``'s non-anchor
    tree slots.
    """

    parent: array
    pending: list[int]
    children: array
    child_start: array
    part: array
    up_key: array
    down_key: array
    leaves: list[int]
    awaiting: list[int]


def _aggregation_trees(shortcut: Shortcut) -> _Trees:
    """Build every part's BFS aggregation tree in one ``breadth_first_order`` call.

    A *slot* is a (part, vertex) pair of a part's augmented subgraph
    ``G[P_i] + H_i``; slots are numbered in (part, vertex) order.  All
    parts' subgraphs form one block-diagonal slot graph with sorted CSR
    rows, and a virtual root links to every part's anchor (its minimum
    member) in part order.  The global FIFO of one BFS from that root,
    restricted to one part, is that part's own BFS from its anchor over
    ascending neighbours, so parents and children orders are exactly the
    per-part ones.

    The result holds ``array('q')`` tables and lists for the delivery loop;
    every numpy array of the build is freed when this function returns.
    """
    part_set = shortcut.part_set()
    view = part_set.view
    n = len(view)
    num_parts = part_set.num_parts
    offsets = np.asarray(part_set.offsets, dtype=np.int64)
    sizes = np.diff(offsets)
    if num_parts and not sizes.all():
        empty = int(np.flatnonzero(sizes == 0)[0])
        raise SimulationError(f"part {empty} is empty")
    members = np.asarray(part_set.members, dtype=np.int64)
    member_part = np.repeat(np.arange(num_parts, dtype=np.int64), sizes)

    # Directed edges of G[P_i] (both endpoints in the part) and of H_i, as
    # (part * n + vertex) keys.
    core = view.core
    indptr, indices = core.indptr, core.indices
    owner = np.full(n, -1, dtype=np.int64)
    owner[members] = member_part
    starts, degrees = indptr[members], indptr[members + 1] - indptr[members]
    row = np.repeat(np.arange(len(members)), degrees)
    neighbours = indices[
        np.arange(len(row)) - np.repeat(np.cumsum(degrees) - degrees, degrees) + starts[row]
    ]
    inside = owner[neighbours] == member_part[row]
    row_base = member_part[row[inside]] * n
    edge_offsets, heads, tails = shortcut.index_edges()
    edge_base = np.repeat(np.arange(num_parts, dtype=np.int64) * n, np.diff(edge_offsets))
    source = np.concatenate(
        [row_base + members[row[inside]], edge_base + heads, edge_base + tails]
    )
    target = np.concatenate(
        [row_base + neighbours[inside], edge_base + tails, edge_base + heads]
    )
    member_keys = member_part * n + members
    keys = np.sort(np.concatenate([member_keys, source]))
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    num_slots = len(keys)

    # Arcs sorted by (source slot, target slot) give sorted CSR rows; a
    # shortcut edge inside its part repeats an arc, which the BFS ignores.
    arcs = np.searchsorted(keys, source)
    arcs *= num_slots
    arcs += np.searchsorted(keys, target)
    del source, target
    arcs.sort()
    anchors = np.searchsorted(keys, member_keys[offsets[:-1]])
    row_ptr = np.searchsorted(arcs, np.arange(num_slots + 1) * num_slots)
    graph = csr_matrix(
        (
            np.ones(len(arcs) + num_parts),
            np.concatenate([arcs % num_slots, anchors]).astype(np.int32),
            np.append(row_ptr, len(arcs) + num_parts).astype(np.int32),
        ),
        shape=(num_slots + 1, num_slots + 1),
    )
    del arcs
    order, predecessors = breadth_first_order(
        graph, num_slots, directed=True, return_predecessors=True
    )
    del graph

    parent = predecessors[:num_slots].astype(np.int64)
    member_slots = np.searchsorted(keys, member_keys)
    unreached = parent[member_slots] < 0
    if unreached.any():
        first = int(np.flatnonzero(unreached)[0])
        raise SimulationError(
            f"member {view.nodes[members[first]]!r} of part {int(member_part[first])} "
            "is not connected to the part's anchor in its augmented subgraph"
        )
    parent[(parent < 0) | (parent == num_slots)] = -1
    discovered = order[1:]
    tree_slots = discovered[parent[discovered] >= 0]
    pending = np.bincount(parent[tree_slots], minlength=num_slots)
    slot_part = keys // n
    ranked = discovered[np.argsort(slot_part[discovered], kind="stable")]
    vertex = keys % n
    parent_vertex = vertex[np.maximum(parent, 0)]
    return _Trees(
        parent=_int_array(parent),
        pending=pending.tolist(),
        children=_int_array(tree_slots[np.argsort(parent[tree_slots], kind="stable")]),
        child_start=_int_array(np.concatenate(([0], np.cumsum(pending)))),
        part=_int_array(slot_part),
        up_key=_int_array(vertex * n + parent_vertex),
        down_key=_int_array(parent_vertex * n + vertex),
        leaves=ranked[(pending[ranked] == 0) & (parent[ranked] >= 0)].tolist(),
        awaiting=np.bincount(slot_part[tree_slots], minlength=num_parts).tolist(),
    )


def _int_array(values: np.ndarray) -> array:
    """A read-only per-slot table for the delivery loop.

    An ``array('q')`` holds 8 bytes per entry where a list of large ints
    holds an int object each, and indexes as fast in the loop.
    """
    return array("q", values.astype(np.int64, copy=False).tobytes())


def _schedule(shortcut: Shortcut, max_rounds: int) -> tuple[int, int, list[int]]:
    """Run the greedy schedule; return ``(rounds, messages, per_part_rounds)``."""
    num_parts = shortcut.part_set().num_parts
    if not num_parts:
        return 0, 0, []
    (
        parent, pending, children, child_start, slot_part, up_key, down_key, leaves,
        awaiting_down,
    ) = _aggregation_trees(shortcut)

    # One FIFO queue per directed edge ``u * n + v``; ``active`` holds the
    # keys of non-empty queues in ascending order, ``fresh`` the keys that
    # became non-empty since the last round started.  A task is the child
    # slot ``c`` of its tree edge for an up message and ``~c`` for a down one.
    edge_queues: defaultdict[int, deque] = defaultdict(deque)
    fresh: list[int] = []
    outstanding = 0

    def enqueue(key: int, task: int) -> None:
        nonlocal outstanding
        queue = edge_queues[key]
        if not queue:
            fresh.append(key)
        queue.append(task)
        outstanding += 1

    for leaf in leaves:
        enqueue(up_key[leaf], leaf)

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
        for task in delivered:
            if task >= 0:
                receiver = parent[task]
                pending[receiver] -= 1
                if pending[receiver]:
                    continue
                if parent[receiver] >= 0:
                    enqueue(up_key[receiver], receiver)
                    continue
                # The root has heard from every child: start the broadcast.
            else:
                receiver = ~task
                part = slot_part[receiver]
                awaiting_down[part] -= 1
                if not awaiting_down[part]:
                    per_part_done[part] = rounds
            for child in children[child_start[receiver] : child_start[receiver + 1]]:
                enqueue(down_key[child], ~child)

    return rounds, messages, per_part_done
