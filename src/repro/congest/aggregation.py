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
subgraph; the shortcut lays its slots out once and caches the layout
(:meth:`~repro.shortcuts.shortcut.Shortcut.slots`, which the block
parameter reads too).  All parts' subgraphs form one block-diagonal slot
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
:class:`~repro.core.GraphView` indices -- and a slot sends at its last
delivery of the round: its up message once every child has reported,
its children's down messages (in discovery order) once it has the
result.  Sends on one edge queue in the order of the deliveries that
triggered them.  The loop runs once per round, not once per message:
each directed edge's id is its CSR arc position (in key order; a tree
edge's down arc is one search into the arc keys, its up arc the reverse
arc, :attr:`~repro.core.CoreGraph.reverse_arcs`) and it has a
linked-list FIFO, a round is a handful of numpy passes over the
active edges and the messages they deliver, and what a slot sends when it fires is one
gather from a per-event emission CSR.  A part's aggregate is then one
fold of ``combine`` over its members in ascending index order, which
equals the value the convergecast would deliver for any exact,
associative and commutative ``combine``.  Rounds, messages,
``per_part_rounds`` and values are identical to the seed label scheduler
in ``tests/oracles/aggregation.py``; the differential tests pin the two
equal on every family, on hypothesis-drawn shortcuts, on two
hand-built in-round orderings and on the heaviest Boruvka phase of a
60x60 grid (``tests/aggregation_at_scale.py`` checks every phase).

Two entry points share the scheduler: :func:`partwise_aggregate` takes
label-keyed values, :func:`partwise_aggregate_indexed` a flat sequence
indexed by vertex index (the Boruvka loop of :mod:`repro.algorithms.mst`).
Both read the shortcut's edges as
:class:`~repro.shortcuts.shortcut.IndexEdges`
(:meth:`~repro.shortcuts.shortcut.Shortcut.index_edges`), the one edge
representation every shortcut holds.
"""

from __future__ import annotations

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
    """Every part's aggregation tree as the per-round loop's numpy tables.

    A *task* is one message: ``c`` for the up message of the tree edge
    whose child slot is ``c``, ``num_slots + c`` for its down message.
    ``task_edge[t]`` is the CSR arc position of the directed edge ``t``
    crosses (ids in ``u * n + v`` order; ``num_edges`` of them, one per
    arc of the graph).  An *event* is a slot firing: event ``r`` when slot
    ``r`` has heard from all its children, event ``num_slots + c`` when
    slot ``c`` receives its down message.  ``event_of[t]`` is the event a delivery of task ``t`` counts
    towards, and ``pending[e]`` the number of deliveries event ``e`` still
    awaits (a child count, or one down message).
    ``emitted[emit_start[e] : emit_start[e + 1]]`` are the tasks event
    ``e`` sends: its own up task below an anchor, its children's down tasks
    in discovery order at an anchor or on a down delivery.  ``leaves`` are
    the first up tasks, in part order and then discovery order, and part
    ``i`` holds the slots ``part_offsets[i] <= s < part_offsets[i + 1]``.
    """

    pending: np.ndarray
    event_of: np.ndarray
    emit_start: np.ndarray
    emitted: np.ndarray
    task_edge: np.ndarray
    num_edges: int
    leaves: np.ndarray
    part_offsets: np.ndarray


def _aggregation_trees(shortcut: Shortcut) -> _Trees:
    """Build every part's BFS aggregation tree in one ``breadth_first_order`` call.

    The nodes are the shortcut's (part, vertex) slots
    (:meth:`~repro.shortcuts.shortcut.Shortcut.slots`), numbered in
    (part, vertex) order.  All parts' subgraphs ``G[P_i] + H_i`` form one
    block-diagonal slot graph with sorted CSR rows, and a virtual root
    links to every part's anchor (its minimum member) in part order.  The
    global FIFO of one BFS from that root, restricted to one part, is that
    part's own BFS from its anchor over ascending neighbours, so parents
    and children orders are exactly the per-part ones.

    The tree is then recast as the tables :func:`_schedule` reads (see
    :class:`_Trees`): tasks, the CSR arc positions of their directed edges
    and the per-event emission CSR.  A down task's arc is found by one
    ``searchsorted`` into the graph's arc keys, with the needles in
    (parent slot, child) order; its up task's arc is the reverse arc
    (:attr:`~repro.core.CoreGraph.reverse_arcs`).
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
    layout = shortcut.slots()
    slot_offsets, vertex, member_slots, home, heads, tails = layout
    slot_part = layout.part()
    num_slots = len(slot_part)

    # Directed edges of G[P_i] (both endpoints in the part) and of H_i, as
    # (source slot, target slot) pairs.
    core = view.core
    indptr, indices = core.indptr, core.indices
    starts, degrees = indptr[members], indptr[members + 1] - indptr[members]
    row = np.repeat(member_slots, degrees)
    neighbours = home[indices[_ranges(starts, degrees)]]
    del starts
    inside = neighbours >= 0
    inside[inside] = slot_part[neighbours[inside]] == slot_part[row[inside]]
    source = np.concatenate([row[inside], heads, tails])
    target = np.concatenate([neighbours[inside], tails, heads])
    del row, neighbours, inside

    # Arcs sorted by (source slot, target slot) give sorted CSR rows; a
    # shortcut edge inside its part repeats an arc, which the BFS ignores.
    row_ptr = np.zeros(num_slots + 2, dtype=np.int32)
    np.cumsum(np.bincount(source, minlength=num_slots), out=row_ptr[1:-1])
    row_ptr[-1] = len(source) + num_parts
    arcs = source * num_slots
    arcs += target
    del source, target
    arcs.sort()
    columns = np.empty(len(arcs) + num_parts, dtype=np.int32)
    np.remainder(arcs, num_slots, out=columns[: len(arcs)])
    columns[len(arcs) :] = member_slots[offsets[:-1]]
    del arcs
    graph = csr_matrix(
        (np.ones(len(columns)), columns, row_ptr), shape=(num_slots + 1, num_slots + 1)
    )
    del columns, row_ptr
    order, predecessors = breadth_first_order(
        graph, num_slots, directed=True, return_predecessors=True
    )
    del graph

    # The tables are filled in place; the first halves of event_of and
    # pending double as the parent and child-count arrays.
    event_of = np.empty(2 * num_slots, dtype=np.int64)
    parent = event_of[:num_slots]
    parent[:] = predecessors[:num_slots]
    del predecessors
    unreached = parent[member_slots] < 0
    if unreached.any():
        first = int(np.flatnonzero(unreached)[0])
        raise SimulationError(
            f"member {view.nodes[members[first]]!r} of part {int(slot_part[member_slots[first]])} "
            "is not connected to the part's anchor in its augmented subgraph"
        )
    parent[(parent < 0) | (parent == num_slots)] = -1
    event_of[num_slots:] = np.arange(num_slots, 2 * num_slots)
    discovered = order[1:]
    tree_slots = discovered[parent[discovered] >= 0]
    del order, discovered
    pending = np.ones(2 * num_slots, dtype=np.int64)
    child_count = pending[:num_slots]
    child_count[:] = np.bincount(parent[tree_slots], minlength=num_slots)
    # Sorts by (part, discovery) and (parent, discovery): a slot's
    # children are discovered in ascending slot order, so children lists
    # them in (parent slot, child) order.
    leaves = tree_slots[child_count[tree_slots] == 0]
    leaves = leaves[np.argsort(slot_part[leaves] * len(leaves) + np.arange(len(leaves)))]
    del slot_part
    children = tree_slots[
        np.argsort(parent[tree_slots] * len(tree_slots) + np.arange(len(tree_slots)))
    ]
    del tree_slots

    # Task c crosses c -> parent(c) (the up task), task num_slots + c the
    # reverse arc.
    down = np.searchsorted(
        core.arc_keys(), vertex[parent[children]] * n + vertex[children]
    )
    task_edge = np.zeros(2 * num_slots, dtype=np.int64)
    task_edge[num_slots + children] = down
    task_edge[children] = core.reverse_arcs[down]
    del down

    # Event r sends r's up task below an anchor and, at an anchor (or an
    # unreached slot, which has no children), its children's down tasks;
    # event num_slots + c sends c's children's down tasks, which start at
    # emit_start[num_slots + c] = num_up + (c's offset in children).
    is_top = parent < 0
    up_lengths = np.where(is_top, child_count, 1)
    emit_start = np.zeros(2 * num_slots + 1, dtype=np.int64)
    np.cumsum(up_lengths, out=emit_start[1 : num_slots + 1])
    num_up = int(emit_start[num_slots])
    np.cumsum(child_count, out=emit_start[num_slots + 1 :])
    emit_start[num_slots + 1 :] += num_up
    emitted = np.empty(num_up + len(children), dtype=np.int64)
    up_emitted = emitted[:num_up]
    up_emitted[:] = np.repeat(np.arange(num_slots), up_lengths)
    del up_lengths
    tops = np.flatnonzero(is_top)
    children += num_slots
    up_emitted[is_top[up_emitted]] = children[
        _ranges(emit_start[num_slots + tops] - num_up, child_count[tops])
    ]
    emitted[num_up:] = children
    del children, is_top, tops
    return _Trees(
        pending=pending,
        event_of=event_of,
        emit_start=emit_start,
        emitted=emitted,
        task_edge=task_edge,
        num_edges=len(indices),
        leaves=leaves,
        part_offsets=slot_offsets,
    )


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenation of ``arange(s, s + l)`` over ``zip(starts, lengths)``."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + lengths, lengths)


def _schedule(shortcut: Shortcut, max_rounds: int) -> tuple[int, int, list[int]]:
    """Run the greedy schedule; return ``(rounds, messages, per_part_rounds)``.

    One pass per round over numpy arrays.  Every directed edge's FIFO is a
    linked list through ``follower`` (``-1`` ends it) that starts behind a
    sentinel task of its own: ``cursor`` is the task the edge delivered
    last (the sentinel at first), ``tail`` the task it will deliver last,
    and the edge is idle when the two agree.  ``active`` lists the busy
    edges in ascending id.  A round delivers the task after every active
    edge's cursor, in that order, at running message positions; subtracts
    every delivery from its event's ``pending`` count; and fires an event
    whose count reached zero once, at its last delivery of the round.  The
    fired events' emissions come out in (trigger position, child rank)
    order and are chained behind their edges' tails.
    ``per_part_rounds`` is each part's last down-delivery round.
    """
    num_parts = shortcut.part_set().num_parts
    if not num_parts:
        return 0, 0, []
    pending, event_of, emit_start, emitted, task_edge, num_edges, leaves, part_offsets = (
        _aggregation_trees(shortcut)
    )
    num_slots = len(event_of) // 2
    follower = np.full(2 * num_slots + num_edges, -1, dtype=np.int64)
    cursor = np.arange(2 * num_slots, 2 * num_slots + num_edges)
    tail = cursor.copy()
    # Every task is delivered at most once, so rounds and message positions
    # stay below 2 * num_slots: int32 holds them in half the memory.
    last_position = np.full(2 * num_slots, -1, dtype=np.int32)
    delivered_round = np.zeros(2 * num_slots, dtype=np.int32)

    def append(tasks: np.ndarray) -> np.ndarray:
        """Chain ``tasks`` (in send order, at least one) behind their edges'
        tails; return the edges that were idle, in ascending id."""
        edges = task_edge[tasks]
        order = np.argsort(edges, kind="stable")
        tasks, edges = tasks[order], edges[order]
        # Chain each edge's run in send order; the edge's tail links to the
        # run's first task and moves to its last.
        same = edges[1:] == edges[:-1]
        follower[tasks[:-1][same]] = tasks[1:][same]
        lasts = tasks[np.concatenate((~same, [True]))]
        first = np.concatenate(([True], ~same))
        tasks, edges = tasks[first], edges[first]
        ends = tail[edges]
        follower[ends] = tasks
        tail[edges] = lasts
        return edges[cursor[edges] == ends]

    active = np.zeros(0, dtype=np.int64)
    sent = leaves
    rounds = 0
    messages = 0
    while True:
        if len(sent):
            active = np.sort(np.concatenate((active, append(sent))))
        if not len(active):
            break
        if rounds > max_rounds:
            raise SimulationError("aggregation schedule exceeded the round budget")
        rounds += 1
        # Each directed edge delivers at most one message per round.
        delivered = follower[cursor[active]]
        cursor[active] = delivered
        active = active[follower[delivered] >= 0]
        delivered_round[delivered] = rounds

        events = event_of[delivered]
        # Positions run on across rounds, so last_position needs no reset.
        positions = np.arange(messages, messages + len(delivered), dtype=np.int32)
        messages += len(delivered)
        np.subtract.at(pending, events, 1)
        np.maximum.at(last_position, events, positions)
        events = events[(pending[events] == 0) & (last_position[events] == positions)]
        starts = emit_start[events]
        sent = emitted[_ranges(starts, emit_start[events + 1] - starts)]

    # Every part has a slot, so no reduceat segment is empty.
    per_part_done = np.maximum.reduceat(delivered_round[num_slots:], part_offsets[:-1])
    return rounds, messages, per_part_done.tolist()
