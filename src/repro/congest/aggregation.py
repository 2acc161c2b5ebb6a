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
:class:`~repro.core.GraphView` indices -- and a slot sends at its last
delivery of the round: its up message once every child has reported,
its children's down messages (in discovery order) once it has the
result.  Sends on one edge queue in the order of the deliveries that
triggered them.  The loop runs once per round, not once per message:
each directed edge's id is its CSR arc position (in key order) and it
has a linked-list FIFO, a round is a handful of numpy passes over the
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
    the first up tasks, in part order and then discovery order, and
    ``part`` is every slot's part.
    """

    pending: np.ndarray
    event_of: np.ndarray
    emit_start: np.ndarray
    emitted: np.ndarray
    task_edge: np.ndarray
    num_edges: int
    leaves: np.ndarray
    part: np.ndarray


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

    The tree is then recast as the tables :func:`_schedule` reads (see
    :class:`_Trees`): tasks, the CSR arc positions of their directed edges
    (one ``searchsorted`` into the graph's arc keys) and the per-event
    emission CSR.
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
    neighbours = indices[_ranges(starts, degrees)]
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
    unreached = parent[np.searchsorted(keys, member_keys)] < 0
    if unreached.any():
        first = int(np.flatnonzero(unreached)[0])
        raise SimulationError(
            f"member {view.nodes[members[first]]!r} of part {int(member_part[first])} "
            "is not connected to the part's anchor in its augmented subgraph"
        )
    parent[(parent < 0) | (parent == num_slots)] = -1
    discovered = order[1:]
    tree_slots = discovered[parent[discovered] >= 0]
    child_count = np.bincount(parent[tree_slots], minlength=num_slots)
    slot_part = keys // n
    ranked = discovered[np.argsort(slot_part[discovered], kind="stable")]
    leaves = ranked[(child_count[ranked] == 0) & (parent[ranked] >= 0)]
    del order, discovered, ranked

    # Task t crosses directed edge task_edge[t]: c -> parent(c) for the up
    # task c, parent(c) -> c for the down task num_slots + c.
    vertex = keys % n
    del keys
    below, above = vertex[tree_slots], vertex[parent[tree_slots]]
    del vertex
    arc_keys = np.repeat(np.arange(n), np.diff(indptr)) * n + indices
    task_edge = np.zeros(2 * num_slots, dtype=np.int64)
    task_edge[tree_slots] = np.searchsorted(arc_keys, below * n + above)
    task_edge[num_slots + tree_slots] = np.searchsorted(arc_keys, above * n + below)
    del below, above, arc_keys

    # Event r sends r's up task below an anchor and, at an anchor (or an
    # unreached slot, which has no children), its children's down tasks;
    # event num_slots + c sends c's children's down tasks.
    children = tree_slots[np.argsort(parent[tree_slots], kind="stable")]
    child_start = np.concatenate(([0], np.cumsum(child_count)))
    slots = np.arange(num_slots)
    is_top = parent < 0
    up_lengths = np.where(is_top, child_count, 1)
    up_emitted = np.repeat(slots, up_lengths)
    tops = np.flatnonzero(is_top)
    up_emitted[is_top[up_emitted]] = (
        num_slots + children[_ranges(child_start[tops], child_count[tops])]
    )
    emit_start = np.concatenate(([0], np.cumsum(up_lengths), len(up_emitted) + child_start[1:]))
    return _Trees(
        pending=np.concatenate((child_count, np.ones(num_slots, dtype=np.int64))),
        event_of=np.concatenate((parent, num_slots + slots)),
        emit_start=emit_start,
        emitted=np.concatenate((up_emitted, num_slots + children)),
        task_edge=task_edge,
        num_edges=len(indices),
        leaves=leaves,
        part=slot_part,
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
    pending, event_of, emit_start, emitted, task_edge, num_edges, leaves, slot_part = (
        _aggregation_trees(shortcut)
    )
    num_slots = len(slot_part)
    follower = np.full(2 * num_slots + num_edges, -1, dtype=np.int64)
    cursor = np.arange(2 * num_slots, 2 * num_slots + num_edges)
    tail = cursor.copy()
    last_position = np.full(2 * num_slots, -1, dtype=np.int64)
    delivered_round = np.zeros(2 * num_slots, dtype=np.int64)

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
        positions = np.arange(messages, messages + len(delivered))
        messages += len(delivered)
        np.subtract.at(pending, events, 1)
        np.maximum.at(last_position, events, positions)
        events = events[(pending[events] == 0) & (last_position[events] == positions)]
        starts = emit_start[events]
        sent = emitted[_ranges(starts, emit_start[events + 1] - starts)]

    per_part_done = np.zeros(num_parts, dtype=np.int64)
    np.maximum.at(per_part_done, slot_part, delivered_round[num_slots:])
    return rounds, messages, per_part_done.tolist()
