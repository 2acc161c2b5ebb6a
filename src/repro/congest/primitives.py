"""Basic distributed primitives implemented as genuine CONGEST node programs.

These are the building blocks whose round complexities are textbook facts
(BFS tree construction, flooding and broadcast each take ``O(D)`` rounds)
and which the higher-level algorithms charge as overhead: Boruvka's merge
coordination, for example, costs one broadcast over the BFS tree per phase.
Running them through the real simulator keeps the model honest -- the tests
check both their outputs and their ``O(D)`` round counts.

Every primitive accepts a ``simulator_cls`` so that callers (the scenario
engine, the differential tests, the speedup benchmarks) can run the same
node programs under either execution mode -- the active-set
:class:`CongestSimulator` or the vectorized
:class:`repro.congest.runtime.RuntimeSimulator` -- and a ``graph`` that is
either an ``nx.Graph`` or a :class:`repro.core.GraphView`.  Each primitive
runs on ``view_of(graph)``, so its programs always see integer node ids
over CSR slices and every mode accepts either input; the primitives
translate the caller-facing labels at the boundary (the root argument in,
parent pointers and leaders out), so results are label-keyed and equal for
a graph and its view.

Every primitive hands the simulator one factory, :class:`_Programs`, which
builds ``program(context, *args)`` at every node.  A program class names
its batch twin from :mod:`repro.congest.runtime` in its ``runtime`` class
attribute, and the factory's ``compile_runtime`` hook builds that twin from
the same arguments.  The robust programs set ``runtime = None``: they only
run under an active fault schedule, where the runtime mode runs the
per-node loop.  The per-node class stays the semantic definition; the
compiled twin must reproduce it exactly (see ``docs/simulator.md`` for the
contract).

Under faults, BFS and broadcast run one retry/ack flood,
:class:`_RetryFlood`, whose per-neighbour send budget is
:data:`RETRY_BUDGET`.
"""

from __future__ import annotations

from typing import Callable, Hashable, Mapping

import networkx as nx

from ..core import GraphView, view_of
from ..errors import InvalidGraphError, SimulationError
from ..structure.spanning import RootedTree
from .faults import FaultModel, FaultSchedule, active_schedule
from .node import NodeContext, NodeProgram
from .runtime import (
    BfsRuntime,
    BroadcastRuntime,
    ConvergecastRuntime,
    FloodMaxRuntime,
    RuntimeProgram,
)
from .simulator import CongestSimulator, SimulationResult

# Sends a robust program makes to one neighbour before giving up on it.
RETRY_BUDGET = 5


class _Programs:
    """The program factory: ``program(context, *args)`` at every node.

    ``args`` are index-keyed (the primitives convert labels at the
    boundary) and are handed unchanged to the program's batch twin, so
    both read the same state.
    """

    __slots__ = ("program", "args")

    def __init__(self, program: type[NodeProgram], *args: object) -> None:
        self.program = program
        self.args = args

    def __call__(self, context: NodeContext) -> NodeProgram:
        return self.program(context, *self.args)

    def compile_runtime(self, simulator: CongestSimulator) -> RuntimeProgram | None:
        runtime = self.program.runtime
        if runtime is None:
            return None
        return runtime(simulator._view, simulator.bandwidth_words, *self.args)


class _BfsProgram(NodeProgram):
    """Flood a BFS token from the root; every node records its parent.

    Nodes waiting for the wavefront *halt* instead of idling: a halted node
    with mail is woken by the simulator, so the active set each round is the
    genuine BFS frontier (plus its recipients), not every unjoined node.
    The message pattern -- and therefore rounds, messages and words -- is
    unchanged; only the executed-node telemetry tightens.
    """

    runtime = BfsRuntime

    def __init__(self, context: NodeContext, root: Hashable) -> None:
        super().__init__(context)
        self.root = root
        self.parent: Hashable | None = None
        self.joined = context.node == root

    def on_start(self) -> dict[Hashable, object]:
        if self.joined:
            return {neighbour: ("bfs", 0) for neighbour in self.context.neighbours}
        self.halted = True  # sleep until the wavefront's message wakes us
        return {}

    def on_round(self, round_number: int, inbox: dict[Hashable, object]) -> dict[Hashable, object]:
        self.halted = True
        if self.joined:
            return {}
        offers = [(message[1], sender) for sender, message in inbox.items() if message[0] == "bfs"]
        if not offers:
            return {}
        id_key = self.context.id_key
        depth, sender = min(offers, key=lambda item: (item[0], id_key(item[1])))
        self.parent = sender
        self.joined = True
        return {
            neighbour: ("bfs", depth + 1)
            for neighbour in self.context.neighbours
            if neighbour != sender
        }

    def result(self) -> object:
        return self.parent


class _RetryFlood(NodeProgram):
    """A flood with bounded retry and acknowledgement (fault-tolerant).

    Under message loss a single offer can vanish, so a joined node keeps a
    ``pending`` map of neighbours it has no proof about and re-offers its
    ``message`` every round until proof arrives or the per-neighbour send
    budget (:data:`RETRY_BUDGET`) expires (give-up, bounded termination).
    Proof is mostly *implicit*: an offer from a neighbour shows that it has
    joined.  Explicit ``("ok",)`` replies cover the remaining case (a node
    offered to someone who had already joined and so will never offer
    back).  A node that is not joined joins on the first round it receives
    offers, through the subclass's :meth:`join`, which returns the message
    it floods from then on; ``message`` is None until then.
    """

    runtime = None

    def __init__(self, context: NodeContext, message: tuple | None) -> None:
        super().__init__(context)
        self.message = message
        self.pending: dict[Hashable, int] = {}

    def join(self, inbox: dict[Hashable, object], senders: list[Hashable]) -> tuple:
        raise NotImplementedError

    def on_start(self) -> dict[Hashable, object]:
        if self.message is None:
            self.halted = True  # sleep until an offer (or retry) wakes us
            return {}
        neighbours = self.context.neighbours
        self.pending = dict.fromkeys(neighbours, RETRY_BUDGET)
        self.halted = not self.pending
        return dict.fromkeys(neighbours, self.message)

    def on_round(self, round_number: int, inbox: dict[Hashable, object]) -> dict[Hashable, object]:
        pending = self.pending
        senders = []
        for sender, message in inbox.items():
            pending.pop(sender, None)  # an offer or an ack: sender has joined
            if message[0] != "ok":
                senders.append(sender)
        if self.message is None:
            if not senders:
                self.halted = True
                return {}
            self.message = self.join(inbox, senders)
            known = set(senders)
            self.pending = pending = {
                neighbour: RETRY_BUDGET + 1
                for neighbour in self.context.neighbours
                if neighbour not in known
            }
        out: dict[Hashable, object] = {}
        for neighbour in list(pending):
            out[neighbour] = self.message
            remaining = pending[neighbour] - 1
            if remaining <= 0:
                del pending[neighbour]  # budget exhausted: give up
            else:
                pending[neighbour] = remaining
        # Explicitly ack offers we will not answer with an offer of our own
        # (the sender is waiting for proof we joined).
        for sender in senders:
            if sender not in out:
                out[sender] = ("ok",)
        self.halted = not pending
        return out


class _RobustBfsProgram(_RetryFlood):
    """BFS over :class:`_RetryFlood`: the offer is ``("bfs", depth)``.

    The join rule is :class:`_BfsProgram`'s -- minimum ``(depth, id)`` over
    the round's offers -- so fault-free prefixes of the execution pick the
    same parents.
    """

    def __init__(self, context: NodeContext, root: Hashable) -> None:
        super().__init__(context, ("bfs", 0) if context.node == root else None)
        self.parent: Hashable | None = None

    def join(self, inbox: dict[Hashable, object], senders: list[Hashable]) -> tuple:
        id_key = self.context.id_key
        self.parent = min(senders, key=lambda sender: (inbox[sender][1], id_key(sender)))
        return ("bfs", inbox[self.parent][1] + 1)

    def result(self) -> object:
        return self.parent


def _graft_unreached(
    view: GraphView,
    parent: dict[Hashable, Hashable | None],
    root: Hashable,
) -> int:
    """Deterministically repair a partial BFS parent map in place.

    ``parent`` may be missing nodes (crashed, or never reached before every
    offerer's budget expired) and surviving pointers may dangle into such
    holes.  The repair keeps every pointer whose chain provably reaches the
    root and repeatedly attaches, in canonical node order (the view's label
    list: index order is repr order), each remaining node to its first
    (minimum canonical) neighbour with a proven chain -- the tree a
    recovery protocol would rebuild from the survivors.  Returns the number
    of reassigned/added parent pointers; terminates on every connected
    graph.
    """
    node_of = view.nodes
    core = view.core
    index_of = view.index_of
    children: dict[Hashable, list[Hashable]] = {}
    for node, up in parent.items():
        if up is not None:
            children.setdefault(up, []).append(node)
    safe = {root}
    stack = [root]
    while stack:
        for child in children.get(stack.pop(), ()):
            if child not in safe:
                safe.add(child)
                stack.append(child)
    repaired = 0
    unsafe = [node for node in node_of if node not in safe]
    while unsafe:
        progress = False
        still = []
        for node in unsafe:
            up = parent.get(node)
            if up is not None and up in safe:
                safe.add(node)  # dangling chain reattached upstream of us
                progress = True
                continue
            anchors = [
                node_of[index] for index in core.neighbors(index_of(node))
                if node_of[index] in safe
            ]
            if anchors:
                parent[node] = anchors[0]
                safe.add(node)
                repaired += 1
                progress = True
            else:
                still.append(node)
        unsafe = still
        if unsafe and not progress:  # unreachable: the network is connected
            raise SimulationError("partial BFS tree could not be repaired")
    return repaired


def _bfs_tree(
    graph: nx.Graph | GraphView,
    root: Hashable,
    simulator_cls: type[CongestSimulator],
    schedule: FaultSchedule | None,
) -> tuple[RootedTree, SimulationResult, int]:
    """The body of both BFS entry points; ``schedule`` is already normalised.

    Both public names call this, never each other: a tracer that wraps both
    module attributes would otherwise count one build twice.
    """
    view = view_of(graph)
    program = _BfsProgram if schedule is None else _RobustBfsProgram
    factory = _Programs(program, view.index_of(root))
    result = simulator_cls(view, factory, fault_schedule=schedule).run()
    node_of = view.nodes
    parent = {
        node: (None if output is None else node_of[output])
        for node, output in result.outputs.items()
    }
    parent[root] = None
    repaired = 0 if schedule is None else _graft_unreached(view, parent, root)
    tree = RootedTree(parent, root)
    tree.validate(view)
    return tree, result, repaired


def distributed_bfs_tree(
    graph: nx.Graph | GraphView,
    root: Hashable,
    simulator_cls: type[CongestSimulator] = CongestSimulator,
    fault_schedule: FaultSchedule | FaultModel | None = None,
) -> tuple[RootedTree, SimulationResult]:
    """Build a BFS tree with a genuine flooding execution; return tree + stats.

    The round count of the returned :class:`SimulationResult` is ``O(D)``,
    which the tests assert; the resulting tree is used as the spanning tree
    ``T`` of the shortcut framework exactly as Theorem 1 prescribes.

    ``root`` is always a node *label*; the primitive converts it to an index
    on the way in and maps the parent pointers back to labels on the way
    out, so the returned tree is label-keyed.  Runs under every simulator
    mode (``simulator_cls``).

    With an active ``fault_schedule`` the robust retry/ack flood runs
    instead and the returned tree is centrally repaired where the fault
    layer disconnected it -- see :func:`robust_bfs_tree`, which also
    reports the repair count.
    """
    tree, result, _ = _bfs_tree(graph, root, simulator_cls, active_schedule(fault_schedule))
    return tree, result


def robust_bfs_tree(
    graph: nx.Graph | GraphView,
    root: Hashable,
    fault_schedule: FaultSchedule | FaultModel | None,
    simulator_cls: type[CongestSimulator] = CongestSimulator,
) -> tuple[RootedTree, SimulationResult, int]:
    """BFS tree under faults; return ``(tree, stats, repaired_edges)``.

    Runs the retry/ack flood of :class:`_RobustBfsProgram` through the
    fault layer, then centrally repairs the partial parent map (crashed
    nodes and nodes every offer to which was lost) with
    :func:`_graft_unreached`.  The returned tree always spans the network
    and validates -- even when the root itself crashed, in which case
    *every* edge is a repair and the simulation result's outputs are empty
    of the root (the documented partial-output contract).  ``repaired``
    counts the grafted parent pointers (0 = the flood survived intact).
    A null/None schedule runs the fail-free flood with ``repaired = 0``.
    """
    return _bfs_tree(graph, root, simulator_cls, active_schedule(fault_schedule))


class _FloodMaxProgram(NodeProgram):
    """Every node learns the maximum node identifier (leader election by flooding)."""

    runtime = FloodMaxRuntime

    def __init__(self, context: NodeContext) -> None:
        super().__init__(context)
        self.best = context.node

    def on_start(self) -> dict[Hashable, object]:
        return {neighbour: self.best for neighbour in self.context.neighbours}

    def on_round(self, round_number: int, inbox: dict[Hashable, object]) -> dict[Hashable, object]:
        improved = False
        id_key = self.context.id_key
        for message in inbox.values():
            if id_key(message) > id_key(self.best):
                self.best = message
                improved = True
        if improved:
            return {neighbour: self.best for neighbour in self.context.neighbours}
        # A node halts on its first round without an improvement; later mail
        # wakes it again.
        self.halted = True
        return {}

    def result(self) -> object:
        return self.best


def flood_max_id(
    graph: nx.Graph | GraphView,
    simulator_cls: type[CongestSimulator] = CongestSimulator,
    fault_schedule: FaultSchedule | FaultModel | None = None,
) -> tuple[Hashable, SimulationResult]:
    """Elect the maximum-id node as the leader by flooding; return (leader, stats).

    The elected maximum *index* is the maximum-repr label (index order is
    repr order), returned in label form.  Every id costs one word, whatever
    its label.  Runs under every simulator mode.

    Under an active ``fault_schedule`` the plain flood runs through the
    fault layer unchanged (it cannot hang: a node halts on its first quiet
    round) but nodes cut off by losses or crashes may disagree; the
    documented partial contract returns the maximum *claimed* leader among
    the survivors instead of raising.
    """
    schedule = active_schedule(fault_schedule)
    view = view_of(graph)
    result = simulator_cls(view, _Programs(_FloodMaxProgram), fault_schedule=schedule).run()
    leaders = set(result.outputs.values())
    if len(leaders) == 1:
        leader = next(iter(leaders))
    elif schedule is None:
        raise SimulationError(f"leader election did not converge: {leaders}")
    elif leaders:
        leader = max(leaders)  # survivors disagree: report the strongest claim
    else:
        return None, result  # every node crashed: nobody was elected
    return view.node_of(leader), result


class _BroadcastProgram(NodeProgram):
    """Flood a single value from one source to every node (leader announcement).

    Like :class:`_BfsProgram`, uninformed nodes halt and are woken by the
    flood's messages, so the per-round active set is the flood frontier.
    """

    runtime = BroadcastRuntime

    def __init__(self, context: NodeContext, source: Hashable, value: object) -> None:
        super().__init__(context)
        self.source = source
        self.value: object = value if context.node == source else None
        self.informed = context.node == source

    def on_start(self) -> dict[Hashable, object]:
        if self.informed:
            return {neighbour: ("bc", self.value) for neighbour in self.context.neighbours}
        self.halted = True  # sleep until the flood's message wakes us
        return {}

    def on_round(self, round_number: int, inbox: dict[Hashable, object]) -> dict[Hashable, object]:
        self.halted = True
        if self.informed:
            return {}
        offers = [message[1] for message in inbox.values() if message[0] == "bc"]
        if not offers:
            return {}
        self.value = offers[0]
        self.informed = True
        senders = {sender for sender, message in inbox.items() if message[0] == "bc"}
        return {
            neighbour: ("bc", self.value)
            for neighbour in self.context.neighbours
            if neighbour not in senders
        }

    def result(self) -> object:
        return self.value


class _RobustBroadcastProgram(_RetryFlood):
    """Broadcast over :class:`_RetryFlood`: the offer is ``("bc", value)``.

    An uninformed node adopts the value of its first announcer.  Nodes
    still uninformed when every budget expired are a documented partial
    output (``result() is None``), including the case of a crashed source.
    """

    def __init__(self, context: NodeContext, source: Hashable, value: object) -> None:
        super().__init__(context, ("bc", value) if context.node == source else None)

    def join(self, inbox: dict[Hashable, object], senders: list[Hashable]) -> tuple:
        return inbox[senders[0]]

    def result(self) -> object:
        return None if self.message is None else self.message[1]


def broadcast_value(
    graph: nx.Graph | GraphView,
    source: Hashable,
    value: object,
    simulator_cls: type[CongestSimulator] = CongestSimulator,
    fault_schedule: FaultSchedule | FaultModel | None = None,
) -> SimulationResult:
    """Broadcast ``value`` from ``source`` to every node; return the run stats.

    Used by the scenario engine to charge the ``O(D)`` result-announcement
    phase of the distributed algorithms as a genuine simulated execution.
    The returned outputs map every node to the received value, which the
    callers assert for correctness.  ``source`` is a label, converted to an
    index at the boundary.  Runs under every simulator mode.

    Under an active ``fault_schedule`` the retry/ack announcement of
    :class:`_RobustBroadcastProgram` runs instead; nodes still uninformed
    when every retry budget expired (or crashed, absent from ``outputs``
    entirely) are the partial contract -- count them via
    ``result.outputs`` rather than expecting an exception.
    """
    view = view_of(graph)
    schedule = active_schedule(fault_schedule)
    program = _BroadcastProgram if schedule is None else _RobustBroadcastProgram
    factory = _Programs(program, view.index_of(source), value)
    result = simulator_cls(view, factory, fault_schedule=schedule).run()
    if schedule is None:
        wrong = [node for node, output in result.outputs.items() if output != value]
        if wrong:
            raise SimulationError(f"broadcast did not reach nodes {wrong[:5]}")
    return result


class _ConvergecastProgram(NodeProgram):
    """Aggregate values up a rooted spanning tree (tree convergecast).

    The upward half of the classic broadcast-and-echo: every node knows its
    tree parent and its number of children (state left behind by the BFS
    build phase, as in Boruvka's merge coordination); leaves report
    ``("cc", value)`` immediately, an internal node folds each child report
    into its accumulator -- in ascending child-id order, so non-commutative
    ``combine``s are deterministic -- and reports upward the round its last
    child arrives.  All waiting is mail-driven (nodes halt, the simulator
    wakes them on delivery), so the active set per round is exactly the set
    of nodes receiving reports.  ``parent`` / ``num_children`` / ``values``
    are per-index lists; each node reads its own entry.
    """

    runtime = ConvergecastRuntime

    def __init__(
        self,
        context: NodeContext,
        parent: list[int | None],
        num_children: list[int],
        values: list[object],
        combine: Callable[[object, object], object],
    ) -> None:
        super().__init__(context)
        node = context.node
        self.parent = parent[node]
        self.remaining = num_children[node]
        self.acc = values[node]
        self.combine = combine
        self.aggregate: object | None = None

    def on_start(self) -> dict[Hashable, object]:
        self.halted = True  # all waiting is mail-driven
        if self.remaining:
            return {}
        if self.parent is None:  # single-node tree: the root is a leaf
            self.aggregate = self.acc
            return {}
        return {self.parent: ("cc", self.acc)}

    def on_round(self, round_number: int, inbox: dict[Hashable, object]) -> dict[Hashable, object]:
        self.halted = True
        id_key = self.context.id_key
        for sender in sorted(inbox, key=id_key):
            self.acc = self.combine(self.acc, inbox[sender][1])
            self.remaining -= 1
        if self.remaining:
            return {}
        if self.parent is None:
            self.aggregate = self.acc
            return {}
        return {self.parent: ("cc", self.acc)}

    def result(self) -> object:
        return self.aggregate


class _RobustConvergecastProgram(_ConvergecastProgram):
    """Tree convergecast with acked, retried reports and a round timeout.

    A child re-sends ``("cc", acc)`` to its parent every round until the
    parent's ``("ok",)`` arrives or the send budget expires; the parent
    acks every report and folds each child's *first* one (retries dedupe
    on the reporting child).  Because a crashed or cut-off child would
    leave ``remaining`` forever positive, every node also reads a
    ``timeouts`` round at which it fires its partial accumulator upward
    regardless -- timeouts are staggered by tree depth (deeper nodes fire
    earlier), so even under heavy crashes the surviving partial aggregates
    still propagate to the root.  Reports arriving after the fold closed
    are acked and discarded (the documented partial contract).
    """

    runtime = None

    def __init__(
        self,
        context: NodeContext,
        parent: list[int | None],
        num_children: list[int],
        values: list[object],
        combine: Callable[[object, object], object],
        timeouts: list[int],
    ) -> None:
        super().__init__(context, parent, num_children, values, combine)
        self.timeout_round = timeouts[context.node]
        self.reported: set[Hashable] = set()
        self.fired = False
        self.acked = False
        self.sends_left = 0

    def on_start(self) -> dict[Hashable, object]:
        if self.remaining == 0:
            self.fired = True
            if self.parent is None:  # single-node tree
                self.aggregate = self.acc
                self.halted = True
                return {}
            self.sends_left = RETRY_BUDGET
            return {self.parent: ("cc", self.acc)}
        return {}  # stay live either way: retries and the timeout clock tick

    def on_round(self, round_number: int, inbox: dict[Hashable, object]) -> dict[Hashable, object]:
        out: dict[Hashable, object] = {}
        id_key = self.context.id_key
        for sender in sorted(inbox, key=id_key):
            message = inbox[sender]
            if message[0] == "ok":
                self.acked = True
                continue
            out[sender] = ("ok",)  # every report is acknowledged
            if sender not in self.reported:
                self.reported.add(sender)
                if not self.fired:
                    self.acc = self.combine(self.acc, message[1])
                    self.remaining -= 1
                # else: late report after our timeout fired -- discarded.
        if not self.fired and (self.remaining == 0 or round_number >= self.timeout_round):
            self.fired = True
            if self.parent is None:
                self.aggregate = self.acc
            else:
                self.sends_left = RETRY_BUDGET + 1
        if self.fired and self.parent is not None and not self.acked and self.sends_left > 0:
            out[self.parent] = ("cc", self.acc)
            self.sends_left -= 1
        if self.parent is None:
            self.halted = self.fired
        else:
            self.halted = self.fired and (self.acked or self.sends_left == 0)
        return out


def convergecast_aggregate(
    graph: nx.Graph | GraphView,
    tree: RootedTree,
    values: Mapping[Hashable, object],
    combine: Callable[[object, object], object] = min,
    simulator_cls: type[CongestSimulator] = CongestSimulator,
    fault_schedule: FaultSchedule | FaultModel | None = None,
) -> tuple[object, SimulationResult]:
    """Aggregate ``values`` up ``tree`` to its root; return (aggregate, stats).

    The convergecast half of the aggregation primitive the shortcut
    framework accelerates (Theorem 1), run as a genuine node-program
    execution over the network: the root learns
    ``combine(values...)`` after ``O(tree height)`` rounds with exactly one
    message per tree edge.  ``tree`` must span ``graph`` (its edges are
    network edges, so the simulator's topology enforcement applies) and
    ``values`` must cover every node; ``combine`` must be associative but
    may be non-commutative/non-exact (folding order is pinned to ascending
    child id, identically in every simulator mode).

    Under an active ``fault_schedule`` the acked/retried convergecast of
    :class:`_RobustConvergecastProgram` runs instead, with per-node
    timeouts staggered by tree depth; the returned aggregate folds only
    the reports that survived (``None`` when the root itself crashed) --
    the documented partial contract.
    """
    view = view_of(graph)
    if len(tree.parent) != len(view):
        raise InvalidGraphError("convergecast needs a spanning tree of the network")
    missing = [node for node in tree.parent if node not in values]
    if missing:
        raise SimulationError(f"no input value for vertex {missing[0]}")
    schedule = active_schedule(fault_schedule)
    index_of = view.index_of
    n = len(view)
    parent: list[int | None] = [None] * n
    num_children = [0] * n
    node_values: list[object] = [None] * n
    for node, up in tree.parent.items():
        index = index_of(node)
        parent[index] = None if up is None else index_of(up)
        num_children[index] = len(tree.children[node])
        node_values[index] = values[node]
    args = (parent, num_children, node_values, combine)
    if schedule is None:
        result = simulator_cls(view, _Programs(_ConvergecastProgram, *args)).run()
        return result.outputs[tree.root], result
    # Depth-staggered timeouts: deeper nodes give up earlier, so a partial
    # accumulator still has time to climb to the root before *its* timeout.
    # The stride covers one retry burst per tree level.
    max_depth = tree.height
    stride = RETRY_BUDGET + 4
    timeouts = [0] * n
    for node, level in tree.depth.items():
        timeouts[index_of(node)] = 2 * (max_depth + 1) + (max_depth - level) * stride + 4
    factory = _Programs(_RobustConvergecastProgram, *args, timeouts)
    result = simulator_cls(view, factory, fault_schedule=schedule).run()
    return result.outputs.get(tree.root), result
