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

Each primitive's program factory is a small class that builds the per-node
:class:`NodeProgram` when called with a context *and* carries the
``compile_runtime`` hook the runtime mode asks for -- the hook returns the
program family's batch twin from :mod:`repro.congest.runtime`.  The
per-node class stays the semantic definition; the compiled twin must
reproduce it exactly (see ``docs/simulator.md`` for the contract).
"""

from __future__ import annotations

from typing import Callable, Hashable, Mapping

import networkx as nx

from ..core import GraphView, view_of
from ..errors import InvalidGraphError, SimulationError
from ..structure.spanning import RootedTree
from .faults import FaultModel, FaultSchedule
from .node import NodeContext, NodeProgram
from .runtime import (
    BfsRuntime,
    BroadcastRuntime,
    ConvergecastRuntime,
    FloodMaxRuntime,
    RuntimeProgram,
)
from .simulator import CongestSimulator, SimulationResult


class _BfsProgram(NodeProgram):
    """Flood a BFS token from the root; every node records its parent.

    Nodes waiting for the wavefront *halt* instead of idling: a halted node
    with mail is woken by the simulator, so the active set each round is the
    genuine BFS frontier (plus its recipients), not every unjoined node.
    The message pattern -- and therefore rounds, messages and words -- is
    unchanged; only the executed-node telemetry tightens.
    """

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


class _BfsFactory:
    """Factory for :class:`_BfsProgram` with its vectorized twin.

    ``root`` is already an index -- :func:`distributed_bfs_tree` converts
    at the boundary.
    """

    __slots__ = ("root",)

    def __init__(self, root: Hashable) -> None:
        self.root = root

    def __call__(self, context: NodeContext) -> NodeProgram:
        return _BfsProgram(context, self.root)

    def compile_runtime(self, simulator: CongestSimulator) -> RuntimeProgram:
        return BfsRuntime(simulator._view, simulator.bandwidth_words, self.root)


def _resolve_schedule(
    fault_schedule: FaultSchedule | FaultModel | None,
) -> FaultSchedule | None:
    """Normalise the primitives' ``fault_schedule`` argument.

    Accepts a schedule, a bare model (wrapped with seed 0) or None, and
    returns an *active* schedule or None -- null models come back as None,
    so a rate-0 fault spec takes the unchanged fail-free code path (plain
    programs, no ack traffic) and reproduces fail-free results exactly.
    """
    if fault_schedule is None:
        return None
    if not isinstance(fault_schedule, FaultSchedule):
        fault_schedule = FaultSchedule(fault_schedule)
    return fault_schedule if fault_schedule.active else None


def distributed_bfs_tree(
    graph: nx.Graph | GraphView,
    root: Hashable,
    simulator_cls: type[CongestSimulator] = CongestSimulator,
    fault_schedule: FaultSchedule | FaultModel | None = None,
    retry_budget: int = 5,
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
    schedule = _resolve_schedule(fault_schedule)
    if schedule is not None:
        tree, result, _ = robust_bfs_tree(
            graph, root, schedule, simulator_cls=simulator_cls, retry_budget=retry_budget
        )
        return tree, result
    view = view_of(graph)
    result = simulator_cls(view, _BfsFactory(view.index_of(root))).run()
    node_of = view.nodes
    parent = {
        node: (None if output is None else node_of[output])
        for node, output in result.outputs.items()
    }
    parent[root] = None
    tree = RootedTree(parent, root)
    tree.validate(view)
    return tree, result


class _RobustBfsProgram(NodeProgram):
    """BFS flood with bounded retry and acknowledgement (fault-tolerant).

    Under message loss a single ``("bfs", depth)`` offer can vanish, so a
    joined node keeps a ``pending`` map of neighbours it has not yet heard
    from and re-offers every round until an acknowledgement arrives or a
    per-neighbour send budget expires (give-up, bounded termination).
    Acknowledgements are mostly *implicit*: receiving ``("bfs", _)`` from a
    neighbour proves that neighbour has joined, which is all the sender
    wanted to know.  Explicit ``("ok",)`` replies cover the remaining case
    (a node offered to someone who was already joined and therefore will
    never offer back).  The join rule is the plain program's -- minimum
    ``(depth, id)`` over the round's offers -- so fault-free prefixes of
    the execution pick the same parents.
    """

    def __init__(self, context: NodeContext, root: Hashable, retry_budget: int) -> None:
        super().__init__(context)
        self.root = root
        self.retry_budget = retry_budget
        self.parent: Hashable | None = None
        self.joined = context.node == root
        self.depth = 0 if self.joined else None
        self.pending: dict[Hashable, int] = {}

    def on_start(self) -> dict[Hashable, object]:
        if self.joined:
            self.pending = {
                neighbour: self.retry_budget for neighbour in self.context.neighbours
            }
            self.halted = not self.pending
            return {neighbour: ("bfs", 0) for neighbour in self.context.neighbours}
        self.halted = True  # sleep until an offer (or retry) wakes us
        return {}

    def on_round(self, round_number: int, inbox: dict[Hashable, object]) -> dict[Hashable, object]:
        pending = self.pending
        offers = []
        for sender, message in inbox.items():
            if message[0] == "ok":
                pending.pop(sender, None)
            else:  # ("bfs", depth): an offer, and implicit proof sender joined
                pending.pop(sender, None)
                offers.append((message[1], sender))
        out: dict[Hashable, object] = {}
        if not self.joined and offers:
            id_key = self.context.id_key
            depth, parent = min(offers, key=lambda item: (item[0], id_key(item[1])))
            self.parent = parent
            self.joined = True
            self.depth = depth + 1
            offer_senders = {sender for _, sender in offers}
            self.pending = pending = {
                neighbour: self.retry_budget + 1
                for neighbour in self.context.neighbours
                if neighbour != parent and neighbour not in offer_senders
            }
        if self.joined:
            payload = ("bfs", self.depth)
            for neighbour in list(pending):
                out[neighbour] = payload
                remaining = pending[neighbour] - 1
                if remaining <= 0:
                    del pending[neighbour]  # budget exhausted: give up
                else:
                    pending[neighbour] = remaining
            # Explicitly ack offers we will not answer with an offer of our
            # own (the sender is waiting for proof we joined).
            for _, sender in offers:
                if sender not in out:
                    out[sender] = ("ok",)
        self.halted = (not pending) if self.joined else True
        return out

    def result(self) -> object:
        return self.parent


class _RobustBfsFactory:
    """Factory for :class:`_RobustBfsProgram` (fault schedules only).

    No ``compile_runtime`` hook: under an active schedule the runtime mode
    runs the active-set loop on genuine node programs and needs no twin.
    """

    __slots__ = ("root", "retry_budget")

    def __init__(self, root: Hashable, retry_budget: int) -> None:
        self.root = root
        self.retry_budget = retry_budget

    def __call__(self, context: NodeContext) -> NodeProgram:
        return _RobustBfsProgram(context, self.root, self.retry_budget)


def _graft_unreached(
    nodes: list[Hashable],
    parent: dict[Hashable, Hashable | None],
    root: Hashable,
    neighbours_of: Callable[[Hashable], list[Hashable]],
) -> int:
    """Deterministically repair a partial BFS parent map in place.

    ``parent`` may be missing nodes (crashed, or never reached before every
    offerer's budget expired) and surviving pointers may dangle into such
    holes.  The repair keeps every pointer whose chain provably reaches the
    root and repeatedly attaches, in canonical node order, each remaining
    node to its first (minimum canonical) neighbour with a proven chain --
    the tree a recovery protocol would rebuild from the survivors.  Returns
    the number of reassigned/added parent pointers; terminates on every
    connected graph.
    """
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
    unsafe = [node for node in nodes if node not in safe]
    while unsafe:
        progress = False
        still = []
        for node in unsafe:
            up = parent.get(node)
            if up is not None and up in safe:
                safe.add(node)  # dangling chain reattached upstream of us
                progress = True
                continue
            anchors = [nb for nb in neighbours_of(node) if nb in safe]
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


def robust_bfs_tree(
    graph: nx.Graph | GraphView,
    root: Hashable,
    fault_schedule: FaultSchedule | FaultModel | None,
    simulator_cls: type[CongestSimulator] = CongestSimulator,
    retry_budget: int = 5,
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
    A null/None schedule falls back to the fail-free primitive with
    ``repaired = 0``.
    """
    schedule = _resolve_schedule(fault_schedule)
    if schedule is None:
        tree, result = distributed_bfs_tree(graph, root, simulator_cls=simulator_cls)
        return tree, result, 0
    view = view_of(graph)
    factory = _RobustBfsFactory(view.index_of(root), retry_budget)
    result = simulator_cls(view, factory, fault_schedule=schedule).run()
    node_of = view.nodes
    core = view.core
    index_of = view.index_of
    parent = {
        node: (None if output is None else node_of[output])
        for node, output in result.outputs.items()
    }

    def neighbours_of(node):
        return [node_of[index] for index in core.neighbors(index_of(node))]

    parent[root] = None
    # Index order == repr order, so the view's label list is canonical.
    repaired = _graft_unreached(node_of, parent, root, neighbours_of)
    tree = RootedTree(parent, root)
    tree.validate(view)
    return tree, result, repaired


class _FloodMaxProgram(NodeProgram):
    """Every node learns the maximum node identifier (leader election by flooding)."""

    def __init__(self, context: NodeContext) -> None:
        super().__init__(context)
        self.best = context.node
        self.rounds_quiet = 0

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
        # A node halts once it has been quiet for one round past the diameter
        # bound; the simulator also terminates on global quiescence.
        self.halted = True
        return {}

    def result(self) -> object:
        return self.best


class _FloodMaxFactory:
    """Factory for :class:`_FloodMaxProgram` with its vectorized twin."""

    __slots__ = ()

    def __call__(self, context: NodeContext) -> NodeProgram:
        return _FloodMaxProgram(context)

    def compile_runtime(self, simulator: CongestSimulator) -> RuntimeProgram:
        return FloodMaxRuntime(simulator._view, simulator.bandwidth_words)


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
    schedule = _resolve_schedule(fault_schedule)
    view = view_of(graph)
    result = simulator_cls(view, _FloodMaxFactory(), fault_schedule=schedule).run()
    leaders = set(result.outputs.values())
    if len(leaders) == 1:
        leader = next(iter(leaders))
    elif schedule is None:
        raise RuntimeError(f"leader election did not converge: {leaders}")
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


class _BroadcastFactory:
    """Factory for :class:`_BroadcastProgram` with its vectorized twin.

    ``source`` is an index, like :class:`_BfsFactory`'s root.
    """

    __slots__ = ("source", "value")

    def __init__(self, source: Hashable, value: object) -> None:
        self.source = source
        self.value = value

    def __call__(self, context: NodeContext) -> NodeProgram:
        return _BroadcastProgram(context, self.source, self.value)

    def compile_runtime(self, simulator: CongestSimulator) -> RuntimeProgram:
        return BroadcastRuntime(
            simulator._view, simulator.bandwidth_words, self.source, self.value
        )


class _RobustBroadcastProgram(NodeProgram):
    """Broadcast with bounded retry and acknowledgement (fault-tolerant).

    Same protocol shape as :class:`_RobustBfsProgram`: an informed node
    keeps re-announcing ``("bc", value)`` to every neighbour it has no
    proof about, where proof is an implicit ack (the neighbour announced
    back) or an explicit ``("ok",)``; per-neighbour budgets bound the
    retries, so the flood always terminates and uninformed nodes are a
    documented partial output (``result() is None``), including the case
    of a crashed source.
    """

    def __init__(
        self, context: NodeContext, source: Hashable, value: object, retry_budget: int
    ) -> None:
        super().__init__(context)
        self.source = source
        self.retry_budget = retry_budget
        self.value: object = value if context.node == source else None
        self.informed = context.node == source
        self.pending: dict[Hashable, int] = {}

    def on_start(self) -> dict[Hashable, object]:
        if self.informed:
            self.pending = {
                neighbour: self.retry_budget for neighbour in self.context.neighbours
            }
            self.halted = not self.pending
            return {neighbour: ("bc", self.value) for neighbour in self.context.neighbours}
        self.halted = True
        return {}

    def on_round(self, round_number: int, inbox: dict[Hashable, object]) -> dict[Hashable, object]:
        pending = self.pending
        announcers = []
        for sender, message in inbox.items():
            if message[0] == "ok":
                pending.pop(sender, None)
            else:  # ("bc", value): the announcement, and an implicit ack
                pending.pop(sender, None)
                announcers.append(sender)
        out: dict[Hashable, object] = {}
        if not self.informed and announcers:
            self.value = inbox[announcers[0]][1]
            self.informed = True
            known = set(announcers)
            self.pending = pending = {
                neighbour: self.retry_budget + 1
                for neighbour in self.context.neighbours
                if neighbour not in known
            }
        if self.informed:
            payload = ("bc", self.value)
            for neighbour in list(pending):
                out[neighbour] = payload
                remaining = pending[neighbour] - 1
                if remaining <= 0:
                    del pending[neighbour]
                else:
                    pending[neighbour] = remaining
            for sender in announcers:
                if sender not in out:
                    out[sender] = ("ok",)
        self.halted = (not pending) if self.informed else True
        return out

    def result(self) -> object:
        return self.value


class _RobustBroadcastFactory:
    """Factory for :class:`_RobustBroadcastProgram` (fault schedules only)."""

    __slots__ = ("source", "value", "retry_budget")

    def __init__(self, source: Hashable, value: object, retry_budget: int) -> None:
        self.source = source
        self.value = value
        self.retry_budget = retry_budget

    def __call__(self, context: NodeContext) -> NodeProgram:
        return _RobustBroadcastProgram(context, self.source, self.value, self.retry_budget)


def broadcast_value(
    graph: nx.Graph | GraphView,
    source: Hashable,
    value: object,
    simulator_cls: type[CongestSimulator] = CongestSimulator,
    fault_schedule: FaultSchedule | FaultModel | None = None,
    retry_budget: int = 5,
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
    program_source = view.index_of(source)
    schedule = _resolve_schedule(fault_schedule)
    if schedule is not None:
        factory = _RobustBroadcastFactory(program_source, value, retry_budget)
        return simulator_cls(view, factory, fault_schedule=schedule).run()
    result = simulator_cls(view, _BroadcastFactory(program_source, value)).run()
    wrong = [node for node, output in result.outputs.items() if output != value]
    if wrong:
        raise RuntimeError(f"broadcast did not reach nodes {wrong[:5]}")
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
    of nodes receiving reports.
    """

    def __init__(
        self,
        context: NodeContext,
        parent: Hashable | None,
        num_children: int,
        value: object,
        combine: Callable[[object, object], object],
    ) -> None:
        super().__init__(context)
        self.parent = parent
        self.remaining = num_children
        self.acc = value
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


class _ConvergecastFactory:
    """Factory for :class:`_ConvergecastProgram` with its vectorized twin.

    ``parent`` / ``num_children`` / ``values`` are keyed by index;
    :func:`convergecast_aggregate` converts at the boundary.
    """

    __slots__ = ("parent", "num_children", "values", "combine")

    def __init__(
        self,
        parent: Mapping[Hashable, Hashable | None],
        num_children: Mapping[Hashable, int],
        values: Mapping[Hashable, object],
        combine: Callable[[object, object], object],
    ) -> None:
        self.parent = parent
        self.num_children = num_children
        self.values = values
        self.combine = combine

    def __call__(self, context: NodeContext) -> NodeProgram:
        node = context.node
        return _ConvergecastProgram(
            context,
            self.parent[node],
            self.num_children[node],
            self.values[node],
            self.combine,
        )

    def compile_runtime(self, simulator: CongestSimulator) -> RuntimeProgram:
        view = simulator._view
        n = len(view.nodes)
        parent = [-1] * n
        values = [None] * n
        for node, up in self.parent.items():
            parent[node] = -1 if up is None else up
            values[node] = self.values[node]
        return ConvergecastRuntime(
            view, simulator.bandwidth_words, parent, values, self.combine
        )


class _RobustConvergecastProgram(NodeProgram):
    """Tree convergecast with acked, retried reports and a round timeout.

    A child re-sends ``("cc", acc)`` to its parent every round until the
    parent's ``("ok",)`` arrives or the send budget expires; the parent
    acks every report and folds each child's *first* one (retries dedupe
    on the reporting child).  Because a crashed or cut-off child would
    leave ``remaining`` forever positive, every node also carries a
    ``timeout_round`` at which it fires its partial accumulator upward
    regardless -- timeouts are staggered by tree depth (deeper nodes fire
    earlier), so even under heavy crashes the surviving partial aggregates
    still propagate to the root.  Reports arriving after the fold closed
    are acked and discarded (the documented partial contract).
    """

    def __init__(
        self,
        context: NodeContext,
        parent: Hashable | None,
        num_children: int,
        value: object,
        combine: Callable[[object, object], object],
        retry_budget: int,
        timeout_round: int,
    ) -> None:
        super().__init__(context)
        self.parent = parent
        self.remaining = num_children
        self.acc = value
        self.combine = combine
        self.retry_budget = retry_budget
        self.timeout_round = timeout_round
        self.aggregate: object | None = None
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
            self.sends_left = self.retry_budget
            self.halted = self.sends_left == 0
            return {self.parent: ("cc", self.acc)}
        self.halted = False  # stay live: the timeout clock must tick
        return {}

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
                self.sends_left = self.retry_budget + 1
        if (
            self.fired
            and self.parent is not None
            and not self.acked
            and self.sends_left > 0
        ):
            out[self.parent] = ("cc", self.acc)
            self.sends_left -= 1
        if self.parent is None:
            self.halted = self.fired
        else:
            self.halted = self.fired and (self.acked or self.sends_left == 0)
        return out

    def result(self) -> object:
        return self.aggregate


class _RobustConvergecastFactory:
    """Factory for :class:`_RobustConvergecastProgram` (fault schedules only).

    Like :class:`_ConvergecastFactory` plus per-node timeout rounds (all
    keyed by index); :func:`convergecast_aggregate` computes the
    depth-staggered timeouts at the boundary.
    """

    __slots__ = ("parent", "num_children", "values", "timeouts", "combine", "retry_budget")

    def __init__(
        self,
        parent: Mapping[Hashable, Hashable | None],
        num_children: Mapping[Hashable, int],
        values: Mapping[Hashable, object],
        timeouts: Mapping[Hashable, int],
        combine: Callable[[object, object], object],
        retry_budget: int,
    ) -> None:
        self.parent = parent
        self.num_children = num_children
        self.values = values
        self.timeouts = timeouts
        self.combine = combine
        self.retry_budget = retry_budget

    def __call__(self, context: NodeContext) -> NodeProgram:
        node = context.node
        return _RobustConvergecastProgram(
            context,
            self.parent[node],
            self.num_children[node],
            self.values[node],
            self.combine,
            self.retry_budget,
            self.timeouts[node],
        )


def convergecast_aggregate(
    graph: nx.Graph | GraphView,
    tree: RootedTree,
    values: Mapping[Hashable, object],
    combine: Callable[[object, object], object] = min,
    simulator_cls: type[CongestSimulator] = CongestSimulator,
    fault_schedule: FaultSchedule | FaultModel | None = None,
    retry_budget: int = 5,
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
    schedule = _resolve_schedule(fault_schedule)
    index_of = view.index_of
    parent = {}
    num_children = {}
    node_values = {}
    for node, up in tree.parent.items():
        index = index_of(node)
        parent[index] = None if up is None else index_of(up)
        num_children[index] = len(tree.children[node])
        node_values[index] = values[node]
    if schedule is not None:
        # Depth-staggered timeouts: deeper nodes give up earlier, so a
        # partial accumulator still has time to climb to the root before
        # *its* timeout.  The stride covers one retry burst per tree level.
        max_depth = tree.height
        stride = retry_budget + 4
        timeouts = {
            index_of(node): 2 * (max_depth + 1) + (max_depth - level) * stride + 4
            for node, level in tree.depth.items()
        }
        factory = _RobustConvergecastFactory(
            parent, num_children, node_values, timeouts, combine, retry_budget
        )
        result = simulator_cls(view, factory, fault_schedule=schedule).run()
        return result.outputs.get(tree.root), result
    factory = _ConvergecastFactory(parent, num_children, node_values, combine)
    result = simulator_cls(view, factory).run()
    return result.outputs[tree.root], result
