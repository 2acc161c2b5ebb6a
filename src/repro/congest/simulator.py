"""The synchronous round-driving loop of the CONGEST simulator.

The simulator is *active-set* driven: per round it touches only the nodes
that can possibly do work -- nodes whose program has not halted plus nodes
with a non-empty inbox -- instead of scanning every node every round.  On
sparse executions (a BFS wavefront, a shrinking flood) this makes the cost
per round proportional to the frontier, not to ``n``.  Message buffers are
allocated per recipient on demand (an idle node never owns an inbox dict)
and the diameter bound handed to the node programs is computed lazily, so
programs that never read ``D`` never pay for an all-pairs BFS.

Round accounting is consistent: ``SimulationResult.rounds`` is the index of
the last round in which any message was sent or delivered (rounds are
1-based, with the ``on_start`` sends forming round 1).  A computation that
never communicates therefore costs 0 rounds regardless of how many silent
bookkeeping rounds the programs took to halt -- the seed implementation
counted trailing silent rounds but not a silent first round, which made
round counts depend on *where* the silence happened.

The seed's full-scan simulator (same results, eager diameter, O(n) per
round) is kept in the test suite as the differential-testing oracle.

The loop runs in one id space, the indices of a
:class:`repro.core.GraphView` (**core mode**): node ids are ints, neighbour
lists come straight from CSR slices, the active set sorts as plain ints and
topology checks hit flat neighbour sets.  An ``nx.Graph`` network is
wrapped with :func:`repro.core.view_of` on the way in (**label mode**) and
a thin adapter translates at the program boundary: each program gets a
label-space :class:`NodeContext` (repr-ordered neighbours, label-keyed
weights, ``id_key=repr``), its inbox keys are mapped index -> label and
its outbox keys label -> index.  Payloads are never translated, so a
program that sends a label pays for the label's words; everything else --
rounds, telemetry, fault decisions -- is the core-mode execution, because
the view assigns indices in repr order.  ``run()`` keys the result's
``outputs`` by the original labels either way; programs run on a view see
indices, so callers whose programs emit node ids in their results (e.g. BFS
parent pointers) map those values back through ``view.node_of`` -- see
:func:`repro.congest.primitives.distributed_bfs_tree`.

The vectorized runtime is the subclass
:class:`repro.congest.runtime.RuntimeSimulator`: instead of one Python call
per active node per round, the built-in node programs are compiled into
whole-network batch step functions (:mod:`repro.congest.runtime`) that
advance a round with flat-array operations.  Rounds, messages, words,
outputs and per-round telemetry are *exactly* equal to the per-node loop
below, which holds the model semantics and stays the differential oracle
for the compiled programs.  ``docs/simulator.md`` documents the model and
the mode equality contract.

There is one round loop, :meth:`CongestSimulator.run`.  Mail flows through
a mailbox object: a :class:`~repro.congest.faults.FaultQueue` under an
active fault schedule, otherwise a pass-through mailbox that delivers every
send in the next round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable

import networkx as nx

from ..core import GraphView, view_of
from ..errors import RoundLimitError, SimulationError
from .faults import FaultModel, FaultQueue, FaultSchedule, active_schedule
from .node import NodeContext, NodeProgram, message_size_in_words


@dataclass(frozen=True)
class RoundTelemetry:
    """Per-round activity record (what the scenario engine logs).

    Attributes:
        round: 1-based round index (round 1 is the ``on_start`` round).
        active_nodes: number of node programs that executed this round.
        messages: messages sent this round.
        words: message volume sent this round, in machine words.
        dropped: messages destroyed this round by the fault layer (lossy
            sends, plus mail addressed to already-crashed recipients).
        delayed: messages sent this round that will arrive late.
        duplicated: extra message copies injected for this round's sends.
        crashed: nodes that crashed *this* round (crash-stop, permanent).

    The four fault columns default to 0 so fail-free rows -- and every
    record produced before the fault layer existed -- compare equal.
    """

    round: int
    active_nodes: int
    messages: int
    words: int
    dropped: int = 0
    delayed: int = 0
    duplicated: int = 0
    crashed: int = 0


@dataclass
class SimulationResult:
    """Outcome of one simulated execution.

    Attributes:
        rounds: index of the last synchronous round in which any message was
            sent or delivered (0 for computations that never communicate).
        messages: total number of (non-``None``) messages sent.
        words: total message volume in machine words.
        outputs: mapping node -> whatever the node's program returned from
            :meth:`NodeProgram.result`.  Crashed nodes are excluded --
            a failed processor produces no output (the "outputs only from
            live nodes" invariant of ``docs/simulator.md``).
        telemetry: one :class:`RoundTelemetry` per executed round (including
            trailing silent rounds, whose ``messages`` is 0).
        dropped: total messages destroyed by the fault layer (0 fail-free).
        delayed: total messages that arrived late (0 fail-free).
        duplicated: total extra copies injected (0 fail-free).
        crashed_nodes: number of nodes that crashed during the run.

    ``messages``/``words`` always count what the programs *sent*.  Under
    faults at most ``messages - dropped + duplicated`` messages are
    delivered: a delayed or duplicate copy that lands in an occupied
    (arrival round, recipient, sender) slot replaces the message there, so
    the two count as one delivery.
    """

    rounds: int
    messages: int
    words: int
    outputs: dict[Hashable, object] = field(default_factory=dict)
    telemetry: list[RoundTelemetry] = field(default_factory=list)
    dropped: int = 0
    delayed: int = 0
    duplicated: int = 0
    crashed_nodes: int = 0

    def peak_active_nodes(self) -> int:
        """Return the largest number of programs executed in any round."""
        return max((entry.active_nodes for entry in self.telemetry), default=0)

    def total_active_node_rounds(self) -> int:
        """Return the sum of per-round active counts (the simulator's work)."""
        return sum(entry.active_nodes for entry in self.telemetry)


class CongestSimulator:
    """Synchronous message-passing simulator with bandwidth enforcement.

    Args:
        graph: the network (connected, no self-loops), as a
            :class:`~repro.core.GraphView` (programs see its indices) or an
            ``nx.Graph`` (programs see its labels; the run itself happens
            on ``view_of(graph)``, so the graph must not be mutated after it
            is first viewed).  Edge weights are exposed to the node programs
            through their context.
        program_factory: callable mapping a :class:`NodeContext` to the
            :class:`NodeProgram` that runs at that node.
        bandwidth_words: per-edge, per-direction, per-round message capacity
            in machine words (``O(log n)`` bits; 3 words is enough for an
            edge id plus a weight, matching the classical model).
        diameter_bound: optional diameter bound handed to the nodes; when
            omitted it is computed exactly -- but lazily, only if some
            program actually reads ``context.diameter_bound``.
        fault_schedule: an optional :class:`~repro.congest.faults.FaultSchedule`
            (or bare :class:`~repro.congest.faults.FaultModel`, wrapped with
            seed 0) injecting seeded message drops/delays/duplications, node
            crashes and adversarial delivery order.  A null schedule is
            normalised to ``None``, so a rate-0 model runs fail-free
            bit-for-bit.
    """

    def __init__(
        self,
        graph: nx.Graph | GraphView,
        program_factory: Callable[[NodeContext], NodeProgram],
        bandwidth_words: int = 3,
        diameter_bound: int | None = None,
        fault_schedule: FaultSchedule | FaultModel | None = None,
    ) -> None:
        view = view_of(graph)
        self._view = view
        # Error messages name the ids the programs see: labels in label mode.
        self._name_of: Callable[[int], Hashable] = _identity
        if view is not graph:
            self._name_of = view.nodes.__getitem__
            program_factory = _LabelFactory(
                view.nodes, program_factory, self._resolve_diameter_bound
            )
        self.bandwidth_words = bandwidth_words
        self._diameter_bound = diameter_bound
        self._fault_schedule = active_schedule(fault_schedule)
        # An empty or disconnected network is a precondition failure
        # (InvalidGraphError); SimulationError is for illegal running states.
        core = view.core
        core.require_connected("network graph")
        self._graph = None  # lazy: materialised only if .graph is read
        # Index order == repr order of the labels, so this *is* the canonical
        # deterministic order; ints sort natively (no rank map needed).
        self._order = range(core.num_nodes)
        self.programs: dict[int, NodeProgram] = {}
        self._neighbour_sets: list[set[int]] | None = None
        self._init_programs(core, program_factory)

    def _init_programs(self, core, program_factory: Callable[[NodeContext], NodeProgram]) -> None:
        """Build one program per node: ids are indices, adjacency is CSR slices."""
        n = core.num_nodes
        neighbour_sets: list[set[int]] = []
        resolve = self._resolve_diameter_bound
        for node in self._order:
            neighbours = core.neighbors(node)
            weights = dict(zip(neighbours, core.neighbor_weights(node)))
            neighbour_sets.append(set(neighbours))
            context = NodeContext(
                node=node,
                neighbours=tuple(neighbours),
                edge_weights=weights,
                num_nodes=n,
                diameter_bound=resolve,
                id_key=_identity,
            )
            self.programs[node] = program_factory(context)
        self._neighbour_sets = neighbour_sets

    @property
    def graph(self) -> nx.Graph:
        """The network as an ``nx.Graph``, materialised on demand.

        The simulator runs entirely on the view's CSR arrays; the ``nx``
        graph is only built (lazily, through :attr:`GraphView.graph`) if
        something actually reads this attribute, so native million-node
        simulations never construct one.
        """
        if self._graph is None:
            self._graph = self._view.graph
        return self._graph

    def _resolve_diameter_bound(self) -> int:
        if self._diameter_bound is None:
            self._diameter_bound = self._view.core.exact_diameter()
        return self._diameter_bound

    @property
    def diameter_bound(self) -> int:
        """The diameter bound the nodes see (computed on first access)."""
        return self._resolve_diameter_bound()

    def _validate_outgoing(self, sender: int, outgoing: dict[int, object]) -> int:
        """Check one node's sends against the topology and the bandwidth;
        return their total size in words (``None`` messages size 0)."""
        neighbours = self._neighbour_sets[sender]
        bandwidth = self.bandwidth_words
        words = 0
        for target, message in outgoing.items():
            if target not in neighbours:  # label mode has already checked
                raise SimulationError(f"node {sender} attempted to send to non-neighbour {target}")
            size = message_size_in_words(message)
            if size > bandwidth:
                name_of = self._name_of
                raise SimulationError(
                    f"node {name_of(sender)} sent a {size}-word message to {name_of(target)}, "
                    f"exceeding the bandwidth of {bandwidth} words per edge per round"
                )
            words += size
        return words

    def _final_outputs(self, exclude: frozenset | set = frozenset()) -> dict[Hashable, object]:
        """Collect per-node results, keyed by the original labels.

        ``exclude`` holds crashed nodes (indices): a failed processor
        produces no output, so its key is absent entirely.
        """
        programs = self.programs
        node_of = self._view.nodes
        return {
            node_of[index]: programs[index].result()
            for index in self._order
            if index not in exclude
        }

    def _crash_rounds(self) -> dict[int, list[int]]:
        """Resolve the schedule's crash decisions into round -> [nodes].

        Within a round nodes are listed in canonical (index) order, so all
        modes count and apply crashes identically.
        """
        schedule = self._fault_schedule
        by_round: dict[int, list[int]] = {}
        for node in self._order:
            crash = schedule.crash_round(node)
            if crash is not None:
                by_round.setdefault(crash, []).append(node)
        return by_round

    def run(self, max_rounds: int = 10_000) -> SimulationResult:
        """Run the simulation to quiescence (all halted, no messages in flight).

        Exceeding ``max_rounds`` raises :class:`~repro.errors.RoundLimitError`
        carrying the partial result.

        Per round only the *active set* runs: the recipients of this round's
        deliveries plus every never-halted program, minus crashed nodes,
        which never execute from their crash round on.  Under an active
        fault schedule all sends route through a
        :class:`~repro.congest.faults.FaultQueue` (drop/delay/duplicate at
        the send boundary) and each round's inboxes come back crash-filtered
        and adversarially ordered from the same queue (deliver boundary).
        """
        programs = self.programs
        if self._fault_schedule is None:
            queue = _Mailbox()
            crash_by_round: dict[int, list[int]] = {}
        else:
            queue = FaultQueue(self._fault_schedule)
            crash_by_round = self._crash_rounds()
        send = queue.send
        crashed: set[int] = set()
        total_messages = total_words = 0
        total_dropped = total_delayed = total_duplicated = 0
        telemetry: list[RoundTelemetry] = []
        last_active_round = 0

        def result() -> SimulationResult:
            return SimulationResult(
                rounds=last_active_round,
                messages=total_messages,
                words=total_words,
                outputs=self._final_outputs(exclude=crashed),
                telemetry=telemetry,
                dropped=total_dropped,
                delayed=total_delayed,
                duplicated=total_duplicated,
                crashed_nodes=len(crashed),
            )

        # Round 1: on_start for every program that has not already crashed.
        newly = crash_by_round.get(1, ())
        crashed.update(newly)
        sent = words = executed = 0
        for node in self._order:
            if node in crashed:
                continue
            executed += 1
            outgoing = programs[node].on_start() or {}
            words += self._validate_outgoing(node, outgoing)
            for target, message in outgoing.items():
                if message is None:
                    continue
                send(1, node, target, message)
                sent += 1
        dropped, delayed, duplicated = queue.take_round_stats()
        total_messages += sent
        total_words += words
        total_dropped += dropped
        total_delayed += delayed
        total_duplicated += duplicated
        telemetry.append(
            RoundTelemetry(1, executed, sent, words, dropped, delayed, duplicated, len(newly))
        )
        if sent:
            last_active_round = 1
        # live is the set of non-halted programs; together with the round's
        # recipients it forms the active set.  Inbox dicts are created on
        # demand, so idle nodes never own a buffer.
        live = {
            node
            for node in self._order
            if node not in crashed and not programs[node].halted
        }

        round_number = 1
        while live or queue.has_mail():
            round_number += 1
            if round_number > max_rounds + 1:
                raise RoundLimitError(
                    f"simulation did not converge within {max_rounds} rounds",
                    partial=result(),
                )
            inboxes = queue.deliveries(round_number)
            delivered = bool(inboxes)
            newly = crash_by_round.get(round_number, ())
            for node in newly:
                crashed.add(node)
                live.discard(node)
            active = live if not inboxes else live.union(inboxes.keys())
            sent = words = executed = 0
            for node in sorted(active):
                program = programs[node]
                inbox = inboxes.get(node)
                if inbox is None:
                    if program.halted:
                        continue
                    inbox = {}
                executed += 1
                outgoing = program.on_round(round_number, inbox) or {}
                words += self._validate_outgoing(node, outgoing)
                for target, message in outgoing.items():
                    if message is None:
                        continue
                    send(round_number, node, target, message)
                    sent += 1
                if program.halted:
                    live.discard(node)
                else:
                    live.add(node)
            dropped, delayed, duplicated = queue.take_round_stats()
            total_messages += sent
            total_words += words
            total_dropped += dropped
            total_delayed += delayed
            total_duplicated += duplicated
            telemetry.append(RoundTelemetry(
                round_number, executed, sent, words, dropped, delayed, duplicated, len(newly)
            ))
            if sent or delivered:
                last_active_round = round_number

        return result()


class _LabelFactory:
    """The label-mode adapter: label-space programs behind the index loop.

    Called with a core-mode (index) context, it builds the label context the
    user's factory expects -- neighbours in repr order (index order), weights
    keyed by label, ``id_key=repr`` -- and wraps the resulting program in a
    :class:`_LabelProgram` that translates its mail at the boundary.
    """

    __slots__ = ("labels", "factory", "diameter_bound")

    def __init__(
        self,
        labels: list[Hashable],
        factory: Callable[[NodeContext], NodeProgram],
        diameter_bound: Callable[[], int],
    ) -> None:
        self.labels = labels
        self.factory = factory
        self.diameter_bound = diameter_bound

    def __call__(self, context: NodeContext) -> "_LabelProgram":
        labels = self.labels
        neighbours = tuple(labels[index] for index in context.neighbours)
        label_context = NodeContext(
            node=labels[context.node],
            neighbours=neighbours,
            edge_weights={
                labels[index]: weight for index, weight in context.edge_weights.items()
            },
            num_nodes=context.num_nodes,
            diameter_bound=self.diameter_bound,
        )
        return _LabelProgram(
            self.factory(label_context),
            label_context.node,
            labels,
            dict(zip(neighbours, context.neighbours)),
        )


class _LabelProgram:
    """One user program seen through the adapter: inbox keys index -> label,
    outbox keys label -> index; payloads pass through untouched.

    A send to a label that is not a neighbour raises here, naming labels,
    because such a label has no index to hand on to the loop's own check.
    """

    __slots__ = ("program", "node", "labels", "index_of")

    def __init__(
        self,
        program: NodeProgram,
        node: Hashable,
        labels: list[Hashable],
        index_of: dict[Hashable, int],
    ) -> None:
        self.program = program
        self.node = node
        self.labels = labels
        self.index_of = index_of

    @property
    def halted(self) -> bool:
        return self.program.halted

    def on_start(self) -> dict[int, object]:
        return self._outgoing(self.program.on_start())

    def on_round(self, round_number: int, inbox: dict[int, object]) -> dict[int, object]:
        labels = self.labels
        label_inbox = {labels[sender]: message for sender, message in inbox.items()}
        return self._outgoing(self.program.on_round(round_number, label_inbox))

    def result(self) -> object:
        return self.program.result()

    def _outgoing(self, outgoing: dict[Hashable, object] | None) -> dict[int, object]:
        if not outgoing:
            return {}
        index_of = self.index_of
        translated = {}
        for target, message in outgoing.items():
            index = index_of.get(target)
            if index is None:
                raise SimulationError(
                    f"node {self.node} attempted to send to non-neighbour {target}"
                )
            translated[index] = message
        return translated


class _Mailbox:
    """The fail-free mailbox: every send arrives in the next round, intact.

    ``pending`` maps recipient -> {sender: message}; :meth:`deliveries`
    hands the whole map over and starts a fresh one.
    """

    __slots__ = ("pending",)

    def __init__(self) -> None:
        self.pending: dict[int, dict[int, object]] = {}

    def send(self, round_number: int, sender: int, target: int, message) -> None:
        self.pending.setdefault(target, {})[sender] = message

    def deliveries(self, round_number: int) -> dict[int, dict[int, object]]:
        inboxes, self.pending = self.pending, {}
        return inboxes

    def has_mail(self) -> bool:
        return bool(self.pending)

    def take_round_stats(self) -> tuple[int, int, int]:
        return (0, 0, 0)


def _identity(value: object) -> object:
    """The core-mode id sort key: indices already sort in canonical order."""
    return value
