"""The vectorized CONGEST runtime: whole-network batch step functions.

The per-node loop of :class:`repro.congest.simulator.CongestSimulator`
executes one Python ``on_round`` call per active node per round.  For the
built-in primitives that is pure interpreter overhead: a BFS flood, a
broadcast, a leader election or a convergecast does the *same* tiny piece
of work at every node of a frontier, so the whole frontier can be advanced
at once with flat-array operations.  This module compiles each built-in
node program into a :class:`RuntimeProgram` -- a batch twin that holds the
entire network's state in preallocated arrays (``parent`` / ``joined`` /
``best`` / ``acc`` vectors indexed by CSR vertex) and processes a round as

* one pass over the round's **recipient array** (the distinct targets of
  the previous round's sends, deduplicated with epoch-stamped arrays or a
  double-buffered :class:`_Inbox` instead of per-node dict allocation),
* CSR-sliced message generation straight off
  :class:`repro.core.CoreGraph`'s adjacency lists, and
* per-round telemetry accumulated into parallel flat columns (rounds /
  executed / messages / words) that are materialised into
  :class:`~repro.congest.simulator.RoundTelemetry` rows once, at the end.

The batch steps read the kernel's cached Python-list adjacency
(:attr:`repro.core.CoreGraph.lists`): the access pattern is
element-at-a-time graph traversal, where list indexing beats numpy item
access.

**The equality contract.**  A runtime execution is *observationally
identical* to the per-node loop (and to the seed full-scan simulator kept
as the test oracle): the
returned :class:`~repro.congest.simulator.SimulationResult` has exactly
equal ``rounds``, ``messages``, ``words``, label-keyed ``outputs`` and
per-round telemetry (including executed-node counts, which requires the
batch programs to reproduce the active-set rule precisely: a round
executes the recipients of the previous round's sends plus every
never-halted program).  ``tests/test_runtime.py`` pins this on every
registered scenario family; ``docs/simulator.md`` spells the contract out.

Only programs with a compiled twin can run here:
:class:`RuntimeSimulator` asks the program factory's ``compile_runtime``
hook for the twin and refuses factories without a hook or whose hook
returns None.  The primitives' one factory,
:class:`repro.congest.primitives._Programs`, builds the twin its program
class names in a ``runtime`` class attribute, from the same arguments the
per-node program reads; arbitrary user ``NodeProgram`` subclasses keep
running under the per-node loop, which remains the semantic reference.
The twins assume fail-free delivery, so under an active fault schedule
:class:`RuntimeSimulator` runs the per-node loop instead (with any
factory); the robust programs, which only run there, set ``runtime =
None``.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..core import GraphView
from ..errors import InvalidGraphError, RoundLimitError, SimulationError
from .node import message_size_in_words
from .simulator import CongestSimulator, RoundTelemetry, SimulationResult


class _Inbox:
    """Double-buffered per-node message accumulator on preallocated arrays.

    Messages for round ``r`` and round ``r + 1`` live on alternating sides
    (``r & 1``), so a batch step can *read* this round's deliveries while
    *writing* next round's without clobbering a recipient that appears in
    both.  Per-node payload lists are allocated once and reused (cleared on
    the first push of a round, detected by an exact round tag), and the
    recipient list of a round is built in push order -- the deduplicated
    "who has mail" frontier the batch programs iterate instead of scanning
    all nodes.
    """

    __slots__ = ("_payloads", "_tags", "_pending")

    def __init__(self, num_nodes: int) -> None:
        self._payloads: tuple[list, list] = (
            [None] * num_nodes,
            [None] * num_nodes,
        )
        self._tags: tuple[list[int], list[int]] = ([0] * num_nodes, [0] * num_nodes)
        self._pending: list[list[int]] = [[], []]

    def push(self, round_number: int, target: int, payload) -> None:
        """Queue ``payload`` for delivery to ``target`` in ``round_number``."""
        side = round_number & 1
        tags = self._tags[side]
        rows = self._payloads[side]
        row = rows[target]
        if tags[target] != round_number:
            tags[target] = round_number
            if row is None:
                row = rows[target] = []
            else:
                row.clear()
            self._pending[side].append(target)
        row.append(payload)

    def recipients(self, round_number: int) -> list[int]:
        """Return (and consume) the distinct delivery targets of a round."""
        side = round_number & 1
        out = self._pending[side]
        self._pending[side] = []
        return out

    def payloads(self, round_number: int, target: int) -> list:
        """Return the payloads delivered to ``target`` this round."""
        return self._payloads[round_number & 1][target]

    def received(self, round_number: int, target: int) -> bool:
        """True when ``target`` has mail in ``round_number``."""
        return self._tags[round_number & 1][target] == round_number

    def has_mail(self, round_number: int) -> bool:
        """True when any message is queued for delivery in ``round_number``."""
        return bool(self._pending[round_number & 1])


class RuntimeProgram:
    """Base class for compiled batch programs (one instance = whole network).

    Subclasses implement the three batch hooks; :meth:`drive` supplies the
    round loop with exactly the accounting of the per-node simulators:
    round 1 executes every program (``on_start``), ``rounds`` is the index
    of the last round with any send or delivery, and the loop runs while
    the program reports work (pending deliveries or live programs) --
    mirroring ``while live or pending`` of the active-set loop.
    """

    def __init__(self, view, bandwidth_words: int) -> None:
        self.view = view
        self.core = view.core
        self.bandwidth_words = bandwidth_words

    # -- the batch API (one call per round, whole network) -----------------

    def on_start(self) -> tuple[int, int]:
        """Execute every node's round 1; return ``(sent, words)``."""
        raise NotImplementedError

    def on_round(self, round_number: int) -> tuple[int, int, int, bool]:
        """Advance one round; return ``(executed, sent, words, delivered)``."""
        raise NotImplementedError

    def has_work(self) -> bool:
        """True while any message is in flight or any program is live."""
        raise NotImplementedError

    def outputs(self) -> Sequence:
        """Per-index final results (:meth:`NodeProgram.result` of each node)."""
        raise NotImplementedError

    # -- shared accounting -------------------------------------------------

    def _check_bandwidth(self, sender: int, target: int, message) -> int:
        """Size a message and enforce the per-edge bandwidth (same error as
        the per-node ``_validate_outgoing``); batch programs call this once
        per message *shape*, since every message of a program family has
        the same size."""
        size = message_size_in_words(message)
        if size > self.bandwidth_words:
            raise SimulationError(
                f"node {sender} sent a {size}-word message to {target}, exceeding the "
                f"bandwidth of {self.bandwidth_words} words per edge per round"
            )
        return size

    def drive(self, max_rounds: int = 10_000) -> SimulationResult:
        """Run to quiescence; return a result bit-comparable with the per-node loop."""
        n = self.core.num_nodes
        # Telemetry accumulates into flat parallel columns; RoundTelemetry
        # rows are materialised once, after the loop.
        executed_column: list[int] = [n]
        sent_column: list[int] = []
        words_column: list[int] = []
        sent, words = self.on_start()
        sent_column.append(sent)
        words_column.append(words)
        total_messages = sent
        total_words = words
        last_active_round = 1 if sent else 0

        def result() -> SimulationResult:
            node_of = self.view.nodes
            return SimulationResult(
                rounds=last_active_round,
                messages=total_messages,
                words=total_words,
                outputs={node_of[index]: value for index, value in enumerate(self.outputs())},
                telemetry=[
                    RoundTelemetry(index + 1, executed, sent, words)
                    for index, (executed, sent, words) in enumerate(
                        zip(executed_column, sent_column, words_column)
                    )
                ],
            )

        round_number = 1
        while self.has_work():
            round_number += 1
            if round_number > max_rounds + 1:
                raise RoundLimitError(
                    f"simulation did not converge within {max_rounds} rounds",
                    partial=result(),
                )
            executed, sent, words, delivered = self.on_round(round_number)
            total_messages += sent
            total_words += words
            executed_column.append(executed)
            sent_column.append(sent)
            words_column.append(words)
            if sent or delivered:
                last_active_round = round_number
        return result()


class BfsRuntime(RuntimeProgram):
    """Batch twin of :class:`repro.congest.primitives._BfsProgram`.

    State is four flat vectors (``joined`` / ``parent`` / ``best`` sender /
    recipient ``stamp``); a round joins every unjoined recipient to its
    minimum-index sender (all offers of a round carry the same depth, so
    the per-node ``min((depth, id), ...)`` tie-break reduces to the min
    sender) and floods ``("bfs", depth + 1)`` -- 2 words -- from the new
    joiners through their CSR slices, minus the chosen parent edge.
    """

    def __init__(self, view, bandwidth_words: int, root: int) -> None:
        super().__init__(view, bandwidth_words)
        n = self.core.num_nodes
        self.root = root
        self._joined = bytearray(n)
        self._joined[root] = 1
        self._parent = [-1] * n
        self._best = [0] * n
        self._stamp = [0] * n
        self._epoch = 0
        self._recipients: list[int] = []
        # The root never halts in on_start, so it is live until it executes
        # in round 2 (every other program halts the moment it runs).
        self._root_live = True

    def on_start(self) -> tuple[int, int]:
        indptr, indices, _ = self.core.lists
        start, end = indptr[self.root], indptr[self.root + 1]
        sent = end - start
        if sent:
            self._check_bandwidth(self.root, indices[start], ("bfs", 0))
        self._epoch = epoch = self._epoch + 1
        stamp, best = self._stamp, self._best
        recipients = self._recipients
        for offset in range(start, end):
            target = indices[offset]
            stamp[target] = epoch
            best[target] = self.root
            recipients.append(target)
        return sent, 2 * sent

    def on_round(self, round_number: int) -> tuple[int, int, int, bool]:
        recipients = self._recipients
        delivered = bool(recipients)
        executed = len(recipients)
        if self._root_live:
            # Round 2: the root executes from the live set (it is never its
            # own neighbour, so it is not among the recipients).
            if self._stamp[self.root] != self._epoch:
                executed += 1
            self._root_live = False
        joined, parent, best = self._joined, self._parent, self._best
        # Two passes: first fix every joiner's parent (the per-target min
        # sender accumulated last round), then generate this round's sends
        # -- which restamp ``best`` for *next* round's recipients.
        joiners = []
        for target in recipients:
            if not joined[target]:
                joined[target] = 1
                parent[target] = best[target]
                joiners.append(target)
        self._epoch = epoch = self._epoch + 1
        stamp = self._stamp
        indptr, indices, _ = self.core.lists
        new_recipients: list[int] = []
        sent = 0
        for source in joiners:
            skip = parent[source]
            for offset in range(indptr[source], indptr[source + 1]):
                neighbour = indices[offset]
                if neighbour == skip:
                    continue
                sent += 1
                if stamp[neighbour] != epoch:
                    stamp[neighbour] = epoch
                    best[neighbour] = source
                    new_recipients.append(neighbour)
                elif source < best[neighbour]:
                    best[neighbour] = source
        self._recipients = new_recipients
        return executed, sent, 2 * sent, delivered

    def has_work(self) -> bool:
        return self._root_live or bool(self._recipients)

    def outputs(self) -> Sequence:
        # result() of the per-node program: the parent index, None at the
        # root (and at unreached nodes, which a connected network has none of).
        return [None if parent < 0 else parent for parent in self._parent]


class BroadcastRuntime(RuntimeProgram):
    """Batch twin of :class:`repro.congest.primitives._BroadcastProgram`.

    Every message is ``("bc", value)`` with one shared ``value``, so only
    sender *identities* need delivering: newly informed nodes forward to
    every neighbour that did not just send to them (per-node exclusion of
    the round's senders, reproduced with a token-marked scratch array).
    """

    def __init__(self, view, bandwidth_words: int, source: int, value) -> None:
        super().__init__(view, bandwidth_words)
        n = self.core.num_nodes
        self.source = source
        self.value = value
        self._informed = bytearray(n)
        self._informed[source] = 1
        self._inbox = _Inbox(n)
        self._mark = [0] * n
        self._token = 0
        self._round = 1
        self._source_live = True
        self._words_per_message = message_size_in_words(("bc", value))

    def on_start(self) -> tuple[int, int]:
        indptr, indices, _ = self.core.lists
        start, end = indptr[self.source], indptr[self.source + 1]
        sent = end - start
        if sent:
            self._check_bandwidth(self.source, indices[start], ("bc", self.value))
        inbox = self._inbox
        for offset in range(start, end):
            inbox.push(2, indices[offset], self.source)
        return sent, sent * self._words_per_message

    def on_round(self, round_number: int) -> tuple[int, int, int, bool]:
        self._round = round_number
        inbox = self._inbox
        recipients = inbox.recipients(round_number)
        delivered = bool(recipients)
        executed = len(recipients)
        if self._source_live:
            if not inbox.received(round_number, self.source):
                executed += 1
            self._source_live = False
        informed = self._informed
        mark = self._mark
        indptr, indices, _ = self.core.lists
        next_round = round_number + 1
        sent = 0
        for target in recipients:
            if informed[target]:
                continue  # woken, returns {} (already has the value)
            informed[target] = 1
            self._token = token = self._token + 1
            for sender in inbox.payloads(round_number, target):
                mark[sender] = token
            for offset in range(indptr[target], indptr[target + 1]):
                neighbour = indices[offset]
                if mark[neighbour] == token:
                    continue
                sent += 1
                inbox.push(next_round, neighbour, target)
        return executed, sent, sent * self._words_per_message, delivered

    def has_work(self) -> bool:
        return self._source_live or self._inbox.has_mail(self._round + 1)

    def outputs(self) -> Sequence:
        value = self.value
        return [value if informed else None for informed in self._informed]


class FloodMaxRuntime(RuntimeProgram):
    """Batch twin of :class:`repro.congest.primitives._FloodMaxProgram`.

    The one compiled program with a non-trivial live set: every node stays
    live until its first round without an improvement, and improved nodes
    re-flood their ``best`` (one machine word -- core-mode identifiers are
    ints) to their whole CSR slice.  Messages carry best-id *values*, so
    the inbox accumulates payloads and a round folds each recipient's mail
    with ``max``.
    """

    def __init__(self, view, bandwidth_words: int) -> None:
        super().__init__(view, bandwidth_words)
        n = self.core.num_nodes
        self._best = list(range(n))
        self._live = bytearray(b"\x01" * n) if n else bytearray()
        self._live_list = list(range(n))
        self._inbox = _Inbox(n)
        self._round = 1

    def on_start(self) -> tuple[int, int]:
        indptr, indices, _ = self.core.lists
        inbox = self._inbox
        sent = 0
        if self.core.num_edges:
            self._check_bandwidth(0, indices[0], self.core.num_nodes - 1)
        for source in range(self.core.num_nodes):
            for offset in range(indptr[source], indptr[source + 1]):
                inbox.push(2, indices[offset], source)
            sent += indptr[source + 1] - indptr[source]
        return sent, sent

    def on_round(self, round_number: int) -> tuple[int, int, int, bool]:
        self._round = round_number
        inbox = self._inbox
        recipients = inbox.recipients(round_number)
        delivered = bool(recipients)
        live, live_list, best = self._live, self._live_list, self._best
        executed = len(live_list)
        for target in recipients:
            if not live[target]:
                executed += 1
        indptr, indices, _ = self.core.lists
        next_round = round_number + 1
        sent = 0
        for target in recipients:
            incoming = max(inbox.payloads(round_number, target))
            if incoming > best[target]:
                best[target] = incoming
                for offset in range(indptr[target], indptr[target + 1]):
                    inbox.push(next_round, indices[offset], incoming)
                sent += indptr[target + 1] - indptr[target]
            elif live[target]:
                live[target] = 0  # first quiet round: the program halts
        for node in live_list:
            if live[node] and not inbox.received(round_number, node):
                live[node] = 0  # executed with an empty inbox: halts
        if live_list:
            self._live_list = [node for node in live_list if live[node]]
        return executed, sent, sent, delivered

    def has_work(self) -> bool:
        return bool(self._live_list) or self._inbox.has_mail(self._round + 1)

    def outputs(self) -> Sequence:
        return list(self._best)


class ConvergecastRuntime(RuntimeProgram):
    """Batch twin of :class:`repro.congest.primitives._ConvergecastProgram`.

    Aggregation up a rooted spanning tree: flat ``acc`` / ``remaining``
    vectors, leaves fire in round 1, and an internal node fires ``("cc",
    acc)`` to its parent in the round its last child's report arrives.
    Mail folds in ascending child order (the per-node program sorts its
    inbox the same way), so non-commutative float ``combine``s still match
    bit for bit.  It reads the per-node program's index-keyed ``parent`` (None
    at the root), ``num_children`` and ``values`` lists.
    """

    def __init__(
        self,
        view,
        bandwidth_words: int,
        parent: Sequence[int | None],
        num_children: Sequence[int],
        values: Sequence,
        combine: Callable,
    ) -> None:
        super().__init__(view, bandwidth_words)
        n = self.core.num_nodes
        self._parent = [-1 if up is None else up for up in parent]
        self._acc = list(values)
        self._combine = combine
        self._remaining = list(num_children)
        self._root = self._parent.index(-1) if n else -1
        self._result = None
        self._inbox = _Inbox(n)
        self._round = 1

    def _check_edge(self, sender: int, target: int) -> None:
        """The topology half of ``_validate_outgoing``: unlike the other
        compiled programs, convergecast sends along *caller-supplied* parent
        pointers rather than CSR slices, so each report edge must be checked
        against the network exactly as the per-node loop does."""
        if not self.core.has_edge(sender, target):
            raise SimulationError(
                f"node {sender} attempted to send to non-neighbour {target}"
            )

    def on_start(self) -> tuple[int, int]:
        inbox = self._inbox
        parent, acc, remaining = self._parent, self._acc, self._remaining
        sent = words = 0
        for node in range(self.core.num_nodes):
            if remaining[node]:
                continue
            up = parent[node]
            if up < 0:
                self._result = acc[node]  # single-node tree: no communication
                continue
            self._check_edge(node, up)
            words += self._check_bandwidth(node, up, ("cc", acc[node]))
            inbox.push(2, up, node)
            sent += 1
        return sent, words

    def on_round(self, round_number: int) -> tuple[int, int, int, bool]:
        self._round = round_number
        inbox = self._inbox
        recipients = inbox.recipients(round_number)
        delivered = bool(recipients)
        executed = len(recipients)
        parent, acc, remaining = self._parent, self._acc, self._remaining
        combine = self._combine
        next_round = round_number + 1
        sent = words = 0
        for target in recipients:
            children = sorted(inbox.payloads(round_number, target))
            folded = acc[target]
            for child in children:
                folded = combine(folded, acc[child])
            acc[target] = folded
            remaining[target] -= len(children)
            if remaining[target] == 0:
                up = parent[target]
                if up < 0:
                    self._result = folded
                else:
                    self._check_edge(target, up)
                    words += self._check_bandwidth(target, up, ("cc", folded))
                    inbox.push(next_round, up, target)
                    sent += 1
        return executed, sent, words, delivered

    def has_work(self) -> bool:
        return self._inbox.has_mail(self._round + 1)

    def outputs(self) -> Sequence:
        root = self._root
        return [self._result if node == root else None for node in range(self.core.num_nodes)]


class RuntimeSimulator(CongestSimulator):
    """:class:`CongestSimulator` in the vectorized runtime mode.

    The one way to select the compiled mode, threaded as ``simulator_cls``
    through the primitives, the scenario engine and the benchmarks: passing
    this class where :class:`CongestSimulator` is accepted runs the same
    workload on compiled batch programs.  The network must be a
    :class:`repro.core.GraphView` (the runtime is index-native; the
    primitives view their input themselves) and the program factory's
    ``compile_runtime`` hook must return a twin -- both enforced at
    construction with the same exception contract as the per-node loop
    (:class:`~repro.errors.InvalidGraphError` for empty/disconnected/
    label-space networks, :class:`~repro.errors.SimulationError` for
    factories without a compiled twin).  The twins assume fail-free
    delivery (depth-uniform BFS rounds, parity-buffered inboxes), so under
    an active fault schedule it builds per-node programs and runs the
    per-node loop, where any factory works.
    """

    def __init__(
        self,
        graph,
        program_factory,
        bandwidth_words: int = 3,
        diameter_bound: int | None = None,
        fault_schedule=None,
    ) -> None:
        if not isinstance(graph, GraphView):
            raise InvalidGraphError(
                "the vectorized runtime needs a GraphView network; wrap the graph "
                "with repro.core.view_of (the per-node loop accepts nx.Graph)"
            )
        self._runtime_program: RuntimeProgram | None = None
        super().__init__(
            graph,
            program_factory,
            bandwidth_words=bandwidth_words,
            diameter_bound=diameter_bound,
            fault_schedule=fault_schedule,
        )

    def _init_programs(self, core, program_factory) -> None:
        """No per-node programs: ask the factory for its compiled twin.

        The factory of :mod:`repro.congest.primitives` carries the
        ``compile_runtime`` hook; the batch programs are index-native and
        their outputs are mapped back to labels through the view.
        """
        if self._fault_schedule is not None:
            super()._init_programs(core, program_factory)
            return
        compile_hook = getattr(program_factory, "compile_runtime", None)
        if compile_hook is not None:
            self._runtime_program = compile_hook(self)
        if self._runtime_program is None:
            raise SimulationError(
                f"program factory {program_factory!r} has no vectorized runtime "
                "(compile_runtime gave no twin); run it under the per-node loop instead"
            )

    def run(self, max_rounds: int = 10_000) -> SimulationResult:
        """Drive the compiled batch program (the per-node loop under faults)."""
        if self._runtime_program is None:
            return super().run(max_rounds)
        return self._runtime_program.drive(max_rounds)
