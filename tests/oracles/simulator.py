"""The seed full-scan CONGEST simulator.

:class:`ReferenceSimulator` reproduces the original (pre-active-set)
implementation faithfully in everything that costs time:

* the diameter bound is computed **eagerly** in the constructor (an
  all-pairs BFS when no bound is supplied);
* every round scans **every** node and reallocates a fresh inbox dict per
  node per round;
* global halt status is re-derived by iterating all programs;
* the ``words`` totals size every message again with the seed's
  recursive word count (:func:`message_size_in_words`), apart from the
  bandwidth check.

Only the round *counting* follows the fixed, consistent rule of
:mod:`repro.congest.simulator` (rounds = index of the last round with any
send or delivery), so that a :class:`SimulationResult` produced here is
bit-for-bit comparable with the production simulator's.  It is the anchor
of the equality contract in ``docs/simulator.md``: the active-set loop is
pinned to it on arbitrary node programs (``tests/test_congest_simulator.py``),
and the vectorized runtime on every compiled program family
(``tests/test_runtime.py``).  It accepts a :class:`~repro.core.GraphView`
like the production simulator (full-scan semantics, index ids), so all
modes can be compared on one network object.

Handed an ``nx.Graph`` it keeps the seed's own label-space set-up instead
of the production label adapter: repr-sorted neighbour tuples, weights read
as ``graph[u][v].get(WEIGHT, 1.0)``, topology checked with ``has_edge``,
the diameter from ``nx.diameter``.  That keeps the adapter pinned to an
independent implementation.  Label-space runs are fail-free only; faulty
oracle runs take a view.
"""

from __future__ import annotations

from typing import Hashable

import networkx as nx

from repro.congest.node import NodeContext
from repro.congest.simulator import CongestSimulator, RoundTelemetry, SimulationResult
from repro.core import GraphView
from repro.errors import RoundLimitError, SimulationError
from repro.graphs.weights import WEIGHT
from repro.utils import require_connected, require_simple

from .faults import FaultQueue


def message_size_in_words(message: object) -> int:
    """The seed word count: one recursive call per item of every container."""
    if message is None:
        return 0
    if isinstance(message, (int, float, bool)):
        return 1
    if isinstance(message, str):
        return max(1, (len(message) + 7) // 8)
    if isinstance(message, (tuple, list)):
        return sum(message_size_in_words(item) for item in message)
    if isinstance(message, dict):
        return sum(
            message_size_in_words(key) + message_size_in_words(value)
            for key, value in message.items()
        )
    return 1


class ReferenceSimulator(CongestSimulator):
    """Full-scan CONGEST simulator with the seed's per-round cost profile."""

    def __init__(self, graph, program_factory, bandwidth_words=3, diameter_bound=None,
                 fault_schedule=None) -> None:
        if isinstance(graph, GraphView):
            super().__init__(graph, program_factory, bandwidth_words=bandwidth_words,
                             diameter_bound=diameter_bound, fault_schedule=fault_schedule)
        else:
            self._init_labels(graph, program_factory, bandwidth_words, diameter_bound,
                              fault_schedule)
        # The seed computed the diameter bound in the constructor whether or
        # not any program would read it; keep that (costly) behaviour.
        self._resolve_diameter_bound()

    def _init_labels(self, graph, program_factory, bandwidth_words, diameter_bound,
                     fault_schedule) -> None:
        """The seed's label-space set-up: programs keyed and ordered by label."""
        if fault_schedule is not None:
            raise ValueError("faulty ReferenceSimulator runs take a GraphView")
        require_connected(graph, "network graph")
        require_simple(graph, "network graph")
        self._view = None
        self._graph = graph
        self._fault_schedule = None
        self.bandwidth_words = bandwidth_words
        self._diameter_bound = diameter_bound
        self._order = sorted(graph.nodes(), key=repr)
        self.programs = {}
        for node in self._order:
            neighbours = tuple(sorted(graph.neighbors(node), key=repr))
            weights = {
                neighbour: graph[node][neighbour].get(WEIGHT, 1.0) for neighbour in neighbours
            }
            context = NodeContext(
                node=node,
                neighbours=neighbours,
                edge_weights=weights,
                num_nodes=graph.number_of_nodes(),
                diameter_bound=self._resolve_diameter_bound,
            )
            self.programs[node] = program_factory(context)

    def _resolve_diameter_bound(self) -> int:
        if self._view is not None or self._diameter_bound is not None:
            return super()._resolve_diameter_bound()
        graph = self._graph
        self._diameter_bound = nx.diameter(graph) if graph.number_of_nodes() > 1 else 0
        return self._diameter_bound

    def _validate_outgoing(self, sender, outgoing) -> None:
        if self._view is not None:
            return super()._validate_outgoing(sender, outgoing)
        for target, message in outgoing.items():
            if not self._graph.has_edge(sender, target):
                raise SimulationError(
                    f"node {sender} attempted to send to non-neighbour {target}"
                )
            size = message_size_in_words(message)
            if size > self.bandwidth_words:
                raise SimulationError(
                    f"node {sender} sent a {size}-word message to {target}, exceeding the "
                    f"bandwidth of {self.bandwidth_words} words per edge per round"
                )

    def _final_outputs(self, exclude=frozenset()) -> dict[Hashable, object]:
        if self._view is not None:
            return super()._final_outputs(exclude)
        return {node: self.programs[node].result() for node in self._order}

    def _run_faulty(self, max_rounds: int) -> SimulationResult:
        """The fault-aware loop in full-scan flavour.

        Same fault boundaries and crash bookkeeping as the active-set
        loop, but every round scans every node and re-derives global halt
        status by iterating all programs -- the seed's cost profile, kept
        as the fault layer's differential oracle.  Its mailbox is the seed
        :class:`oracles.faults.FaultQueue`, which decides each send on its
        own, so a faulty mode-agreement test also pins the production
        queue's per-round batch.
        """
        programs = self.programs
        schedule = self._fault_schedule
        queue = FaultQueue(schedule)
        crash_by_round = self._crash_rounds()
        crashed: set[Hashable] = set()
        total_messages = total_words = 0
        total_dropped = total_delayed = total_duplicated = 0
        telemetry: list[RoundTelemetry] = []
        last_active_round = 0

        newly = crash_by_round.get(1, ())
        crashed.update(newly)
        sent = words = executed = 0
        for node in self._order:
            if node in crashed:
                continue
            executed += 1
            outgoing = programs[node].on_start() or {}
            self._validate_outgoing(node, outgoing)
            for target, message in outgoing.items():
                if message is None:
                    continue
                queue.send(1, node, target, message)
                sent += 1
                words += message_size_in_words(message)
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

        for round_number in range(2, max_rounds + 2):
            all_halted = all(
                programs[node].halted or node in crashed for node in self._order
            )
            if all_halted and not queue.has_mail():
                break
            inboxes = queue.deliveries(round_number)
            delivered = bool(inboxes)
            newly = crash_by_round.get(round_number, ())
            crashed.update(newly)
            sent = words = executed = 0
            for node in self._order:
                if node in crashed:
                    continue
                program = programs[node]
                inbox = inboxes.get(node)
                if inbox is None:
                    if program.halted:
                        continue
                    inbox = {}
                executed += 1
                outgoing = program.on_round(round_number, inbox) or {}
                self._validate_outgoing(node, outgoing)
                for target, message in outgoing.items():
                    if message is None:
                        continue
                    queue.send(round_number, node, target, message)
                    sent += 1
                    words += message_size_in_words(message)
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
        else:
            raise RoundLimitError(
                f"simulation did not converge within {max_rounds} rounds",
                partial=SimulationResult(
                    rounds=last_active_round,
                    messages=total_messages,
                    words=total_words,
                    outputs=self._final_outputs(exclude=crashed),
                    telemetry=telemetry,
                    dropped=total_dropped,
                    delayed=total_delayed,
                    duplicated=total_duplicated,
                    crashed_nodes=len(crashed),
                ),
            )

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

    def run(self, max_rounds: int = 10_000) -> SimulationResult:
        """Run to quiescence with a full node scan per round (seed behaviour)."""
        if self._fault_schedule is not None:
            return self._run_faulty(max_rounds)
        programs = self.programs
        inboxes: dict[Hashable, dict[Hashable, object]] = {node: {} for node in programs}
        pending: dict[Hashable, dict[Hashable, object]] = {node: {} for node in programs}
        total_messages = 0
        total_words = 0
        telemetry: list[RoundTelemetry] = []
        last_active_round = 0

        sent = words = 0
        for node in self._order:
            outgoing = programs[node].on_start() or {}
            self._validate_outgoing(node, outgoing)
            for target, message in outgoing.items():
                if message is None:
                    continue
                pending[target][node] = message
                sent += 1
                words += message_size_in_words(message)
        total_messages += sent
        total_words += words
        telemetry.append(RoundTelemetry(1, len(self._order), sent, words))
        if sent:
            last_active_round = 1

        for round_number in range(2, max_rounds + 2):
            inboxes = pending
            pending = {node: {} for node in programs}
            all_halted = all(program.halted for program in programs.values())
            any_inbox = any(inboxes[node] for node in programs)
            if all_halted and not any_inbox:
                break
            sent = words = 0
            executed = 0
            for node in self._order:
                program = programs[node]
                inbox = inboxes[node]
                if program.halted and not inbox:
                    continue
                executed += 1
                outgoing = program.on_round(round_number, inbox) or {}
                self._validate_outgoing(node, outgoing)
                for target, message in outgoing.items():
                    if message is None:
                        continue
                    pending[target][node] = message
                    sent += 1
                    words += message_size_in_words(message)
            total_messages += sent
            total_words += words
            telemetry.append(RoundTelemetry(round_number, executed, sent, words))
            if sent or any_inbox:
                last_active_round = round_number
        else:
            raise RoundLimitError(
                f"simulation did not converge within {max_rounds} rounds",
                partial=SimulationResult(
                    rounds=last_active_round,
                    messages=total_messages,
                    words=total_words,
                    outputs=self._final_outputs(),
                    telemetry=telemetry,
                ),
            )

        outputs = self._final_outputs()
        return SimulationResult(
            rounds=last_active_round,
            messages=total_messages,
            words=total_words,
            outputs=outputs,
            telemetry=telemetry,
        )
