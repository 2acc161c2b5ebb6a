"""Node programs for the CONGEST simulator.

A :class:`NodeProgram` is the code running at a single network node.  The
simulator drives it through rounds: at the start of every round it receives
the messages its neighbours sent in the previous round and returns the
messages (at most one per neighbour, each at most ``bandwidth_words`` machine
words) it wants to send this round.  A node that has nothing left to do
declares itself halted; the simulation ends when every node has halted and no
messages are in flight.

Everything here serves the *per-node* execution mode (the active-set
simulator, whose programs see view indices, or labels through the label
adapter); the vectorized runtime mode never instantiates node programs -- it runs the
compiled batch twins of :mod:`repro.congest.runtime`, which must reproduce
these semantics observationally (``docs/simulator.md``).  Only
:func:`message_size_in_words` is shared by every mode, so word
accounting cannot drift between them.
"""

from __future__ import annotations

from typing import Callable, Hashable, Mapping


class NodeContext:
    """Static information a node knows at the start of the computation.

    Matching the model assumptions in Section 1.3.1, a node knows its own
    identifier, its incident edges (with weights), and the global parameters
    ``n`` and an upper bound on the diameter ``D`` (the paper notes these can
    be computed in ``O(D)`` rounds if unknown, which is negligible).

    ``diameter_bound`` may be handed in as a plain integer or as a zero-
    argument callable; in the latter case it is resolved (and cached) the
    first time a program reads it.  Programs that never consult ``D`` --
    most of the primitives -- therefore never pay for a diameter
    computation, which is what keeps the simulator's set-up cost
    proportional to the graph size rather than to an all-pairs BFS.

    ``id_key`` is the canonical sort key for node identifiers, used by
    programs that tie-break on ids (BFS parent choice, leader election).
    Core mode passes the identity (indices sort natively); the label
    adapter hands its label contexts ``repr``.  Indices are assigned in
    repr order of the labels, so the two keys induce the *same* total order
    and a label-space program makes the same choices as its core-mode run.
    """

    __slots__ = ("node", "neighbours", "edge_weights", "num_nodes", "id_key", "_diameter_bound")

    def __setattr__(self, name: str, value: object) -> None:
        # Immutable after construction (like the frozen dataclass it replaces),
        # except for the lazy diameter cache slot.  The diameter_bound
        # property is refused by name: reading it would resolve D.
        if name == "diameter_bound" or (name != "_diameter_bound" and hasattr(self, name)):
            raise AttributeError(f"NodeContext.{name} is read-only")
        object.__setattr__(self, name, value)

    def __init__(
        self,
        node: Hashable,
        neighbours: tuple[Hashable, ...],
        edge_weights: Mapping[Hashable, float],
        num_nodes: int,
        diameter_bound: int | Callable[[], int],
        id_key: Callable[[Hashable], object] = repr,
    ) -> None:
        self.node = node
        self.neighbours = neighbours
        self.edge_weights = edge_weights
        self.num_nodes = num_nodes
        self.id_key = id_key
        self._diameter_bound = diameter_bound

    @property
    def diameter_bound(self) -> int:
        if callable(self._diameter_bound):
            self._diameter_bound = self._diameter_bound()
        return self._diameter_bound

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"NodeContext(node={self.node!r}, degree={len(self.neighbours)}, "
            f"n={self.num_nodes})"
        )


class NodeProgram:
    """Base class for per-node CONGEST programs.

    Subclasses override :meth:`on_round`; the default implementation halts
    immediately.  Programs communicate *only* through the returned message
    dict -- the simulator enforces that messages go to genuine neighbours and
    respect the bandwidth limit.
    """

    def __init__(self, context: NodeContext) -> None:
        self.context = context
        self.halted = False

    def on_start(self) -> dict[Hashable, object]:
        """Return the messages to send in round 1 (before anything is received).

        Invariants callers may rely on: every program's ``on_start`` runs
        exactly once, in canonical node order, and counts as round 1 in the
        telemetry whether or not anything is sent.  A program that halts
        here sleeps until a message wakes it (halting never loses mail).
        """
        return {}

    def on_round(self, round_number: int, inbox: dict[Hashable, object]) -> dict[Hashable, object]:
        """Process the messages received this round; return messages to send.

        Args:
            round_number: 1-based round counter.
            inbox: mapping neighbour -> message for every message received.

        Returns:
            Mapping neighbour -> message to send this round (may be empty).

        Invariants callers may rely on: ``on_round`` is invoked exactly for
        the active set (nodes with mail plus never-halted nodes), in
        canonical node order; messages returned are validated against the
        topology and bandwidth before queueing; a message sent in round
        ``r`` is delivered at the start of round ``r + 1``.
        """
        self.halted = True
        return {}

    def result(self) -> object:
        """Return this node's final output (algorithm specific)."""
        return None


def message_size_in_words(message: object) -> int:
    """Return the size of a message in machine words (CONGEST accounting).

    A "word" is ``O(log n)`` bits: a node identifier, an edge weight, or a
    small integer each count as one word.  Tuples and lists count the sum of
    their elements; strings count one word per ``8`` characters (they are
    only used for small tags).  The simulator rejects messages larger than
    its per-edge bandwidth.
    """
    if message is None:
        return 0
    if isinstance(message, (tuple, list)):
        # The common message is a flat tuple of a tag and numbers: count its
        # scalar items here and recurse only into anything else.
        words = 0
        for item in message:
            kind = type(item)
            if kind is int or kind is float or kind is bool:
                words += 1
            elif kind is str:
                words += (len(item) + 7) // 8 or 1
            elif item is not None:
                words += message_size_in_words(item)
        return words
    if isinstance(message, (int, float, bool)):
        return 1
    if isinstance(message, str):
        return (len(message) + 7) // 8 or 1
    if isinstance(message, dict):
        return sum(
            message_size_in_words(key) + message_size_in_words(value)
            for key, value in message.items()
        )
    # Anything else is treated as a single opaque word; programs in this
    # package only ever send numbers, ids and small tuples.
    return 1
