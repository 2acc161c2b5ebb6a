"""Seeded, deterministic fault injection for the CONGEST simulator.

The fail-free simulator answers "how many rounds does the algorithm take";
this module answers "and what happens when the network misbehaves" without
giving up reproducibility.  Every perturbation -- dropping a message,
delaying it by ``k`` rounds, duplicating it, crashing a node, permuting a
round's delivery order -- is drawn by a **pure hash function** of
``(seed, kind, round, canonical sender, canonical receiver)``, never from
mutable RNG state.  Two consequences follow directly:

* a faulty run is exactly reproducible from ``(FaultModel, seed)`` alone,
  so faulty executions are differentially testable across the simulator
  modes just like fail-free ones (the equality contract of
  ``docs/simulator.md`` extends verbatim); and
* the decision stream is independent of evaluation order and of process
  identity, so a parallel ``run_matrix(jobs=N)`` sweep with faults is
  byte-identical to the serial sweep -- there is no RNG state to leak.

The three pieces:

:class:`FaultModel`
    the declarative spec (rates, delay bound, crash window, explicit
    ``crash_at`` pins, adversarial ``shuffle``).  An all-zero model is
    *null* and the simulators treat it exactly like no fault layer at all,
    which is what makes "rate 0 reproduces the fail-free trajectory
    bit-for-bit" true by construction.

:class:`FaultSchedule`
    the seeded decision stream: ``fates(round, senders, targets)`` for
    one round's per-message drop/delay/duplication, decided together as
    ``uint64`` array arithmetic (each decision still the pure hash of its
    five parts), ``crash_round(node)`` for node failures,
    ``shuffle_order`` for delivery-order permutations.  Node identifiers
    are **canonical**: the network view's indices (repr order of the
    labels), which every simulator mode runs on -- label mode included --
    so one schedule drives every engine identically.

:class:`FaultQueue`
    the mailbox every fault-aware run loop routes its sends through: a
    round-bucketed pending store that applies the schedule at the *send*
    boundary (drop / delay / duplicate) and the *deliver* boundary
    (crashed-recipient filtering, adversarial permutation), and accounts
    every decision into the per-round fault telemetry columns.  A round's
    sends are only recorded as they happen; their decisions are made
    together when the round closes, and the surviving messages are placed
    in send order, so the mailboxes end up exactly as if each send had
    been decided on its own.

Accounting bound (asserted by the property tests): ``messages`` keeps
counting what programs *send*; of those, ``dropped`` never arrive and each
``duplicated`` send is copied once more, so total deliveries are *at most*
``messages - dropped + duplicated``.  It is a bound, not an identity: when
two messages from the same sender reach the same recipient in the same
round (possible only under delays/duplication), they land in one
(arrival round, recipient, sender) mailbox slot and the chronologically
later send replaces the earlier one -- the two merge into one delivery.
Every mode writes through this one queue in canonical node order, so the
overwrite rule is the same in all of them.  A delayed message is counted in
``delayed`` once at its send round and still delivers (unless its
recipient crashes first, which re-books it as dropped in the delivery
round).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "BUILT_IN_FAULT_KINDS",
    "FaultModel",
    "FaultQueue",
    "FaultSchedule",
    "active_schedule",
    "parse_fault_spec",
]

_MASK = (1 << 64) - 1
_SCALE = float(1 << 64)

# Decision-kind tags: each perturbation draws from its own hash stream so
# e.g. raising the drop rate never changes which messages get delayed.
_DROP = 1
_DELAY = 2
_DELAY_K = 3
_DUP = 4
_CRASH = 5
_CRASH_ROUND = 6
_SHUFFLE = 7
# The kinds FaultSchedule caches a per-round hash state for.
_PER_ROUND_KINDS = (_DROP, _DELAY, _DELAY_K, _DUP, _SHUFFLE)


def _mix(*parts: int) -> int:
    """splitmix64-style finalizer folded over the parts (pure, stateless)."""
    x = 0x9E3779B97F4A7C15
    for part in parts:
        x = ((x ^ (part & _MASK)) * 0xBF58476D1CE4E5B9) & _MASK
        x ^= x >> 27
        x = (x * 0x94D049BB133111EB) & _MASK
        x ^= x >> 31
    return x


def _u01(*parts: int) -> float:
    """A uniform [0, 1) variate from the pure hash stream."""
    return _mix(*parts) / _SCALE


def _fold(x, part):
    """Resume :func:`_mix` from its state ``x`` with one more part:
    ``_fold(_mix(*parts), p) == _mix(*parts, p)``.  The part needs no
    mask: the masked product keeps only bits its low 64 bits decide.
    The same body folds ``uint64`` arrays element-wise (numpy's array
    arithmetic wraps modulo 2**64, so the mask is a no-op there)."""
    x = ((x ^ part) * 0xBF58476D1CE4E5B9) & _MASK
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


@dataclass(frozen=True)
class FaultModel:
    """Declarative spec of a fault environment (all perturbations optional).

    Attributes:
        drop: per-message loss probability in ``[0, 1]``.
        delay: per-message delay probability; a delayed message arrives
            ``k`` rounds late with ``k`` uniform in ``1..max_delay``.
        max_delay: upper bound on the per-message delay (>= 1, below
            ``2**63`` so a delay fits the decisions' ``int64`` array).
        duplicate: per-message duplication probability; the duplicate is a
            faithful copy delivered one round after the original and is
            exempt from further faults (at most one copy per send).
        crash: per-node crash probability; a crashed node picks its crash
            round uniformly in ``1..crash_window`` and never executes from
            that round on (crash-stop, no recovery).
        crash_window: upper bound on randomly drawn crash rounds (>= 1).
        crash_at: explicit ``(node, round)`` pins overriding the random
            draw; nodes are canonical ids (view indices, i.e. repr ranks).
        shuffle: when true, each recipient's per-round inbox is permuted
            by a seeded Fisher-Yates before delivery (adversarial
            delivery order for order-sensitive programs).
    """

    drop: float = 0.0
    delay: float = 0.0
    max_delay: int = 1
    duplicate: float = 0.0
    crash: float = 0.0
    crash_window: int = 1
    crash_at: tuple[tuple[int, int], ...] = ()
    shuffle: bool = False

    def __post_init__(self) -> None:
        for name in ("drop", "delay", "duplicate", "crash"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} rate must be in [0, 1], got {rate!r}")
        if not 1 <= self.max_delay < 1 << 63:
            raise ValueError(f"max_delay must be in [1, 2**63), got {self.max_delay!r}")
        if self.crash_window < 1:
            raise ValueError(f"crash_window must be >= 1, got {self.crash_window!r}")
        object.__setattr__(self, "crash_at", tuple(
            (int(node), int(round_number)) for node, round_number in self.crash_at
        ))
        for node, round_number in self.crash_at:
            if round_number < 1:
                raise ValueError(
                    f"crash_at round for node {node} must be >= 1, got {round_number}"
                )

    @property
    def is_null(self) -> bool:
        """True when the model perturbs nothing (fail-free by construction)."""
        return (
            self.drop == 0.0
            and self.delay == 0.0
            and self.duplicate == 0.0
            and self.crash == 0.0
            and not self.crash_at
            and not self.shuffle
        )

    def as_dict(self) -> dict[str, object]:
        """JSON-friendly description (recorded by the scenario engine)."""
        return {
            "drop": self.drop,
            "delay": self.delay,
            "max_delay": self.max_delay,
            "duplicate": self.duplicate,
            "crash": self.crash,
            "crash_window": self.crash_window,
            "crash_at": [list(pin) for pin in self.crash_at],
            "shuffle": self.shuffle,
        }

    @classmethod
    def preset(cls, kind: str, rate: float = 0.05) -> "FaultModel":
        """One built-in single-perturbation model per fault kind.

        ``kind`` is one of :data:`BUILT_IN_FAULT_KINDS`; ``rate`` is the
        perturbation probability (ignored for ``"shuffle"``, which is a
        pure delivery-order adversary).  ``rate=0`` yields a null model of
        every kind except ``"shuffle"``.
        """
        if kind == "drop":
            return cls(drop=rate)
        if kind == "delay":
            return cls(delay=rate, max_delay=3)
        if kind == "duplicate":
            return cls(duplicate=rate)
        if kind == "crash":
            return cls(crash=rate, crash_window=8)
        if kind == "shuffle":
            return cls(shuffle=True)
        raise ValueError(
            f"unknown fault kind {kind!r}; built-ins are {BUILT_IN_FAULT_KINDS}"
        )


BUILT_IN_FAULT_KINDS: tuple[str, ...] = (
    "drop", "delay", "duplicate", "crash", "shuffle",
)


def parse_fault_spec(spec: str) -> FaultModel:
    """Parse the CLI fault spec mini-language into a :class:`FaultModel`.

    The spec is a comma-separated list of clauses::

        drop=0.05,delay=0.02:3,dup=0.01,crash=0.05:10,shuffle

    ``delay=p:k`` bounds the delay at ``k`` rounds (default 1) and
    ``crash=p:w`` draws crash rounds in ``1..w`` (default 1); ``dup`` is
    an alias for ``duplicate`` and a bare ``shuffle`` turns the delivery
    adversary on.  An empty spec is the null model.
    """
    fields: dict[str, object] = {}
    for clause in filter(None, (part.strip() for part in spec.split(","))):
        if clause == "shuffle":
            fields["shuffle"] = True
            continue
        if "=" not in clause:
            raise ValueError(f"malformed fault clause {clause!r} in spec {spec!r}")
        key, _, value = clause.partition("=")
        key = key.strip()
        rate, _, bound = value.partition(":")
        try:
            if key == "drop":
                fields["drop"] = float(rate)
            elif key == "delay":
                fields["delay"] = float(rate)
                if bound:
                    fields["max_delay"] = int(bound)
            elif key in ("dup", "duplicate"):
                fields["duplicate"] = float(rate)
            elif key == "crash":
                fields["crash"] = float(rate)
                if bound:
                    fields["crash_window"] = int(bound)
            else:
                raise ValueError(f"unknown fault clause {key!r} in spec {spec!r}")
        except ValueError as error:
            raise ValueError(f"malformed fault clause {clause!r}: {error}") from None
    return FaultModel(**fields)


class FaultSchedule:
    """The seeded decision stream: one pure function per perturbation kind.

    Every decision is a hash of ``(seed, kind, round, canonical ids)``, so
    decisions can be queried in any order (or from any process) with
    identical outcomes.  The only mutable state is two caches of pure
    values: each node's crash round, and per round the hash state after
    ``(seed, kind, round)`` for the per-message kinds, which :meth:`fates`
    and :meth:`shuffle_order` resume with the messages' ids instead of
    hashing all five parts again.  Construct once per model+seed and hand
    the same schedule to any number of simulator runs.
    """

    __slots__ = ("model", "seed", "_crash_pins", "_crash_cache", "_round_states")

    def __init__(self, model: FaultModel, seed: int = 0) -> None:
        self.model = model
        self.seed = int(seed) & _MASK
        self._crash_pins = dict(model.crash_at)
        self._crash_cache: dict[int, int | None] = {}
        self._round_states: dict[int, tuple[int, ...]] = {}

    @property
    def active(self) -> bool:
        """False for null models: the simulators then skip the fault layer
        entirely, taking the byte-identical fail-free code paths."""
        return not self.model.is_null

    def describe(self) -> dict[str, object]:
        return {"seed": self.seed, **self.model.as_dict()}

    def _states(self, round_number: int) -> tuple[int, ...]:
        """``_mix(seed, kind, round)`` for the drop, delay, delay-length,
        duplicate and shuffle kinds, in that order (cached per round)."""
        states = self._round_states.get(round_number)
        if states is None:
            seed = self.seed
            states = self._round_states[round_number] = tuple(
                _mix(seed, kind, round_number) for kind in _PER_ROUND_KINDS
            )
        return states

    # -- per-message decisions (send boundary) -----------------------------

    def fates(
        self, round_number: int, senders: Sequence[int], targets: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Decide the fates of one round's messages ``senders[i] -> targets[i]``.

        Returns ``(delays, duplicates)``.  ``delays[i]`` is ``-1`` for a
        dropped message, ``0`` for on-time delivery next round, ``k >= 1``
        for arrival ``k`` rounds late.  ``duplicates[i]`` asks for one extra
        faithful copy a round later (never set for a dropped message -- the
        network lost the send).

        Each draw is still the pure hash ``_mix(seed, kind, round, sender,
        target)``: the round's cached ``(seed, kind, round)`` states are
        folded with every message's ids at once, as wrapping ``uint64``
        arithmetic over all four kinds.  Ids are masked to 64 bits like the
        scalar hash masks them, and a uniform draw is ``float(hash) / 2**64``
        as in :func:`_u01` (numpy's ``uint64 -> float64`` cast rounds to
        nearest-even like Python's ``float(int)``).
        """
        states = np.array(self._states(round_number)[:4], dtype=np.uint64)[:, None]
        sender_ids = np.array([sender & _MASK for sender in senders], dtype=np.uint64)
        target_ids = np.array([target & _MASK for target in targets], dtype=np.uint64)
        hashes = _fold(_fold(states, sender_ids), target_ids)
        drop, delay, _, dup = hashes.astype(np.float64) / _SCALE
        model = self.model
        dropped = drop < model.drop
        delays = np.where(delay < model.delay, hashes[2] % model.max_delay + 1, 0)
        delays = delays.astype(np.int64)
        delays[dropped] = -1
        return delays, (dup < model.duplicate) & ~dropped

    # -- per-node decisions ------------------------------------------------

    def crash_round(self, node: int) -> int | None:
        """The round from which ``node`` never executes again (None = never).

        Explicit ``crash_at`` pins win over the random draw; decisions are
        cached per schedule (they are pure, the cache is just speed).
        """
        cache = self._crash_cache
        if node in cache:
            return cache[node]
        pinned = self._crash_pins.get(node)
        if pinned is not None:
            result: int | None = pinned
        else:
            model = self.model
            result = None
            if model.crash and _u01(self.seed, _CRASH, node) < model.crash:
                result = 1 + _mix(self.seed, _CRASH_ROUND, node) % model.crash_window
        cache[node] = result
        return result

    # -- delivery-order adversary (deliver boundary) -----------------------

    def shuffle_order(self, round_number: int, target: int, count: int) -> list[int]:
        """A seeded Fisher-Yates permutation of ``range(count)`` for one
        recipient's inbox in one round (applied to the canonically sorted
        sender list, so the result is mode-independent)."""
        *_, shuffle = self._states(round_number)
        state = _fold(shuffle, target)
        order = list(range(count))
        for i in range(count - 1, 0, -1):
            j = _fold(state, i) % (i + 1)
            order[i], order[j] = order[j], order[i]
        return order


def active_schedule(
    fault_schedule: FaultSchedule | FaultModel | None,
) -> FaultSchedule | None:
    """Normalise a ``fault_schedule`` argument to an active schedule or None.

    Accepts a schedule, a bare model (wrapped with seed 0) or None.  A null
    model comes back as None, so a rate-0 fault spec takes the unchanged
    fail-free code path (plain programs, no ack traffic) and reproduces
    fail-free results exactly.
    """
    if fault_schedule is None:
        return None
    if not isinstance(fault_schedule, FaultSchedule):
        fault_schedule = FaultSchedule(fault_schedule)
    return fault_schedule if fault_schedule.active else None


class FaultQueue:
    """The round-bucketed mailbox of the fault-aware run loop.

    :meth:`send` only records a message for its round.  When the round
    closes -- :meth:`take_round_stats`, which the loop calls once per round
    after the sends, or any read of the queue -- one
    :meth:`FaultSchedule.fates` call decides all of the round's drops,
    delays and duplicates together (each still a pure hash of ``(seed,
    kind, round, sender, target)``), and the surviving messages are placed
    in send order, exactly as if each had been placed when it was sent.
    Each round's deliveries come back from :meth:`deliveries` (crashed
    recipients filtered, adversarial order applied at the deliver
    boundary).  Node ids are the canonical ints (view indices) the schedule
    is keyed by, in every mode.
    """

    __slots__ = (
        "schedule", "_buckets", "_round", "_senders", "_targets", "_messages",
        "dropped", "delayed", "duplicated",
    )

    def __init__(self, schedule: FaultSchedule) -> None:
        self.schedule = schedule
        # arrival round -> recipient -> {sender: message}
        self._buckets: dict[int, dict[int, dict[int, object]]] = {}
        # The open round and its unresolved sends.  Parallel lists, not a
        # tuple per send: short-lived tuples interleaved with the programs'
        # message tuples fragment the small-object heap and raise peak RSS.
        self._round: int | None = None
        self._senders: list[int] = []
        self._targets: list[int] = []
        self._messages: list[object] = []
        self.dropped = 0
        self.delayed = 0
        self.duplicated = 0

    def send(self, round_number: int, sender: int, target: int, message) -> None:
        """Record one program send; its fate is decided when its round closes."""
        if round_number != self._round:
            self._resolve()
            self._round = round_number
        self._senders.append(sender)
        self._targets.append(target)
        self._messages.append(message)

    def _resolve(self) -> None:
        """Decide the open round's fates in one batch and place the
        survivors in send order, so a later send to a mailbox slot
        replaces an earlier one exactly as it would have at its send."""
        senders, targets, messages = self._senders, self._targets, self._messages
        if not senders:
            return
        self._senders, self._targets, self._messages = [], [], []
        delays, duplicates = self.schedule.fates(self._round, senders, targets)
        delays, duplicates = delays.tolist(), duplicates.tolist()
        dropped = delays.count(-1)
        self.dropped += dropped
        self.delayed += len(delays) - dropped - delays.count(0)
        self.duplicated += duplicates.count(True)
        buckets = self._buckets
        on_time = self._round + 1
        for sender, target, message, delay, duplicate in zip(
            senders, targets, messages, delays, duplicates
        ):
            if delay < 0:
                continue
            arrival = on_time + delay
            buckets.setdefault(arrival, {}).setdefault(target, {})[sender] = message
            if duplicate:
                buckets.setdefault(arrival + 1, {}).setdefault(target, {})[sender] = message

    def deliveries(self, round_number: int) -> dict[int, dict[int, object]]:
        """Pop and return this round's inboxes (recipient -> sender -> msg).

        Mail addressed to a recipient already crashed by ``round_number``
        is destroyed here and re-booked as dropped; with ``shuffle`` on,
        each surviving multi-sender inbox is rebuilt in the schedule's
        adversarial order (over the canonically sorted sender list, so the
        permutation is identical in every mode).
        """
        self._resolve()
        bucket = self._buckets.pop(round_number, None)
        if not bucket:
            return {}
        schedule = self.schedule
        for target in list(bucket):
            crash = schedule.crash_round(target)
            if crash is not None and round_number >= crash:
                self.dropped += len(bucket.pop(target))
        if schedule.model.shuffle:
            for target, inbox in bucket.items():
                if len(inbox) > 1:
                    senders = sorted(inbox)
                    order = schedule.shuffle_order(round_number, target, len(senders))
                    bucket[target] = {senders[i]: inbox[senders[i]] for i in order}
        return bucket

    def has_mail(self) -> bool:
        """True while any bucket (present or future round) holds a message."""
        self._resolve()
        return bool(self._buckets)

    def take_round_stats(self) -> tuple[int, int, int]:
        """Return and reset the (dropped, delayed, duplicated) counters --
        called once per round, after its sends, to fill the fault telemetry
        columns; it closes the round, deciding its sends' fates."""
        self._resolve()
        stats = (self.dropped, self.delayed, self.duplicated)
        self.dropped = self.delayed = self.duplicated = 0
        return stats

