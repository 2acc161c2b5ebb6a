"""The seed fault decisions: every draw hashes all five parts.

:class:`repro.congest.faults.FaultSchedule` caches, per round, the hash
state after ``(seed, kind, round)`` and resumes it with all of a round's
message ids at once.  The functions here are the bodies it replaced: they
run the definition, :func:`repro.congest.faults._mix`, over the whole
``(seed, kind, round, sender, target)`` tuple for every decision, one
message at a time, so the property tests can pin the batched schedule to
them on any query order.

:class:`FaultQueue` is the seed mailbox that decided and placed each send
as it happened; the production queue records a round's sends and decides
them together when the round closes.
"""

from __future__ import annotations

from repro.congest.faults import (
    _DELAY,
    _DELAY_K,
    _DROP,
    _DUP,
    _SHUFFLE,
    FaultSchedule,
    _mix,
    _u01,
)


def fate(schedule: FaultSchedule, round_number: int, sender: int, target: int) -> tuple[int, bool]:
    """``(delay, duplicate)`` of one message: element ``i`` of
    :meth:`FaultSchedule.fates` for ``senders[i], targets[i]``."""
    model, seed = schedule.model, schedule.seed
    if model.drop and _u01(seed, _DROP, round_number, sender, target) < model.drop:
        return -1, False
    delay = 0
    if model.delay and _u01(seed, _DELAY, round_number, sender, target) < model.delay:
        delay = 1 + _mix(seed, _DELAY_K, round_number, sender, target) % model.max_delay
    duplicate = bool(model.duplicate) and (
        _u01(seed, _DUP, round_number, sender, target) < model.duplicate
    )
    return delay, duplicate


def shuffle_order(
    schedule: FaultSchedule, round_number: int, target: int, count: int
) -> list[int]:
    """One inbox's Fisher-Yates order, as :meth:`FaultSchedule.shuffle_order`."""
    order = list(range(count))
    for i in range(count - 1, 0, -1):
        j = _mix(schedule.seed, _SHUFFLE, round_number, target, i) % (i + 1)
        order[i], order[j] = order[j], order[i]
    return order


class FaultQueue:
    """The seed :class:`repro.congest.faults.FaultQueue`: each send's fate
    is decided by :func:`fate` and the message placed at the send itself."""

    def __init__(self, schedule: FaultSchedule) -> None:
        self.schedule = schedule
        # arrival round -> recipient -> {sender: message}
        self._buckets: dict[int, dict[int, dict[int, object]]] = {}
        self.dropped = 0
        self.delayed = 0
        self.duplicated = 0

    def send(self, round_number: int, sender: int, target: int, message) -> None:
        delay, duplicate = fate(self.schedule, round_number, sender, target)
        if delay < 0:
            self.dropped += 1
            return
        arrival = round_number + 1 + delay
        if delay:
            self.delayed += 1
        buckets = self._buckets
        buckets.setdefault(arrival, {}).setdefault(target, {})[sender] = message
        if duplicate:
            self.duplicated += 1
            buckets.setdefault(arrival + 1, {}).setdefault(target, {})[sender] = message

    def deliveries(self, round_number: int) -> dict[int, dict[int, object]]:
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
                    order = shuffle_order(schedule, round_number, target, len(senders))
                    bucket[target] = {senders[i]: inbox[senders[i]] for i in order}
        return bucket

    def has_mail(self) -> bool:
        return bool(self._buckets)

    def take_round_stats(self) -> tuple[int, int, int]:
        stats = (self.dropped, self.delayed, self.duplicated)
        self.dropped = self.delayed = self.duplicated = 0
        return stats
