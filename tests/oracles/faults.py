"""The seed fault decisions: every draw hashes all five parts.

:class:`repro.congest.faults.FaultSchedule` caches, per round, the hash
state after ``(seed, kind, round)`` and resumes it with each message's
ids.  The functions here are the bodies it replaced: they run the
definition, :func:`repro.congest.faults._mix`, over the whole
``(seed, kind, round, sender, target)`` tuple for every decision, so the
property tests can pin the cached schedule to them on any query order.
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
    """``(delay, duplicate)`` of one message, as :meth:`FaultSchedule.fate`."""
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
