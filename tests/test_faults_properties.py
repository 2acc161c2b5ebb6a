"""Property-based tests (hypothesis) for the fault-injection layer.

Random fault models -- arbitrary mixes of drop/delay/duplicate/crash/shuffle
at random rates and seeds -- must never violate the simulator invariants
documented in docs/simulator.md:

* telemetry has one row per round, 1-based and contiguous;
* no counter is ever negative, and the result totals equal the column sums
  of the telemetry (the delivery bound ``messages - dropped + duplicated``
  stays non-negative; it is an upper bound, since a copy landing in an
  occupied mailbox slot merges with the message there);
* outputs come only from live (never-crashed) nodes;
* the same (model, seed) pair reproduces the identical result, and both
  simulator modes and the full-scan oracle agree on it;
* a fail-free (null) model is normalised away and reproduces today's
  results bit-for-bit, whatever the fault seed;
* the schedule's per-round hash cache and its batched decisions change no
  decision: ``fates`` (element-wise) and ``shuffle_order`` equal the seed
  bodies in ``oracles.faults``, which hash all five parts per draw, in any
  query order; and the queue that decides a round's sends together hands
  out exactly what the seed queue, deciding each send on its own, does.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.congest import (
    BUILT_IN_FAULT_KINDS,
    CongestSimulator,
    FaultModel,
    FaultQueue,
    FaultSchedule,
    RuntimeSimulator,
    flood_max_id,
    parse_fault_spec,
    robust_bfs_tree,
)
from repro.core import view_of
from repro.graphs.planar import grid_graph

from oracles import faults as oracle_faults
from oracles.simulator import ReferenceSimulator

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

_RATES = st.floats(min_value=0.0, max_value=0.3, allow_nan=False)


@st.composite
def fault_models(draw):
    """An arbitrary mix of the built-in fault kinds at bounded rates."""
    return FaultModel(
        drop=draw(_RATES),
        delay=draw(_RATES),
        max_delay=draw(st.integers(min_value=1, max_value=4)),
        duplicate=draw(_RATES),
        crash=draw(st.floats(min_value=0.0, max_value=0.15, allow_nan=False)),
        crash_window=draw(st.integers(min_value=1, max_value=8)),
        shuffle=draw(st.booleans()),
    )


def _grid_view(side=4):
    return view_of(grid_graph(side, side))


def _check_invariants(result, view, schedule):
    rounds = [row.round for row in result.telemetry]
    assert rounds == list(range(1, len(rounds) + 1)), "telemetry rows not contiguous"
    for row in result.telemetry:
        for value in (row.active_nodes, row.messages, row.words,
                      row.dropped, row.delayed, row.duplicated, row.crashed):
            assert value >= 0, "negative telemetry counter"
    assert result.messages == sum(row.messages for row in result.telemetry)
    assert result.words == sum(row.words for row in result.telemetry)
    assert result.dropped == sum(row.dropped for row in result.telemetry)
    assert result.delayed == sum(row.delayed for row in result.telemetry)
    assert result.duplicated == sum(row.duplicated for row in result.telemetry)
    assert result.crashed_nodes == sum(row.crashed for row in result.telemetry)
    assert result.dropped <= result.messages, "dropped more than was sent"
    assert result.messages - result.dropped + result.duplicated >= 0
    assert 0 <= result.rounds <= len(result.telemetry)
    # Outputs come only from live nodes: anything the schedule crashed
    # within the run is absent from the output map.
    crashed_in_run = {
        index
        for index in range(len(view.nodes))
        if (crash := schedule.crash_round(index)) is not None
        and crash <= len(result.telemetry)
    }
    for label in result.outputs:
        assert view.index_of(label) not in crashed_in_run


@SETTINGS
@given(model=fault_models(), seed=st.integers(min_value=0, max_value=2**32))
def test_random_schedules_preserve_simulator_invariants(model, seed):
    view = _grid_view()
    schedule = FaultSchedule(model, seed=seed)
    _, result = flood_max_id(view, fault_schedule=schedule)
    _check_invariants(result, view, schedule)


@SETTINGS
@given(model=fault_models(), seed=st.integers(min_value=0, max_value=2**32))
def test_robust_bfs_under_random_schedules(model, seed):
    view = _grid_view()
    schedule = FaultSchedule(model, seed=seed)
    tree, result, repaired = robust_bfs_tree(view, 0, schedule)
    _check_invariants(result, view, schedule)
    assert repaired >= 0
    # Whatever the schedule did, the repaired tree spans the network.
    assert set(tree.parent) == set(view.nodes)


@SETTINGS
@given(model=fault_models(), seed=st.integers(min_value=0, max_value=2**32))
def test_same_schedule_reproduces_identical_results(model, seed):
    view = _grid_view()
    first = flood_max_id(view, fault_schedule=FaultSchedule(model, seed=seed))
    second = flood_max_id(view, fault_schedule=FaultSchedule(model, seed=seed))
    assert first == second


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(model=fault_models(), seed=st.integers(min_value=0, max_value=2**32))
def test_three_modes_agree_under_random_schedules(model, seed):
    view = _grid_view()
    outcomes = [
        flood_max_id(view, simulator_cls=cls, fault_schedule=FaultSchedule(model, seed=seed))
        for cls in (CongestSimulator, ReferenceSimulator, RuntimeSimulator)
    ]
    assert outcomes[0] == outcomes[1] == outcomes[2]


@SETTINGS
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_null_models_reproduce_fail_free_results_bit_for_bit(seed):
    view = _grid_view()
    fail_free = flood_max_id(view)
    nulled = flood_max_id(view, fault_schedule=FaultSchedule(FaultModel(), seed=seed))
    assert nulled == fail_free


# Every built-in kind, plus the committed benchmark's grid-sim-faulty spec.
_FIXED_MODELS = [FaultModel.preset(kind, rate=0.3) for kind in BUILT_IN_FAULT_KINDS] + [
    parse_fault_spec("drop=0.01,delay=0.01:3,dup=0.01")
]
# Small values repeat rounds (cached states reused, interleaved); wide ones
# reach negative ids and ids of 2^64 or more, which the hash masks to 64 bits.
_WIDE = st.integers(min_value=-(2**70), max_value=2**70)
_IDS = st.integers(min_value=0, max_value=6) | _WIDE
_ROUNDS = st.integers(min_value=1, max_value=6) | _WIDE
_QUERIES = st.lists(
    st.tuples(
        st.booleans(),
        _ROUNDS,
        st.lists(st.tuples(_IDS, _IDS), min_size=1, max_size=8),
        st.integers(min_value=0, max_value=9),
    ),
    min_size=1,
    max_size=30,
)
# Rates at the ends of the uniform draw: 0 and 1, and values so small only
# a hash of 0 (or of nothing) falls below them.
_EDGE_RATES = st.sampled_from((0.0, 1.0, 5e-324, 2.0**-64, 2.0**-40)) | st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False
)


@st.composite
def decision_models(draw):
    """Drop/delay/duplicate models at edge rates, up to the largest delay bound."""
    return FaultModel(
        drop=draw(_EDGE_RATES),
        delay=draw(_EDGE_RATES),
        max_delay=draw(st.integers(min_value=1, max_value=4) | st.just(2**63 - 1)),
        duplicate=draw(_EDGE_RATES),
    )


@settings(max_examples=100, deadline=None)
@given(
    model=fault_models() | decision_models() | st.sampled_from(_FIXED_MODELS),
    seed=st.integers(min_value=0, max_value=6) | _WIDE,
    queries=_QUERIES,
)
def test_schedule_decisions_equal_the_full_hash(model, seed, queries):
    schedule = FaultSchedule(model, seed=seed)
    # Forward, then backward over the now-warm cache.
    for is_fate, round_number, pairs, count in queries + queries[::-1]:
        if is_fate:
            delays, duplicates = schedule.fates(
                round_number, [sender for sender, _ in pairs], [target for _, target in pairs]
            )
            assert list(zip(delays.tolist(), duplicates.tolist())) == [
                oracle_faults.fate(schedule, round_number, sender, target)
                for sender, target in pairs
            ]
        else:
            node = pairs[0][1]
            assert schedule.shuffle_order(round_number, node, count) == (
                oracle_faults.shuffle_order(schedule, round_number, node, count)
            )


def _inboxes(queue, round_number):
    """One round's deliveries with every key order made visible."""
    return [
        (target, list(inbox.items()))
        for target, inbox in queue.deliveries(round_number).items()
    ]


# A round's sends: (sender, target, message) over few nodes and few
# payloads, so mailbox slots collide and replaced messages show.
_ROUND_SENDS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=3),
    ),
    max_size=12,
)


@settings(max_examples=100, deadline=None)
@given(
    model=fault_models() | st.sampled_from(_FIXED_MODELS),
    seed=st.integers(min_value=0, max_value=2**32),
    rounds=st.lists(
        st.tuples(
            _ROUND_SENDS, st.integers(min_value=0, max_value=12), st.booleans(), st.booleans()
        ),
        max_size=8,
    ),
)
def test_batched_queue_equals_the_sequential_queue(model, seed, rounds):
    """The queue that decides a round's sends together delivers what the
    seed queue, which decided each send on its own, delivers: the same
    inboxes in the same key order, and the same counters.

    Each drawn round may skip its ``deliveries`` read and its closing
    ``take_round_stats``, so one round's sends can follow the last
    round's unresolved, and a ``has_mail`` read part-way through a round's
    sends (at the drawn index) closes a batch early: none of it may change
    what the queue hands out.
    """
    schedule = FaultSchedule(model, seed=seed)
    batched, sequential = FaultQueue(schedule), oracle_faults.FaultQueue(schedule)
    round_number = 0
    for sends, peek, deliver, close in rounds:
        round_number += 1
        if deliver:
            assert _inboxes(batched, round_number) == _inboxes(sequential, round_number)
        for index, (sender, target, message) in enumerate(sends):
            if index == peek:
                assert batched.has_mail() == sequential.has_mail()
            batched.send(round_number, sender, target, message)
            sequential.send(round_number, sender, target, message)
        if close:
            assert batched.take_round_stats() == sequential.take_round_stats()
    # Drain every delay and duplicate still in flight.
    for _ in range(model.max_delay + 2):
        round_number += 1
        assert _inboxes(batched, round_number) == _inboxes(sequential, round_number)
        assert batched.take_round_stats() == sequential.take_round_stats()
    assert batched.has_mail() == sequential.has_mail()
