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
* the schedule's per-round hash cache changes no decision: ``fate`` and
  ``shuffle_order`` equal the seed bodies in ``oracles.faults``, which hash
  all five parts per draw, in any query order.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.congest import (
    BUILT_IN_FAULT_KINDS,
    CongestSimulator,
    FaultModel,
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
    st.tuples(st.booleans(), _ROUNDS, _IDS, _IDS, st.integers(min_value=0, max_value=9)),
    min_size=1,
    max_size=30,
)


@settings(max_examples=100, deadline=None)
@given(
    model=fault_models() | st.sampled_from(_FIXED_MODELS),
    seed=st.integers(min_value=0, max_value=6) | _WIDE,
    queries=_QUERIES,
)
def test_schedule_decisions_equal_the_full_hash(model, seed, queries):
    schedule = FaultSchedule(model, seed=seed)
    # Forward, then backward over the now-warm cache.
    for is_fate, round_number, node, other, count in queries + queries[::-1]:
        if is_fate:
            assert schedule.fate(round_number, node, other) == oracle_faults.fate(
                schedule, round_number, node, other
            )
        else:
            assert schedule.shuffle_order(round_number, node, count) == (
                oracle_faults.shuffle_order(schedule, round_number, node, count)
            )
