"""Aggregation schedule differential at scale: a 60x60 grid's Boruvka phases.

The family and hypothesis differentials in ``test_aggregation_schedule.py``
carry at most ~76 messages a round; the phases of a 60x60 label grid carry
up to ~730.  :func:`grid_phases` records the shortcut, the candidate
values and the production scheduler's result of every Boruvka phase of
that grid (seed 7), and :func:`assert_like_the_oracle` pins one phase's
values, rounds, messages and ``per_part_rounds`` to the seed scheduler in
``oracles/aggregation.py``.  Tier-1 checks the heaviest phase; run as a
script, this module checks every phase (~9 s of oracle time)::

    PYTHONPATH=src:tests python tests/aggregation_at_scale.py
"""

from __future__ import annotations

import sys
import time
from unittest import mock

from repro.algorithms import mst
from repro.congest.aggregation import AggregationResult, partwise_aggregate_indexed
from repro.scenarios import build_instance

from oracles import aggregation as oracle_aggregation

SIDE = 60
SEED = 7


def grid_phases(side: int = SIDE, seed: int = SEED) -> list[tuple]:
    """``(shortcut, values, result)`` of every Boruvka phase of a
    ``side x side`` label grid with seeded weights, in phase order."""
    instance = build_instance("planar", {"side": side}, seed=seed)
    phases = []

    def record(shortcut, values, combine):
        result = partwise_aggregate_indexed(shortcut, values, combine)
        phases.append((shortcut, list(values), result))
        return result

    with mock.patch.object(mst, "partwise_aggregate_indexed", record):
        mst.boruvka_mst(instance.weighted_graph(seed), tree=instance.tree)
    return phases


def assert_like_the_oracle(shortcut, values, fast: AggregationResult) -> None:
    """``fast``, one phase's production result, must equal the seed
    scheduler's exactly."""
    reference = oracle_aggregation.partwise_aggregate_indexed(shortcut, values, min)
    assert fast.values == reference.values
    assert fast.rounds == reference.rounds
    assert fast.messages == reference.messages
    assert fast.per_part_rounds == reference.per_part_rounds


def main() -> int:
    for phase, (shortcut, values, result) in enumerate(grid_phases()):
        started = time.process_time()
        assert_like_the_oracle(shortcut, values, result)
        print(
            f"phase {phase}: {shortcut.num_parts} parts, {result.rounds} rounds, "
            f"{result.messages} messages ({result.messages / max(1, result.rounds):.0f} a round) "
            f"equal to the oracle in {time.process_time() - started:.1f} s"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
