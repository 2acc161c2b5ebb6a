"""Golden pins for the fault-tolerant primitives.

Under an active fault schedule every simulator mode runs the same per-node
program classes (the compiled twins assume fail-free delivery), so the
mode-equality tests of ``tests/test_faults.py`` cannot see a change to
those programs: both sides of every comparison change together.  This file
pins what the robust BFS, broadcast and convergecast and the faulty
``flood_max_id`` actually do on every registered family at tiny size under
three fault models -- rounds, messages, words, the four fault counts, the
BFS repair count and a digest of the outputs (the parent map for BFS) --
against ``tests/golden/robust_primitives.json``.  Regenerate it (and review
the diff like any other behavioural change) with::

    PYTHONPATH=src python tests/test_robust_primitives.py --write
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import pytest

from repro.congest import (
    FaultModel,
    FaultSchedule,
    broadcast_value,
    convergecast_aggregate,
    flood_max_id,
    robust_bfs_tree,
)
from repro.scenarios.engine import build_instance
from repro.scenarios.registry import family, family_names

GOLDEN_PATH = pathlib.Path(__file__).resolve().parent / "golden" / "robust_primitives.json"

# The root is index 0 (``view.nodes[0]``), so ``crash_at`` pins it directly:
# it sends its round-1 offers and crashes before any reply arrives.
MODELS = {
    "drop_crash": FaultModel(drop=0.1, crash=0.05, crash_window=6),
    "delay_dup_shuffle": FaultModel(delay=0.1, max_delay=3, duplicate=0.1, shuffle=True),
    "root_crash": FaultModel(crash_at=((0, 2),)),
}
FAULT_SEED = 7


def _digest(mapping) -> str:
    canonical = json.dumps(sorted((repr(key), repr(value)) for key, value in mapping.items()))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _stats(result) -> dict:
    return {
        "rounds": result.rounds,
        "messages": result.messages,
        "words": result.words,
        "dropped": result.dropped,
        "delayed": result.delayed,
        "duplicated": result.duplicated,
        "crashed_nodes": result.crashed_nodes,
    }


def _fold(acc, value):
    """Non-commutative, so the pinned digest also pins the fold order."""
    return (acc * 1_000_003 + value) % (1 << 31)


def _run(family_name: str, model_name: str) -> dict:
    instance = build_instance(family_name, family(family_name).tiny_params, seed=0)
    view = instance.view
    root = view.nodes[0]
    schedule = FaultSchedule(MODELS[model_name], seed=FAULT_SEED)
    tree, bfs, repaired = robust_bfs_tree(view, root, schedule)
    broadcast = broadcast_value(view, root, 12.5, fault_schedule=schedule)
    values = {node: (index * 31 + 5) % 97 for index, node in enumerate(view.nodes)}
    aggregate, convergecast = convergecast_aggregate(
        view, instance.tree, values, _fold, fault_schedule=schedule
    )
    leader, flood = flood_max_id(view, fault_schedule=schedule)
    return {
        "bfs": {**_stats(bfs), "repaired": repaired, "digest": _digest(tree.parent)},
        "broadcast": {**_stats(broadcast), "digest": _digest(broadcast.outputs)},
        "convergecast": {
            **_stats(convergecast),
            "digest": _digest({"aggregate": aggregate, **convergecast.outputs}),
        },
        "flood_max": {
            **_stats(flood),
            "digest": _digest({"leader": leader, **flood.outputs}),
        },
    }


def _key(family_name: str, model_name: str) -> str:
    return f"{family_name}/{model_name}"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("model_name", sorted(MODELS))
@pytest.mark.parametrize("family_name", family_names())
def test_robust_primitives_match_golden(golden, family_name, model_name):
    assert _run(family_name, model_name) == golden[_key(family_name, model_name)]


def test_golden_covers_every_family_and_model(golden):
    assert set(golden) == {
        _key(family_name, model_name)
        for family_name in family_names()
        for model_name in MODELS
    }


def _write_golden() -> None:
    records = {
        _key(family_name, model_name): _run(family_name, model_name)
        for family_name in family_names()
        for model_name in sorted(MODELS)
    }
    with GOLDEN_PATH.open("w", encoding="utf-8") as handle:
        json.dump(records, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(records)} robust-primitive records to {GOLDEN_PATH}")


if __name__ == "__main__":
    if "--write" in sys.argv:
        _write_golden()
    else:
        print(__doc__)
