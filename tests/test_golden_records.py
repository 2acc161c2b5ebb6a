"""Golden-record regression tests for the experiment layer.

Every experiment that the benchmarks print is pinned here on small
fixed-seed instances: the records are computed fresh and compared field by field against ``tests/golden/records.json``.
This is what stops ports of the experiment layer -- like the move onto the
scenario engine -- from silently drifting: any change to MST round counts,
min-cut approximation ratios or self-reported shortcut qualities fails the
suite until the golden file is deliberately regenerated with::

    PYTHONPATH=src python tests/test_golden_records.py --write

(and the diff reviewed like any other behavioural change).
"""

from __future__ import annotations

import json
import math
import pathlib
import sys

import pytest

from repro.analysis.experiments import (
    experiment_apex,
    experiment_cells_and_gates,
    experiment_clique_sum,
    experiment_genus_vortex_treewidth,
    experiment_mincut,
    experiment_minor_free_quality,
    experiment_mst_rounds,
    experiment_planar_quality,
    experiment_scenario_matrix,
    experiment_treewidth_quality,
)

GOLDEN_PATH = pathlib.Path(__file__).resolve().parent / "golden" / "records.json"

# Small fixed-seed instances: a few seconds total, fully deterministic.
EXPERIMENTS = {
    "planar_quality": lambda: experiment_planar_quality(sides=(6, 10)),
    "treewidth_quality": lambda: experiment_treewidth_quality(widths=(2, 3), n=40, seed=7),
    "clique_sum": lambda: experiment_clique_sum(num_bags=4, bag_side=4, k=3, seed=11),
    "apex": lambda: experiment_apex(cycle_size=32, grid_side=7, seed=13),
    "minor_free_quality": lambda: experiment_minor_free_quality(
        bag_counts=(3, 4), k=3, bag_size=15, seed=17
    ),
    "mst_rounds": lambda: experiment_mst_rounds(
        grid_side=6, lower_bound_paths=4, lower_bound_length=4, seed=19
    ),
    "mincut": lambda: experiment_mincut(grid_side=6, epsilon=1.0, seed=23),
    "genus_vortex_treewidth": lambda: experiment_genus_vortex_treewidth(
        sides=(5,), genus=1, depth=2, vortices=1, seed=31
    ),
    "cells_gates": lambda: experiment_cells_and_gates(grid_side=7, seed=37),
    "scenario_matrix": lambda: experiment_scenario_matrix(size="tiny", algorithm="quality"),
}


def _normalise(record: dict) -> dict:
    """JSON round-trip: tuples become lists, keys become strings."""
    return json.loads(json.dumps(record, default=str))


def _assert_same(expected, actual, path: str = "") -> None:
    """Recursive equality with relative tolerance for floats."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict), f"{path}: expected dict, got {type(actual)}"
        assert sorted(expected) == sorted(actual), (
            f"{path}: keys differ: {sorted(expected)} != {sorted(actual)}"
        )
        for key in expected:
            _assert_same(expected[key], actual[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list), f"{path}: expected list, got {type(actual)}"
        assert len(expected) == len(actual), f"{path}: length {len(expected)} != {len(actual)}"
        for index, (e, a) in enumerate(zip(expected, actual)):
            _assert_same(e, a, f"{path}[{index}]")
    elif isinstance(expected, float) or isinstance(actual, float):
        assert math.isclose(float(expected), float(actual), rel_tol=1e-9, abs_tol=1e-9), (
            f"{path}: {expected} != {actual}"
        )
    else:
        assert expected == actual, f"{path}: {expected!r} != {actual!r}"


def _load_golden() -> dict:
    assert GOLDEN_PATH.exists(), (
        f"golden file missing: {GOLDEN_PATH}; regenerate with "
        "`PYTHONPATH=src python tests/test_golden_records.py --write`"
    )
    with GOLDEN_PATH.open(encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_experiment_matches_golden_record(name):
    golden = _load_golden()
    assert name in golden, f"no golden record for {name}; regenerate the golden file"
    _assert_same(golden[name], _normalise(EXPERIMENTS[name]()), path=name)


def test_golden_file_has_no_stale_entries():
    assert sorted(_load_golden()) == sorted(EXPERIMENTS)


def _write_golden() -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    records = {name: _normalise(build()) for name, build in sorted(EXPERIMENTS.items())}
    with GOLDEN_PATH.open("w", encoding="utf-8") as handle:
        json.dump(records, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(records)} golden records to {GOLDEN_PATH}")


if __name__ == "__main__":
    if "--write" in sys.argv:
        _write_golden()
    else:
        print(__doc__)
