"""Shared helpers for the benchmark harness.

Every benchmark file regenerates one experiment of the "Experiments" section
of ``docs/paper_map.md`` (one per "table/figure", i.e. per quantitative claim
of the paper), runs it once under pytest-benchmark for timing, and prints the
measured record; all of them run with::

    PYTHONPATH=src pytest benchmarks/ --benchmark-only -s

The experiment functions are thin declarative layers over the scenario
engine (:mod:`repro.scenarios`): instances come from the family registry and
shortcuts from the constructor registry.  ``bench_scenarios.py`` runs the
full family x constructor matrix through the engine's single entry point.

The S6 and S7 gates append their records to a
``benchmarks/BENCH_S<k>.json`` trajectory file through
:func:`append_trajectory`, so regressions are visible across commits (not
just against the gate) from the very first run after a fresh clone; the
E8 fault-degradation sweep does the same into
``benchmarks/BENCH_E8.json``.  The trajectory files are gitignored.
"""

from __future__ import annotations

import json
import os

import pytest

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def run_experiment(benchmark, function, **kwargs):
    """Run ``function`` once under the benchmark fixture and print its record."""
    result = benchmark.pedantic(lambda: function(**kwargs), rounds=1, iterations=1)
    print()
    print(json.dumps(result, indent=2, default=str))
    return result


def append_trajectory(name: str, result: dict) -> None:
    """Append ``result`` to ``benchmarks/BENCH_<name>.json``.

    The file holds a JSON list, one record per benchmark run; an unreadable
    or missing file starts a fresh trajectory rather than failing the gate.
    """
    path = os.path.join(_BENCH_DIR, f"BENCH_{name}.json")
    history: list[dict] = []
    if os.path.exists(path):
        try:
            with open(path) as handle:
                history = json.load(handle)
        except (OSError, ValueError):
            history = []
    history.append(result)
    with open(path, "w") as handle:
        json.dump(history, handle, indent=2, sort_keys=True)
        handle.write("\n")
