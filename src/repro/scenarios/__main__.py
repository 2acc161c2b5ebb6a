"""Command-line entry point: run a scenario matrix and print JSON records.

The sweep is filterable along all three registry axes (``--families``,
``--constructors``, ``--algorithms``) and can fan out over a process pool
with ``--jobs N``; records are always emitted in the same deterministic
(family x constructor x algorithm) order regardless of ``--jobs``.

``--simulator`` selects the execution mode for the simulated phases of the
``mst`` workload: ``runtime`` (the default) runs the vectorized batch
programs, ``active`` the per-node active-set loop; records are identical
across modes, only the wall-clock differs.

``--faults`` injects seeded faults into those simulated phases -- a spec
string such as ``drop=0.05,delay=0.02:3,dup=0.01,crash=0.01:8,shuffle``
(see :func:`repro.congest.faults.parse_fault_spec`) -- and ``--fault-seed``
picks the decision stream.  Faulty sweeps stay deterministic across
``--jobs`` and ``--simulator`` choices.

Examples::

    python -m repro.scenarios --list
    python -m repro.scenarios --size tiny
    python -m repro.scenarios --families planar --algorithms mst
    python -m repro.scenarios --families planar --algorithms mst --simulator active
    python -m repro.scenarios --families planar --algorithms mst --native \
        --constructors oblivious --params side=400
    python -m repro.scenarios --families planar --algorithms mst \
        --faults drop=0.05,crash=0.01:8 --fault-seed 7
    python -m repro.scenarios --families planar apex --constructors oblivious steiner \
        --algorithms quality mst --seed 3 --jobs 4 --output records.json
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from ..congest.faults import parse_fault_spec
from ..congest.runtime import RuntimeSimulator
from ..congest.simulator import CongestSimulator
from .engine import run_matrix, scenario_matrix
from .instances import InstanceCache
from .registry import (
    _ALGORITHMS,
    _CONSTRUCTORS,
    _FAMILIES,
    algorithm_names,
    constructor_names,
    family_names,
)


def _print_registry() -> None:
    print("families:")
    for name in family_names():
        spec = _FAMILIES[name]
        print(f"  {name:12s} {spec.description}  (default {dict(spec.default_params)})")
    print("constructors:")
    for name in constructor_names():
        print(f"  {name:12s} {_CONSTRUCTORS[name].description}")
    print("algorithms:")
    for name in algorithm_names():
        print(f"  {name:12s} {_ALGORITHMS[name].description}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="Run a family x constructor x algorithm scenario matrix.",
    )
    # nargs="+" everywhere: a bare `--families` with no names is a usage
    # error instead of silently collapsing the sweep to nothing.
    parser.add_argument("--families", nargs="+", default=None, help="families to sweep")
    parser.add_argument(
        "--constructors", nargs="+", default=None, help="constructors to try per family"
    )
    parser.add_argument(
        "--algorithms",
        "--algorithm",
        dest="algorithms",
        nargs="+",
        default=("quality",),
        choices=algorithm_names(),
        help="workloads per cell (one sweep per algorithm, concatenated)",
    )
    parser.add_argument(
        "--size", default="default", choices=("default", "tiny"), help="instance sizes"
    )
    parser.add_argument(
        "--native",
        action="store_true",
        help="build instances CSR-first via the families' native builders "
        "(admits sizes the nx generator path cannot)",
    )
    parser.add_argument(
        "--params",
        nargs="+",
        default=None,
        metavar="KEY=VALUE",
        help="generator parameter overrides applied to every swept family, "
        "e.g. --params side=1000",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--num-parts", type=int, default=6, help="parts per instance")
    parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes for the sweep (1 = serial)"
    )
    parser.add_argument(
        "--simulator",
        default="runtime",
        choices=("active", "runtime"),
        help="CONGEST execution mode for simulated phases (identical records; "
        "default: runtime)",
    )
    parser.add_argument(
        "--faults",
        default=None,
        help="fault spec for simulated phases, e.g. 'drop=0.05,delay=0.02:3,crash=0.01:8'",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=0, help="seed for the fault decision stream"
    )
    parser.add_argument("--output", default=None, help="write records to this JSON file")
    parser.add_argument("--list", action="store_true", help="print the registries and exit")
    args = parser.parse_args(argv)

    if args.list:
        _print_registry()
        return 0
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    faults = None
    if args.faults is not None:
        try:
            faults = parse_fault_spec(args.faults)
        except ValueError as error:
            parser.error(f"--faults: {error}")

    overrides: dict[str, object] = {}
    if args.params:
        for item in args.params:
            key, sep, raw = item.partition("=")
            if not sep or not key:
                parser.error(f"--params entries must look like key=value, got {item!r}")
            try:
                value: object = int(raw)
            except ValueError:
                try:
                    value = float(raw)
                except ValueError:
                    value = raw
            overrides[key] = value

    cache = InstanceCache()
    scenarios = []
    try:
        for algorithm_name in dict.fromkeys(args.algorithms):  # de-dupe, keep order
            scenarios.extend(scenario_matrix(
                families=args.families,
                constructors=args.constructors,
                algorithm_name=algorithm_name,
                size=args.size,
                seed=args.seed,
                parts={"kind": "tree_fragments", "num_parts": args.num_parts},
                cache=cache,
                native=args.native,
            ))
    except (KeyError, ValueError) as error:
        parser.error(str(error.args[0]) if error.args else str(error))
    if overrides:
        # Overrides land after the applicability probe (applicability is a
        # family-level property, invariant across sizes); pair them with
        # --families when the swept families take different parameters.
        scenarios = [
            replace(scenario, params={**scenario.params, **overrides})
            for scenario in scenarios
        ]
    simulator_cls = {
        "active": CongestSimulator,
        "runtime": RuntimeSimulator,
    }[args.simulator]
    records = run_matrix(
        scenarios,
        cache=cache,
        simulator_cls=simulator_cls,
        jobs=args.jobs,
        faults=faults,
        fault_seed=args.fault_seed,
    )
    payload = json.dumps(records, indent=2, default=str)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        ran = sum(1 for record in records if record["applicable"])
        print(
            f"wrote {len(records)} records ({ran} applicable) to {args.output}",
            file=sys.stderr,
        )
    else:
        print(payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
