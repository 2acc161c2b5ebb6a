"""Run the benchmark over seeds and workloads; summarise, check and compare.

Usage (from the repository root)::

    python3 perfbench/report.py --seeds 0 --trace          # every metric, one seed
    python3 perfbench/report.py --seeds 0 1 2 3 4 5 6 7 8 9 --write-baseline
    python3 perfbench/report.py --seeds 0 1 2 3 4 10 11 12 13 14 \\
        --compare perfbench/baseline.json

Each run is one ``perfbench/run.py`` process, started one after another.
The summary prints, per workload, every end-to-end metric with its unit:
the median over seeds, the quartiles and the spread (interquartile range
over median) against the bound in ``BENCHMARK.json``.  With ``--trace`` it
also prints the traced per-layer table, the tracing overhead and whether
the spans cover the traced op time within a tenth.

Deterministic counters (``sim_rounds``, ``sim_messages``,
``shortcut_quality``, MST phases, aggregation rounds and messages, engine
Steiner edges, fault counters) must repeat exactly for a given workload and
seed.  ``--compare`` checks them against another set (a rows file or the
committed baseline) for every seed both sets ran, and checks every
end-to-end median against the other set's within its bound.  Any drift or
regression makes the command exit with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"
NOTES = [
    "family-mst keeps genus at side 10: sides >= 11 raise InvalidGraphError "
    "('cycle edge (1, 2) is missing') in add_vortex for every seed tried (0, 3, 7); "
    "a generator bug, left for a change to src/.",
    "grid-sim-faulty pins its crashes (crash_at) instead of drawing them "
    "(crash=0.001:16): a drawn crash moves the convergecast between ~104 and ~918 "
    "timeout-bound rounds from seed to seed (50x50 grid, seeds 0-3).",
    "grid-sim-faulty: delivered < messages - dropped + duplicated whenever a copy "
    "lands in a (round, recipient, sender) mailbox slot that already holds one; "
    "the shortfall is the 'merged' counter.",
    "op_s and setup_s are process CPU seconds; op_wall_s is the wall-clock median.",
]


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_rows(workloads, seeds, seconds, trace, rows_path) -> None:
    """One run.py process per (workload, seed, trace mode), appended to rows_path."""
    modes = (0, 1) if trace else (0,)
    for workload in workloads:
        for seed in seeds:
            for mode in modes:
                command = [
                    sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(mode),
                    "--rows", str(rows_path),
                ]
                completed = subprocess.run(
                    command, cwd=ROOT, capture_output=True, text=True, timeout=900
                )
                last = completed.stdout.strip().splitlines()[-1:] or [""]
                print(f"ran {workload} seed={seed} trace={mode}: exit "
                      f"{completed.returncode} {last[0][:100]}", flush=True)
                if completed.returncode != 0:
                    sys.stderr.write(completed.stderr)


def read_rows(path) -> list[dict]:
    with open(path) as rows:
        return [json.loads(line) for line in rows if line.strip()]


def quartiles(values):
    values = sorted(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarise(rows, benchmark) -> dict:
    """Per workload: end-to-end quartiles, per-layer medians, counters by seed."""
    bounds = {metric["name"]: metric for metric in benchmark["end_to_end"]}
    summary: dict[str, dict] = {}
    for row in rows:
        entry = summary.setdefault(row["workload"], {
            "params": row["params"], "metrics": {}, "layers": {}, "counters": {},
            "attempted": 0, "failed": 0, "problems": [],
        })
        entry["attempted"] += row["attempted"]
        entry["failed"] += row["failed"]
        entry["problems"] += row["problems"]
        seed_counters = entry["counters"].setdefault(str(row["seed"]), {})
        counters = row.get("layer_counters") if row["trace"] else row["counters"]
        for name, value in counters.items():
            if seed_counters.setdefault(name, value) != value:
                entry["problems"].append(
                    f"seed {row['seed']}: counter {name} read {value} and {seed_counters[name]}"
                )
        target = entry["layers"] if row["trace"] else entry["metrics"]
        for name, value in row["metrics"].items():
            target.setdefault(name, {"unit": row["units"][name], "values": []})
            target[name]["values"].append(value)
    for entry in summary.values():
        for name, metric in list(entry["metrics"].items()) + list(entry["layers"].items()):
            q1, median, q3 = quartiles(metric.pop("values"))
            metric.update({"q1": q1, "median": median, "q3": q3})
            metric["spread"] = (q3 - q1) / median if median else 0.0
            if name in bounds:
                metric["bound"] = bounds[name]["bound"]
    return summary


def print_summary(summary) -> None:
    for workload, entry in summary.items():
        failed = entry["failed"]
        print(f"\n== {workload}  ({entry['attempted']} ops, {failed} failed)")
        print(f"   {'metric':22s} {'median':>14s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}  unit")
        for name, metric in entry["metrics"].items():
            bound = metric.get("bound")
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if metric["spread"] <= bound / 3 else (
                    "within bound" if metric["spread"] <= bound else "TOO WIDE")
            print(f"   {name:22s} {metric['median']:>14.6g} {metric['q1']:>12.6g} "
                  f"{metric['q3']:>12.6g} {metric['spread']:>8.3f} "
                  f"{'' if bound is None else bound:>6}  {metric['unit']} {flag}")
        if entry["layers"]:
            layers = entry["layers"]
            print(f"   traced per-layer medians (per op; zero layers omitted):")
            for name, metric in layers.items():
                if metric["median"] and not name.startswith("trace."):
                    print(f"     {name:44s} {metric['median']:>14.6g} {metric['unit']}")
            overhead = layers["trace.overhead"]["median"]
            coverage = layers["trace.self_coverage"]["median"]
            print(f"   tracing overhead {overhead:+.1%} (traced op_s "
                  f"{layers['trace.op_s']['median']:.4f} s / untraced "
                  f"{layers['trace.untraced_op_s']['median']:.4f} s); spans cover "
                  f"{coverage:.1%} of traced op_s: "
                  f"{'within' if coverage >= 0.9 else 'NOT within'} a tenth")
        for problem in entry["problems"][:10]:
            print(f"   PROBLEM: {problem}")


def compare(summary, other, benchmark) -> list[str]:
    """Counter drift and end-to-end regressions of ``summary`` against ``other``."""
    findings = []
    better = {metric["name"]: metric for metric in benchmark["end_to_end"]}
    for workload, entry in summary.items():
        base = other.get(workload)
        if base is None:
            findings.append(f"{workload}: not in the compared set")
            continue
        if base["params"] != entry["params"]:
            findings.append(f"{workload}: parameters differ from the compared set")
        for seed, counters in entry["counters"].items():
            for name, value in counters.items():
                expected = base["counters"].get(seed, {}).get(name)
                if expected is not None and expected != value:
                    findings.append(
                        f"{workload} seed {seed}: counter {name} drifted {expected} -> {value}"
                    )
        for name, spec in better.items():
            if name not in entry["metrics"] or name not in base["metrics"]:
                continue
            new, old = entry["metrics"][name]["median"], base["metrics"][name]["median"]
            change = (new - old) / old if spec["better"] == "lower" else (old - new) / old
            if change > spec["bound"]:
                findings.append(
                    f"{workload}: {name} median {old:.6g} -> {new:.6g} "
                    f"({change:+.1%} worse, bound {spec['bound']:.0%})"
                )
    return findings


def load_set(path, benchmark) -> dict:
    """A compared set: a baseline file's workloads, or a summarised rows file."""
    try:
        loaded = json.loads(Path(path).read_text())
    except json.JSONDecodeError:  # several JSON lines: a rows file
        loaded = None
    if isinstance(loaded, dict) and "workloads" in loaded:
        return loaded["workloads"]
    return summarise(read_rows(path), benchmark)


def machine_note() -> dict:
    import networkx
    import numpy
    import scipy

    def proc_field(path, key):
        with open(path) as proc:
            for line in proc:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
        return ""

    return {
        "nproc": os.cpu_count(),
        "ram_gib": round(int(proc_field("/proc/meminfo", "MemTotal").split()[0]) / 2**20, 1),
        "cpu": proc_field("/proc/cpuinfo", "model name") or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    benchmark = load_benchmark()
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", nargs="+", type=int, default=[0])
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="add one traced run per seed")
    parser.add_argument("--rows", default=str(HERE / "rows" / "latest.jsonl"),
                        help="JSON-lines file the runs append to (emptied first)")
    parser.add_argument("--reuse", action="store_true",
                        help="summarise an existing --rows file instead of running")
    parser.add_argument("--compare", help="rows file or baseline.json to compare against")
    parser.add_argument("--write-baseline", action="store_true",
                        help=f"write the summary to {BASELINE.relative_to(ROOT)}")
    args = parser.parse_args(argv)

    rows_path = Path(args.rows)
    if not args.reuse:
        rows_path.parent.mkdir(parents=True, exist_ok=True)
        rows_path.write_text("")
        run_rows(args.workloads, args.seeds, args.seconds, args.trace, rows_path)
    summary = summarise(read_rows(rows_path), benchmark)
    print_summary(summary)

    status = 0
    if any(entry["failed"] or entry["problems"] for entry in summary.values()):
        status = 1
    if args.compare:
        findings = compare(summary, load_set(args.compare, benchmark), benchmark)
        print(f"\ncompared with {args.compare}: {len(findings)} finding(s)")
        for finding in findings:
            print(f"   DRIFT/REGRESSION: {finding}")
        status = status or (1 if findings else 0)
    if args.write_baseline:
        whys = {workload["name"]: workload["why"] for workload in benchmark["workloads"]}
        for name, entry in summary.items():
            entry["why"] = whys[name]
        BASELINE.write_text(json.dumps({
            "machine": machine_note(),
            "notes": NOTES,
            "run_seconds": args.seconds,
            "seeds": args.seeds,
            "workloads": summary,
        }, indent=1, sort_keys=True) + "\n")
        print(f"\nwrote {BASELINE.relative_to(ROOT)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
