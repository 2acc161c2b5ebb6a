"""One benchmark run of one workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grid-mst --seed 0 --seconds 20 --trace 0

One process, one thread, closed loop: set-up runs ``SETUPS`` times (the
median is ``setup_s``), one untimed warm-up op fills lazy caches, then ops
run back to back until ``--seconds`` have passed.  Every op's output is
checked; a failed check counts the op as failed and the run goes on.

Times are process CPU seconds (``time.process_time``): the program runs on
one thread, and on a shared machine the wall clock also counts the time
other tenants hold the CPU.  Over ten seeds on a shared 2-core machine,
wall-clock op time spread 8-28 % between quartiles where CPU time spread
2-6 %.  The median wall-clock op time is kept in the row as ``op_wall_s``.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace
1`` first times untraced ops for half the run, then installs the span
wrappers of :mod:`tracing`, repeats set-up and ops traced, restores the
wrappers and reports the per-layer metrics, including the tracing overhead
and how much of the traced op time the spans cover.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it,
prefixed ``row``, holds the full record of the run (seed, parameters, every
metric and the deterministic counters), which ``--rows FILE`` also appends
to ``FILE`` as JSON lines for ``perfbench/report.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 5  # set-ups per untraced run; setup_s is their median

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]}
PER_LAYER_UNITS = {metric["name"]: metric["unit"] for metric in BENCHMARK["per_layer"]}
# Reported in the row and by report.py but not bounded by BENCHMARK.json:
# the first two are 0 on some workloads, and wall-clock op time carries the
# CPU steal of other tenants on a shared machine (op_s is CPU time).
EXTRA_UNITS = {"shortcut_quality": "quality", "op_fail_ratio": "fraction", "op_wall_s": "s"}
PRIMITIVE_KINDS = ("bfs", "broadcast", "convergecast")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rows", help="append the run's row to this JSON-lines file")
    return parser.parse_args(argv)


class Loop:
    """Runs checked ops and keeps their durations, failures and counters."""

    def __init__(self, workload, state) -> None:
        self.workload = workload
        self.state = state
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.counters: dict | None = None
        self.nondeterministic = False

    def op(self) -> tuple[float, float]:
        """Run one checked op; return its (CPU, wall-clock) seconds."""
        cpu_started, started = time.process_time(), time.perf_counter()
        try:
            outcome = self.workload.op(self.state)
        except Exception as error:  # a crashing op is a failed op
            problems, counters = [f"{type(error).__name__}: {error}"], None
        else:
            problems, counters = outcome.problems, outcome.counters
        seconds = (time.process_time() - cpu_started, time.perf_counter() - started)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: 5 - len(self.problems)])
        if counters is not None:
            if self.counters is None:
                self.counters = counters
            elif counters != self.counters:
                self.nondeterministic = True
        return seconds

    def run_for(self, seconds: float) -> tuple[list[float], list[float]]:
        """Run ops back to back for ``seconds``; return CPU and wall seconds."""
        cpu, wall = [], []
        deadline = time.perf_counter() + seconds
        while not cpu or time.perf_counter() < deadline:
            op_cpu, op_wall = self.op()
            cpu.append(op_cpu)
            wall.append(op_wall)
        return cpu, wall


def timed_setups(workload, seed, count, tracer):
    """Run set-up ``count`` times; return (median CPU seconds, last state)."""
    seconds = []
    state = None
    for _ in range(count):
        state = None
        gc.collect()
        started = time.process_time()
        state = workload.setup(seed, tracer)
        seconds.append(time.process_time() - started)
    workload.prepare(state)
    return statistics.median(seconds), state


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced_run(workload, args, null_tracer):
    setup_s, state = timed_setups(workload, args.seed, SETUPS, null_tracer)
    loop = Loop(workload, state)
    loop.op()  # warm-up: fills lazy caches, checked but not timed
    cpu, wall = loop.run_for(args.seconds)
    counters = loop.counters or {}
    metrics = {
        "setup_s": setup_s,
        "op_s": statistics.median(cpu),
        "peak_rss_mib": peak_rss_mib(),
        "sim_rounds": counters.get("sim_rounds", 0),
        "sim_messages": counters.get("sim_messages", 0),
        "shortcut_quality": counters.get("shortcut_quality", 0),
        "op_fail_ratio": loop.failed / loop.attempted,
        "op_wall_s": statistics.median(wall),
    }
    units = {**END_TO_END_UNITS, **EXTRA_UNITS}
    return loop, metrics, units, {"timed_ops": len(cpu)}


def span_metrics(tracer, ops: int) -> dict[str, float]:
    """Per-op seconds of every span, self time of the MST loop, and counters."""
    metrics = {}
    for name, seconds in tracer.total.items():
        suffix = ".s" if name in ("algorithms.mst", "congest.aggregation") else "_s"
        metrics[name + suffix] = seconds / ops
    metrics["algorithms.mst.self_s"] = tracer.self_time.get("algorithms.mst", 0.0) / ops
    counters = tracer.counters
    for name, value in counters.items():
        metrics[name] = value / ops
    metrics["shortcuts.engine.calls"] = counters.get("shortcuts.engine.init.calls", 0) / ops
    # A maximum over the run, not a per-op sum.
    metrics["shortcuts.engine.max_owner_count"] = counters.get(
        "shortcuts.engine.max_owner_count", 0
    )
    rounds = counters.get("congest.aggregation.rounds", 0)
    if rounds:
        metrics["congest.aggregation.messages_per_round"] = (
            counters["congest.aggregation.messages"] / rounds
        )
    for kind in PRIMITIVE_KINDS:
        node_rounds = counters.get(f"congest.{kind}.node_rounds", 0)
        if node_rounds:
            metrics[f"congest.{kind}.active_fraction"] = (
                counters[f"congest.{kind}.active_node_rounds"] / node_rounds
            )
    return metrics


def traced_run(workload, args, null_tracer):
    from tracing import Tracer

    _, state = timed_setups(workload, args.seed, 1, null_tracer)
    loop = Loop(workload, state)
    loop.op()
    untraced, _ = loop.run_for(args.seconds / 2)
    faulty_messages = (loop.counters or {}).get("sim_messages")
    goodput = 1.0
    if workload.fail_free_messages is not None and faulty_messages:
        goodput = workload.fail_free_messages(state) / faulty_messages

    tracer = Tracer()
    tracer.install()
    try:
        loop.state = workload.setup(args.seed, tracer)
        setup_spans = {name + "_s": seconds for name, seconds in tracer.total.items()}
        workload.prepare(loop.state)
        tracer.reset()
        traced, _ = loop.run_for(args.seconds / 2)
    finally:
        restored = tracer.restore()

    ops = len(traced)
    metrics = {**setup_spans, **span_metrics(tracer, ops)}
    metrics["shortcuts.quality"] = (loop.counters or {}).get("shortcut_quality", 0)
    metrics["congest.faults.goodput"] = goodput
    traced_op_s = statistics.median(traced)
    untraced_op_s = statistics.median(untraced)
    metrics["trace.op_s"] = traced_op_s
    metrics["trace.untraced_op_s"] = untraced_op_s
    metrics["trace.overhead"] = traced_op_s / untraced_op_s - 1.0
    metrics["trace.self_coverage"] = tracer.top_level_seconds() / sum(traced)

    units = PER_LAYER_UNITS
    metrics = {name: metrics.get(name, 0.0) for name in units}
    row_extra = {
        "timed_ops": ops,
        "untraced_ops": len(untraced),
        "layer_counters": {
            name: value for name, value in metrics.items()
            if units[name] not in ("s", "fraction")
        },
    }
    if not restored:
        loop.problems.append("tracing wrappers were not restored")
    return loop, metrics, units, row_extra


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"cannot import the program from {ROOT / 'src'}: {error}", file=sys.stderr)
        return 2
    from tracing import NullTracer
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    run = traced_run if args.trace else untraced_run
    loop, metrics, units, row_extra = run(workload, args, NullTracer())
    if loop.nondeterministic:
        loop.problems.append("deterministic counters changed between ops")
    correct = loop.failed == 0 and not loop.problems

    row = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "params": workload.params,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "problems": loop.problems,
        "metrics": metrics,
        "units": units,
        "counters": loop.counters or {},
        **row_extra,
    }
    for name in sorted(metrics):
        print(f"{workload.name:16s} {name:40s} {metrics[name]:>16.6g} {units[name]}")
    if args.trace:
        print(
            f"{workload.name}: tracing overhead {metrics['trace.overhead']:+.1%} "
            f"(traced op_s {metrics['trace.op_s']:.4f} s / untraced "
            f"{metrics['trace.untraced_op_s']:.4f} s); spans cover "
            f"{metrics['trace.self_coverage']:.1%} of traced op_s "
            f"({'within' if metrics['trace.self_coverage'] >= 0.9 else 'NOT within'} a tenth)"
        )
    for problem in loop.problems:
        print(f"{workload.name}: FAILED CHECK: {problem}")
    print("row " + json.dumps(row, sort_keys=True))
    if args.rows:
        with open(args.rows, "a") as rows:
            rows.write(json.dumps(row, sort_keys=True) + "\n")

    reported = END_TO_END_UNITS if not args.trace else units
    result = {
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in reported.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
