"""Span and counter recording for the traced benchmark run.

The tracer wraps public callables of the program at the module attributes
their callers look them up through (for example
``repro.algorithms.mst.partwise_aggregate_indexed``), records one span per
call and adds the call's deterministic work counters.  Nothing under
``src/`` is edited: :meth:`Tracer.install` swaps the attributes in and
:meth:`Tracer.restore` puts the originals back, so the wrappers exist only
while a traced run is in progress.

Spans measure process CPU seconds, like the benchmark's ``op_s``.  A span's
*self* time is its duration minus the durations of the spans opened inside
it; the self times of all spans in an op therefore add up to the time the
op spent inside any traced layer.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from types import SimpleNamespace

CONSTRUCTIONS = {
    "planar": "planar_shortcut",
    "treewidth": "treewidth_shortcut",
    "clique_sum": "clique_sum_shortcut",
    "apex": "apex_shortcut_from_witness",
    "genus_vortex": "genus_vortex_shortcut",
    "minor_free": "minor_free_shortcut",
}
PRIMITIVES = {
    "distributed_bfs_tree": "bfs",
    "robust_bfs_tree": "bfs",
    "broadcast_value": "broadcast",
    "convergecast_aggregate": "convergecast",
}
FAULT_FIELDS = ("dropped", "delayed", "duplicated", "crashed_nodes")


class Tracer:
    """In-memory spans (total and self seconds per name) and counters."""

    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[list[float]] = []  # per open span: [child seconds]
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.total.clear()
        self.self_time.clear()
        self.counters.clear()

    @contextmanager
    def span(self, name: str):
        self._open.append([0.0])
        started = time.process_time()
        try:
            yield
        finally:
            duration = time.process_time() - started
            children = self._open.pop()[0]
            self.total[name] += duration
            self.self_time[name] += duration - children
            self.counters[name + ".calls"] += 1
            if self._open:
                self._open[-1][0] += duration

    def top_level_seconds(self) -> float:
        """Seconds covered by spans, i.e. the sum of every span's self time."""
        return sum(self.self_time.values())

    # -- wrappers ------------------------------------------------------------

    def _patch(self, owner: object, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _timed(self, name: str, after=None):
        def make(original):
            def wrapper(*args, **kwargs):
                with self.span(name):
                    result = original(*args, **kwargs)
                if after is not None:
                    after(result, args, kwargs)
                return result

            return wrapper

        return make

    def install(self) -> None:
        """Swap the tracing wrappers in at every traced call site."""
        import repro.algorithms.mst as mst
        import repro.congest.primitives as primitives
        import repro.scenarios.registry as registry
        from repro.congest.runtime import RuntimeSimulator

        counters = self.counters

        def count_mst(result, args, kwargs):
            counters["algorithms.mst.phases"] += result.phases
            counters["algorithms.mst.rounds"] += result.rounds

        def count_aggregation(result, args, kwargs):
            counters["congest.aggregation.rounds"] += result.rounds
            counters["congest.aggregation.messages"] += result.messages

        self._patch(registry, "boruvka_mst", self._timed("algorithms.mst", count_mst))
        for oracle in ("native_mst_weight", "reference_mst_weight"):
            self._patch(registry, oracle, self._timed("algorithms.mst.oracle"))
        self._patch(
            mst, "partwise_aggregate_indexed",
            self._timed("congest.aggregation", count_aggregation),
        )
        self._patch(mst, "PartSet", lambda part_set: SimpleNamespace(
            from_member_lists=self._timed("core.partset.from_member_lists")(
                part_set.from_member_lists
            )
        ))
        self._patch(mst, "ConstructionEngine", self._engine_factory)
        for label, attr in CONSTRUCTIONS.items():
            self._patch(registry, attr, self._timed(f"shortcuts.construct.{label}"))

        def count_simulation(kind):
            def after(result, args, kwargs):
                if kind == "bfs":
                    stats = result[1]
                    if len(result) == 3:
                        counters["congest.faults.bfs_repaired"] += result[2]
                elif kind == "convergecast":
                    stats = result[1]
                else:
                    stats = result
                prefix = f"congest.{kind}."
                graph = args[0]
                nodes = len(graph) if hasattr(graph, "core") else graph.number_of_nodes()
                counters[prefix + "rounds"] += stats.rounds
                counters[prefix + "messages"] += stats.messages
                counters[prefix + "words"] += stats.words
                counters[prefix + "active_node_rounds"] += stats.total_active_node_rounds()
                counters[prefix + "node_rounds"] += nodes * stats.rounds
                for field in FAULT_FIELDS:
                    counters["congest.faults." + field] += getattr(stats, field)

            return after

        def mode_timed(kind, make_after):
            timed = {
                mode: self._timed(f"congest.{mode}.{kind}", make_after)
                for mode in ("core", "runtime")
            }

            def make(original):
                wrapped = {mode: wrap(original) for mode, wrap in timed.items()}

                def wrapper(*args, **kwargs):
                    cls = kwargs.get("simulator_cls")
                    runtime = isinstance(cls, type) and issubclass(cls, RuntimeSimulator)
                    return wrapped["runtime" if runtime else "core"](*args, **kwargs)

                return wrapper

            return make

        for module in (registry, primitives):
            for attr, kind in PRIMITIVES.items():
                if hasattr(module, attr):
                    self._patch(module, attr, mode_timed(kind, count_simulation(kind)))

    def _engine_factory(self, engine_cls):
        counters = self.counters

        def build_engine(*args, **kwargs):
            with self.span("shortcuts.engine.init"):
                engine = engine_cls(*args, **kwargs)
            counters["shortcuts.engine.steiner_edges"] += sum(
                len(edges) for edges in engine.steiner_edges
            )
            counters["shortcuts.engine.max_owner_count"] = max(
                counters["shortcuts.engine.max_owner_count"], engine.max_owner_count
            )
            # Instance attributes shadow the class methods for this engine only.
            engine.quality_sweep = self._timed("shortcuts.engine.sweep")(engine.quality_sweep)
            engine.build_shortcut = self._timed("shortcuts.engine.build")(engine.build_shortcut)
            return engine

        return build_engine

    def restore(self) -> bool:
        """Put every original callable back; return whether all are back."""
        patched, self._patched = self._patched, []
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
        return all(getattr(owner, attr) is original for owner, attr, original in patched)


class NullTracer:
    """The untraced stand-in: spans cost one no-op context manager."""

    @contextmanager
    def span(self, name: str):
        yield
