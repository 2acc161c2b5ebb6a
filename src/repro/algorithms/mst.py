"""Distributed MST via Boruvka phases over low-congestion shortcuts.

This is the algorithm behind Corollary 1: Boruvka's algorithm runs for
``O(log n)`` phases; in each phase every fragment must learn its
minimum-weight outgoing edge (MWOE), which is exactly a part-wise
min-aggregation with the fragments as parts.  Theorem 1 shows that with
shortcuts of quality ``q``, each phase costs ``O~(q(D))`` rounds; here the
phase cost is *measured* by actually scheduling the aggregation messages in
the CONGEST cost model (see :mod:`repro.congest.aggregation`).

Round accounting per phase:

* 1 round for neighbours to exchange fragment identifiers (each node must
  know which incident edges are outgoing);
* the measured rounds of two part-wise aggregations (one convergecast of
  candidate MWOEs -- including the broadcast of the winner back to the
  fragment, which the aggregation primitive already performs -- and one
  aggregation for merge coordination);
* the height of the global BFS tree for announcing the end of the phase
  (standard ``O(D)`` synchronisation).

The *construction* of the shortcut itself is not charged rounds: the
distributed construction of HIZ16a takes ``O~(q)`` rounds, the same order as
one aggregation, so charging it would only change constants; the
"Deviations from the paper" section of ``docs/paper_map.md`` records this
simplification.

The per-phase aggregations are simulated at the message-schedule level
(they never instantiate node programs), so they are identical under every
simulator mode.  The *node-program* phases of the ``mst`` scenario
workload -- the BFS-tree construction before the Boruvka loop and the
result broadcast after it -- are what the simulator's execution modes
accelerate: :func:`~repro.scenarios.run_scenario` runs them by default on
the vectorized batch programs of :mod:`repro.congest.runtime`, with
exactly the same rounds, messages and telemetry as the per-node modes
(``docs/simulator.md``; the S6 benchmark gates the speedup).

Implementation
--------------

Every edge is ranked once by ``(weight, lo * n + hi)``
(:class:`~repro.core.fragments.EdgeRanks`), so equal weights break ties in
the canonical index-pair edge order of :class:`~repro.core.GraphView`.
Fragments are one owner array naming each vertex's fragment by its minimum
vertex index, and each phase's family is handed to the shortcut machinery
as a :meth:`~repro.core.PartSet.from_member_lists` part set.  Every vertex
offers the rank of its lightest outgoing edge (one masked segment minimum
over the CSR rows), the part-wise aggregation folds the ranks with plain
``min``, and a hook-and-compress pass over the chosen edges merges and
renames the fragments.  Shortcuts for the default oblivious builder are
built by driving :class:`~repro.shortcuts.engine.ConstructionEngine`
directly; the aggregation runs through
:func:`~repro.congest.aggregation.partwise_aggregate_indexed`.

``tests/test_algorithms_core.py`` pins the result -- MST edge set, weight,
total rounds, phases, per-phase rounds and qualities -- to the seed
implementation in ``tests/oracles/mst.py`` on every registered graph
family.  (With non-integer edge weights the two may sum the identical MST
edge set in different orders, so ``weight`` can differ in the last float
ulp; every generator in this package uses integer-valued weights, where the
sums are exact.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Sequence

import networkx as nx
import numpy as np

from ..core import GraphView, PartSet, view_of
from ..core.fragments import EdgeRanks, fragments
from ..errors import ConvergenceError
from ..graphs.weights import WEIGHT
from ..congest.aggregation import partwise_aggregate_indexed
from ..shortcuts.congestion_capped import oblivious_shortcut, oblivious_sweep
from ..shortcuts.engine import ConstructionEngine
from ..shortcuts.shortcut import Shortcut
from ..structure.spanning import RootedTree, bfs_spanning_tree

# A shortcut builder receives (graph, tree, parts) and returns a Shortcut; the
# distributed algorithm is oblivious to how the shortcut was obtained.
ShortcutBuilder = Callable[[nx.Graph, RootedTree, Sequence[frozenset]], Shortcut]


def oblivious_builder(graph: nx.Graph, tree: RootedTree, parts: Sequence[frozenset]) -> Shortcut:
    """Default shortcut builder: the structure-oblivious congestion-capped search.

    Marked ``uses_engine``: the array-native Boruvka loop recognises this
    builder (and any other builder carrying the flag, like the scenario
    registry's ``oblivious`` constructor) and drives the construction engine
    directly on its per-phase :class:`~repro.core.PartSet` instead of
    round-tripping the fragments through label frozensets.
    """
    return oblivious_shortcut(graph, tree, parts)


# The fast path may construct this builder's result engine-side; the two are
# pinned identical by the construction-engine differential tests.
oblivious_builder.uses_engine = True


@dataclass
class MstResult:
    """Result of one distributed MST execution.

    Attributes:
        edges: the MST edges (canonical form).
        weight: their total weight.
        rounds: total simulated CONGEST rounds across all phases.
        phases: number of Boruvka phases executed.
        phase_rounds: rounds charged per phase.
        phase_qualities: measured shortcut quality per phase (for the
            quality-vs-rounds correlation the experiments report).
    """

    edges: frozenset[tuple[Hashable, Hashable]]
    weight: float
    rounds: int
    phases: int
    phase_rounds: list[int] = field(default_factory=list)
    phase_qualities: list[int] = field(default_factory=list)


def reference_mst_weight(graph: nx.Graph) -> float:
    """Return the weight of a reference (centralised) MST for validation.

    This is the centralised ``networkx`` oracle (Kruskal), used by tests and
    experiment records to check the distributed result; it is not part of
    the measured algorithm and has no fast-path twin.
    """
    tree = nx.minimum_spanning_tree(graph, weight=WEIGHT)
    return sum(graph[u][v].get(WEIGHT, 1.0) for u, v in tree.edges())


def native_mst_weight(view: GraphView) -> float:
    """Return the reference MST weight of a native instance, nx-free.

    The :class:`~repro.core.GraphView` twin of :func:`reference_mst_weight`:
    hands the CSR arrays to ``scipy.sparse.csgraph.minimum_spanning_tree``,
    so million-node instances can be validated without materialising an
    ``nx.Graph``.  Requires strictly positive weights (scipy's CSR MST
    treats explicit zeros as absent edges); every weight scheme in this
    package draws from ``[low, high]`` with ``low >= 1``.  The float sum may
    differ from the distributed result in the last ulps at large ``n``
    (different summation order), so callers compare with a relative
    tolerance rather than the exact equality the integer-weight nx oracle
    affords.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import minimum_spanning_tree

    core = view.core
    matrix = csr_matrix(
        (core.weights, core.indices, core.indptr),
        shape=(core.num_nodes, core.num_nodes),
    )
    return float(minimum_spanning_tree(matrix).sum())


def boruvka_mst(
    graph: nx.Graph | GraphView,
    shortcut_builder: ShortcutBuilder | None = None,
    tree: RootedTree | None = None,
    max_phases: int | None = None,
    validate_shortcuts: bool = False,
) -> MstResult:
    """Compute the MST with Boruvka phases and measured CONGEST round costs.

    Args:
        graph: connected weighted network graph (``weight`` edge attribute;
            missing weights default to 1; ties are broken in canonical edge order so
            the algorithm is deterministic).  Accepts a weighted
            :class:`~repro.core.GraphView` directly (the native generators'
            output): the loop then reads weights straight from the CSR
            arrays and never materialises an ``nx.Graph`` -- the million-node
            configuration of the S7 scale gate.  A view requires an
            engine-driven builder (the default).
        shortcut_builder: how each phase obtains its shortcut; defaults to the
            structure-oblivious constructor.
        tree: the global spanning tree ``T`` used for T-restriction and for
            the end-of-phase synchronisation; defaults to a BFS tree.
        max_phases: optional safety cap (default ``2 + log2 n``).
        validate_shortcuts: validate every phase's shortcut (slower; the
            tests enable it).

    Returns:
        An :class:`MstResult`; ``result.weight`` always equals the reference
        MST weight (the tests assert this on every workload).

    Raises:
        ConvergenceError: a phase merged nothing, or ``max_phases`` phases
            left more than one fragment.  Its ``partial`` is the
            :class:`MstResult` so far: every phase run, the rounds charged
            and the MST edges accepted.
    """
    builder = shortcut_builder if shortcut_builder is not None else oblivious_builder
    use_engine = bool(getattr(builder, "uses_engine", False))
    view = view_of(graph)
    tree = tree if tree is not None else bfs_spanning_tree(view)
    if max_phases is None:
        max_phases = 2 + max(1, len(view)).bit_length()
    node_of = view.nodes
    ranks = EdgeRanks(graph)
    owner = np.arange(len(view))

    mst_edges: set[tuple[Hashable, Hashable]] = set()
    # Weight of each accepted MWOE, recorded at merge time; the final weight
    # is their sum over the edge set.
    merge_weight: dict[tuple[Hashable, Hashable], float] = {}
    total_rounds = 0
    phase_rounds: list[int] = []
    phase_qualities: list[int] = []
    sync_cost = max(1, tree.height)

    def result_so_far() -> MstResult:
        return MstResult(
            edges=frozenset(mst_edges),
            weight=sum(merge_weight[edge] for edge in mst_edges),
            rounds=total_rounds,
            phases=len(phase_rounds),
            phase_rounds=phase_rounds,
            phase_qualities=phase_qualities,
        )

    while True:
        members, offsets = fragments(owner)
        if len(offsets) <= 2:
            return result_so_far()
        if len(phase_rounds) == max_phases:
            raise ConvergenceError(
                "Boruvka did not converge within the phase budget", partial=result_so_far()
            )
        members, offsets = members.tolist(), offsets.tolist()
        part_set = PartSet.from_member_lists(
            view, [members[start:end] for start, end in zip(offsets, offsets[1:])]
        )
        if use_engine:
            engine = ConstructionEngine(graph, tree, part_set=part_set)
            shortcut = oblivious_sweep(engine)
        else:
            shortcut = builder(graph, tree, part_set.label_parts())
        if validate_shortcuts:
            shortcut.validate()
        quality = shortcut.chosen_quality
        phase_qualities.append(quality if quality is not None else shortcut.quality())

        # 1 round of neighbour exchange lets every vertex learn which incident
        # edges leave its fragment; each vertex offers its lightest one's rank.
        aggregation = partwise_aggregate_indexed(
            shortcut, values=ranks.lightest(owner).tolist(), combine=min
        )
        # Fragment leaders now know the MWOE; a second aggregation round trip
        # (merge coordination: agreeing on the merged fragment identifier) is
        # charged at the same measured cost.
        rounds_this_phase = 1 + 2 * aggregation.rounds + sync_cost
        total_rounds += rounds_this_phase
        phase_rounds.append(rounds_this_phase)

        # Apply the merges centrally (the simulation already charged the
        # communication).  Fragments choosing one edge from both sides add
        # it once; the part order of insertion fixes the set's sum order.
        chosen = np.asarray(aggregation.values)
        found = chosen[chosen < ranks.none]
        if not len(found):
            raise ConvergenceError(
                "Boruvka phase made no progress; graph may be disconnected",
                partial=result_so_far(),
            )
        pairs = zip(ranks.lo[found].tolist(), ranks.hi[found].tolist())
        edges = [(node_of[lo], node_of[hi]) for lo, hi in pairs]
        mst_edges.update(edges)
        merge_weight.update(zip(edges, ranks.weight[found].tolist()))
        owner = ranks.merge(owner, found)
