"""Exception types used across the :mod:`repro` package.

Keeping a small, explicit exception hierarchy makes it easy for callers to
distinguish between *user errors* (invalid arguments, malformed structures)
and *internal invariant violations* (a constructor produced an object that
fails its own validation), which the test-suite treats very differently.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all exceptions raised by the :mod:`repro` package."""


class InvalidGraphError(ReproError):
    """An input graph does not satisfy the preconditions of an operation.

    Examples: a disconnected graph passed to a diameter-based construction,
    a non-planar graph passed to a planar-only shortcut constructor, or a
    graph with self-loops passed to the CONGEST network.
    """


class InvalidPartitionError(ReproError):
    """A partition into parts or cells violates Definition 9 / 14.

    Raised when the claimed parts are not pairwise disjoint, not connected
    in the host graph, or refer to vertices outside the graph.
    """


class InvalidDecompositionError(ReproError):
    """A tree / clique-sum decomposition violates its defining axioms.

    Used both for treewidth decompositions (coverage, edge coverage,
    connectivity of occurrence sets) and for clique-sum decomposition trees
    (Definition 8 of the paper).
    """


class InvalidShortcutError(ReproError):
    """A shortcut object violates Definition 10 (T-restriction) or refers
    to edges/vertices that do not exist in the host graph."""


class SimulationError(ReproError):
    """The CONGEST simulator detected an inconsistent or illegal state.

    Examples: a node program sending a message to a non-neighbour, a message
    exceeding the per-round bandwidth, or the round limit being exceeded.
    """


class RoundLimitError(SimulationError):
    """A simulation exceeded ``max_rounds`` without reaching quiescence.

    Subclasses :class:`SimulationError` (existing ``except`` clauses and
    ``pytest.raises`` matches keep working) but additionally carries the
    truncated run's partial :class:`~repro.congest.simulator.SimulationResult`
    in :attr:`partial` -- telemetry up to the limit, totals so far and the
    node outputs as they stood when the budget expired.  Fault-injected runs
    (:mod:`repro.congest.faults`) are the expected producers: a crashed or
    lossy execution that cannot quiesce surfaces its evidence instead of
    hanging or returning a silently-incomplete result.
    """

    def __init__(self, message: str, partial=None) -> None:
        super().__init__(message)
        self.partial = partial


class ConvergenceError(ReproError):
    """An iterative algorithm failed to converge within its round/step budget.

    Like :class:`RoundLimitError`, it carries the state reached so far in
    :attr:`partial`.  From :func:`repro.algorithms.mst.boruvka_mst` that is
    an :class:`~repro.algorithms.mst.MstResult` of the phases run (the
    stalled one included), the rounds charged so far and the MST edges
    accepted so far, with their total weight.
    """

    def __init__(self, message: str, partial=None) -> None:
        super().__init__(message)
        self.partial = partial
