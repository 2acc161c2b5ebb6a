"""A synchronous CONGEST-model simulator (Section 1.3.1 of the paper).

The CONGEST model: communication proceeds in synchronous rounds; in every
round each node may send one ``O(log n)``-bit message to each of its
neighbours; local computation is free; nodes initially know only their own
neighbourhood (plus ``n`` and ``D`` up to constants).

Two levels of simulation are provided:

* :mod:`repro.congest.simulator` runs genuine per-node message-passing
  programs (:class:`repro.congest.node.NodeProgram`) round by round with
  bandwidth enforcement -- used for the basic primitives (BFS tree
  construction, flooding, broadcast, convergecast) and for tests that pin
  down the model's semantics;
* :mod:`repro.congest.aggregation` simulates the *part-wise aggregation*
  primitive of the shortcut framework at the message-schedule level: every
  part aggregates over ``G[P_i] + H_i`` and edges shared by several parts
  deliver one message per round per direction, so the measured round count
  directly reflects the congestion + dilation of the shortcut.  This is the
  primitive Theorem 1 invokes ``O(log n)`` times per Boruvka phase.

The node-program level runs in two execution modes with one equality
contract (rounds, messages, words, outputs and per-round telemetry all
exactly equal -- see ``docs/simulator.md``): the active-set
:class:`CongestSimulator` (always on a view's indices; an ``nx.Graph``
network's labels are translated at the program boundary) and the vectorized
:class:`RuntimeSimulator` (compiled batch programs over flat arrays,
:mod:`repro.congest.runtime`).  Both are pinned to a full-scan seed oracle
kept in the test suite.
"""

from .node import NodeContext, NodeProgram
from .faults import (
    BUILT_IN_FAULT_KINDS,
    FaultModel,
    FaultQueue,
    FaultSchedule,
    parse_fault_spec,
)
from .simulator import CongestSimulator, RoundTelemetry, SimulationResult
from .runtime import RuntimeProgram, RuntimeSimulator
from .primitives import (
    broadcast_value,
    convergecast_aggregate,
    distributed_bfs_tree,
    flood_max_id,
    robust_bfs_tree,
)
from .aggregation import AggregationResult, partwise_aggregate

__all__ = [
    "AggregationResult",
    "BUILT_IN_FAULT_KINDS",
    "CongestSimulator",
    "FaultModel",
    "FaultQueue",
    "FaultSchedule",
    "NodeContext",
    "NodeProgram",
    "RoundTelemetry",
    "RuntimeProgram",
    "RuntimeSimulator",
    "SimulationResult",
    "broadcast_value",
    "convergecast_aggregate",
    "distributed_bfs_tree",
    "flood_max_id",
    "parse_fault_spec",
    "partwise_aggregate",
    "robust_bfs_tree",
]
