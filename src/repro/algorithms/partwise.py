"""Convenience wrappers around the part-wise aggregation primitive.

These are the small "fragment subroutines" that the distributed algorithms
repeatedly need (and that Theorem 1's framework implements via shortcut
aggregation): letting every vertex learn its part's identifier, computing a
part-wise minimum/maximum/sum, and finding each fragment's minimum-weight
outgoing edge.  Each wrapper returns both the per-part answers and the
measured CONGEST rounds, so callers can account costs uniformly.

The minimum/maximum/sum wrappers fold label-keyed values through
:func:`repro.congest.aggregation.partwise_aggregate`; the identifier and
MWOE wrappers aggregate vertex indices and the Boruvka loop's edge ranks
(:class:`repro.core.fragments.EdgeRanks`) through its indexed twin.
"""

from __future__ import annotations

from typing import Hashable, Mapping

import networkx as nx
import numpy as np

from ..congest.aggregation import (
    AggregationResult,
    partwise_aggregate,
    partwise_aggregate_indexed,
)
from ..core import view_of
from ..core.fragments import EdgeRanks
from ..shortcuts.shortcut import Shortcut


def partwise_minimum(
    shortcut: Shortcut, values: Mapping[Hashable, float]
) -> AggregationResult:
    """Every part computes the minimum of its members' values."""
    return partwise_aggregate(shortcut, values, combine=min)


def partwise_maximum(
    shortcut: Shortcut, values: Mapping[Hashable, float]
) -> AggregationResult:
    """Every part computes the maximum of its members' values."""
    return partwise_aggregate(shortcut, values, combine=max)


def partwise_sum(shortcut: Shortcut, values: Mapping[Hashable, float]) -> AggregationResult:
    """Every part computes the sum of its members' values."""
    return partwise_aggregate(shortcut, values, combine=lambda a, b: a + b)


def partwise_component_ids(shortcut: Shortcut) -> tuple[dict[Hashable, Hashable], int]:
    """Let every vertex learn a canonical identifier of its part.

    The identifier is the minimum vertex of the part (index order, which is
    repr order) -- a part-wise min-aggregation of vertex indices followed by
    the broadcast the aggregation primitive already performs.  Returns the
    vertex -> part-id map together with the measured rounds.
    """
    part_set = shortcut.part_set()
    node_of = part_set.view.nodes
    result = partwise_aggregate_indexed(shortcut, range(len(node_of)), combine=min)
    owner = part_set.owner_array()
    return {node_of[v]: node_of[result.values[owner[v]]] for v in part_set.members}, result.rounds


def minimum_outgoing_edges(
    graph: nx.Graph, shortcut: Shortcut
) -> tuple[list[tuple[Hashable, Hashable] | None], int]:
    """Every part finds its minimum-weight outgoing edge (the Boruvka MWOE step).

    One round of neighbour exchange lets every vertex learn which incident
    edges leave its part; the per-part minimum is then a single aggregation
    of edge ranks, so equal weights break ties in canonical edge order, as
    in Boruvka.  Returns one edge (or None for parts with no outgoing edge)
    per part and the total measured rounds (including the exchange round).
    """
    ranks = EdgeRanks(graph)
    owner = np.asarray(shortcut.part_set().owner_array())
    result = partwise_aggregate_indexed(shortcut, ranks.lightest(owner).tolist(), combine=min)
    node_of = view_of(graph).nodes
    edges = [
        None if rank == ranks.none else (node_of[ranks.lo[rank]], node_of[ranks.hi[rank]])
        for rank in result.values
    ]
    return edges, result.rounds + 1
