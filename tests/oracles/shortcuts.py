"""The seed shortcut constructions and part validation (label-keyed ``nx`` sets).

The oracle for :func:`repro.shortcuts.parts.validate_parts`,
:func:`repro.shortcuts.congestion_capped.congestion_capped_shortcut` and
:func:`~repro.shortcuts.congestion_capped.oblivious_shortcut`: one O(n)
subtree set per Steiner edge per part, a fresh Steiner derivation and a
fresh quality measurement per budget.  The production
:class:`~repro.shortcuts.engine.ConstructionEngine` must produce the same
edge sets and chosen budget.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import networkx as nx

from repro.errors import InvalidPartitionError
from repro.shortcuts.congestion_capped import default_budget_schedule
from repro.shortcuts.shortcut import Shortcut
from repro.structure.spanning import RootedTree
from repro.utils import canonical_edge

from .quality import quality
from .structure import bfs_spanning_tree, steiner_tree_edges


def validate_parts(graph: nx.Graph, parts: Sequence[frozenset]) -> None:
    """Definition 9 with per-part ``subgraph`` + ``is_connected`` checks."""
    nodes = set(graph.nodes())
    seen: set[Hashable] = set()
    for index, part in enumerate(parts):
        if not part:
            raise InvalidPartitionError(f"part {index} is empty")
        overlap = seen & set(part)
        if overlap:
            raise InvalidPartitionError(
                f"parts overlap on vertices {sorted(overlap, key=repr)[:5]}"
            )
        seen |= set(part)
        missing = set(part) - nodes
        if missing:
            raise InvalidPartitionError(
                f"part {index} contains non-graph vertices {sorted(missing, key=repr)[:5]}"
            )
        if not nx.is_connected(graph.subgraph(part)):
            raise InvalidPartitionError(f"part {index} is not connected (Definition 9)")


def _edge_benefit(
    tree: RootedTree, part: frozenset, steiner_edges: frozenset
) -> dict[tuple, int]:
    """For every Steiner edge, count the part vertices in the subtree below it.

    When an edge must be dropped from some parts, dropping it from the parts
    with the smallest "behind the edge" population severs the fewest part
    vertices from the rest of the Steiner tree, which keeps the number of
    extra blocks small.
    """
    benefit: dict[tuple, int] = {}
    for u, v in steiner_edges:
        child = u if tree.parent.get(u) == v else v
        below = tree.subtree_nodes(child)
        benefit[canonical_edge(u, v)] = len(below & part)
    return benefit


def _congestion_capped(
    graph: nx.Graph,
    tree: RootedTree,
    parts: Sequence[frozenset],
    congestion_budget: int,
) -> Shortcut:
    steiner: list[frozenset] = [frozenset(steiner_tree_edges(tree, part)) for part in parts]
    requests: dict[tuple, list[int]] = {}
    for index, edges in enumerate(steiner):
        for edge in edges:
            requests.setdefault(edge, []).append(index)

    benefits: list[dict[tuple, int]] = [
        _edge_benefit(tree, parts[index], steiner[index]) for index in range(len(parts))
    ]

    keep: list[set[tuple]] = [set(edges) for edges in steiner]
    for edge, owners in requests.items():
        if len(owners) <= congestion_budget:
            continue
        ranked = sorted(owners, key=lambda i: (-benefits[i].get(edge, 0), i))
        for loser in ranked[congestion_budget:]:
            keep[loser].discard(edge)

    return Shortcut(
        graph=graph,
        tree=tree,
        parts=parts,
        edge_sets=[frozenset(edges) for edges in keep],
        constructor=f"congestion_capped(c={congestion_budget})",
    )


def congestion_capped_shortcut(
    graph: nx.Graph,
    tree: RootedTree | None = None,
    parts: Sequence[frozenset] = (),
    congestion_budget: int = 8,
) -> Shortcut:
    """Prune the Steiner-tree shortcut to respect a congestion budget."""
    tree = tree if tree is not None else bfs_spanning_tree(graph)
    validate_parts(graph, parts)
    return _congestion_capped(graph, tree, parts, max(0, congestion_budget))


def oblivious_shortcut(
    graph: nx.Graph,
    tree: RootedTree | None = None,
    parts: Sequence[frozenset] = (),
    budgets: Sequence[int] | None = None,
) -> Shortcut:
    """Doubling search over the congestion budget; one fresh build and measure per budget."""
    tree = tree if tree is not None else bfs_spanning_tree(graph)
    validate_parts(graph, parts)
    if not parts:
        return Shortcut(graph=graph, tree=tree, parts=[], edge_sets=[], constructor="oblivious")
    if budgets is None:
        budgets = default_budget_schedule(len(parts))
    best = None
    best_budget = None
    best_quality = None
    for budget in budgets:
        candidate = _congestion_capped(graph, tree, parts, max(0, budget))
        candidate_quality = quality(candidate)
        if best_quality is None or candidate_quality < best_quality:
            best, best_budget, best_quality = candidate, budget, candidate_quality
    assert best is not None
    best.constructor = "oblivious"
    best.chosen_budget = best_budget
    best.chosen_quality = best_quality
    return best
