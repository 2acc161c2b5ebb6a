"""The array-native construction engine behind the congestion-capped search.

The oblivious constructor of HIZ16a (see
:mod:`repro.shortcuts.congestion_capped`) is a *sweep*: the same
(tree, parts) instance is pruned at geometrically increasing congestion
budgets and the best measured quality wins.  :class:`ConstructionEngine`
computes the budget-independent state once per (graph, tree, parts), as
whole-family array passes with no per-part Python loop:

* **Steiner pairs** -- a tree edge is identified by the view index of its
  child endpoint, and a *pair* is one (part, tree edge) request.  With the
  members sorted by (part, ``tin``), a part's Steiner edges are the
  disjoint root-ward segments from each member up to its LCA with its
  ``tin``-predecessor, plus the segment from its first member up to the
  LCA ``top`` of its extreme-``tin`` members.  The segments are enumerated
  with the Euler index's binary-lifting ancestor table
  (:meth:`~repro.structure.spanning.EulerTourIndex.ancestors_at`);
* **benefits** -- the benefit of a pair (part vertices behind the edge,
  Definition 12's tie-breaker) is the number of the part's members inside
  the edge's Euler interval ``[tin, tout]``: two ``searchsorted`` calls
  over the sorted ``part * n + tin`` keys;
* **owner ranking** -- one ``lexsort`` by (edge, benefit desc, part asc);
  a pair's rank is its offset within its edge's run, so the budget-``b``
  winners of an edge are exactly its pairs of rank ``< b``.

The sweep prices every budget from one pass over the Steiner forest.  Its
slots are the (part, vertex) Steiner vertices: every pair's child, whose
arc to its parent slot has the pair's rank ``up``, and every part's top.
A pass up the forest, one depth level at a time, gives each slot ``h``,
the smallest over members below it of the largest rank on the path up to
it.  At budget ``b`` the kept pairs are the arcs of rank ``< b``, so a
slot roots a terminal-bearing component of its part (a block,
Definition 12) exactly when ``h < b <= up``, and per-edge congestion is
``min(#owners, b)``.  Budgets at or above the largest owner count keep
every pair, so they share one price.
:meth:`ConstructionEngine.build_shortcut` is a ``rank < b`` mask over the
pairs.

The engine reproduces the preserved seed implementation in
``tests/oracles/shortcuts.py`` *exactly* (edge sets, congestion, blocks,
chosen budget); ``tests/test_construction_engine.py`` pins this on every
graph family and part generator and on the tree shapes that stress the
segment enumeration.
"""

from __future__ import annotations

from typing import Sequence

import networkx as nx
import numpy as np

from ..core import PartSet
from ..errors import InvalidPartitionError
from ..structure.spanning import RootedTree
from .shortcut import IndexEdges, Shortcut


class ConstructionEngine:
    """Shared per-(graph, tree, parts) state for the congestion-capped sweep.

    Building the engine computes the Steiner pairs, their benefits and
    ranks once; :meth:`quality_sweep` then prices any set of budgets and
    :meth:`build_shortcut` materialises the pruned :class:`Shortcut` for one
    chosen budget.

    The part family is an int-indexed :class:`~repro.core.PartSet`; label
    callers resolve one with :func:`~repro.core.part_set_of`, and the
    Boruvka loop hands its per-phase fragments over without a label
    round-trip.  Every part must be non-empty.

    Attributes:
        pair_part, pair_edge, pair_benefit, pair_rank: one entry per
            Steiner pair, grouped by part: the part, the tree edge (child
            index), the part's vertices behind the edge and the pair's rank
            among the edge's owners.
        pair_offsets: CSR row pointers of the pairs per part.
        max_owner_count: the largest number of parts requesting one edge.
    """

    def __init__(
        self,
        graph: nx.Graph,
        tree: RootedTree,
        part_set: PartSet,
    ) -> None:
        self.graph = graph
        self.tree = tree
        self.part_set = part_set
        self.view = part_set.view
        self.euler = tree.euler_index(self.view)
        self._tree_diameter: int | None = None
        self._build_steiner_pairs()
        self._rank_owners()

    @property
    def num_parts(self) -> int:
        return self.part_set.num_parts

    @property
    def steiner_edges(self) -> list[np.ndarray]:
        """Per part, the child indices of its Steiner tree edges."""
        offsets = self.pair_offsets.tolist()
        return [self.pair_edge[start:end] for start, end in zip(offsets[:-1], offsets[1:])]

    # -- budget-independent state -----------------------------------------

    def _build_steiner_pairs(self) -> None:
        """Enumerate every part's Steiner edges and their benefits."""
        euler = self.euler
        parent, depth, tin, tout = euler.arrays()
        n = len(parent)
        num_parts = self.part_set.num_parts
        offsets = np.asarray(self.part_set.offsets, dtype=np.int64)
        sizes = np.diff(offsets)
        if num_parts and not sizes.all():
            empty = int(np.flatnonzero(sizes == 0)[0])
            raise InvalidPartitionError(f"part {empty} is empty")
        members = np.asarray(self.part_set.members, dtype=np.int64)
        member_part = np.repeat(np.arange(num_parts, dtype=np.int64), sizes)

        # Members sorted by (part, tin); the keys part * n + tin are unique.
        tin_keys = member_part * n + tin[members]
        order = np.argsort(tin_keys, kind="stable")
        tin_keys = tin_keys[order]
        by_tin = members[order]

        # Every member's segment stops at its LCA with its tin-predecessor;
        # a part's first member stops at the part's top instead.
        first = offsets[:-1]
        is_first = np.zeros(len(by_tin), dtype=bool)
        is_first[first] = True
        later = np.flatnonzero(~is_first)
        stops = euler.lcas(
            np.concatenate([by_tin[first], by_tin[later - 1]]),
            np.concatenate([by_tin[offsets[1:] - 1], by_tin[later]]),
        )
        stop = np.empty_like(by_tin)
        stop[first] = tops = stops[:num_parts]
        stop[later] = stops[num_parts:]
        lengths = depth[by_tin] - depth[stop]

        # One pair per segment vertex below its stop: the k-th ancestor of
        # the segment's member for k = 0 .. length - 1.
        total = int(lengths.sum())
        segment_start = np.cumsum(lengths) - lengths
        steps = np.arange(total, dtype=np.int64) - np.repeat(segment_start, lengths)
        self.pair_edge = euler.ancestors_at(np.repeat(by_tin, lengths), steps)
        self.pair_part = np.repeat(member_part, lengths)
        self.pair_offsets = np.concatenate(
            ([0], np.cumsum(np.bincount(self.pair_part, minlength=num_parts)))
        )
        low = self.pair_part * n + tin[self.pair_edge]
        high = self.pair_part * n + tout[self.pair_edge]
        self.pair_benefit = np.searchsorted(tin_keys, high, side="right") - np.searchsorted(
            tin_keys, low, side="left"
        )

        # The Steiner forest over slots: slot p < total is pair p's child,
        # slot total + i is part i's top.  A segment's pairs climb one step
        # each, and its last pair hangs below its stop: the part's top, or
        # else a vertex on the segment of the part's first member at or
        # after the stop in tin order (its first member below the stop).
        self._pair_parent = np.arange(1, total + 1, dtype=np.int64)
        # A member is its segment's first pair's child, or its part's top
        # when its segment is empty (a first member that is the top).
        climbs = lengths > 0
        self._terminal_slots = np.where(climbs, segment_start, total + member_part)
        last = (segment_start + lengths - 1)[climbs]
        stop, stop_part = stop[climbs], member_part[climbs]
        at_top = stop == tops[stop_part]
        self._pair_parent[last[at_top]] = total + stop_part[at_top]
        last, stop, stop_part = last[~at_top], stop[~at_top], stop_part[~at_top]
        below = np.searchsorted(tin_keys, stop_part * n + tin[stop])
        self._pair_parent[last] = segment_start[below] + depth[by_tin[below]] - depth[stop]

    def _rank_owners(self) -> None:
        """Rank every tree edge's owners by (benefit desc, part index asc)."""
        order = np.lexsort((self.pair_part, -self.pair_benefit, self.pair_edge))
        edges = self.pair_edge[order]
        positions = np.arange(len(edges), dtype=np.int64)
        run_start = np.zeros(len(edges), dtype=bool)
        run_start[:1] = True
        run_start[1:] = edges[1:] != edges[:-1]
        ranks = positions - np.maximum.accumulate(np.where(run_start, positions, 0))
        self.pair_rank = np.empty_like(ranks)
        self.pair_rank[order] = ranks
        self.max_owner_count = int(ranks.max()) + 1 if len(ranks) else 0

    def tree_diameter(self) -> int:
        if self._tree_diameter is None:
            self._tree_diameter = self.tree.diameter()
        return self._tree_diameter

    # -- the budget sweep ----------------------------------------------------

    def quality_sweep(self, budgets: Sequence[int]) -> dict[int, int]:
        """Return ``{budget: quality}`` for every distinct requested budget.

        A budget ``b`` keeps the pairs of rank ``< b``, so its congestion is
        ``min(max_owner_count, b)`` and its block parameter is the largest
        number of terminal-bearing components of one part's kept pairs.
        Negative budgets price like 0, matching the constructor's clamp;
        budgets at or above ``max_owner_count`` keep every pair and share
        one price.
        """
        distinct = sorted({max(0, int(budget)) for budget in budgets})
        if not distinct:
            return {}
        diameter = self.tree_diameter()
        num_pairs, num_parts = len(self.pair_edge), self.num_parts
        # up(s): the rank of slot s's arc, above every budget at a top.
        # h(s): the smallest, over members t at or below s, of the largest
        # arc rank on the path from t up to s; -1 at a member.  One pass up
        # the forest, a depth level at a time, deepest first.
        up = np.concatenate([self.pair_rank, np.full(num_parts, self.max_owner_count)])
        h = np.full(num_pairs + num_parts, self.max_owner_count, dtype=np.int64)
        h[self._terminal_slots] = -1
        depth = self.euler.arrays()[1][self.pair_edge]
        order = np.argsort(depth)[::-1]
        depth = depth[order]
        levels = np.concatenate(([0], np.flatnonzero(depth[1:] != depth[:-1]) + 1, [num_pairs]))
        parents, ranks = self._pair_parent[order], self.pair_rank[order]
        for start, end in zip(levels[:-1].tolist(), levels[1:].tolist()):
            np.minimum.at(
                h, parents[start:end], np.maximum(h[order[start:end]], ranks[start:end])
            )
        # At budget b a slot roots a block of its part exactly when some
        # member reaches it over kept arcs (h < b) and its own arc is cut
        # (b <= up); only slots with h < up ever do.
        roots = np.flatnonzero(h < up)
        h, up = h[roots], up[roots]
        slot_part = np.concatenate([self.pair_part, np.arange(num_parts)])[roots]

        qualities: dict[int, int] = {}
        priced: dict[int, int] = {}
        for budget in distinct:
            congestion = min(budget, self.max_owner_count)
            if congestion not in priced:
                counted = slot_part[(h < congestion) & (congestion <= up)]
                block = int(np.bincount(counted).max(initial=0))
                priced[congestion] = block * diameter + congestion
            qualities[budget] = priced[congestion]
        return qualities

    # -- materialisation ---------------------------------------------------

    def build_shortcut(self, congestion_budget: int) -> Shortcut:
        """Materialise the pruned :class:`Shortcut` for one budget.

        The shortcut is built in index space -- per-part ``(child, parent)``
        vertex-index pairs plus the engine's part set -- so a consumer that
        stays on the array-native path (the Boruvka loop, the indexed
        aggregation) never materialises labels.
        """
        budget = max(0, int(congestion_budget))
        kept = self.pair_rank < budget
        edges = self.pair_edge[kept]
        offsets = np.concatenate(
            ([0], np.cumsum(np.bincount(self.pair_part[kept], minlength=self.num_parts)))
        )
        return Shortcut(
            graph=self.graph,
            tree=self.tree,
            parts=None,
            edge_sets=None,
            constructor=f"congestion_capped(c={budget})",
            part_set=self.part_set,
            index_edges=IndexEdges(offsets, edges, self.euler.arrays()[0][edges]),
        )
