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

The sweep prices a budget ``b`` in closed form: per-edge congestion is
``min(#owners, b)``, and a part's blocks are the terminal-bearing
components of its kept pairs, counted for all parts at once over
(part, vertex) slots by :func:`~repro.shortcuts.shortcut.max_part_blocks`,
the block count :meth:`~repro.shortcuts.shortcut.Shortcut.block_parameter`
uses too.  Budgets at or above the largest owner count keep every pair,
so they share one price.  :meth:`ConstructionEngine.build_shortcut` is a
``rank < b`` mask over the pairs.

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
from .shortcut import IndexEdges, Shortcut, max_part_blocks


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
        self._member_keys = member_part * n + members

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
        stop[first] = self._tops = stops[:num_parts]
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
        n = len(self.euler.parent)
        parent = self.euler.arrays()[0]
        # The slots are the Steiner vertices, (part, vertex) keys: every
        # pair's child and every part's top, all distinct.  Slot s holds
        # pair order[s] when order[s] < num_pairs, else a top.
        num_pairs = len(self.pair_edge)
        keys = np.concatenate([
            self.pair_part * n + self.pair_edge,
            np.arange(self.num_parts, dtype=np.int64) * n + self._tops,
        ])
        order = np.argsort(keys)
        slot_keys = keys[order]
        member_slots = np.searchsorted(slot_keys, self._member_keys)
        # A slot is the child of at most one pair, so the kept pairs' arcs
        # come out in ascending source-slot order.
        arc_rows = np.flatnonzero(order < num_pairs)
        arc_pairs = order[arc_rows]
        arc_targets = np.searchsorted(
            slot_keys, self.pair_part[arc_pairs] * n + parent[self.pair_edge[arc_pairs]]
        ).astype(np.int32)
        arc_ranks = self.pair_rank[arc_pairs]
        slot_part = slot_keys // n

        def max_blocks(budget: int) -> int:
            kept = arc_ranks < budget
            return max_part_blocks(arc_rows[kept], arc_targets[kept], slot_part, member_slots)

        qualities: dict[int, int] = {}
        priced: dict[int, int] = {}
        for budget in distinct:
            congestion = min(budget, self.max_owner_count)
            if congestion not in priced:
                block = max_blocks(congestion)
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
