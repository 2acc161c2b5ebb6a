"""The :class:`Shortcut` object and its quality measures (Definitions 9-13).

A shortcut assigns to every part ``P_i`` a set of extra edges ``H_i`` that
the part may use when spreading information.  The three quantities the paper
tracks are:

* **congestion** (Definition 11): the maximum, over edges ``e``, of the
  number of parts whose ``H_i`` contains ``e``;
* **block parameter** (Definition 12): the maximum, over parts, of the
  number of connected components of the spanning subgraph ``(V, H_i)`` that
  contain a vertex of ``P_i``;
* **quality** (Definition 13): ``q(d) = b(d) * d + c(d)`` where ``d`` is the
  diameter of the spanning tree ``T`` the shortcut is restricted to.

The object stores everything needed to recompute these quantities from
scratch, which the property-based tests use to confirm that every
constructor's self-reported numbers are honest.

The measurements run on flat arrays over the graph's shared
:class:`~repro.core.GraphView`: congestion is a bulk counter update and the
block parameter a union-find over vertex indices, instead of one
``nx.Graph``-plus-``connected_components`` construction per part.  The
differential tests pin them to the seed per-part ``networkx``
recomputation in ``tests/oracles/quality.py`` on every graph family.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Hashable, Iterable, NamedTuple, Sequence

import networkx as nx
import numpy as np

from ..core import part_set_of, view_of
from ..errors import InvalidShortcutError
from ..structure.spanning import RootedTree
from ..utils import canonical_edge

Edge = tuple[Hashable, Hashable]


@dataclass(frozen=True)
class ShortcutQuality:
    """A summary of the measured parameters of one shortcut.

    Attributes:
        congestion: Definition 11 congestion.
        block: Definition 12 block parameter.
        tree_diameter: the diameter ``d_T`` of the spanning tree used.
        quality: ``block * tree_diameter + congestion`` (Definition 13).
        num_parts: how many parts the shortcut serves.
        total_shortcut_edges: sum over parts of ``|H_i|`` (a size measure
            used by the experiments, not by the theory).
    """

    congestion: int
    block: int
    tree_diameter: int
    quality: int
    num_parts: int
    total_shortcut_edges: int

    def as_row(self) -> dict[str, int]:
        """Return the summary as a flat dict (one row of an experiment table)."""
        return {
            "congestion": self.congestion,
            "block": self.block,
            "tree_diameter": self.tree_diameter,
            "quality": self.quality,
            "num_parts": self.num_parts,
            "total_shortcut_edges": self.total_shortcut_edges,
        }


class IndexEdges(NamedTuple):
    """A shortcut's edges in index space, grouped by part.

    Part ``i`` owns the edges ``(u[k], v[k])`` for
    ``offsets[i] <= k < offsets[i + 1]``; endpoints are
    :class:`~repro.core.GraphView` indices.  The construction engine emits
    tree edges as ``(child, parent)``.
    """

    offsets: np.ndarray
    u: np.ndarray
    v: np.ndarray


class _EpochUnionFind:
    """Union-find over ``0 .. n-1`` with O(1) epoch-stamped reuse.

    ``reset()`` bumps the epoch instead of reinitialising the parent array,
    so measuring many parts over one graph costs flat arrays once, not once
    per part.  A vertex whose stamp is stale is implicitly its own root.
    """

    __slots__ = ("parent", "stamp", "epoch")

    def __init__(self, size: int) -> None:
        self.parent = list(range(size))
        self.stamp = [0] * size
        self.epoch = 0

    def reset(self) -> None:
        self.epoch += 1

    def _activate(self, item: int) -> None:
        if self.stamp[item] != self.epoch:
            self.stamp[item] = self.epoch
            self.parent[item] = item

    def find(self, item: int) -> int:
        # A stale vertex is implicitly a singleton; fresh vertices only ever
        # point at fresh vertices (parents are assigned between activated
        # nodes), so the chase below stays within the current epoch.
        if self.stamp[item] != self.epoch:
            return item
        parent = self.parent
        root = item
        while parent[root] != root:
            root = parent[root]
        while parent[item] != root:
            parent[item], item = root, parent[item]
        return root

    def union(self, a: int, b: int) -> None:
        self._activate(a)
        self._activate(b)
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


class Shortcut:
    """A (possibly tree-restricted) shortcut for a family of parts.

    Args:
        graph: the network graph ``G``.
        tree: the rooted spanning tree ``T`` the shortcut is restricted to.
        parts: the parts ``P_1, ..., P_N`` (disjoint connected vertex sets).
            May be ``None`` when ``part_set`` is given.
        edge_sets: for every part, the set of shortcut edges ``H_i`` in
            canonical form.  ``H_i`` may be empty.  May be ``None`` when
            ``index_edges`` is given.
        constructor: free-form name of the construction that produced the
            shortcut (recorded in experiment outputs).
        part_set: optional int-indexed :class:`~repro.core.PartSet` of the
            family.  When given, ``parts`` is ignored and the label
            frozensets are derived lazily -- the array-native algorithm
            layer hands per-phase Boruvka fragments through here without
            ever materialising label sets on its hot path.
        index_edges: optional :class:`IndexEdges` over ``part_set.view``.
            When given, ``edge_sets`` may be ``None``; the canonical label
            edge sets are derived lazily, and the CONGEST aggregation
            primitive consumes the index arrays directly.

    Label access (``shortcut.parts`` / ``shortcut.edge_sets``) always works
    regardless of which representation the constructor supplied; the other
    representation is derived on first use.  The differential tests pin both
    derivations against the label-native reference constructions.
    """

    def __init__(
        self,
        graph: nx.Graph,
        tree: RootedTree,
        parts: Sequence[frozenset] | None,
        edge_sets: Sequence[Iterable[Edge]] | None,
        constructor: str = "unknown",
        part_set=None,
        index_edges: IndexEdges | None = None,
    ) -> None:
        self.graph = graph
        self.tree = tree
        self._part_set = part_set
        if part_set is not None:
            self._parts: list[frozenset] | None = None
            num_parts = part_set.num_parts
        else:
            if parts is None:
                raise InvalidShortcutError("need either parts or a part_set")
            self._parts = [frozenset(part) for part in parts]
            num_parts = len(self._parts)
        self._index_edges = index_edges
        if edge_sets is not None:
            self._raw_edge_sets: list[Iterable[Edge]] | None = list(edge_sets)
            num_edge_sets = len(self._raw_edge_sets)
        elif index_edges is not None:
            self._raw_edge_sets = None
            num_edge_sets = len(index_edges.offsets) - 1
        else:
            raise InvalidShortcutError("need either edge_sets or index_edges")
        if num_parts != num_edge_sets:
            raise InvalidShortcutError("need exactly one edge set per part")
        self._edge_sets: list[frozenset[Edge]] | None = None
        self.constructor = constructor
        # Set by the budget-searching constructors (oblivious_shortcut) to the
        # congestion budget that won the sweep (and the quality it was priced
        # at); None for direct constructions.
        self.chosen_budget: int | None = None
        self.chosen_quality: int | None = None
        self._tree_diameter: int | None = None

    # -- lazy label representations ----------------------------------------

    @property
    def parts(self) -> list[frozenset]:
        """The parts as label frozensets (derived from the part set if needed)."""
        if self._parts is None:
            self._parts = self._part_set.label_parts()
        return self._parts

    @property
    def edge_sets(self) -> list[frozenset[Edge]]:
        """The per-part canonical label edge sets (materialised on first use)."""
        if self._edge_sets is None:
            self._edge_sets = self._canonical_edge_sets()
        return self._edge_sets

    def _canonical_edge_sets(self) -> list[frozenset[Edge]]:
        _EMPTY: frozenset[Edge] = frozenset()
        if self._raw_edge_sets is None:
            # Index order is repr order (GraphView construction), so index
            # pairs orient exactly like ``canonical_edge`` on their labels.
            node_of = self._part_set.view.nodes
            offsets, u, v = self._index_edges
            offsets = offsets.tolist()
            pairs = [
                (node_of[a], node_of[b])
                for a, b in zip(np.minimum(u, v).tolist(), np.maximum(u, v).tolist())
            ]
            return [
                frozenset(pairs[start:end]) if start < end else _EMPTY
                for start, end in zip(offsets[:-1], offsets[1:])
            ]
        # Canonicalisation is hoisted out of the per-edge loop: endpoint reprs
        # are memoised across all parts (shortcut edge sets overlap heavily on
        # tree edges), and empty edge sets skip the loop entirely.
        reprs: dict[Hashable, str] = {}
        _get = reprs.get
        # Identity memo: constructors that give several parts the same edge-set
        # object (whole-tree, shared per-cell sets) keep that sharing through
        # canonicalisation, which the measurement dedup exploits.  The inputs
        # stay alive in ``_raw_edge_sets`` for the duration, so ids are stable.
        canon_cache: dict[int, frozenset[Edge]] = {}

        def canonicalise(edges: Iterable[Edge]) -> frozenset[Edge]:
            if not edges:
                return _EMPTY
            cached = canon_cache.get(id(edges))
            if cached is not None:
                return cached
            out = set()
            for u, v in edges:
                ru = _get(u)
                if ru is None:
                    ru = reprs[u] = repr(u)
                rv = _get(v)
                if rv is None:
                    rv = reprs[v] = repr(v)
                out.add((u, v) if ru <= rv else (v, u))
            result = frozenset(out)
            canon_cache[id(edges)] = result
            return result

        return [canonicalise(edges) for edges in self._raw_edge_sets]

    def index_edges(self) -> IndexEdges:
        """Return (and cache) the shortcut edges as :class:`IndexEdges`.

        Engine-built shortcuts carry theirs from construction; label-built
        shortcuts convert their ``edge_sets`` on first use, once per
        distinct edge-set object.
        """
        if self._index_edges is None:
            index_of = self.part_set().view.index_of
            converted: dict[int, list[tuple[int, int]]] = {}
            pairs: list[tuple[int, int]] = []
            counts = [0]
            for edges in self.edge_sets:
                indexed = converted.get(id(edges))
                if indexed is None:
                    indexed = converted[id(edges)] = [(index_of(a), index_of(b)) for a, b in edges]
                pairs += indexed
                counts.append(len(indexed))
            ends = np.array(pairs, dtype=np.int64).reshape(-1, 2)
            self._index_edges = IndexEdges(np.cumsum(counts), ends[:, 0], ends[:, 1])
        return self._index_edges

    def part_set(self):
        """Return (and cache) the int-indexed :class:`~repro.core.PartSet`.

        Engine-built shortcuts carry theirs from construction; label-built
        shortcuts resolve one through the package-wide
        :func:`~repro.core.part_set_of` memo on first use.
        """
        if self._part_set is None:
            self._part_set = part_set_of(view_of(self.graph), self.parts)
        return self._part_set

    # -- basic measures ---------------------------------------------------

    @property
    def num_parts(self) -> int:
        if self._parts is not None:
            return len(self._parts)
        return self._part_set.num_parts

    def tree_diameter(self) -> int:
        if self._tree_diameter is None:
            self._tree_diameter = self.tree.diameter()
        return self._tree_diameter

    def edge_congestion(self) -> dict[Edge, int]:
        """Return the per-edge congestion map ``c_e`` of Definition 11."""
        congestion: Counter = Counter()
        for edges in self.edge_sets:
            congestion.update(edges)
        return dict(congestion)

    def congestion(self) -> int:
        """Return the congestion (Definition 11): max parts sharing one edge."""
        congestion: Counter = Counter()
        for edges, multiplicity in self._edge_set_multiplicities():
            if multiplicity == 1:
                congestion.update(edges)
            else:
                for edge in edges:
                    congestion[edge] += multiplicity
        return max(congestion.values(), default=0)

    def _edge_set_multiplicities(self) -> list[tuple[frozenset[Edge], int]]:
        """Group the per-part edge sets by object identity.

        Constructors that hand several parts the same frozenset (the
        whole-tree baseline, per-cell sharing) are measured once per distinct
        set instead of once per part; distinct objects keep multiplicity 1.
        """
        grouped: dict[int, list] = {}
        for edges in self.edge_sets:
            entry = grouped.get(id(edges))
            if entry is None:
                grouped[id(edges)] = [edges, 1]
            else:
                entry[1] += 1
        return [(edges, count) for edges, count in grouped.values()]

    def block_parameter(self) -> int:
        """Return the block parameter (Definition 12): max blocks of any part.

        Flat union-find over vertex indices of the graph's shared
        :class:`~repro.core.GraphView`: a part with edge set ``H_i`` has
        exactly ``|{find(v) : v in P_i}|`` block components (untouched part
        vertices are their own roots, i.e. singleton blocks), so no spanning
        subgraph is ever materialised.  Parts with empty ``H_i`` short-circuit
        to ``|P_i|``.
        """
        worst = 0
        union_find: _EpochUnionFind | None = None
        part_set = None
        # Parts sharing one edge-set object (by identity) share one union-find
        # build; only the per-part root count differs.
        parts_by_set: dict[int, list[int]] = {}
        set_for_id: dict[int, frozenset[Edge]] = {}
        for index, edges in enumerate(self.edge_sets):
            parts_by_set.setdefault(id(edges), []).append(index)
            set_for_id[id(edges)] = edges
        for set_id, part_indices in parts_by_set.items():
            edges = set_for_id[set_id]
            if not edges:
                part_set = part_set if part_set is not None else self.part_set()
                worst = max(
                    worst, max(part_set.size_of(i) for i in part_indices)
                )
                continue
            if union_find is None:
                # The int-indexed member arrays are memoised per (view, parts)
                # -- or carried from construction by the engine -- so every
                # candidate shortcut in a sweep over the same part family
                # shares one label-to-index conversion.
                part_set = self.part_set()
                view = part_set.view
                union_find = _EpochUnionFind(len(view))
                index_of = view.index_of
            union_find.reset()
            union = union_find.union
            for u, v in edges:
                union(index_of(u), index_of(v))
            find = union_find.find
            for part_index in part_indices:
                roots = {find(member) for member in part_set.members_of(part_index)}
                worst = max(worst, len(roots))
        return worst

    def quality(self, tree_diameter: int | None = None) -> int:
        """Return the quality ``b * d + c`` (Definition 13)."""
        d = tree_diameter if tree_diameter is not None else self.tree_diameter()
        return self.block_parameter() * d + self.congestion()

    def measure(self) -> ShortcutQuality:
        """Return the full measured summary of this shortcut."""
        d = self.tree_diameter()
        block = self.block_parameter()
        congestion = self.congestion()
        return ShortcutQuality(
            congestion=congestion,
            block=block,
            tree_diameter=d,
            quality=block * d + congestion,
            num_parts=self.num_parts,
            total_shortcut_edges=sum(len(edges) for edges in self.edge_sets),
        )

    # -- derived graphs ----------------------------------------------------

    def augmented_subgraph(self, index: int) -> nx.Graph:
        """Return ``G[P_i] + H_i``: the graph part ``i`` communicates on.

        This is the induced subgraph on the part plus every shortcut edge and
        any shortcut-edge endpoint outside the part; Theorem 1's algorithm
        performs its per-part aggregation on exactly this graph, and the
        CONGEST aggregation primitive of :mod:`repro.congest.aggregation`
        simulates communication on it.
        """
        part = self.parts[index]
        subgraph = nx.Graph()
        subgraph.add_nodes_from(part)
        for u, v in self.graph.subgraph(part).edges():
            subgraph.add_edge(u, v)
        for u, v in self.edge_sets[index]:
            subgraph.add_edge(u, v)
        return subgraph

    def part_diameters(self) -> list[int]:
        """Return the diameter of ``G[P_i] + H_i`` for every part.

        The paper's framework upper-bounds these by ``O(b * d_T)``; the
        experiments report the measured values alongside the bound.  Shortcut
        edges that are disconnected from the part contribute nothing to the
        diameter (they are useless but legal), so the measurement is taken on
        the connected component containing the part.
        """
        diameters = []
        for index in range(self.num_parts):
            augmented = self.augmented_subgraph(index)
            if augmented.number_of_nodes() <= 1:
                diameters.append(0)
                continue
            anchor = next(iter(self.parts[index]))
            component = nx.node_connected_component(augmented, anchor)
            diameters.append(nx.diameter(augmented.subgraph(component)))
        return diameters

    # -- validation ---------------------------------------------------------

    def is_tree_restricted(self) -> bool:
        """Return True iff every shortcut edge lies on the tree (Definition 10)."""
        tree_edges = self.tree.edge_set()
        return all(edges <= tree_edges for edges in self.edge_sets)

    def validate(self, require_tree_restricted: bool = True) -> None:
        """Check structural sanity; raise :class:`InvalidShortcutError` on failure.

        Checks performed:
        * every shortcut edge is an edge of the graph;
        * (optionally) every shortcut edge is a tree edge (Definition 10);
        * every part is connected and parts are disjoint (Definition 9).

        Note that shortcut edges disconnected from their part are *legal*
        (they waste congestion but break nothing), so connectivity of the
        full augmented subgraph is deliberately not required.
        """
        seen: set[Hashable] = set()
        for index, part in enumerate(self.parts):
            if not part:
                raise InvalidShortcutError(f"part {index} is empty")
            if seen & part:
                raise InvalidShortcutError("parts are not disjoint")
            seen |= part
            if not nx.is_connected(self.graph.subgraph(part)):
                raise InvalidShortcutError(f"part {index} is not connected")
        tree_edges = self.tree.edge_set()
        for index, edges in enumerate(self.edge_sets):
            for u, v in edges:
                if not self.graph.has_edge(u, v):
                    raise InvalidShortcutError(
                        f"shortcut edge ({u}, {v}) of part {index} is not a graph edge"
                    )
            if require_tree_restricted and not edges <= tree_edges:
                bad = next(iter(edges - tree_edges))
                raise InvalidShortcutError(
                    f"shortcut edge {bad} of part {index} is not a tree edge "
                    "(Definition 10 requires T-restriction)"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"Shortcut(constructor={self.constructor!r}, parts={self.num_parts}, "
            f"edges={sum(len(e) for e in self.edge_sets)})"
        )
