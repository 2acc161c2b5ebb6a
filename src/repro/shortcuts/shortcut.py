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

A shortcut holds one representation: its parts as a
:class:`~repro.core.PartSet` and its edges as :class:`IndexEdges`, both
over the graph's shared :class:`~repro.core.GraphView`.  Label input is
converted once, when the shortcut is built; the label ``parts`` and
``edge_sets`` are derived, read-only views.  The measures run on the index
arrays: congestion is one ``np.unique`` over the int edge keys
``lo * n + hi``, and the block parameter one component count over the
shortcut's (part, vertex) slots.  The differential tests pin them to the
seed per-part ``networkx`` recomputation in ``tests/oracles/quality.py``
on every graph family and on hypothesis-drawn shortcuts.

The slots are the vertices of every part's ``G[P_i] + H_i``.  Their layout
(:class:`Slots`) is built once per shortcut, on first use, and cached on
it: the block parameter and the part-wise aggregation's trees
(:mod:`repro.congest.aggregation`) both read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, NamedTuple, Sequence

import networkx as nx
import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from ..core import part_set_of, view_of
from ..errors import InvalidShortcutError
from ..structure.spanning import RootedTree

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
    :class:`~repro.core.GraphView` indices, and a part lists each
    undirected edge at most once.  The construction engine emits tree edges
    as ``(child, parent)``; converted label edge sets are ``(lo, hi)`` in
    ascending key order.
    """

    offsets: np.ndarray
    u: np.ndarray
    v: np.ndarray


class Slots(NamedTuple):
    """A shortcut's (part, vertex) slots, numbered in (part, vertex) order.

    A part's slots are its members and its edges' endpoints outside it:
    the vertices of ``G[P_i] + H_i``.  Part ``i`` holds the slots
    ``offsets[i] <= s < offsets[i + 1]``, and slot ``s`` is vertex
    ``vertex[s]``.  ``members[j]`` is the slot of the part set's ``j``-th
    member, ``home[x]`` the slot of vertex ``x`` in its own part (the
    last part holding it, should parts share ``x``; ``-1`` in none), and
    ``heads[k]`` / ``tails[k]`` are the slots of index edge ``k``'s
    endpoints ``u[k]`` / ``v[k]`` in the edge's part.
    """

    offsets: np.ndarray
    vertex: np.ndarray
    members: np.ndarray
    home: np.ndarray
    heads: np.ndarray
    tails: np.ndarray

    def part(self) -> np.ndarray:
        """Every slot's part (a fresh array: the layout keeps only offsets)."""
        return np.repeat(np.arange(len(self.offsets) - 1), np.diff(self.offsets))


def _slot_layout(part_set, index_edges: IndexEdges) -> Slots:
    """Lay out the slots of ``part_set`` and ``index_edges`` (see :class:`Slots`).

    One ``np.unique`` over the ``part * n + vertex`` keys of every member
    and every edge endpoint numbers the slots in (part, vertex) order, and
    its inverse gives each member's and each endpoint's slot.
    """
    n = len(part_set.view)
    num_parts = part_set.num_parts
    part_base = np.arange(num_parts, dtype=np.int64) * n
    members = np.asarray(part_set.members, dtype=np.int64)
    offsets, u, v = index_edges
    edge_base = np.repeat(part_base, np.diff(offsets))
    keys, slot = np.unique(
        np.concatenate([np.repeat(part_base, np.diff(part_set.offsets)) + members,
                        edge_base + u, edge_base + v]),
        return_inverse=True,
    )
    member_slots = slot[: len(members)]
    home = np.full(n, -1, dtype=np.int64)
    home[members] = member_slots
    part, vertex = np.divmod(keys, n)
    slot_offsets = np.zeros(num_parts + 1, dtype=np.int64)
    np.cumsum(np.bincount(part, minlength=num_parts), out=slot_offsets[1:])
    heads = slot[len(members) : len(members) + len(u)]
    return Slots(
        slot_offsets, vertex, member_slots, home, heads, slot[len(members) + len(u) :]
    )


def _index_edges_of(view, edge_sets: Sequence[Iterable[Edge]]) -> IndexEdges:
    """Convert per-part label edge sets into :class:`IndexEdges` over ``view``.

    Each distinct edge-set object is converted once (the whole-tree
    shortcut hands every part the same set) into its ascending edge keys
    ``lo * n + hi``, so ``(u, v)`` and ``(v, u)`` are one edge.
    """
    n = len(view)
    index_of = view.index_of
    converted: dict[int, list[int]] = {}
    keys: list[int] = []
    offsets = [0]
    for part, edges in enumerate(edge_sets):
        part_keys = converted.get(id(edges))
        if part_keys is None:
            try:
                pairs = [(index_of(u), index_of(v)) for u, v in edges]
            except KeyError as error:
                raise InvalidShortcutError(
                    f"shortcut edge endpoint {error.args[0]!r} of part {part} "
                    "is not a graph vertex"
                ) from None
            part_keys = converted[id(edges)] = sorted(
                {a * n + b if a < b else b * n + a for a, b in pairs}
            )
        keys += part_keys
        offsets.append(len(keys))
    key_array = np.array(keys, dtype=np.int64)
    return IndexEdges(np.array(offsets, dtype=np.int64), key_array // n, key_array % n)


class Shortcut:
    """A (possibly tree-restricted) shortcut for a family of parts.

    Args:
        graph: the network graph ``G``.
        tree: the rooted spanning tree ``T`` the shortcut is restricted to.
        parts: the parts ``P_1, ..., P_N`` (disjoint connected vertex sets).
            Ignored when ``part_set`` is given.
        edge_sets: for every part, the set of shortcut edges ``H_i`` as
            label pairs in either orientation.  ``H_i`` may be empty.
            Ignored when ``index_edges`` is given.
        constructor: free-form name of the construction that produced the
            shortcut (recorded in experiment outputs).
        part_set: the int-indexed :class:`~repro.core.PartSet` of the
            family; resolved from ``parts`` through
            :func:`~repro.core.part_set_of` when not given.
        index_edges: :class:`IndexEdges` over ``part_set.view``; converted
            from ``edge_sets`` when not given.

    The part set and the index edges are all the shortcut stores;
    ``parts`` and ``edge_sets`` are read-only label views derived from them
    on first access.

    Raises:
        InvalidPartitionError: a part holds a vertex that is not in the graph.
        InvalidShortcutError: the edge sets do not match the parts one to
            one, or an edge has an endpoint that is not in the graph.
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
        if part_set is None:
            if parts is None:
                raise InvalidShortcutError("need either parts or a part_set")
            part_set = part_set_of(view_of(graph), parts)
        if index_edges is None:
            if edge_sets is None:
                raise InvalidShortcutError("need either edge_sets or index_edges")
            edge_sets = list(edge_sets)
            if len(edge_sets) != part_set.num_parts:
                raise InvalidShortcutError("need exactly one edge set per part")
            index_edges = _index_edges_of(part_set.view, edge_sets)
        elif len(index_edges.offsets) - 1 != part_set.num_parts:
            raise InvalidShortcutError("need exactly one edge set per part")
        self._part_set = part_set
        self._index_edges = index_edges
        self._parts: tuple[frozenset, ...] | None = None
        self._edge_sets: tuple[frozenset[Edge], ...] | None = None
        self.constructor = constructor
        # Set by the budget-searching constructors (oblivious_shortcut) to the
        # congestion budget that won the sweep (and the quality it was priced
        # at); None for direct constructions.
        self.chosen_budget: int | None = None
        self.chosen_quality: int | None = None
        self._tree_diameter: int | None = None
        self._slots: Slots | None = None

    # -- representation and label views --------------------------------------

    def part_set(self):
        """Return the int-indexed :class:`~repro.core.PartSet` of the parts."""
        return self._part_set

    def index_edges(self) -> IndexEdges:
        """Return the shortcut edges as :class:`IndexEdges`."""
        return self._index_edges

    def slots(self) -> Slots:
        """Return the (part, vertex) slot layout, built on first use (:class:`Slots`)."""
        if self._slots is None:
            self._slots = _slot_layout(self._part_set, self._index_edges)
        return self._slots

    @property
    def parts(self) -> tuple[frozenset, ...]:
        """The parts as label frozensets (derived from the part set)."""
        if self._parts is None:
            self._parts = tuple(self._part_set.label_parts())
        return self._parts

    @property
    def edge_sets(self) -> tuple[frozenset[Edge], ...]:
        """The per-part canonical label edge sets (derived from the index edges).

        Index order is repr order (GraphView construction), so ``(lo, hi)``
        index pairs orient exactly like ``canonical_edge`` on their labels.
        """
        if self._edge_sets is None:
            node_of = self._part_set.view.nodes
            offsets, u, v = self._index_edges
            pairs = [
                (node_of[a], node_of[b])
                for a, b in zip(np.minimum(u, v).tolist(), np.maximum(u, v).tolist())
            ]
            bounds = offsets.tolist()
            self._edge_sets = tuple(
                frozenset(pairs[start:end]) for start, end in zip(bounds[:-1], bounds[1:])
            )
        return self._edge_sets

    # -- basic measures ---------------------------------------------------

    @property
    def num_parts(self) -> int:
        return self._part_set.num_parts

    def tree_diameter(self) -> int:
        if self._tree_diameter is None:
            self._tree_diameter = self.tree.diameter()
        return self._tree_diameter

    def _edge_keys(self) -> np.ndarray:
        """Every part's edges as int keys ``lo * n + hi`` (canonical edge order)."""
        _offsets, u, v = self._index_edges
        return np.minimum(u, v) * len(self._part_set.view) + np.maximum(u, v)

    def edge_congestion(self) -> dict[Edge, int]:
        """Return the per-edge congestion map ``c_e`` of Definition 11."""
        keys, counts = np.unique(self._edge_keys(), return_counts=True)
        node_of = self._part_set.view.nodes
        n = len(node_of)
        return {
            (node_of[key // n], node_of[key % n]): count
            for key, count in zip(keys.tolist(), counts.tolist())
        }

    def congestion(self) -> int:
        """Return the congestion (Definition 11): max parts sharing one edge."""
        _keys, counts = np.unique(self._edge_keys(), return_counts=True)
        return int(counts.max(initial=0))

    def block_parameter(self) -> int:
        """Return the block parameter (Definition 12): max blocks of any part.

        Each part edge is an arc between two of its part's :meth:`slots`,
        and a part's blocks are the weak components of its slots that hold
        a member, so one ``connected_components`` call and a ``bincount``
        count them for every part at once.  Without edges every member is
        its own block.
        """
        slots = self.slots()
        if not len(slots.heads):
            return int(np.diff(self._part_set.offsets).max(initial=0))
        num_slots = len(slots.vertex)
        row_ptr = np.zeros(num_slots + 1, dtype=np.int32)
        np.cumsum(np.bincount(slots.heads, minlength=num_slots), out=row_ptr[1:])
        targets = slots.tails[np.argsort(slots.heads)].astype(np.int32)
        graph = csr_matrix((np.ones(len(targets)), targets, row_ptr), shape=(num_slots, num_slots))
        count, labels = connected_components(graph, directed=True, connection="weak")
        component_part = np.empty(count, dtype=np.int64)
        component_part[labels] = slots.part()
        has_member = np.zeros(count, dtype=bool)
        has_member[labels[slots.members]] = True
        return int(np.bincount(component_part[has_member]).max(initial=0))

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
            total_shortcut_edges=len(self._index_edges.u),
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

    def _on_tree(self) -> np.ndarray:
        """Per index edge: whether it joins a vertex to its tree parent."""
        parent = self.tree.euler_index(self._part_set.view).arrays()[0]
        _offsets, u, v = self._index_edges
        return (parent[u] == v) | (parent[v] == u)

    def is_tree_restricted(self) -> bool:
        """Return True iff every shortcut edge lies on the tree (Definition 10)."""
        return bool(self._on_tree().all())

    def validate(self, require_tree_restricted: bool = True) -> None:
        """Check structural sanity; raise :class:`InvalidShortcutError` on failure.

        Checks performed:
        * every part is non-empty and connected, and parts are disjoint
          (Definition 9);
        * every shortcut edge is an edge of the graph (one vectorised
          :meth:`~repro.core.CoreGraph.has_edges` lookup);
        * (optionally) every shortcut edge is a tree edge (Definition 10).

        Note that shortcut edges disconnected from their part are *legal*
        (they waste congestion but break nothing), so connectivity of the
        full augmented subgraph is deliberately not required.
        """
        part_set = self._part_set
        seen: set[int] = set()
        for index, members in part_set.iter_members():
            if not members:
                raise InvalidShortcutError(f"part {index} is empty")
            if not seen.isdisjoint(members):
                raise InvalidShortcutError("parts are not disjoint")
            seen.update(members)
            if not part_set.connected(index):
                raise InvalidShortcutError(f"part {index} is not connected")
        offsets, u, v = self._index_edges
        on_graph = part_set.view.core.has_edges(u, v)
        legal = on_graph & self._on_tree() if require_tree_restricted else on_graph
        if legal.all():
            return
        index = int(np.searchsorted(offsets, np.argmin(legal), side="right")) - 1
        start, end = int(offsets[index]), int(offsets[index + 1])
        node_of = part_set.view.nodes

        def first_illegal(mask: np.ndarray) -> Edge:
            edge = start + int(np.argmin(mask[start:end]))
            lo, hi = sorted((int(u[edge]), int(v[edge])))
            return node_of[lo], node_of[hi]

        if not on_graph[start:end].all():
            lo, hi = first_illegal(on_graph)
            raise InvalidShortcutError(
                f"shortcut edge ({lo}, {hi}) of part {index} is not a graph edge"
            )
        raise InvalidShortcutError(
            f"shortcut edge {first_illegal(legal)} of part {index} is not a tree edge "
            "(Definition 10 requires T-restriction)"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"Shortcut(constructor={self.constructor!r}, parts={self.num_parts}, "
            f"edges={len(self._index_edges.u)})"
        )
