"""The :class:`PartSet` adapter: an int-indexed view of a part family.

Parts (Definition 9) and cells (Definition 14) are handed around the package
as collections of label ``frozenset``\\ s, which is the right interface for
generators and witnesses but a poor substrate for hot loops: every
measurement or validation pass used to re-map each member label through the
:class:`~repro.core.view.GraphView` bijection, one dict lookup per vertex
per pass.

A :class:`PartSet` performs that mapping **once**: the member indices of all
parts live in one flat ``members`` array sliced by ``offsets`` (the same CSR
idiom as :class:`~repro.core.graph.CoreGraph`), with derived structures --
an owner array (vertex index -> part index) and per-part CSR connectivity
checks -- computed on demand and cached.  :func:`part_set_of` memoises part sets per
``(GraphView, parts)`` pair (weakly in the view, by value in the parts), so
a budget sweep, a quality measurement and a validation pass over the same
part family all share one conversion.  :func:`validate_parts` is the one
Definition 9 check, for part families and cell partitions alike.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from ..errors import InvalidPartitionError
from .view import GraphView, view_of


class PartSet:
    """Flat int-indexed view of a part family over one :class:`GraphView`.

    Attributes:
        view: the graph view the member indices refer to.
        parts: the original label frozensets (kept for round-tripping).
        offsets: CSR row pointers into ``members`` (length ``num_parts + 1``).
        members: concatenated member indices, each part's slice sorted
            ascending (index order == canonical repr order).
    """

    __slots__ = (
        "view",
        "_parts",
        "offsets",
        "members",
        "_owner",
        "_member_stamp",
        "_seen_stamp",
        "_epoch",
        "__weakref__",
    )

    def __init__(self, view: GraphView, parts: Sequence[frozenset]) -> None:
        self.view = view
        self._parts: list[frozenset] | None = [
            part if isinstance(part, frozenset) else frozenset(part) for part in parts
        ]
        index_of = view.index_of
        offsets = [0]
        members: list[int] = []
        for part in self._parts:
            try:
                members.extend(sorted(index_of(node) for node in part))
            except KeyError as error:
                raise InvalidPartitionError(
                    f"part {len(offsets) - 1} contains non-graph vertex {error.args[0]!r}"
                ) from None
            offsets.append(len(members))
        self.offsets = offsets
        self.members = members
        self._owner: list[int] | None = None
        # Epoch-stamped scratch arrays for the per-part connectivity BFS,
        # allocated on first use: part sets are cached per view for its whole
        # lifetime, and many families (e.g. the per-phase Boruvka fragments)
        # never ask for connectivity.
        self._member_stamp: list[int] | None = None
        self._seen_stamp: list[int] | None = None
        self._epoch = 0

    @classmethod
    def from_member_lists(
        cls, view: GraphView, member_lists: Sequence[Sequence[int]]
    ) -> "PartSet":
        """Build a part set directly from per-part vertex *index* lists.

        This is the construction boundary of the array-native algorithm
        layer: the Boruvka fast path keeps its fragments as flat index lists
        and never owns label frozensets -- the label :attr:`parts` of the
        returned set are derived lazily (:meth:`label_parts`) and only if a
        label-space consumer (a structural shortcut constructor, a
        validator) actually asks.  Each member list must be ascending, as
        the label path's ``sorted(index_of(node) ...)`` is and as
        :func:`repro.core.fragments.fragments` returns them, and its indices
        valid for ``view`` (the caller's contract -- no sort and no
        validation pass).
        """
        part_set = cls.__new__(cls)
        part_set.view = view
        part_set._parts = None
        offsets = [0]
        members: list[int] = []
        for member_list in member_lists:
            members.extend(member_list)
            offsets.append(len(members))
        part_set.offsets = offsets
        part_set.members = members
        part_set._owner = None
        part_set._member_stamp = None
        part_set._seen_stamp = None
        part_set._epoch = 0
        return part_set

    # -- basic accessors ---------------------------------------------------

    @property
    def parts(self) -> list[frozenset]:
        """The label frozensets of the family (derived lazily from indices)."""
        return self.label_parts()

    def label_parts(self) -> list[frozenset]:
        """Return (and cache) the parts as label frozensets.

        For part sets built from label parts this is the original input; for
        :meth:`from_member_lists` sets the labels are materialised on first
        call -- the array-native algorithm layer never triggers it on its
        hot path.
        """
        if self._parts is None:
            node_of = self.view.nodes
            self._parts = [
                frozenset(node_of[member] for member in members)
                for _, members in self.iter_members()
            ]
        return self._parts

    @property
    def num_parts(self) -> int:
        return len(self.offsets) - 1

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def members_of(self, part_index: int) -> list[int]:
        """Return the member indices of one part (ascending)."""
        return self.members[self.offsets[part_index] : self.offsets[part_index + 1]]

    def iter_members(self) -> Iterable[tuple[int, list[int]]]:
        """Yield ``(part_index, member_indices)`` for every part."""
        for part_index in range(len(self.offsets) - 1):
            yield part_index, self.members_of(part_index)

    # -- derived structures ------------------------------------------------

    def owner_array(self) -> list[int]:
        """Return the vertex-index -> part-index map (``-1`` for uncovered).

        For overlapping inputs the highest part index wins; disjointness is
        the caller's contract (:func:`validate_parts`, which serves parts and
        cells alike, checks it in label space, where the error message can
        name vertices).
        """
        if self._owner is None:
            owner = [-1] * len(self.view)
            for part_index, members in self.iter_members():
                for member in members:
                    owner[member] = part_index
            self._owner = owner
        return self._owner

    def connected(self, part_index: int) -> bool:
        """Return True iff the part induces a connected subgraph (CSR BFS).

        Runs on the flat adjacency of the underlying :class:`CoreGraph`,
        restricted to the part via an epoch-stamped membership array -- no
        per-part set or subgraph is materialised.
        """
        members = self.members_of(part_index)
        if not members:
            return True
        if self._member_stamp is None:
            self._member_stamp = [0] * len(self.view)
            self._seen_stamp = [0] * len(self.view)
        self._epoch += 1
        epoch = self._epoch
        member_stamp, seen_stamp = self._member_stamp, self._seen_stamp
        for member in members:
            member_stamp[member] = epoch
        indptr, indices, _ = self.view.core.lists
        start = members[0]
        seen_stamp[start] = epoch
        stack = [start]
        reached = 1
        while stack:
            u = stack.pop()
            for offset in range(indptr[u], indptr[u + 1]):
                v = indices[offset]
                if member_stamp[v] == epoch and seen_stamp[v] != epoch:
                    seen_stamp[v] = epoch
                    stack.append(v)
                    reached += 1
        return reached == len(members)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"PartSet(parts={self.num_parts}, members={len(self.members)})"


def part_set_of(graph, parts: Sequence[frozenset]) -> PartSet:
    """Return the memoised :class:`PartSet` of ``parts`` over ``graph``.

    ``graph`` may be an ``nx.Graph`` or a :class:`GraphView`; the view is
    resolved through :func:`view_of` so everything shares one conversion.

    The memo lives *on the view* (``GraphView._part_sets``), keyed by the
    part family's value (tuple of frozensets; frozensets cache their hash,
    so repeat lookups are cheap and families that are equal but not
    identical -- e.g. parts rebuilt per Boruvka phase from the same
    fragments -- still share one conversion).  Dropping the view therefore
    drops its part sets; a global cache keyed by the view would pin the
    view (and its CSR arrays) for the process lifetime, since every
    :class:`PartSet` references its view.
    """
    view = view_of(graph)
    per_view = view._part_sets
    key = tuple(part if isinstance(part, frozenset) else frozenset(part) for part in parts)
    part_set = per_view.get(key)
    if part_set is None:
        part_set = per_view[key] = PartSet(view, key)
    return part_set


def validate_parts(
    graph,
    parts: Sequence[frozenset],
    noun: str = "part",
    disconnected: str = "(Definition 9)",
) -> None:
    """Check Definition 9: parts are disjoint, non-empty and connected in ``graph``.

    The one check for part families and for cells (Definition 14, which
    :meth:`repro.structure.cells.CellPartition.validate` words with
    ``noun="cell"`` and ``disconnected="in the graph"``).  ``graph`` may be
    an ``nx.Graph`` or a :class:`GraphView`; the check runs on
    ``view_of(graph)`` and never materialises an ``nx.Graph``.

    It reports the first violation in part order, as a per-part
    ``subgraph`` + ``is_connected`` loop would, in two passes: the label
    checks (empty, overlap, non-graph vertex) run up to the first part that
    fails one, then :meth:`PartSet.connected` runs on the parts before it
    (the whole family's memoised part set when none fails), and only then
    is the failing part's error raised.
    """
    view = view_of(graph)
    index = view._index
    seen: set[Hashable] = set()
    error = None
    checked = len(parts)
    for position, part in enumerate(parts):
        part = set(part)
        overlap = seen & part
        missing = [node for node in part if node not in index]
        if not part:
            error = f"{noun} {position} is empty"
        elif overlap:
            error = f"{noun}s overlap on vertices {sorted(overlap, key=repr)[:5]}"
        elif missing:
            missing.sort(key=repr)
            error = f"{noun} {position} contains non-graph vertices {missing[:5]}"
        if error is not None:
            checked = position
            break
        seen |= part
    part_set = part_set_of(view, parts[:checked])
    for position in range(checked):
        if not part_set.connected(position):
            raise InvalidPartitionError(f"{noun} {position} is not connected {disconnected}")
    if error is not None:
        raise InvalidPartitionError(error)
