"""The :class:`GraphView` adapter: labels on the outside, CSR on the inside.

Every algorithm in the reproduction historically consumed ``nx.Graph``
objects with arbitrary hashable node labels (grid coordinates, strings,
tuples).  :class:`GraphView` performs that conversion **once** at the
construction boundary: it relabels the nodes to ``0 .. n-1`` (in the
package-wide canonical order, sorted by ``repr``), builds the CSR
:class:`~repro.core.graph.CoreGraph`, and keeps the ``node_of`` /
``index_of`` bijection so results computed on indices can be handed back in
label form.  :func:`to_networkx` round-trips the view back into a
standalone ``nx.Graph`` with the original labels and edge weights.

:func:`view_of` memoises views per ``nx.Graph`` object -- the view is
stored on the graph itself, so graph and view share one lifetime and
neither outlives the other: a scenario sweep running several constructors
and algorithms over one instance pays for a single conversion, and
dropping the graph frees the view (and its CSR arrays) with it.

The canonical repr-sorted order is load-bearing: index order then coincides
with the ``sorted(..., key=repr)`` tie-breaking used throughout the
``networkx`` code paths, which is what lets the CSR fast paths reproduce
their results *exactly* (the differential tests in
``tests/test_core_graphview.py`` pin this).  Two labels with one ``repr``
would leave that order to insertion order, so a view refuses them.

:func:`graph_memo` keeps, beside the view, the structures the shortcut
constructions derive from the graph and its witness alone (the planarity
verdict, tree and clique-sum decompositions, folded decomposition trees,
completed bag graphs), so every spanning tree of one graph shares them.

The canonical *edge* order is index-pair order: an undirected edge is
``(lo, hi)`` with ``lo < hi``, edges compare as ``(lo, hi)`` tuples (as an
int key, ``lo * n + hi``), and directed edges as ``(u, v)``.  For int,
str and int-tuple labels this is the order of the repr strings
``"(repr(u), repr(v))"`` the label code paths sort by: no such label
repr is a proper prefix of another one that continues with a character
below ``,``.  The aggregation scheduler and Boruvka's MWOE tie-break use it.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Hashable, TypeVar

import networkx as nx

from ..errors import InvalidGraphError
from ..utils import memoised
from .graph import CoreGraph

T = TypeVar("T")

# The edge-weight attribute name, kept in sync with
# ``repro.graphs.weights.WEIGHT``.  Imported lazily in ``__init__`` rather
# than at module level: ``repro.graphs`` imports ``repro.core`` (for the
# native generators), so a module-level import here would be circular.


class GraphView:
    """A one-time conversion of an ``nx.Graph`` into an int-indexed CSR kernel.

    Attributes:
        graph: the source ``nx.Graph``.  For views built from an existing
            graph this is that graph (kept by reference, never copied); for
            views built natively via :meth:`from_core` it is a *lazy
            adapter* -- the ``nx.Graph`` is materialised on first access
            (and counted, see :func:`nx_materializations`), so CSR-native
            pipelines that never touch ``.graph`` never build one.
        core: the :class:`CoreGraph` over indices ``0 .. n-1``.
        nodes: the label of every index, i.e. ``nodes[i]`` is the node whose
            index is ``i``; sorted by ``repr`` so that index order equals
            the package's canonical node order, and index-pair order the
            canonical edge order.
    """

    __slots__ = (
        "_graph",
        "core",
        "nodes",
        "_index",
        "_has_weights",
        "_part_sets",
        "__weakref__",
    )

    def __init__(self, graph: nx.Graph) -> None:
        from ..graphs.weights import WEIGHT

        # One repr per label: the canonical order sorts them, and a repr two
        # labels share would leave that order to insertion order.
        reprs = list(map(repr, graph))
        by_repr = dict(zip(reprs, graph))
        if len(by_repr) != len(reprs):
            clash = next(text for text, count in Counter(reprs).items() if count > 1)
            raise InvalidGraphError(
                f"two node labels share the repr {clash}, so their canonical order "
                "is undefined; relabel the graph"
            )
        reprs.sort()
        labels = list(map(by_repr.__getitem__, reprs))
        index: dict[Hashable, int] = {label: i for i, label in enumerate(labels)}
        for u, v in nx.selfloop_edges(graph):
            raise InvalidGraphError(f"GraphView rejects self-loop ({u}, {v})")
        edges = list(graph.edges(data=WEIGHT))
        has_weights = any(weight is not None for _, _, weight in edges)
        self._graph = graph
        self.nodes = labels
        self._index = index
        self._has_weights = has_weights
        # Per-view memo of int-indexed part families, managed by
        # repro.core.partset.part_set_of.  Living on the view (rather than in
        # a global cache keyed by it) ties each PartSet's lifetime to its
        # view's: a cache entry referencing the view would keep a weakly-keyed
        # view alive forever.
        self._part_sets: dict = {}
        self.core = CoreGraph.from_edges(
            len(labels),
            [index[u] for u, _, _ in edges],
            [index[v] for _, v, _ in edges],
            [1.0 if weight is None else weight for _, _, weight in edges],
        )

    @classmethod
    def from_core(
        cls,
        core: CoreGraph,
        nodes: list[Hashable] | None = None,
        has_weights: bool = False,
    ) -> "GraphView":
        """Wrap an already-built :class:`CoreGraph` in a view, nx-free.

        This is the native-generator entry point: the CSR arrays are the
        *primary* representation and ``networkx`` becomes an on-demand
        adapter -- ``view.graph`` materialises an ``nx.Graph`` lazily on
        first access (incrementing :func:`nx_materializations`).

        Args:
            core: the CSR graph over indices ``0 .. n-1``.
            nodes: the label of every index, already in the package-wide
                canonical order (sorted by ``repr``); defaults to
                ``list(range(n))`` *only when that is canonical* (n <= 10,
                where integer order and repr order coincide) -- native
                generators at scale must supply the permuted labels.
            has_weights: whether the weights are explicit (round-tripped to
                ``weight`` attributes on materialisation) or implicit units.
        """
        if nodes is None:
            if core.num_nodes > 10:
                raise InvalidGraphError(
                    "from_core needs explicit labels for n > 10 (repr order "
                    "of integers differs from numeric order)"
                )
            nodes = list(range(core.num_nodes))
        if len(nodes) != core.num_nodes:
            raise InvalidGraphError("from_core: label list does not match vertex count")
        view = cls.__new__(cls)
        view._graph = None
        view.core = core
        view.nodes = list(nodes)
        view._index = {label: i for i, label in enumerate(view.nodes)}
        if len(view._index) != len(view.nodes):
            raise InvalidGraphError("from_core: duplicate node labels")
        view._has_weights = has_weights
        view._part_sets = {}
        return view

    @property
    def graph(self) -> nx.Graph:
        """The ``nx.Graph`` behind the view, materialised on demand.

        Views built from an ``nx.Graph`` return it unchanged; native views
        build it (once) through :meth:`to_networkx` and memoise it, wiring
        the ``view_of`` back-pointer so ``view_of(view.graph) is view``.
        """
        if self._graph is None:
            rebuilt = self.to_networkx()
            setattr(rebuilt, _VIEW_ATTR, self)
            self._graph = rebuilt
        return self._graph

    @property
    def has_weights(self) -> bool:
        """Whether the edges carry explicit weights (vs. implicit units)."""
        return self._has_weights

    # -- the bijection -----------------------------------------------------

    def index_of(self, node: Hashable) -> int:
        """Return the index of a node label (raises ``KeyError`` if absent)."""
        return self._index[node]

    def node_of(self, index: int) -> Hashable:
        """Return the label of an index."""
        return self.nodes[index]

    def __contains__(self, node: Hashable) -> bool:
        return node in self._index

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def number_of_nodes(self) -> int:
        return self.core.num_nodes

    @property
    def number_of_edges(self) -> int:
        return self.core.num_edges

    # -- round trip --------------------------------------------------------

    def to_networkx(self) -> nx.Graph:
        """Rebuild a standalone ``nx.Graph`` from the arrays.

        Labels come back verbatim; edge weights are re-attached whenever the
        source graph carried any explicit ``weight`` attribute (a graph that
        had none round-trips to a graph with none, so unit-weight semantics
        are preserved either way).

        Every call increments the package-wide materialisation counter
        (:func:`nx_materializations`): the scale tests assert the counter
        stays flat across the native million-node pipeline, which is the
        executable form of the "nx is an on-demand adapter" contract.
        """
        global _NX_MATERIALIZATIONS
        _NX_MATERIALIZATIONS += 1
        rebuilt = nx.Graph()
        rebuilt.add_nodes_from(self.nodes)
        node_of = self.nodes
        if self._has_weights:
            rebuilt.add_weighted_edges_from(
                (node_of[u], node_of[v], weight) for u, v, weight in self.core.edges()
            )
        else:
            rebuilt.add_edges_from(
                (node_of[u], node_of[v]) for u, v, _weight in self.core.edges()
            )
        return rebuilt

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"GraphView(n={self.number_of_nodes}, m={self.number_of_edges})"


# One shared conversion per nx.Graph object.  The memo lives *on the graph
# itself* (a plain instance attribute): the earlier weakly-keyed module cache
# leaked every entry, because its value (the GraphView) strongly references
# its key (the graph), so no viewed graph was ever collected.  Storing the
# view on the graph makes the pair a plain reference cycle that the garbage
# collector reclaims as one unit when the graph is dropped -- the same
# lifetime discipline as ``GraphView._part_sets``.  Graphs are treated as
# frozen once viewed -- every caller in this package mutates weights *before*
# deriving structures, and the scenario layer documents the convention.  The
# simulator, the structure layer (BFS trees, diameters, tree validation, part
# generators) and the algorithms all view their nx input here, so a graph
# whose topology changes must be copied first (``graph.copy()`` carries no
# view).  A changed vertex count is caught on the next view_of; a changed
# edge set is not (nx has no O(1) edge count).
_VIEW_ATTR = "_repro_graph_view"

# The graph memo (graph_memo), beside the view and with the same lifetime:
# a plain dict on the graph, so an entry that references the graph forms a
# reference cycle the collector reclaims with it.
_MEMO_ATTR = "_repro_graph_memo"

# Running count of nx.Graph materialisations performed by the adapter
# (GraphView.to_networkx, including lazy ``view.graph`` accesses).  The
# tier-1 scale smoke test and the S7 gate take a delta around the native
# pipeline and assert it is zero.
_NX_MATERIALIZATIONS = 0


def nx_materializations() -> int:
    """Return the number of ``nx.Graph``s built by the adapter so far.

    A monotone counter; callers interested in "did *this* code path touch
    networkx?" record the value before and after and compare deltas.
    """
    return _NX_MATERIALIZATIONS


def view_of(graph: nx.Graph | GraphView) -> GraphView:
    """Return the memoised :class:`GraphView` of ``graph`` (build it once).

    Accepts an existing view and returns it unchanged, so code that wants
    "a view of whatever I was given" can call this unconditionally.

    Raises:
        InvalidGraphError: vertices were added to or removed from ``graph``
            since it was viewed.  An edge-only change goes unnoticed:
            ``nx.Graph`` counts its edges in linear time, so the memo checks
            the vertex count only.
    """
    if isinstance(graph, GraphView):
        return graph
    view = getattr(graph, _VIEW_ATTR, None)
    if view is None:
        view = GraphView(graph)
        setattr(graph, _VIEW_ATTR, view)
    elif len(graph) != len(view):
        raise InvalidGraphError("graph changed after it was viewed; copy it first")
    return view


def graph_memo(graph: nx.Graph, key: Hashable, sources: tuple, build: Callable[[], T]) -> T:
    """Return the structure ``build()`` derives from ``graph`` and ``sources``.

    Built on the first call and memoised on the graph itself, next to its
    :func:`view_of` view, under ``key`` and the ids of ``sources``
    (:func:`repro.utils.memoised`: a later call is served only if the entry
    holds the very same source objects).  This is the owner of what a
    shortcut construction reads from the graph and its witness but not from
    the spanning tree, which :meth:`repro.structure.spanning.RootedTree.memo`
    holds: an MST run builds its own tree, while the graph and its witness
    are shared by every run over one instance.  Like the view, an entry
    assumes the graph is frozen once memoised; ``graph.copy()`` carries no
    memo.
    """
    store = getattr(graph, _MEMO_ATTR, None)
    if store is None:
        store = {}
        setattr(graph, _MEMO_ATTR, store)
    return memoised(store, key, sources, build)
