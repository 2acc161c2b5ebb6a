"""Small shared helpers used throughout the :mod:`repro` package.

The helpers here are deliberately tiny and dependency-free (besides
``networkx``): canonical edge representation, deterministic RNG handling,
relabelling graphs to contiguous integers, a couple of frequently used
graph sanity checks, and the memo body (:func:`memoised`) behind the two
owners of the constructions' part-independent structure: the spanning tree
(:meth:`repro.structure.spanning.RootedTree.memo`) and the graph
(:func:`repro.core.graph_memo`).
"""

from __future__ import annotations

import math
import random
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence, TypeVar

import networkx as nx

from .errors import InvalidGraphError

Edge = tuple[Hashable, Hashable]
T = TypeVar("T")


def canonical_edge(u: Hashable, v: Hashable) -> Edge:
    """Return the canonical (order-independent) representation of an edge.

    All edge sets manipulated by the shortcut framework store undirected
    edges; using a single canonical form makes set membership checks and
    congestion counting unambiguous.
    """
    return (u, v) if repr(u) <= repr(v) else (v, u)


def canonical_edges(edges: Iterable[Edge]) -> frozenset[Edge]:
    """Canonicalise an iterable of undirected edges into a frozenset."""
    return frozenset(canonical_edge(u, v) for u, v in edges)


def ensure_rng(seed: int | random.Random | None) -> random.Random:
    """Return a :class:`random.Random` instance from a seed or pass one through.

    Every randomised generator in the package accepts ``seed`` as either an
    integer, ``None`` (fresh nondeterministic RNG) or an existing ``Random``
    instance, which makes composing generators deterministic and convenient.
    """
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def relabel_to_integers(graph: nx.Graph, first_label: int = 0) -> nx.Graph:
    """Relabel the nodes of ``graph`` to ``first_label .. first_label + n - 1``.

    The relabelling is deterministic: nodes are sorted by their ``repr`` so
    that repeated runs with the same input produce identical graphs.
    """
    ordered = sorted(graph.nodes(), key=repr)
    mapping = {node: first_label + index for index, node in enumerate(ordered)}
    return nx.relabel_nodes(graph, mapping, copy=True)


def require_connected(graph: nx.Graph, what: str = "graph") -> None:
    """Raise :class:`InvalidGraphError` unless ``graph`` is connected and non-empty."""
    if graph.number_of_nodes() == 0:
        raise InvalidGraphError(f"{what} is empty")
    if not nx.is_connected(graph):
        raise InvalidGraphError(f"{what} is not connected")


def require_simple(graph: nx.Graph, what: str = "graph") -> None:
    """Raise :class:`InvalidGraphError` if ``graph`` has self-loops.

    The CONGEST model (Section 1.3.1 of the paper) assumes networks without
    self-loops; parallel edges cannot be represented by :class:`nx.Graph`.
    """
    loops = list(nx.selfloop_edges(graph))
    if loops:
        raise InvalidGraphError(f"{what} has self-loops: {loops[:5]}")


def log2_ceil(value: int) -> int:
    """Return ``ceil(log2(value))`` with the convention ``log2_ceil(1) == 0``."""
    if value <= 0:
        raise ValueError("log2_ceil requires a positive argument")
    return max(0, math.ceil(math.log2(value)))


def pairs(items: Sequence[Hashable]) -> Iterator[tuple[Hashable, Hashable]]:
    """Yield all unordered pairs of a sequence (used for clique completion)."""
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            yield items[i], items[j]


def invert_mapping(mapping: Mapping[Hashable, Hashable]) -> dict[Hashable, set[Hashable]]:
    """Invert a many-to-one mapping into ``value -> set of keys``."""
    inverse: dict[Hashable, set[Hashable]] = {}
    for key, value in mapping.items():
        inverse.setdefault(value, set()).add(key)
    return inverse


def memoised(
    store: dict[tuple, tuple[tuple, object]],
    key: Hashable,
    sources: tuple,
    build: Callable[[], T],
) -> T:
    """Return ``build()``, memoised in ``store`` under ``key`` and ``sources``.

    The slot is ``key`` plus the ids of ``sources``; a later call is served
    only if the entry holds the very same source objects (``is``), so a
    recycled id never hands out another object's structure.  The entry
    keeps its sources alive for as long as ``store`` lives.
    """
    slot = (key, *map(id, sources))
    entry = store.get(slot)
    if entry is None or any(held is not given for held, given in zip(entry[0], sources)):
        entry = store[slot] = (sources, build())
    return entry[1]
