"""The seed shortcut measurements (Definitions 10-13), as free functions.

The oracle for :meth:`repro.shortcuts.shortcut.Shortcut.congestion`,
:meth:`~repro.shortcuts.shortcut.Shortcut.edge_congestion`,
:meth:`~repro.shortcuts.shortcut.Shortcut.is_tree_restricted`,
:meth:`~repro.shortcuts.shortcut.Shortcut.block_parameter`,
:meth:`~repro.shortcuts.shortcut.Shortcut.quality` and
:meth:`~repro.shortcuts.shortcut.Shortcut.measure`: congestion by a
per-edge dict walk, tree restriction by label subset tests against
``RootedTree.edge_set``, the block parameter by one ``nx.Graph`` +
``connected_components`` per part.
"""

from __future__ import annotations

from typing import Hashable

import networkx as nx

from repro.shortcuts.shortcut import Edge, Shortcut, ShortcutQuality


def edge_congestion(shortcut: Shortcut) -> dict[Edge, int]:
    """Definition 11 per edge: how many parts hold each edge, by a dict walk."""
    counts: dict[Edge, int] = {}
    for edges in shortcut.edge_sets:
        for edge in edges:
            counts[edge] = counts.get(edge, 0) + 1
    return counts


def congestion(shortcut: Shortcut) -> int:
    """Definition 11: max parts sharing one edge."""
    return max(edge_congestion(shortcut).values(), default=0)


def is_tree_restricted(shortcut: Shortcut) -> bool:
    """Definition 10: every shortcut edge is a label edge of the tree."""
    tree_edges = shortcut.tree.edge_set()
    return all(edges <= tree_edges for edges in shortcut.edge_sets)


def block_components(shortcut: Shortcut, index: int) -> list[set[Hashable]]:
    """Return the block components of part ``index`` (Definition 12).

    These are the connected components of the spanning subgraph
    ``(V, H_i)`` that contain at least one vertex of ``P_i``.  Vertices of
    ``P_i`` untouched by any shortcut edge each form a singleton block
    component, exactly as the definition prescribes.
    """
    part = shortcut.parts[index]
    subgraph = nx.Graph()
    subgraph.add_nodes_from(part)
    for u, v in shortcut.edge_sets[index]:
        subgraph.add_edge(u, v)
    components = []
    for component in nx.connected_components(subgraph):
        if component & part:
            components.append(set(component))
    return components


def block_parameter(shortcut: Shortcut) -> int:
    """Definition 12: max block components of any part (per-part nx components)."""
    return max(
        (len(block_components(shortcut, i)) for i in range(shortcut.num_parts)), default=0
    )


def quality(shortcut: Shortcut, tree_diameter: int | None = None) -> int:
    """Definition 13: ``b * d + c``."""
    d = tree_diameter if tree_diameter is not None else shortcut.tree_diameter()
    return block_parameter(shortcut) * d + congestion(shortcut)


def measure(shortcut: Shortcut) -> ShortcutQuality:
    """The full measured summary.

    The tree diameter is the shortcut's memoised one, as in the production
    :meth:`~repro.shortcuts.shortcut.Shortcut.measure`; it is not part of
    the comparison.
    """
    c = congestion(shortcut)
    block = block_parameter(shortcut)
    d = shortcut.tree_diameter()
    return ShortcutQuality(
        congestion=c,
        block=block,
        tree_diameter=d,
        quality=block * d + c,
        num_parts=shortcut.num_parts,
        total_shortcut_edges=sum(len(edges) for edges in shortcut.edge_sets),
    )
