"""``repro.core``: the CSR-backed graph kernel under the whole reproduction.

Three classes and three caches:

* :class:`CoreGraph` -- immutable int-indexed CSR adjacency (numpy
  ``indptr`` / ``indices`` / ``weights`` arrays, one vectorised assembly,
  a cached Python-list copy for per-node loops) with BFS, eccentricity,
  diameter and connectivity primitives on ``scipy.sparse.csgraph``;
* :class:`GraphView` -- the label <-> index adapter that converts an
  ``nx.Graph`` once at the construction boundary and can round-trip back;
* :class:`PartSet` -- the int-indexed view of a part/cell family (flat
  member/offset arrays, owner array, CSR connectivity, per-part sorted
  Euler-tour ``tin`` views);
* :func:`view_of` / :func:`part_set_of` -- the memoised conversions every
  layer shares (one per graph, one per (view, part family));
* :func:`graph_memo` -- the memo on the graph that keeps what the shortcut
  constructions derive from a graph and its witness, for every spanning tree;
* :func:`validate_parts` -- the one Definition 9 check, for parts and cells.

The traversal layer (``repro.structure``), the quality measurements
(``repro.shortcuts.shortcut``), the shortcut construction engine
(``repro.shortcuts.engine``) and the CONGEST simulator
(``repro.congest.simulator``) all accept a :class:`GraphView` and run on
the CSR arrays; ``networkx`` remains the generator/witness frontend.
"""

from .graph import CoreGraph
from .partset import PartSet, part_set_of, validate_parts
from .view import GraphView, graph_memo, nx_materializations, view_of

__all__ = [
    "CoreGraph",
    "GraphView",
    "PartSet",
    "graph_memo",
    "nx_materializations",
    "part_set_of",
    "validate_parts",
    "view_of",
]
