"""The seed structure layer: spanning trees, diameters, tree validation, tree
fragments, cells, gates and tree contraction (label-keyed ``nx``).

* :func:`bfs_spanning_tree`, :func:`graph_diameter`, :func:`validate_tree`
  -- the seed ``nx`` bodies of :func:`repro.structure.spanning.bfs_spanning_tree`
  (repr-sorted neighbour scan), :func:`repro.structure.spanning.graph_diameter`
  (``nx.diameter``; above the exact threshold a double sweep whose far
  vertex is the repr-smallest at maximum distance) and
  :meth:`repro.structure.spanning.RootedTree.validate` (on ``as_graph()``).
  The production versions run on the CSR kernel of ``view_of(graph)``.
* :func:`tree_fragment_parts`, :func:`singleton_parts` -- the seed part
  generators of :mod:`repro.shortcuts.parts`: ``nx.connected_components``
  of the cut tree, and a repr sort of the vertex labels.
* :func:`steiner_tree_edges` -- the seed
  :meth:`repro.structure.spanning.RootedTree.steiner_tree_edges`: the union
  of the terminals' root paths, pruned of non-terminal leaves by a
  degree-count worklist (production walks down from the root once).
* :func:`validate_cells`, :func:`validate_gates` -- the oracles for
  :meth:`repro.structure.cells.CellPartition.validate` and
  :func:`repro.structure.gates.validate_gates`: both must accept and reject
  exactly the same inputs, with the same first violation.
* :func:`contract_to` -- the seed
  :meth:`repro.structure.spanning.RootedTree.contract_to`, which built the
  tree and its quotient as ``nx.Graph`` objects.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Hashable

import networkx as nx

from repro.errors import InvalidGraphError, InvalidPartitionError
from repro.structure.cells import CellPartition
from repro.structure.gates import GateCollection
from repro.structure.spanning import RootedTree
from repro.utils import canonical_edge, ensure_rng, require_connected


def bfs_spanning_tree(graph: nx.Graph, root: Hashable | None = None) -> RootedTree:
    """BFS from ``root`` (default: repr-smallest) over repr-sorted neighbours."""
    require_connected(graph, "graph")
    if root is None:
        root = min(graph.nodes(), key=repr)
    if root not in graph:
        raise InvalidGraphError(f"root {root} is not in the graph")
    parent: dict[Hashable, Hashable | None] = {root: None}
    queue: deque[Hashable] = deque([root])
    while queue:
        node = queue.popleft()
        for neighbour in sorted(graph.neighbors(node), key=repr):
            if neighbour not in parent:
                parent[neighbour] = node
                queue.append(neighbour)
    return RootedTree(parent, root)


def graph_diameter(graph: nx.Graph, exact_threshold: int = 400) -> int:
    """``nx.diameter`` up to ``exact_threshold`` nodes, a double sweep above."""
    require_connected(graph, "graph")
    if graph.number_of_nodes() <= exact_threshold:
        return nx.diameter(graph)
    start = min(graph.nodes(), key=repr)
    lengths = nx.single_source_shortest_path_length(graph, start)
    # Far-vertex tie-break: the repr-smallest vertex at maximum distance.
    eccentricity = max(lengths.values())
    far = min((v for v, d in lengths.items() if d == eccentricity), key=repr)
    return max(nx.single_source_shortest_path_length(graph, far).values())


def validate_tree(tree: RootedTree, graph: nx.Graph | None = None) -> None:
    """Edge count and connectivity of ``tree.as_graph()``, then spanning ``graph``."""
    tree_graph = tree.as_graph()
    if tree_graph.number_of_edges() != tree_graph.number_of_nodes() - 1:
        raise InvalidGraphError("rooted tree has the wrong number of edges")
    if not nx.is_connected(tree_graph):
        raise InvalidGraphError("rooted tree is not connected")
    if graph is not None:
        if set(tree_graph.nodes()) != set(graph.nodes()):
            raise InvalidGraphError("tree does not span the graph's vertex set")
        for u, v in tree_graph.edges():
            if not graph.has_edge(u, v):
                raise InvalidGraphError(f"tree edge ({u}, {v}) is not a graph edge")


def tree_fragment_parts(
    graph: nx.Graph,
    tree: RootedTree | None = None,
    num_parts: int = 8,
    seed: int | random.Random | None = None,
) -> list[frozenset]:
    """Cut ``num_parts - 1`` sampled tree edges; the forest's components.

    The seed body without its closing ``validate_parts`` call: the
    components of a spanning forest are valid parts by construction.
    """
    rng = ensure_rng(seed)
    tree = tree if tree is not None else bfs_spanning_tree(graph)
    edges = sorted(tree.edges())
    if num_parts < 1:
        raise InvalidPartitionError("num_parts must be positive")
    cuts = min(num_parts - 1, len(edges))
    removed = rng.sample(edges, cuts) if cuts else []
    forest = tree.as_graph()
    forest.remove_edges_from(removed)
    parts = [frozenset(component) for component in nx.connected_components(forest)]
    parts.sort(key=lambda part: min(map(repr, part)))
    return parts


def singleton_parts(graph: nx.Graph) -> list[frozenset]:
    """One singleton part per vertex, in repr order."""
    return [frozenset({v}) for v in sorted(graph.nodes(), key=repr)]


def steiner_tree_edges(tree: RootedTree, terminals) -> set[tuple]:
    """Union of the terminals' root paths, pruned of non-terminal leaves."""
    terminal_set = set(terminals)
    if not terminal_set:
        return set()
    for t in terminal_set:
        if t not in tree.parent:
            raise InvalidGraphError(f"terminal {t} is not a node of the tree")
    # Union of root paths.
    marked: set[Hashable] = set()
    for t in terminal_set:
        node = t
        while node is not None and node not in marked:
            marked.add(node)
            node = tree.parent[node]
    # Prune non-terminal leaves of the marked subtree with a degree-count
    # worklist.
    degree: dict[Hashable, int] = {node: 0 for node in marked}
    for node in marked:
        par = tree.parent[node]
        if par is not None and par in marked:
            degree[node] += 1
            degree[par] += 1
    removed: set[Hashable] = set()
    worklist = [
        node for node, deg in degree.items() if deg <= 1 and node not in terminal_set
    ]
    while worklist:
        node = worklist.pop()
        if node in removed or degree[node] > 1 or node in terminal_set:
            continue
        removed.add(node)
        par = tree.parent[node]
        neighbours = [par] if par is not None and par in marked else []
        neighbours.extend(child for child in tree.children[node] if child in marked)
        for neighbour in neighbours:
            if neighbour in removed:
                continue
            degree[neighbour] -= 1
            if degree[neighbour] <= 1 and neighbour not in terminal_set:
                worklist.append(neighbour)
    kept = marked - removed
    return {
        canonical_edge(node, tree.parent[node])
        for node in kept
        if tree.parent[node] is not None and tree.parent[node] in kept
    }


def validate_cells(
    partition: CellPartition, graph: nx.Graph, require_cover: bool = False
) -> None:
    """Disjointness, per-cell ``subgraph`` + ``is_connected`` and optional coverage."""
    seen: set[Hashable] = set()
    for index, cell in enumerate(partition.cells):
        if not cell:
            raise InvalidPartitionError(f"cell {index} is empty")
        overlap = seen & cell
        if overlap:
            raise InvalidPartitionError(
                f"cells overlap on vertices {sorted(overlap, key=repr)[:5]}"
            )
        seen |= cell
        missing = cell - set(graph.nodes())
        if missing:
            raise InvalidPartitionError(
                f"cell {index} contains non-graph vertices {sorted(missing, key=repr)[:5]}"
            )
        if not nx.is_connected(graph.subgraph(cell)):
            raise InvalidPartitionError(f"cell {index} is not connected in the graph")
    if require_cover and seen != set(graph.nodes()):
        raise InvalidPartitionError("cells do not cover the vertex set")


def validate_gates(graph: nx.Graph, collection: GateCollection) -> float:
    """Properties (1)-(5) of Definition 17 on label-keyed dicts; returns the measured ``s``."""
    partition = collection.partition
    cell_of = partition.cell_of()

    for index, gate_pair in enumerate(collection.gates):
        fence, gate = gate_pair.fence, gate_pair.gate
        # Property 1 is enforced by the CombinatorialGate constructor.
        # Property 2: the boundary of the gate is contained in the fence.
        for vertex in gate:
            if vertex not in graph:
                raise InvalidPartitionError(f"gate {index} contains non-graph vertex {vertex}")
            on_boundary = any(neighbour not in gate for neighbour in graph.neighbors(vertex))
            if on_boundary and vertex not in fence:
                raise InvalidPartitionError(
                    f"gate {index}: boundary vertex {vertex} is not in the fence (property 2)"
                )
        # Property 4: the gate intersects at most two cells.
        touched = {cell_of[v] for v in gate if v in cell_of}
        if len(touched) > 2:
            raise InvalidPartitionError(
                f"gate {index} intersects {len(touched)} cells (property 4 allows 2)"
            )

    # Property 3: every inter-cell edge is covered by some gate.
    for u, v in graph.edges():
        cu, cv = cell_of.get(u), cell_of.get(v)
        if cu is None or cv is None or cu == cv:
            continue
        if not any(u in gate.gate and v in gate.gate for gate in collection.gates):
            raise InvalidPartitionError(
                f"inter-cell edge ({u}, {v}) is covered by no gate (property 3)"
            )

    # Property 5: non-fence gate vertices are globally disjoint.
    owner: dict[Hashable, int] = {}
    for index, gate_pair in enumerate(collection.gates):
        for vertex in gate_pair.gate - gate_pair.fence:
            if vertex in owner:
                raise InvalidPartitionError(
                    f"vertex {vertex} is a non-fence member of gates {owner[vertex]} and "
                    f"{index} (property 5)"
                )
            owner[vertex] = index

    return collection.measured_s()


def contract_to(tree: RootedTree, keep) -> RootedTree:
    """The seed contraction minor of ``tree`` on ``keep`` (Theorem 7's ``T^2``)."""
    keep_set = set(keep)
    if not keep_set:
        raise InvalidGraphError("cannot contract a tree onto an empty vertex set")
    missing = keep_set - tree.nodes
    if missing:
        raise InvalidGraphError(f"vertices {sorted(missing, key=repr)[:5]} are not tree nodes")
    tree_graph = tree.as_graph()
    outside = tree.nodes - keep_set
    # Map each outside component to a representative kept neighbour.
    component_of: dict[Hashable, int] = {}
    components: list[set[Hashable]] = []
    for node in outside:
        if node in component_of:
            continue
        component: set[Hashable] = set()
        stack = [node]
        while stack:
            current = stack.pop()
            if current in component or current not in outside:
                continue
            component.add(current)
            component_of[current] = len(components)
            stack.extend(n for n in tree_graph.neighbors(current) if n in outside)
        components.append(component)

    quotient = nx.Graph()
    quotient.add_nodes_from(keep_set)
    component_border: dict[int, set[Hashable]] = {i: set() for i in range(len(components))}
    for u, v in tree_graph.edges():
        u_in, v_in = u in keep_set, v in keep_set
        if u_in and v_in:
            quotient.add_edge(u, v)
        elif u_in and not v_in:
            component_border[component_of[v]].add(u)
        elif v_in and not u_in:
            component_border[component_of[u]].add(v)
    for border in component_border.values():
        if not border:
            continue
        anchor = min(border, key=repr)
        for other in border:
            if other != anchor:
                quotient.add_edge(anchor, other)
    if not nx.is_connected(quotient):
        raise InvalidGraphError("contraction produced a disconnected quotient tree")
    root = min(keep_set, key=repr)
    return bfs_spanning_tree(quotient, root=root)
