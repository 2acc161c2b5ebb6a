"""The seed cell and gate validators and tree contraction (label-keyed ``nx``).

The oracle for :meth:`repro.structure.cells.CellPartition.validate` and
:func:`repro.structure.gates.validate_gates`: both must accept and reject
exactly the same inputs, with the same first violation.  :func:`contract_to`
is the seed :meth:`repro.structure.spanning.RootedTree.contract_to`, which
built the tree and its quotient as ``nx.Graph`` objects.
"""

from __future__ import annotations

from typing import Hashable

import networkx as nx

from repro.errors import InvalidGraphError, InvalidPartitionError
from repro.structure.cells import CellPartition
from repro.structure.gates import GateCollection
from repro.structure.spanning import RootedTree, bfs_spanning_tree


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
