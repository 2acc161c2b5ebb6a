"""k-clique-sums and clique-sum decomposition trees (Definitions 1 and 8).

The Graph Structure Theorem expresses every ``H``-free graph as a
``k``-clique-sum of ``k``-almost-embeddable graphs.  The paper never computes
this decomposition for an arbitrary input graph (no efficient distributed --
or even sub-cubic centralised -- algorithm is known); instead it only needs
the decomposition to *exist*.  We mirror that stance: the generator in this
module **composes** graphs by k-clique-sums and records the decomposition
tree as it goes, so every generated graph comes with a certified witness that
the structure-aware shortcut constructors of Section 2.2 can consume.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Sequence

import networkx as nx

from ..errors import InvalidDecompositionError, InvalidGraphError
from ..utils import ensure_rng, pairs
from .apex_vortex import AlmostEmbeddableGraph, VortexWitness


@dataclass(frozen=True)
class Bag:
    """One bag ``B_i`` of a clique-sum decomposition tree.

    Attributes:
        index: the bag's identifier (a node of the decomposition tree).
        nodes: the vertices of the final composed graph belonging to this bag.
        kind: a tag describing which graph family the bag was drawn from
            (``"planar"``, ``"treewidth"``, ``"almost_embeddable"``, ...);
            the minor-free shortcut pipeline dispatches on this tag.
        witness: optional family-specific construction witness, already
            relabelled into the final graph's vertex labels (for example an
            :class:`AlmostEmbeddableGraph` recording apices and vortices).
    """

    index: int
    nodes: frozenset[int]
    kind: str = "generic"
    witness: object | None = None


@dataclass
class CliqueSumDecomposition:
    """A graph together with its k-clique-sum decomposition tree (Definition 8).

    Attributes:
        graph: the composed graph ``G``.
        tree: the decomposition tree ``DT``; its nodes are bag indices.
        bags: mapping from bag index to :class:`Bag`.
        partial_cliques: mapping from a tree edge (frozenset of the two bag
            indices) to the set of vertices shared by the two bags -- the
            partial clique ``C_f`` of Definition 8.
        k: the clique-sum order (every partial clique has at most ``k``
            vertices).
    """

    graph: nx.Graph
    tree: nx.Graph
    bags: dict[int, Bag]
    partial_cliques: dict[frozenset[int], frozenset[int]]
    k: int

    def bag_subgraph(self, index: int) -> nx.Graph:
        """Return the bag ``B_i`` as the induced subgraph ``G[V(B_i)]``."""
        return self.graph.subgraph(self.bags[index].nodes).copy()

    def completed_bag_graph(self, index: int) -> nx.Graph:
        """Return ``B^0_i``: the bag with all incident partial cliques completed.

        This is the graph the paper feeds to the family shortcutter in the
        local-shortcut step (Figure 3): the vertices are the bag's vertices,
        the edges are the bag's edges plus a clique on every partial clique
        incident to the bag in the decomposition tree.
        """
        completed = self.bag_subgraph(index)
        for tree_edge in self.tree.edges(index):
            key = frozenset(tree_edge)
            clique = self.partial_cliques.get(key, frozenset())
            for u, v in pairs(sorted(clique)):
                completed.add_edge(u, v)
        return completed

    def bags_containing(self, vertex: Hashable) -> set[int]:
        """Return the indices of all bags that contain ``vertex``."""
        return {index for index, bag in self.bags.items() if vertex in bag.nodes}

    def max_partial_clique_size(self) -> int:
        """Return the size of the largest partial clique (0 for a single bag)."""
        return max((len(c) for c in self.partial_cliques.values()), default=0)

    def depth(self, root: int | None = None) -> int:
        """Return the depth of the decomposition tree rooted at ``root``."""
        if self.tree.number_of_nodes() <= 1:
            return 0
        root = root if root is not None else min(self.tree.nodes())
        lengths = nx.single_source_shortest_path_length(self.tree, root)
        return max(lengths.values())

    def validate(self) -> None:
        """Check the five axioms of Definition 8; raise on any violation."""
        if set(self.tree.nodes()) != set(self.bags.keys()):
            raise InvalidDecompositionError("tree nodes and bag indices differ")
        if self.tree.number_of_nodes() > 0 and not nx.is_tree(self.tree):
            raise InvalidDecompositionError("decomposition tree is not a tree")

        # Axiom 1: bags cover all vertices.
        covered: set[int] = set()
        for bag in self.bags.values():
            covered |= bag.nodes
        if covered != set(self.graph.nodes()):
            raise InvalidDecompositionError("bags do not cover the vertex set exactly")

        # Axiom 3: intersections along tree edges equal the partial cliques,
        # and partial cliques have at most k vertices.
        for i, j in self.tree.edges():
            key = frozenset((i, j))
            if key not in self.partial_cliques:
                raise InvalidDecompositionError(f"missing partial clique for tree edge {key}")
            clique = self.partial_cliques[key]
            if len(clique) > self.k:
                raise InvalidDecompositionError(
                    f"partial clique {sorted(clique)} exceeds the clique-sum order k={self.k}"
                )
            intersection = self.bags[i].nodes & self.bags[j].nodes
            if intersection != clique:
                raise InvalidDecompositionError(
                    f"bag intersection {sorted(intersection)} differs from the recorded "
                    f"partial clique {sorted(clique)} on tree edge {key}"
                )

        # Axiom 4: the bags containing any vertex form a connected subtree.
        for vertex in self.graph.nodes():
            holders = self.bags_containing(vertex)
            if not holders:
                raise InvalidDecompositionError(f"vertex {vertex} is in no bag")
            if len(holders) > 1 and not nx.is_connected(self.tree.subgraph(holders)):
                raise InvalidDecompositionError(
                    f"bags containing vertex {vertex} are not connected in the tree"
                )

        # Axiom 5: every edge lives inside some bag.
        for u, v in self.graph.edges():
            if not any(u in bag.nodes and v in bag.nodes for bag in self.bags.values()):
                raise InvalidDecompositionError(f"edge ({u}, {v}) is not contained in any bag")


def _find_clique(graph: nx.Graph, size: int, rng: random.Random, attempts: int = 50) -> list[int]:
    """Find a clique of exactly ``size`` vertices in ``graph``, or a smaller one.

    The search is randomised and greedy: grow a clique from a random vertex by
    repeatedly adding a common neighbour.  If no clique of the requested size
    is found within ``attempts`` trials, the largest clique found is returned
    (always at least a single vertex, so a 1-clique-sum remains possible).
    """
    if graph.number_of_nodes() == 0:
        raise InvalidGraphError("cannot find a clique in an empty graph")
    nodes = sorted(graph.nodes())
    best: list[int] = [rng.choice(nodes)]
    for _ in range(attempts):
        start = rng.choice(nodes)
        clique = [start]
        candidates = set(graph.neighbors(start))
        while candidates and len(clique) < size:
            nxt = rng.choice(sorted(candidates))
            clique.append(nxt)
            candidates &= set(graph.neighbors(nxt))
        if len(clique) > len(best):
            best = clique
        if len(best) >= size:
            return best[:size]
    return best


def _relabel_witness(witness: object | None, mapping: dict[int, int]) -> object | None:
    """Relabel a per-bag construction witness into the composed graph's labels."""
    if witness is None:
        return None
    if isinstance(witness, AlmostEmbeddableGraph):
        relabelled_vortices = tuple(
            VortexWitness(
                boundary=tuple(mapping[v] for v in vortex.boundary),
                internal_nodes=tuple(mapping[v] for v in vortex.internal_nodes),
                arcs={
                    mapping[node]: tuple(mapping[v] for v in arc)
                    for node, arc in vortex.arcs.items()
                },
                depth=vortex.depth,
            )
            for vortex in witness.vortices
        )
        return AlmostEmbeddableGraph(
            graph=nx.relabel_nodes(witness.graph, mapping, copy=True),
            genus=witness.genus,
            apices=tuple(mapping[a] for a in witness.apices),
            vortices=relabelled_vortices,
            surface_nodes=frozenset(mapping[v] for v in witness.surface_nodes),
        )
    # Unknown witness types are passed through untouched; callers that attach
    # custom witnesses are responsible for relabelling them via `mapping`,
    # which is also stored on the bag via the returned decomposition.
    return witness


def clique_sum_compose(
    components: Sequence[nx.Graph | tuple[nx.Graph, str, object | None]],
    k: int,
    seed: int | random.Random | None = None,
    tree_shape: str = "random",
    delete_probability: float = 0.0,
) -> CliqueSumDecomposition:
    """Compose graphs by iterated k-clique-sums (Definition 1) and record Def. 8.

    Args:
        components: the graphs ``G_1, ..., G_l`` to glue together.  Each entry
            is either a bare graph or a ``(graph, kind, witness)`` triple; the
            kind/witness are stored on the resulting bag (witnesses of type
            :class:`AlmostEmbeddableGraph` are relabelled automatically).
        k: the clique-sum order; every gluing uses a clique of at most ``k``
            vertices.
        seed: RNG seed.
        tree_shape: ``"random"`` attaches each new component to a uniformly
            random existing bag (shallow, O(log l) expected depth),
            ``"path"`` always attaches to the previously added bag (depth
            ``l - 1``, the worst case that Theorem 7's heavy-light folding is
            designed to fix), ``"star"`` always attaches to the first bag.
        delete_probability: probability of deleting each identified clique
            edge after gluing (Definition 1 allows deleting any subset);
            deletions that would disconnect the graph are skipped.

    Returns:
        A validated :class:`CliqueSumDecomposition`.
    """
    if k < 1:
        raise InvalidGraphError("clique-sum order k must be at least 1")
    if not components:
        raise InvalidGraphError("need at least one component to compose")
    if tree_shape not in {"random", "path", "star"}:
        raise InvalidGraphError(f"unknown tree_shape {tree_shape!r}")
    rng = ensure_rng(seed)

    normalised: list[tuple[nx.Graph, str, object | None]] = []
    for entry in components:
        if isinstance(entry, tuple):
            graph, kind, witness = entry
        else:
            graph, kind, witness = entry, "generic", None
        if graph.number_of_nodes() == 0:
            raise InvalidGraphError("components must be non-empty")
        if not nx.is_connected(graph):
            raise InvalidGraphError("components must be connected")
        normalised.append((graph, kind, witness))

    composed = nx.Graph()
    tree = nx.Graph()
    bags: dict[int, Bag] = {}
    partial_cliques: dict[frozenset[int], frozenset[int]] = {}

    # First component: copied verbatim with labels 0..n0-1 (deterministic).
    first_graph, first_kind, first_witness = normalised[0]
    mapping0 = {node: i for i, node in enumerate(sorted(first_graph.nodes(), key=repr))}
    composed = nx.relabel_nodes(first_graph, mapping0, copy=True)
    bags[0] = Bag(
        index=0,
        nodes=frozenset(mapping0.values()),
        kind=first_kind,
        witness=_relabel_witness(first_witness, mapping0),
    )
    tree.add_node(0)
    next_label = composed.number_of_nodes()

    for bag_index, (graph, kind, witness) in enumerate(normalised[1:], start=1):
        if tree_shape == "random":
            target = rng.choice(sorted(bags.keys()))
        elif tree_shape == "path":
            target = bag_index - 1
        else:  # star
            target = 0
        target_bag = bags[target]
        target_subgraph = composed.subgraph(target_bag.nodes)

        clique_size = rng.randint(1, k)
        host_clique = _find_clique(target_subgraph, clique_size, rng)
        guest_clique = _find_clique(graph, len(host_clique), rng)
        size = min(len(host_clique), len(guest_clique))
        host_clique, guest_clique = host_clique[:size], guest_clique[:size]

        # Relabel the new component: guest clique vertices are identified with
        # the host clique vertices; everything else receives fresh labels.
        mapping: dict[Hashable, int] = {}
        for guest, host in zip(guest_clique, host_clique):
            mapping[guest] = host
        for node in sorted(graph.nodes(), key=repr):
            if node not in mapping:
                mapping[node] = next_label
                next_label += 1
        for node in graph.nodes():
            composed.add_node(mapping[node])
        for u, v in graph.edges():
            if mapping[u] != mapping[v]:
                composed.add_edge(mapping[u], mapping[v])

        shared = frozenset(host_clique)
        # Definition 1 allows deleting any subset of edges inside the
        # identified clique; do so randomly but never disconnect the network.
        if delete_probability > 0.0:
            for u, v in pairs(sorted(shared)):
                if composed.has_edge(u, v) and rng.random() < delete_probability:
                    composed.remove_edge(u, v)
                    if not nx.is_connected(composed):
                        composed.add_edge(u, v)

        bags[bag_index] = Bag(
            index=bag_index,
            nodes=frozenset(mapping.values()),
            kind=kind,
            witness=_relabel_witness(witness, {n: mapping[n] for n in graph.nodes()}),
        )
        tree.add_edge(target, bag_index)
        partial_cliques[frozenset((target, bag_index))] = shared

    decomposition = CliqueSumDecomposition(
        graph=composed, tree=tree, bags=bags, partial_cliques=partial_cliques, k=k
    )
    decomposition.validate()
    return decomposition


def decomposition_from_tree_decomposition(
    graph: nx.Graph,
    tree_decomposition: nx.Graph,
    width: int,
) -> CliqueSumDecomposition:
    """View a treewidth decomposition as a (width+1)-clique-sum decomposition.

    A tree decomposition of width ``k`` presents the graph as bags of at most
    ``k + 1`` vertices glued along their intersections -- structurally the
    same object as Definition 8 with partial cliques of size at most
    ``k + 1``.  The treewidth-based shortcut constructor (Theorem 5) reuses
    the clique-sum machinery of Theorem 7 through this adapter, with each
    tiny bag shortcut being trivial (see "Deviations from the paper" in
    ``docs/paper_map.md``).

    The adapter prunes redundant bags (bags fully contained in a neighbour)
    to keep intersections strictly smaller than either endpoint where
    possible, and validates the result.
    """
    if tree_decomposition.number_of_nodes() == 0:
        raise InvalidDecompositionError("empty tree decomposition")
    # Copy, as we may contract away redundant bags.
    td = nx.Graph()
    td.add_nodes_from(tree_decomposition.nodes())
    td.add_edges_from(tree_decomposition.edges())

    # Contract bags that are subsets of a neighbouring bag.
    changed = True
    while changed and td.number_of_nodes() > 1:
        changed = False
        for bag in list(td.nodes()):
            for neighbour in list(td.neighbors(bag)):
                if set(bag) <= set(neighbour):
                    for other in list(td.neighbors(bag)):
                        if other != neighbour:
                            td.add_edge(neighbour, other)
                    td.remove_node(bag)
                    changed = True
                    break
            if changed:
                break

    # Bags may carry placeholder elements that are not graph vertices (for
    # example the duplicate-disambiguation sentinels of
    # `genus_vortex_decomposition`); they are stripped here so the clique-sum
    # view only ever talks about real vertices.
    vertices = set(graph.nodes())
    bag_list = sorted(td.nodes(), key=lambda bag: sorted(bag, key=repr))
    index_of = {bag: i for i, bag in enumerate(bag_list)}
    bags = {
        i: Bag(index=i, nodes=frozenset(bag) & vertices, kind="treewidth_bag", witness=None)
        for bag, i in index_of.items()
    }
    tree = nx.Graph()
    tree.add_nodes_from(bags.keys())
    partial_cliques: dict[frozenset[int], frozenset[int]] = {}
    for a, b in td.edges():
        i, j = index_of[a], index_of[b]
        tree.add_edge(i, j)
        partial_cliques[frozenset((i, j))] = frozenset(set(a) & set(b) & vertices)

    decomposition = CliqueSumDecomposition(
        graph=graph, tree=tree, bags=bags, partial_cliques=partial_cliques, k=width + 1
    )
    decomposition.validate()
    return decomposition
