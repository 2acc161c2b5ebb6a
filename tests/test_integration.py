"""End-to-end integration tests exercising the whole pipeline.

Each test mirrors one "story" of the paper: generate a graph from an
excluded-minor family with its structure witness, build shortcuts through
the family-specific pipeline, run a distributed optimisation algorithm on
top, and check both correctness and the qualitative round-count claims.
"""

import networkx as nx
import pytest

from repro.algorithms.mincut import approximate_min_cut
from repro.algorithms.mst import boruvka_mst, reference_mst_weight
from repro.algorithms.mst_baselines import no_shortcut_builder
from repro.congest.aggregation import partwise_aggregate
from repro.graphs.minor_free import sample_lk_graph
from repro.graphs.weights import assign_adversarial_weights, assign_random_weights
from repro.shortcuts.minor_free import minor_free_shortcut
from repro.shortcuts.parts import boruvka_parts, path_parts
from repro.structure.spanning import bfs_spanning_tree, graph_diameter


def test_full_pipeline_on_lk_sample(lk_sample):
    """Sample L_k graph -> witness shortcuts -> aggregation -> distributed MST."""
    graph = lk_sample.graph
    assign_random_weights(graph, seed=1, integer=True)
    tree = bfs_spanning_tree(graph)

    # Shortcut construction through the Theorem 6 pipeline on Boruvka fragments.
    parts = boruvka_parts(graph, phases=2)
    shortcut = minor_free_shortcut(lk_sample, tree, parts)
    shortcut.validate()
    measure = shortcut.measure()
    assert measure.quality > 0

    # The aggregation primitive returns correct per-part minima over it.
    values = {v: (v * 31) % 97 for v in graph.nodes()}
    aggregation = partwise_aggregate(shortcut, values, combine=min)
    assert aggregation.values == [min(values[v] for v in part) for part in parts]

    # The distributed MST using the witness-driven builder is correct.
    def builder(g, t, fragment_parts):
        return minor_free_shortcut(lk_sample, t, fragment_parts)

    result = boruvka_mst(graph, shortcut_builder=builder, tree=tree, validate_shortcuts=True)
    assert abs(result.weight - reference_mst_weight(graph)) < 1e-6


def test_adversarial_weights_show_the_shortcut_advantage(lk_sample):
    """With adversarial weights the fragments become long and skinny; shortcuts win."""
    graph = lk_sample.graph.copy()
    assign_adversarial_weights(graph, seed=3)
    tree = bfs_spanning_tree(graph)

    def builder(g, t, fragment_parts):
        return minor_free_shortcut(lk_sample, t, fragment_parts)

    accelerated = boruvka_mst(graph, shortcut_builder=builder, tree=tree)
    naive = boruvka_mst(graph, shortcut_builder=no_shortcut_builder, tree=tree)
    assert abs(accelerated.weight - naive.weight) < 1e-6
    # The shortcut-driven run should never be substantially slower, and on the
    # long-fragment phases it is typically faster.
    assert accelerated.rounds <= naive.rounds * 1.5 + 10


def test_min_cut_on_lk_sample_is_accurate(lk_sample):
    graph = lk_sample.graph.copy()
    assign_random_weights(graph, low=1, high=8, seed=4, integer=True)
    result = approximate_min_cut(graph, epsilon=1.0, max_trees=8)
    assert result.approximation_ratio <= 2.0 + 1e-9
    assert result.rounds > 0


def test_quality_versus_rounds_correlation(lk_sample):
    """Phases with better (smaller) quality should not need more aggregation rounds
    than phases with much worse quality -- the qualitative content of Theorem 1."""
    graph = lk_sample.graph.copy()
    assign_random_weights(graph, seed=5, integer=True)
    tree = bfs_spanning_tree(graph)
    result = boruvka_mst(graph, tree=tree)
    assert len(result.phase_qualities) == result.phases
    assert all(quality >= 0 for quality in result.phase_qualities)
    assert graph_diameter(graph) <= result.rounds  # rounds include Theta(D) syncs
