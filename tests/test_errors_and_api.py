"""Tests for the exception hierarchy and the top-level public API surface."""

import pytest

import repro
from repro.errors import (
    ConvergenceError,
    InvalidDecompositionError,
    InvalidGraphError,
    InvalidPartitionError,
    InvalidShortcutError,
    ReproError,
    SimulationError,
)


def test_all_exceptions_derive_from_repro_error():
    for exc in (
        InvalidGraphError,
        InvalidPartitionError,
        InvalidDecompositionError,
        InvalidShortcutError,
        SimulationError,
        ConvergenceError,
    ):
        assert issubclass(exc, ReproError)
        assert issubclass(exc, Exception)


def test_public_api_exports_exist_and_are_callable_or_classes():
    for name in repro.__all__:
        attribute = getattr(repro, name)
        assert attribute is not None, name


def test_version_is_exposed():
    assert repro.__version__ == "1.0.0"


def test_quickstart_snippet_from_readme_works():
    sample = repro.sample_lk_graph(num_bags=3, k=3, bag_size=16, seed=1)
    tree = repro.bfs_spanning_tree(sample.graph)
    parts = repro.tree_fragment_parts(sample.graph, tree, num_parts=4, seed=2)
    shortcut = repro.minor_free_shortcut(sample, tree, parts)
    measure = shortcut.measure()
    assert measure.quality > 0
    repro.assign_random_weights(sample.graph, seed=3)
    result = repro.boruvka_mst(sample.graph)
    assert abs(result.weight - repro.reference_mst_weight(sample.graph)) < 1e-6



def test_broadcast_that_misses_nodes_raises_a_simulation_error(monkeypatch):
    from repro.congest.primitives import _BroadcastProgram

    monkeypatch.setattr(_BroadcastProgram, "result", lambda self: None)
    with pytest.raises(SimulationError, match="did not reach"):
        repro.broadcast_value(repro.grid_graph(3, 3), 0, 7)


def test_leader_election_that_disagrees_raises_a_simulation_error(monkeypatch):
    from repro.congest.primitives import _FloodMaxProgram

    monkeypatch.setattr(_FloodMaxProgram, "result", lambda self: self.context.node)
    with pytest.raises(SimulationError, match="did not converge"):
        repro.flood_max_id(repro.grid_graph(3, 3))
