"""Differential wall: every CSR-native generator equals its ``nx`` twin.

The twin contract of :mod:`repro.graphs.native`: for every family in
``oracles.graphs.NATIVE_GENERATORS`` and every registered parameter case,
the native generator's canonical node ordering, CSR structure arrays, and
hashed edge weights are *exactly* equal -- not isomorphic, not
approximately equal -- to the ``nx`` twin's output converted through
:class:`~repro.core.GraphView`.  The lazy adapter must round-trip back to
the twin graph, and label-space (``nx``) code must see the two as the same
graph, so either generator can serve as the oracle for the other.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.core import nx_materializations, view_of
from repro.graphs.native import with_hashed_weights
from repro.graphs.weights import WEIGHT, assign_hashed_weights
from repro.structure.spanning import bfs_spanning_tree

from oracles import structure as oracle_structure
from oracles.graphs import NATIVE_GENERATORS

CASES = [
    pytest.param(family, dict(kwargs), id=f"{family}-{i}")
    for family, (_, _, cases) in sorted(NATIVE_GENERATORS.items())
    for i, kwargs in enumerate(cases)
]

WEIGHT_SEEDS = (0, 13)


def _pair(family: str, kwargs: dict):
    native_fn, twin_fn, _ = NATIVE_GENERATORS[family]
    return native_fn(**kwargs), twin_fn(**kwargs)


def _assert_same_structure(native, twin_view) -> None:
    assert native.nodes == twin_view.nodes
    np.testing.assert_array_equal(native.core.indptr, twin_view.core.indptr)
    np.testing.assert_array_equal(native.core.indices, twin_view.core.indices)


@pytest.mark.parametrize("family, kwargs", CASES)
def test_structure_equals_nx_twin(family, kwargs):
    native, twin = _pair(family, kwargs)
    twin_view = view_of(twin)
    _assert_same_structure(native, twin_view)
    # Index order is the package-wide canonical (repr) node order.
    assert native.nodes == sorted(native.nodes, key=repr)
    assert native.core.num_nodes == twin.number_of_nodes()
    assert native.core.num_edges == twin.number_of_edges()


@pytest.mark.parametrize("family, kwargs", CASES)
def test_edge_set_equals_nx_twin_in_label_space(family, kwargs):
    native, twin = _pair(family, kwargs)
    nodes = native.nodes
    indptr, indices = native.core.indptr, native.core.indices
    native_edges = set()
    for u in range(native.core.num_nodes):
        for v in indices[indptr[u] : indptr[u + 1]].tolist():
            if u < v:
                native_edges.add((min(nodes[u], nodes[v]), max(nodes[u], nodes[v])))
    twin_edges = {(min(u, v), max(u, v)) for u, v in twin.edges()}
    assert native_edges == twin_edges


@pytest.mark.parametrize("family, kwargs", CASES)
@pytest.mark.parametrize("seed", WEIGHT_SEEDS)
@pytest.mark.parametrize("integer", (False, True))
def test_weights_equal_nx_twin(family, kwargs, seed, integer):
    native_fn, twin_fn, _ = NATIVE_GENERATORS[family]
    native = native_fn(**kwargs, weight_seed=seed, integer=integer)
    twin = twin_fn(**kwargs)
    assign_hashed_weights(twin, seed, integer=integer)
    twin_view = view_of(twin)
    _assert_same_structure(native, twin_view)
    assert native.has_weights and twin_view.has_weights
    # Bitwise equality: the hashed scheme draws the identical float for a
    # label pair on both paths, so no tolerance is needed or allowed.
    np.testing.assert_array_equal(native.core.weights, twin_view.core.weights)


@pytest.mark.parametrize("family, kwargs", CASES)
def test_with_hashed_weights_equals_generator_weights(family, kwargs):
    native_fn, _, _ = NATIVE_GENERATORS[family]
    seed = 7
    rewired = with_hashed_weights(native_fn(**kwargs), seed, integer=True)
    direct = native_fn(**kwargs, weight_seed=seed, integer=True)
    _assert_same_structure(rewired, direct)
    np.testing.assert_array_equal(rewired.core.weights, direct.core.weights)


@pytest.mark.parametrize("family, kwargs", CASES)
def test_lazy_adapter_round_trips_to_twin(family, kwargs):
    native_fn, twin_fn, _ = NATIVE_GENERATORS[family]
    native = native_fn(**kwargs, weight_seed=3, integer=True)
    before = nx_materializations()
    adapter = native.graph
    # Exactly one materialisation, memoised on repeat access.
    assert nx_materializations() == before + 1
    assert native.graph is adapter
    assert nx_materializations() == before + 1
    twin = twin_fn(**kwargs)
    assign_hashed_weights(twin, 3, integer=True)
    assert sorted(adapter.nodes(), key=repr) == sorted(twin.nodes(), key=repr)
    assert {
        (min(u, v), max(u, v)): data[WEIGHT]
        for u, v, data in adapter.edges(data=True)
    } == {
        (min(u, v), max(u, v)): data[WEIGHT] for u, v, data in twin.edges(data=True)
    }
    # The adapter is wired back to its view: converting it is a no-op.
    assert view_of(adapter) is native


@pytest.mark.parametrize("family, kwargs", CASES)
def test_equality_holds_under_reference_paths(family, kwargs):
    """The seed nx BFS sees the adapter and the twin as one graph, and the
    production BFS on the native view builds that same tree."""
    native, twin = _pair(family, kwargs)
    adapter = native.graph
    root = min(twin.nodes(), key=repr)
    expected = oracle_structure.bfs_spanning_tree(twin, root).parent
    assert oracle_structure.bfs_spanning_tree(adapter, root).parent == expected
    assert bfs_spanning_tree(native, root).parent == expected


def test_unweighted_views_report_no_weights():
    native_fn, twin_fn, cases = NATIVE_GENERATORS["grid"]
    native = native_fn(**cases[0])
    assert not native.has_weights
    assert not view_of(twin_fn(**cases[0])).has_weights
