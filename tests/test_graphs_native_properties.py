"""Property wall for the CSR-native generators (hypothesis-driven).

Random ``(family, shape, weight seed)`` draws must preserve the generator
invariants that the rest of the stack relies on but the differential suite
only samples at fixed shapes:

- the emitted CSR is a well-formed symmetric graph (monotone ``indptr``
  anchored at 0/2m, sorted adjacency rows, every edge mirrored with the
  identical weight, no self-loops, strictly positive weights);
- every family produces a connected graph (``require_connected`` is part
  of the preserved generators' contract);
- structural promises hold where they are cheaply checkable -- planarity
  of the planar families, the width-``k`` interval certificate of the
  bounded-treewidth chains;
- generation is a pure function of ``(family, shape, seed)``: rebuilding
  in-process and in process-pool workers yields bit-identical arrays,
  which is what lets ``run_matrix --jobs N`` fan instances out safely.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphs.planar import is_planar

from oracles.graphs import NATIVE_GENERATORS

# Wheel graphs are planar too, but ``delaunay`` is the interesting case:
# planarity of the triangulation is a property of the geometry, not the
# construction.
PLANAR_FAMILIES = ("grid", "cylinder", "cycle", "star", "wheel", "delaunay")

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def family_cases(draw, families=None):
    family = draw(st.sampled_from(sorted(families or NATIVE_GENERATORS)))
    if family == "grid":
        kwargs = {"rows": draw(st.integers(1, 12)), "cols": draw(st.integers(1, 12))}
    elif family == "cylinder":
        kwargs = {"rows": draw(st.integers(1, 8)), "cols": draw(st.integers(3, 12))}
    elif family == "cycle":
        kwargs = {"n": draw(st.integers(3, 60))}
    elif family == "star":
        kwargs = {"n": draw(st.integers(1, 60))}
    elif family == "wheel":
        kwargs = {"n": draw(st.integers(3, 40))}
    elif family == "delaunay":
        kwargs = {"n": draw(st.integers(4, 40)), "seed": draw(st.integers(0, 999))}
    elif family == "ktree_chain":
        k = draw(st.integers(1, 4))
        kwargs = {"n": draw(st.integers(k + 1, 50)), "k": k}
    else:  # clique_sum_chain
        k = draw(st.integers(1, 3))
        kwargs = {
            "num_bags": draw(st.integers(1, 4)),
            "bag_side": draw(st.integers(3, 5)),
            "k": k,
        }
    weight_seed = draw(st.one_of(st.none(), st.integers(0, 2**31 - 1)))
    return family, kwargs, weight_seed


def _build(family, kwargs, weight_seed):
    native_fn = NATIVE_GENERATORS[family][0]
    if weight_seed is None:
        return native_fn(**kwargs)
    return native_fn(**kwargs, weight_seed=weight_seed, integer=False)


def _arrays(family, kwargs, weight_seed):
    """Picklable worker: build a case and return its raw arrays."""
    view = _build(family, kwargs, weight_seed)
    core = view.core
    weights = core.weights.tolist() if view.has_weights else None
    return view.nodes, core.indptr.tolist(), core.indices.tolist(), weights


@given(case=family_cases())
@SETTINGS
def test_symmetric_csr_invariants(case):
    family, kwargs, weight_seed = case
    view = _build(family, kwargs, weight_seed)
    core = view.core
    n = core.num_nodes
    indptr, indices = core.indptr, core.indices
    assert len(view.nodes) == n == len(set(view.nodes))
    assert view.nodes == sorted(view.nodes, key=repr)
    # Monotone row pointers anchored at 0 and 2m.
    assert indptr[0] == 0
    assert indptr[-1] == len(indices) == 2 * core.num_edges
    assert np.all(np.diff(indptr) >= 0)
    directed = set()
    for u in range(n):
        row = indices[indptr[u] : indptr[u + 1]].tolist()
        # Strictly ascending rows: the layout CoreGraph.has_edge bisects.
        assert row == sorted(row), "adjacency rows must be index-sorted"
        assert len(row) == len(set(row)), "no parallel edges"
        assert u not in row, "no self-loops"
        directed.update((u, v) for v in row)
    # Every directed arc is mirrored ...
    assert directed == {(v, u) for u, v in directed}
    if weight_seed is not None:
        weights = core.weights
        assert np.all(weights > 0)
        by_arc = {}
        for u in range(n):
            for offset in range(int(indptr[u]), int(indptr[u + 1])):
                by_arc[(u, int(indices[offset]))] = float(weights[offset])
        # ... with the identical weight on both directions.
        assert all(by_arc[(u, v)] == by_arc[(v, u)] for (u, v) in by_arc)


@given(case=family_cases())
@SETTINGS
def test_every_family_is_connected(case):
    family, kwargs, weight_seed = case
    assert _build(family, kwargs, weight_seed).core.is_connected()


@given(case=family_cases(families=PLANAR_FAMILIES))
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_planar_families_are_planar(case):
    family, kwargs, weight_seed = case
    view = _build(family, kwargs, weight_seed)
    assert is_planar(view.graph)


@given(case=family_cases(families=("ktree_chain",)))
@SETTINGS
def test_ktree_chain_interval_certificate(case):
    """Every edge spans at most ``k`` labels: the bags ``{i-k .. i}`` are a
    path decomposition of width ``k``, certifying treewidth <= k."""
    family, kwargs, weight_seed = case
    view = _build(family, kwargs, weight_seed)
    nodes = view.nodes
    indptr, indices = view.core.indptr, view.core.indices
    k = kwargs["k"]
    for u in range(view.core.num_nodes):
        for v in indices[indptr[u] : indptr[u + 1]].tolist():
            assert 1 <= abs(nodes[u] - nodes[v]) <= k


@given(case=family_cases())
@SETTINGS
def test_rebuild_is_bit_identical(case):
    family, kwargs, weight_seed = case
    assert _arrays(family, kwargs, weight_seed) == _arrays(family, kwargs, weight_seed)


@pytest.mark.parametrize(
    "family, kwargs, weight_seed",
    [
        ("grid", {"rows": 9, "cols": 14}, 5),
        ("delaunay", {"n": 60, "seed": 11}, 23),
        ("clique_sum_chain", {"num_bags": 3, "bag_side": 4, "k": 3}, 0),
    ],
)
def test_seed_determinism_across_process_pool_workers(family, kwargs, weight_seed):
    """The same draw in two pool workers equals the in-process build exactly
    (the contract ``run_matrix --jobs N`` relies on)."""
    local = _arrays(family, kwargs, weight_seed)
    with ProcessPoolExecutor(max_workers=2) as pool:
        remote = [
            future.result()
            for future in [
                pool.submit(_arrays, family, kwargs, weight_seed) for _ in range(2)
            ]
        ]
    assert remote[0] == local
    assert remote[1] == local
