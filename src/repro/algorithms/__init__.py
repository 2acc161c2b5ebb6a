"""Distributed algorithms built on the shortcut framework (Theorem 1).

The shortcut framework's promise is that once good shortcuts exist, the
*same simple algorithm* solves the optimisation problems fast on any graph
family -- the structure only ever enters through the measured quality.  The
algorithms here are:

* :mod:`repro.algorithms.mst`      -- Boruvka's MST driven by part-wise
  aggregation over shortcuts, with exact CONGEST round accounting;
* :mod:`repro.algorithms.mst_baselines` -- the no-shortcut baseline and the
  ``O~(D + sqrt n)`` general-graph reference model;
* :mod:`repro.algorithms.mincut`   -- (1 + eps)-approximate minimum cut by
  greedy spanning-tree packing and 1-/2-respecting tree cuts;
* :mod:`repro.algorithms.partwise` -- conveniences over the aggregation
  primitive, the MWOE step among them.

This layer is **array-native**: :func:`boruvka_mst` and
:func:`approximate_min_cut` run on the CSR kernel
(:class:`~repro.core.GraphView` indices, edge-rank Boruvka fragments,
engine-built per-phase shortcuts, Euler-interval cut sweeps).
``tests/test_algorithms_core.py`` pins them, field for field, to the seed
implementations kept in ``tests/oracles/``.  See ``docs/architecture.md``
for the oracle contract and ``docs/paper_map.md`` for the
statement-by-statement paper map.
"""

from .mst import MstResult, ShortcutBuilder, boruvka_mst, oblivious_builder, reference_mst_weight
from .mst_baselines import gkp_reference_rounds, no_shortcut_builder, whole_tree_builder
from .mincut import MinCutResult, approximate_min_cut, exact_min_cut
from .partwise import (
    minimum_outgoing_edges,
    partwise_component_ids,
    partwise_maximum,
    partwise_minimum,
    partwise_sum,
)

__all__ = [
    "MinCutResult",
    "MstResult",
    "ShortcutBuilder",
    "approximate_min_cut",
    "boruvka_mst",
    "exact_min_cut",
    "gkp_reference_rounds",
    "minimum_outgoing_edges",
    "no_shortcut_builder",
    "oblivious_builder",
    "partwise_component_ids",
    "partwise_maximum",
    "partwise_minimum",
    "partwise_sum",
    "reference_mst_weight",
    "whole_tree_builder",
]
