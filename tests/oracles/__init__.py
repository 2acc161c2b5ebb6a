"""Exact-equality oracles: the seed implementations the production code replaced.

Each module holds the original label-keyed ``networkx`` implementation of
one layer of :mod:`repro`, kept as it was before the CSR rewrites:

* :mod:`oracles.aggregation` -- the part-wise aggregation scheduler;
* :mod:`oracles.quality` -- congestion, block parameter and quality;
* :mod:`oracles.shortcuts` -- part validation and the congestion-capped /
  oblivious constructions;
* :mod:`oracles.structure` -- the BFS spanning tree, graph diameter, tree
  validation, tree-fragment and singleton part generators, the cell and
  gate validators and the tree contraction `RootedTree.contract_to`;
* :mod:`oracles.core` -- the dict-of-dicts CSR assembly;
* :mod:`oracles.graphs` -- the ``nx`` twins of the CSR-native generators
  and their pairing registry ``NATIVE_GENERATORS``;
* :mod:`oracles.mst` and :mod:`oracles.mincut` -- Boruvka MST and the
  tree-packing min-cut;
* :mod:`oracles.simulator` -- the full-scan :class:`ReferenceSimulator`
  and the recursive message word count it sizes messages with;
* :mod:`oracles.faults` -- the fault decisions that hash all five parts
  ``(seed, kind, round, sender, target)`` per draw, and the seed
  ``FaultQueue`` that decided and placed each send as it happened.

The oracles call each other directly, never the production code they pin.
The differential tests compare the two with exact equality (edge sets,
rounds, messages, floats).  Nothing under ``src/`` imports this package;
``src/`` has one implementation per layer.

:func:`seed_paths` routes the scenario layer's entry points through the
oracles, so a whole scenario record can be recomputed on the seed code.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from unittest import mock


@contextmanager
def seed_paths():
    """Run scenarios on the oracles: Boruvka, min-cut, aggregation, the
    oblivious construction and shortcut measurement.

    The simulated MST phases are not patched: the primitives run on the
    network's view in every simulator mode, and the oracle simulator is
    pinned to them by the simulator tests instead."""
    import repro.scenarios.registry as registry
    from repro.shortcuts.shortcut import Shortcut

    from . import aggregation, mincut, mst, quality, shortcuts

    patches = [
        (registry, "boruvka_mst", mst.boruvka_mst),
        (registry, "approximate_min_cut", mincut.approximate_min_cut),
        (registry, "partwise_aggregate", aggregation.partwise_aggregate),
        (registry, "oblivious_shortcut", shortcuts.oblivious_shortcut),
        (Shortcut, "measure", quality.measure),
    ]
    with ExitStack() as stack:
        for owner, name, replacement in patches:
            stack.enter_context(mock.patch.object(owner, name, replacement))
        yield
