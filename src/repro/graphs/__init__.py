"""Graph substrates: generators for every graph family the paper manipulates.

The paper's result concerns graphs that exclude a fixed minor ``H``.  The
Robertson--Seymour Graph Structure Theorem (Theorem 3) states that every such
graph is a ``k``-clique-sum of ``k``-almost-embeddable graphs, which in turn
are built from bounded-genus graphs by adding vortices and apices.  This
subpackage provides constructive generators for each ingredient:

* :mod:`repro.graphs.planar`      -- planar graphs (grids, triangulations, ...)
* :mod:`repro.graphs.genus`       -- bounded-genus graphs (toroidal grids, handles)
* :mod:`repro.graphs.treewidth`   -- bounded-treewidth graphs (k-trees)
* :mod:`repro.graphs.apex_vortex` -- apices (Def. 2), vortices (Def. 4) and
  almost-embeddable graphs (Def. 5) with explicit construction witnesses
* :mod:`repro.graphs.clique_sum`  -- k-clique-sums (Def. 1) and clique-sum
  decomposition trees (Def. 8)
* :mod:`repro.graphs.minor_free`  -- samplers for the family L_k (Def. 6)
* :mod:`repro.graphs.minors`      -- minor containment testing for small minors
* :mod:`repro.graphs.lower_bound` -- the Omega(sqrt n) hard instance used as the
  general-graph baseline workload
* :mod:`repro.graphs.weights`     -- edge weight assignment helpers
* :mod:`repro.graphs.native`      -- CSR-native generators that emit
  :class:`~repro.core.CoreGraph` directly (million-node instances; each is
  pinned exactly equal to its preserved ``nx`` twin)
"""

from .planar import (
    cycle_graph,
    grid_graph,
    is_planar,
    planar_embedding,
    random_delaunay_triangulation,
    random_outerplanar_graph,
    random_series_parallel_graph,
    star_graph,
    wheel_graph,
)
from .genus import GenusGraph, genus_grid, toroidal_grid
from .treewidth import random_ktree, random_partial_ktree
from .apex_vortex import (
    AlmostEmbeddableGraph,
    VortexWitness,
    add_apices,
    add_vortex,
    build_almost_embeddable,
)
from .clique_sum import Bag, CliqueSumDecomposition, clique_sum_compose
from .minor_free import MinorFreeGraph, planar_plus_apex, sample_lk_graph
from .minors import excludes_minor, has_minor
from .lower_bound import lower_bound_graph
from .weights import (
    assign_adversarial_weights,
    assign_hashed_weights,
    assign_random_weights,
    assign_unit_weights,
    hashed_edge_weight,
    hashed_weights_array,
)
from .native import (
    native_clique_sum_chain,
    native_cycle,
    native_cylinder,
    native_delaunay,
    native_grid,
    native_ktree_chain,
    native_star,
    native_wheel,
    string_argsort,
)

__all__ = [
    "AlmostEmbeddableGraph",
    "Bag",
    "CliqueSumDecomposition",
    "GenusGraph",
    "MinorFreeGraph",
    "VortexWitness",
    "add_apices",
    "add_vortex",
    "assign_adversarial_weights",
    "assign_hashed_weights",
    "assign_random_weights",
    "assign_unit_weights",
    "build_almost_embeddable",
    "clique_sum_compose",
    "cycle_graph",
    "excludes_minor",
    "genus_grid",
    "grid_graph",
    "has_minor",
    "hashed_edge_weight",
    "hashed_weights_array",
    "is_planar",
    "lower_bound_graph",
    "native_clique_sum_chain",
    "native_cycle",
    "native_cylinder",
    "native_delaunay",
    "native_grid",
    "native_ktree_chain",
    "native_star",
    "native_wheel",
    "planar_embedding",
    "planar_plus_apex",
    "random_delaunay_triangulation",
    "random_ktree",
    "random_outerplanar_graph",
    "random_partial_ktree",
    "random_series_parallel_graph",
    "sample_lk_graph",
    "star_graph",
    "string_argsort",
    "toroidal_grid",
    "wheel_graph",
]
