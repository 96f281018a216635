"""Bipartite matchings, flows, and exchange-schedule decompositions.

The partition and scheduling layers need four combinatorial services,
all implemented here from first principles:

* maximum bipartite matching (Hopcroft–Karp) — existence certified by
  Hall's theorem (paper Theorem 6.6);
* maximum flow (Dinic) for capacitated b-matchings — the "replace each
  left vertex by d copies" construction of Corollary 6.7, used to give
  each processor exactly ``d`` non-central diagonal blocks;
* decomposition of a d-regular bipartite (send/receive) graph into
  ``d`` perfect matchings (paper Lemma 7.1) — each matching is one
  synchronous communication round of Theorem 7.2;
* Hall-condition verification for diagnostics.
"""

from repro._lazy import lazy_exports

# A function named after its own submodule, so bound eagerly (see
# repro._lazy).
from repro.matching.hopcroft_karp import hopcroft_karp

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.matching.hopcroft_karp": ("maximum_matching",),
    "repro.matching.dinic": ("Dinic",),
    "repro.matching.bmatching": ("bipartite_b_matching", "disjoint_matchings"),
    "repro.matching.edge_coloring": (
        "decompose_regular_bipartite",
        "permutation_rounds",
    ),
    "repro.matching.hall": ("hall_condition_holds", "hall_violating_set"),
})

__all__ = [
    "hopcroft_karp",
    "maximum_matching",
    "Dinic",
    "bipartite_b_matching",
    "disjoint_matchings",
    "decompose_regular_bipartite",
    "permutation_rounds",
    "hall_condition_holds",
    "hall_violating_set",
]
