"""Steiner systems and the constructions used for tetrahedral partitions.

A Steiner ``(m, r, 3)`` system (paper Definition 6.1) is a collection of
``r``-subsets ("blocks") of ``{0, ..., m-1}`` such that every 3-subset
lies in exactly one block. The paper derives its processor data
distribution from two infinite families:

* the **spherical** family ``S(q^α + 1, q + 1, 3)`` from the sharply
  3-transitive action of ``PGL₂(q^α)`` (Theorem 6.5) — used with
  ``α = 2`` so that ``P = q (q² + 1)`` processors get one block each;
* the **Boolean** family ``SQS(2^k) = S(2^k, 4, 3)`` whose blocks are
  the 4-sets summing to zero in ``F₂^k`` — the source of the paper's
  Appendix A example (Table 3, ``m = 8``, ``P = 14``).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.steiner.system": ("SteinerSystem",),
    "repro.steiner.spherical": ("spherical_steiner_system",),
    "repro.steiner.boolean": ("boolean_steiner_system",),
    "repro.steiner.catalog": (
        "wilson_divisibility_ok",
        "steiner_system_for_processors",
        "admissible_processor_counts",
    ),
})

__all__ = [
    "SteinerSystem",
    "spherical_steiner_system",
    "boolean_steiner_system",
    "wilson_divisibility_ok",
    "steiner_system_for_processors",
    "admissible_processor_counts",
]
