"""The projective line PG(1, q) and the Möbius group PGL2(q).

The spherical Steiner family used by the paper (Theorem 6.5) is the
orbit of the naturally embedded sub-line ``F_q ∪ {∞}`` inside
``F_{q^α} ∪ {∞}`` under the sharply 3-transitive action of
``PGL₂(q^α)``. This package supplies the projective line, fractional
linear (Möbius) transformations over any GF(p^k), and orbit machinery.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.projective.line": ("ProjectiveLine", "INFINITY"),
    "repro.projective.moebius": ("MoebiusMap",),
})

__all__ = ["ProjectiveLine", "INFINITY", "MoebiusMap"]
