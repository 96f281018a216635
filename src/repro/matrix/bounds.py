"""Memory-independent communication bounds for parallel SYMV.

The paper's §5 argument one dimension down: for a load-balanced atomic
SYMV over the strict lower triangle, a processor computing
``n(n-1)/(2P)`` scalar products needs, by the symmetrized
Loomis–Whitney inequality ``2|V| <= |φ_i(V) ∪ φ_j(V)|²``, at least
``(n(n-1)/P)^{1/2}`` vector indices; subtracting the ``2n/P`` owned
elements yields

    W_symv >= 2 (n(n-1)/P)^{1/2} - 2n/P,

matching the memory-independent bounds of Al Daas et al. (2023) for
symmetric matrix kernels at leading order ``2n/√P``.
"""

from __future__ import annotations

from repro.core.bounds import symmetric_lower_bound
from repro.errors import ConfigurationError


def symv_lower_bound(n: int, P: int) -> float:
    """``2 (n(n-1)/P)^{1/2} − 2n/P`` words for some processor, clamped
    at 0."""
    return symmetric_lower_bound(n, P, 2)


def symv_lower_bound_leading(n: int, P: int) -> float:
    """Leading term ``2 n / P^{1/2}``."""
    return 2.0 * n / P**0.5


def symv_optimal_bandwidth(n: int, m: int, r: int) -> float:
    """Per-processor words of the triangle-partition SYMV.

    ``2 · r (λ₁ − 1) · b/λ₁`` with ``λ₁ = (m-1)/(r-1)`` and ``b = n/m``
    (both exchange phases).
    """
    if (m - 1) % (r - 1) != 0 or n % m != 0:
        raise ConfigurationError("parameters violate divisibility")
    replication = (m - 1) // (r - 1)
    b = n // m
    return 2.0 * r * (replication - 1) * b / replication


def symv_optimal_bandwidth_projective(n: int, q: int) -> float:
    """Projective-plane specialization (``m = P = q²+q+1``, ``r = q+1``):
    ``2 q n / (q²+q+1) ≈ 2n/√P`` — the bound's leading term."""
    m = q * q + q + 1
    return symv_optimal_bandwidth(n, m, q + 1)


def symv_schedule_step_count(m: int, r: int) -> int:
    """Exchange steps per phase: ``r (λ₁ − 1)`` neighbors (all sharing
    exactly one row block — a 2-design's blocks meet in ≤ 1 point)."""
    if (m - 1) % (r - 1) != 0:
        raise ConfigurationError("(m-1)/(r-1) must be integral")
    return r * ((m - 1) // (r - 1) - 1)
