"""Communication lower bounds and closed-form cost models (paper §5, §7).

Everything here is exact arithmetic on the paper's formulas; the test
suite and benchmarks compare these against ledger measurements from the
simulator.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.errors import ConfigurationError
from repro.fields.primes import is_prime_power
from repro.util.combinatorics import (
    falling_factorial,
    strict_tetrahedral_number,
    ternary_multiplication_count_naive,
    ternary_multiplication_count_symmetric,
)
from repro.util.validation import check_positive_int


def minimal_access_solution(n: int, P: int) -> Tuple[float, float]:
    """Optimal point of the Lemma 5.1 program.

    Minimize ``x₁ + 2 x₂`` subject to ``n(n-1)(n-2)/(6P) <= x₁`` and
    ``n(n-1)(n-2)/P <= x₂³``; both constraints are monotone so the
    minimum is at the component-wise minimum:
    ``(n(n-1)(n-2)/(6P), (n(n-1)(n-2)/P)^{1/3})``.
    """
    n = check_positive_int(n, "n")
    P = check_positive_int(P, "P")
    volume = n * (n - 1) * (n - 2)
    return volume / (6 * P), (volume / P) ** (1.0 / 3.0)


def minimal_data_access(n: int, P: int) -> float:
    """Minimum elements a 1/P-share processor must access (§5.1):
    ``n(n-1)(n-2)/(6P) + 2 (n(n-1)(n-2)/P)^{1/3}``."""
    x1, x2 = minimal_access_solution(n, P)
    return x1 + 2 * x2


def initial_ownership(n: int, P: int) -> float:
    """Elements a processor may own at start+end without replication:
    ``n(n-1)(n-2)/(6P) + 2n/P`` (tensor share plus one shard of each
    vector)."""
    return strict_tetrahedral_number(n) / P + 2 * n / P


def symmetric_lower_bound(n: int, P: int, d: int) -> float:
    """Theorem 5.2 at any order ``d`` (paper §8): some processor
    communicates at least ``2 (n(n−1)···(n−d+1)/P)^{1/d} − 2n/P``
    words, clamped at 0 (for tiny ``n`` or ``P = 1`` the formula goes
    negative and bounds nothing)."""
    n = check_positive_int(n, "n")
    P = check_positive_int(P, "P")
    d = check_positive_int(d, "d")
    volume = falling_factorial(n, d)
    return max(0.0, 2.0 * (volume / P) ** (1.0 / d) - 2.0 * n / P)


def sttsv_lower_bound(n: int, P: int) -> float:
    """Theorem 5.2: ``2 (n(n-1)(n-2)/P)^{1/3} − 2n/P``, clamped at 0."""
    return symmetric_lower_bound(n, P, 3)


def sttsv_lower_bound_leading(n: int, P: int) -> float:
    """Leading term of the bound: ``2 n / P^{1/3}`` (for n >> 1)."""
    return 2.0 * n / P ** (1.0 / 3.0)


def processors_for_q(q: int) -> int:
    """The spherical processor count ``P = q (q² + 1)``."""
    q = check_positive_int(q, "q")
    if not is_prime_power(q):
        raise ConfigurationError(f"q={q} is not a prime power")
    return q * (q * q + 1)


def optimal_bandwidth_cost(n: int, q: int) -> float:
    """Per-processor words sent (== received) by Algorithm 5 with the
    point-to-point schedule (§7.2.2): ``2 (n(q+1)/(q²+1) − n/P)``.

    Matches the leading term of Theorem 5.2 exactly, since
    ``(q²+1)/(q+1) ≈ P^{1/3}``.
    """
    P = processors_for_q(q)
    return 2.0 * (n * (q + 1) / (q * q + 1) - n / P)


def all_to_all_bandwidth_cost(n: int, q: int) -> float:
    """Per-processor words with All-to-All collectives (§7.2.2):
    ``4n/(q+1) · (1 − 1/P)`` — twice the lower bound's leading term."""
    P = processors_for_q(q)
    return 4.0 * n / (q + 1) * (1.0 - 1.0 / P)


def schedule_step_count(q: int) -> int:
    """Point-to-point steps of the optimal schedule (§7.2.2):
    ``q³/2 + 3q²/2 − 1`` (always an integer: q³+3q² is even)."""
    q = check_positive_int(q, "q")
    return (q**3 + 3 * q * q - 2) // 2


def computation_cost_exact(n: int, q: int) -> int:
    """Maximum per-processor ternary multiplications of Algorithm 5
    (§7.1) for padded dimension ``n`` divisible by ``q²+1``:
    ``C(q+1,3)·3b³ + q·(3b²(b−1)/2 + 2b²) + 3b(b−1)(b−2)/6 + 2b(b−1) + b``."""
    processors_for_q(q)  # validates q is a prime power
    m = q * q + 1
    if n % m != 0:
        raise ConfigurationError(f"n={n} not divisible by q²+1={m}")
    b = n // m
    off = (q + 1) * q * (q - 1) // 6 * (3 * b**3)
    non_central = q * (3 * b * b * (b - 1) // 2 + 2 * b * b)
    central = 3 * b * (b - 1) * (b - 2) // 6 + 2 * b * (b - 1) + b
    return off + non_central + central


def computation_cost_leading(n: int, P: int) -> float:
    """Leading term ``n³ / (2P)`` of the per-processor computation (§7.1)."""
    return n**3 / (2.0 * P)


def sequential_ternary_counts(n: int) -> Dict[str, int]:
    """Algorithm 3 vs Algorithm 4 ternary-multiplication counts (§3)."""
    return {
        "naive": ternary_multiplication_count_naive(n),
        "symmetric": ternary_multiplication_count_symmetric(n),
    }


def storage_words_leading(n: int, P: int) -> float:
    """Per-processor tensor storage leading term ``n³ / (6P)`` (§6.1.3)."""
    return n**3 / (6.0 * P)


def sequence_approach_bandwidth(n: int, P: int) -> float:
    """Per-processor words of the 1-D "sequence" (TTM-then-TTV) approach
    (§8 discussion): an allgather of ``x`` costs ``n (1 − 1/P)`` — Θ(n)
    for ``P <= n``, asymptotically larger than Algorithm 5's
    ``Θ(n / P^{1/3})``."""
    return n * (1.0 - 1.0 / P)


def bound_tightness_ratio(n: int, q: int) -> float:
    """Optimal-algorithm cost divided by the lower bound — approaches 1
    from above as n, q grow (exactly matching leading terms). Raises
    where the bound is vacuous (0), since no ratio exists there."""
    P = processors_for_q(q)
    bound = sttsv_lower_bound(n, P)
    if bound == 0.0:
        raise ConfigurationError(
            f"the lower bound is 0 at n={n}, P={P}; no tightness ratio"
        )
    return optimal_bandwidth_cost(n, q) / bound
