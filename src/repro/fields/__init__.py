"""Finite fields GF(p^k).

The spherical Steiner construction (paper Theorem 6.5) needs arithmetic
in ``F_{q**2}`` for a prime power ``q``, i.e. fields of order ``p**(2a)``.
This package provides:

* :mod:`repro.fields.primes` — primality and prime-power recognition,
* :mod:`repro.fields.polynomials` — dense polynomial arithmetic over
  GF(p) and irreducible-polynomial search,
* :mod:`repro.fields.gf` — the :class:`GF` field class with elements
  represented as integers (polynomial coefficient vectors packed in
  base p), supporting +, -, *, /, powers and inverses.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.fields.primes": (
        "is_prime",
        "is_prime_power",
        "prime_power_decomposition",
        "prime_powers_up_to",
        "next_prime_power",
    ),
    "repro.fields.gf": ("GF", "GFElement"),
})

__all__ = [
    "is_prime",
    "is_prime_power",
    "prime_power_decomposition",
    "prime_powers_up_to",
    "next_prime_power",
    "GF",
    "GFElement",
]
