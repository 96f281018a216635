"""Shared utilities: argument validation, combinatorics, RNG handling."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.util.combinatorics": (
        "binomial",
        "tetrahedral_number",
        "triangular_number",
        "strict_tetrahedral_number",
        "falling_factorial",
    ),
    "repro.util.validation": (
        "check_positive_int",
        "check_nonnegative_int",
        "check_in_range",
        "check_probability",
    ),
    "repro.util.seeding": ("as_generator",),
})

__all__ = [
    "binomial",
    "tetrahedral_number",
    "triangular_number",
    "strict_tetrahedral_number",
    "falling_factorial",
    "check_positive_int",
    "check_nonnegative_int",
    "check_in_range",
    "check_probability",
    "as_generator",
]
