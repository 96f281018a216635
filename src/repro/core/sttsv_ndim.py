"""d-dimensional STTSV (paper §8 extension).

``y = A ×₂ x ×₃ x ··· ×_d x`` for an order-``d`` fully symmetric
tensor: ``y_i = Σ_{j₂..j_d} a_{i j₂ ... j_d} x_{j₂} ··· x_{j_d}``.
The paper notes its lower-bound arguments "can easily be extended for
d-dimensional STTSV computations" while optimal *partitions* are open
(no known infinite Steiner ``(n, r, s)`` families for ``s > 3``);
accordingly this module provides:

* sequential kernels: a dense-einsum oracle and a symmetric-exploiting
  kernel over packed storage performing one fused update per canonical
  entry — the order-d generalization of Algorithm 4: for canonical
  multiset ``M`` with value ``a`` and each *distinct* ``t ∈ M``, add
  ``w · a · Π_{s ∈ M∖{t}} x_s`` to ``y_t`` where ``w`` is the number of
  distinct arrangements of the remaining ``d−1`` indices;
* the generalized memory-independent lower bound,
  ``2 (n(n−1)···(n−d+1)/P)^{1/d} − 2n/P``.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.tensor.ndpacked import NdPackedSymmetricTensor, nd_index_arrays
from repro.util.combinatorics import falling_factorial
from repro.util.validation import check_positive_int


def sttsv_ndim_dense_reference(dense: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Oracle: contract modes 2..d of a dense hypercube with ``x``."""
    dense = np.asarray(dense, dtype=np.float64)
    d = dense.ndim
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (dense.shape[0],):
        raise ConfigurationError("vector shape mismatch")
    result = dense
    for _ in range(d - 1):
        result = result @ x
    return result


def _remaining_arrangements(counts: Dict[int, int], removed: int) -> int:
    """Distinct arrangements of the multiset minus one copy of ``removed``."""
    total = sum(counts.values()) - 1
    numerator = factorial(total)
    for value, count in counts.items():
        effective = count - 1 if value == removed else count
        numerator //= factorial(effective)
    return numerator


def sttsv_ndim_scalar(
    tensor: NdPackedSymmetricTensor, x: np.ndarray
) -> np.ndarray:
    """Scalar-python reference kernel over packed storage.

    Touches each of the ``C(n+d-1, d)`` canonical entries exactly once
    (the d-dimensional analogue of Algorithm 4's factor-(d-1)! work
    saving over the naive ``n^d`` loop). Kept as the benchmark baseline
    and cross-check for the vectorized :func:`sttsv_ndim`.
    """
    n, d = tensor.n, tensor.d
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n,):
        raise ConfigurationError(f"vector must have shape ({n},)")
    y = np.zeros(n)
    for canonical, value in tensor.canonical_entries():
        if value == 0.0:
            continue
        counts: Dict[int, int] = {}
        for index in canonical:
            counts[index] = counts.get(index, 0) + 1
        # Product of x over the full multiset; divide out the output slot.
        for output, count in counts.items():
            weight = _remaining_arrangements(counts, output)
            product = 1.0
            for other, other_count in counts.items():
                effective = other_count - 1 if other == output else other_count
                product *= x[other] ** effective
            y[output] += weight * value * product
    return y


@lru_cache(maxsize=16)
def _ndim_scatter_plan(n: int, d: int) -> Tuple[np.ndarray, np.ndarray]:
    """Cached ``(indices, weights)`` for the vectorized order-d kernel.

    ``indices`` is the ``(size, d)`` canonical tuple table aligned with
    packed offsets; ``weights[:, c]`` is the arrangement count of the
    remaining ``d-1`` indices when column ``c``'s value is the output —
    zeroed on every column that repeats an earlier column's value, so
    each *distinct* output slot contributes exactly once (the order-d
    generalization of
    :func:`repro.tensor.multiplicity.contribution_weights`).
    """
    indices = nd_index_arrays(n, d)
    columns = indices.T  # contiguous: the table is column-major
    facts = np.array([factorial(i) for i in range(d + 1)], dtype=np.float64)
    # counts[c] = multiplicity of column c's value within its own row;
    # first[c] marks its first column (rows are non-increasing).
    counts = [(columns == column).sum(axis=0, dtype=np.int8) for column in columns]
    first = [column != previous for previous, column in zip(columns, columns[1:])]
    first.insert(0, np.ones(columns.shape[1], dtype=bool))
    # Π over distinct values of count!  (one factor per first occurrence).
    denominator = np.ones(columns.shape[1])
    for c in range(d):
        denominator *= np.where(first[c], facts[counts[c]], 1.0)
    # (d-1)! · count_c / denominator is the exact integer
    # _remaining_arrangements(counts, value_c); all terms are small
    # integers so the float arithmetic is exact.
    weights = np.empty(indices.shape, order="F")
    for c in range(d):
        weights[:, c] = np.where(
            first[c], facts[d - 1] * counts[c] / denominator, 0.0
        )
    return indices, weights


def sttsv_ndim(tensor: NdPackedSymmetricTensor, x: np.ndarray) -> np.ndarray:
    """Vectorized symmetric-exploiting order-d STTSV over packed storage.

    One weighted ``bincount`` scatter-add per index column: column ``c``
    contributes ``w_c · a · Π_{c' ≠ c} x[i_{c'}]`` to ``y[i_c]``, with
    ``w_c`` zero on repeated columns. At ``d = 3`` this is Algorithm 4's
    bincount scatter: the weights equal
    :func:`repro.tensor.multiplicity.contribution_weights`, products
    associate left to right and the scatters accumulate in column order,
    which the property suite pins bitwise. It accepts a
    :class:`~repro.tensor.packed.PackedSymmetricTensor` as well (the
    layouts coincide at ``d = 3``).
    """
    n, d = tensor.n, tensor.d
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n,):
        raise ConfigurationError(f"vector must have shape ({n},)")
    indices, weights = _ndim_scatter_plan(n, d)
    return _weighted_scatter(
        indices.T, (w * tensor.data for w in weights.T), x, n
    )


def _weighted_scatter(
    columns: Sequence[np.ndarray],
    weighted: Iterable[np.ndarray],
    x: np.ndarray,
    n: int,
) -> np.ndarray:
    """The scatter of :func:`sttsv_ndim` given its index ``columns`` and
    the per-column ``weight · a`` products (any iterable, consumed in
    column order)."""
    y = None
    for c, (column, contribution) in enumerate(zip(columns, weighted)):
        for other, index in enumerate(columns):
            if other != c:
                contribution = contribution * x[index]
        partial = np.bincount(column, weights=contribution, minlength=n)
        y = partial if y is None else y + partial
    return y


def sttsv_ndim_ternary_count(n: int, d: int) -> int:
    """Multiplications the symmetric kernel performs: one fused
    (d-ary) multiplication per (canonical entry, distinct output) pair.

    For ``d = 3`` this is dominated by ``3 · C(n, 3) ≈ n³/2``, matching
    Algorithm 4's count at leading order.
    """
    from itertools import combinations_with_replacement

    check_positive_int(n, "n")
    check_positive_int(d, "d")
    total = 0
    for combo in combinations_with_replacement(range(n), d):
        total += len(set(combo))
    return total


def sttsv_ndim_lower_bound(n: int, P: int, d: int) -> float:
    """Generalized Theorem 5.2 (paper §8):
    ``2 (n(n−1)···(n−d+1)/P)^{1/d} − 2n/P``.

    Derivation mirrors the 3-D case: the symmetrized Loomis–Whitney
    inequality becomes ``d!|V| <= |∪ φ|^d``, the load-balance constraint
    ``n(n−1)···(n−d+1)/(d! P) <= x₁``, and the minimum of ``x₁ + 2x₂``
    sits at the componentwise minimum.
    """
    check_positive_int(n, "n")
    check_positive_int(P, "P")
    check_positive_int(d, "d")
    if d > n:
        raise ConfigurationError(f"order d={d} exceeds dimension n={n}")
    volume = falling_factorial(n, d)
    return 2.0 * (volume / P) ** (1.0 / d) - 2.0 * n / P
