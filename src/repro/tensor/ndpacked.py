"""Packed storage for d-dimensional fully symmetric tensors.

Generalizes :mod:`repro.tensor.packed` to arbitrary order ``d >= 1``
(the paper's §8 d-dimensional extension). The canonical representative
of an entry is its non-increasing index tuple
``i₁ >= i₂ >= ... >= i_d``; there are ``C(n + d - 1, d)`` of them
(multisets of size d from n symbols).

Offsets use the combinatorial number system for non-increasing tuples:

    offset(i₁, ..., i_d) = Σ_{t=1}^{d} C(i_t + d - t, d - t + 1),

which for ``d = 3`` reduces to the familiar
``i(i+1)(i+2)/6 + j(j+1)/2 + k`` and is a bijection onto
``range(C(n + d - 1, d))`` (property-tested).
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb, factorial
from typing import Iterator, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.util.validation import check_positive_int


def nd_packed_size(n: int, d: int) -> int:
    """Canonical entries of an order-d symmetric tensor: ``C(n+d-1, d)``."""
    n = check_positive_int(n, "n")
    d = check_positive_int(d, "d")
    return comb(n + d - 1, d)


def nd_packed_index(indices: Tuple[int, ...]) -> int:
    """Offset of a canonical (non-increasing) index tuple."""
    d = len(indices)
    for a, b in zip(indices, indices[1:]):
        if a < b:
            raise ConfigurationError(
                f"indices {indices} not in canonical non-increasing order"
            )
    if indices and indices[-1] < 0:
        raise ConfigurationError(f"negative index in {indices}")
    return sum(
        comb(value + d - t, d - t + 1) for t, value in enumerate(indices, start=1)
    )


def nd_canonical(indices: Tuple[int, ...]) -> Tuple[int, ...]:
    """Sort an index tuple into canonical non-increasing order."""
    return tuple(sorted(indices, reverse=True))


def nd_packed_index_array(canonical: np.ndarray) -> np.ndarray:
    """Vectorized :func:`nd_packed_index` over a ``(..., d)`` array of
    canonical (non-increasing along the last axis) index tuples.

    Evaluates ``C(i_t + d - t, d - t + 1)`` with the rising-product
    formula ``Π_{s=0}^{k-1} (i_t + s) / k!`` in exact int64 arithmetic
    — valid while offsets fit 63 bits, far beyond any storable tensor.
    """
    canonical = np.asarray(canonical, dtype=np.int64)
    d = canonical.shape[-1]
    offsets = np.zeros(canonical.shape[:-1], dtype=np.int64)
    for t in range(1, d + 1):
        k = d - t + 1
        values = canonical[..., t - 1]
        term = np.ones_like(values)
        for s in range(k):
            term = term * (values + s)
        offsets += term // factorial(k)
    return offsets


def nd_index_arrays(n: int, d: int) -> np.ndarray:
    """All canonical (non-increasing) tuples of an ``(n, d)`` packed
    layout as a ``(size, d)`` int64 array, row ``o`` holding the tuple
    whose packed offset is ``o``.

    Built one order at a time: the tuples led by ``i`` take the next
    ``C(i + e - 1, e - 1)`` offsets and are ``i`` followed by that many
    leading rows of the order ``e - 1`` table (its tuples with largest
    value ``<= i``). Column-major, so each column is a contiguous index
    array.
    """
    n = check_positive_int(n, "n")
    d = check_positive_int(d, "d")
    table = np.arange(n, dtype=np.int64)[:, None]
    for e in range(2, d + 1):
        counts = np.array(
            [comb(i + e - 1, e - 1) for i in range(n)], dtype=np.int64
        )
        local = np.arange(int(counts.sum()), dtype=np.int64)
        local -= np.repeat(np.cumsum(counts) - counts, counts)
        out = np.empty((local.size, e), dtype=np.int64, order="F")
        out[:, 0] = np.repeat(np.arange(n, dtype=np.int64), counts)
        for c in range(1, e):
            # ``local`` is in range by construction; "clip" lets take
            # write straight into the column without a bounds buffer.
            np.take(table[:, c - 1], local, out=out[:, c], mode="clip")
        table = out
    return table


def nd_unpacked(offset: int, d: int) -> Tuple[int, ...]:
    """Inverse of :func:`nd_packed_index` for order ``d``."""
    if offset < 0:
        raise ConfigurationError("offset must be >= 0")
    remaining = offset
    out = []
    for t in range(1, d + 1):
        k = d - t + 1
        # Largest i with C(i + k - 1, k) <= remaining.
        i = 0
        while comb(i + k, k) <= remaining:
            i += 1
        out.append(i)
        remaining -= comb(i + k - 1, k)
    return tuple(out)


def nd_multiplicity(indices: Tuple[int, ...]) -> int:
    """Distinct permutations of the index multiset: d! / Π(count!)."""
    counts = {}
    for value in indices:
        counts[value] = counts.get(value, 0) + 1
    result = factorial(len(indices))
    for count in counts.values():
        result //= factorial(count)
    return result


class NdPackedSymmetricTensor:
    """Order-``d`` fully symmetric tensor over ``n`` indices, packed.

    Parameters
    ----------
    n:
        Mode dimension.
    d:
        Tensor order (number of modes), >= 1.
    data:
        Optional flat array of length ``C(n+d-1, d)``.

    Examples
    --------
    >>> t = NdPackedSymmetricTensor(4, 4)
    >>> t[3, 0, 2, 1] = 5.0
    >>> t[0, 1, 2, 3]
    5.0
    """

    def __init__(self, n: int, d: int, data: np.ndarray = None):
        self.n = check_positive_int(n, "n")
        self.d = check_positive_int(d, "d")
        size = nd_packed_size(self.n, self.d)
        if data is None:
            data = np.zeros(size)
        else:
            data = np.asarray(data, dtype=np.float64)
            if data.shape != (size,):
                raise ConfigurationError(
                    f"data must have shape ({size},), got {data.shape}"
                )
        self.data = data
        # Element-write counter consumed by the compiled-plan cache
        # (see repro.core.plans), as on PackedSymmetricTensor.
        self._mutations = 0

    def _offset(self, indices: Tuple[int, ...]) -> int:
        if len(indices) != self.d:
            raise ConfigurationError(
                f"expected {self.d} indices, got {len(indices)}"
            )
        canonical = nd_canonical(indices)
        if canonical[0] >= self.n:
            raise ConfigurationError(
                f"index {canonical[0]} out of range for dimension {self.n}"
            )
        return nd_packed_index(canonical)

    def __getitem__(self, indices) -> float:
        return float(self.data[self._offset(tuple(indices))])

    def __setitem__(self, indices, value: float) -> None:
        self.data[self._offset(tuple(indices))] = value
        self._mutations += 1

    def canonical_entries(self) -> Iterator[Tuple[Tuple[int, ...], float]]:
        """Yield every ``(canonical_tuple, value)`` pair exactly once."""
        for combo in combinations_with_replacement(range(self.n), self.d):
            canonical = tuple(reversed(combo))  # non-increasing
            yield canonical, float(self.data[nd_packed_index(canonical)])

    def index_arrays(self) -> np.ndarray:
        """All canonical tuples as an ``(size, d)`` int array aligned
        with packed offsets."""
        return nd_index_arrays(self.n, self.d)

    def to_dense(self) -> np.ndarray:
        """Expand to the full ``n^d`` cube (test scale only)."""
        from itertools import permutations

        dense = np.empty((self.n,) * self.d)
        for canonical, value in self.canonical_entries():
            for perm in set(permutations(canonical)):
                dense[perm] = value
        return dense

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "NdPackedSymmetricTensor":
        """Pack a symmetric dense array (validates symmetry on canonical
        representatives)."""
        from itertools import permutations

        dense = np.asarray(dense, dtype=np.float64)
        d = dense.ndim
        n = dense.shape[0]
        if dense.shape != (n,) * d:
            raise ConfigurationError(f"expected a hypercube, got {dense.shape}")
        tensor = cls(n, d)
        for combo in combinations_with_replacement(range(n), d):
            canonical = tuple(reversed(combo))
            value = dense[canonical]
            for perm in set(permutations(canonical)):
                if dense[perm] != value:
                    raise ConfigurationError(
                        f"input not symmetric at {perm} vs {canonical}"
                    )
            tensor.data[nd_packed_index(canonical)] = value
        return tensor

    def __repr__(self) -> str:
        return (
            f"NdPackedSymmetricTensor(n={self.n}, d={self.d},"
            f" entries={self.data.size})"
        )


def pad_ndpacked(
    tensor: NdPackedSymmetricTensor, n_padded: int
) -> NdPackedSymmetricTensor:
    """Zero-pad to mode dimension ``n_padded`` (no-op when equal).

    The combinatorial-number-system offset of a tuple is independent of
    ``n``, and tuples with maximum value below ``n`` occupy exactly the
    first ``C(n+d-1, d)`` offsets — so padding is a flat concatenation.
    """
    if n_padded < tensor.n:
        raise ConfigurationError(
            f"cannot pad n={tensor.n} down to {n_padded}"
        )
    if n_padded == tensor.n:
        return tensor
    data = np.zeros(nd_packed_size(n_padded, tensor.d))
    data[: tensor.data.size] = tensor.data
    return NdPackedSymmetricTensor(n_padded, tensor.d, data)


def nd_random_symmetric(n: int, d: int, seed=None) -> NdPackedSymmetricTensor:
    """Random order-d symmetric tensor with iid N(0,1) canonical entries."""
    from repro.util.seeding import as_generator

    rng = as_generator(seed)
    return NdPackedSymmetricTensor(n, d, rng.normal(size=nd_packed_size(n, d)))
