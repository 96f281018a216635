"""Packed storage for d-dimensional fully symmetric tensors.

The one packed layout of the repo, at any order ``d >= 1`` (the
paper's §8 d-dimensional extension); :mod:`repro.tensor.packed` is its
order-3 case. The canonical representative
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
from typing import Iterator, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.util.validation import check_nonnegative_int, check_positive_int


def nd_packed_size(n: int, d: int) -> int:
    """Canonical entries of an order-d symmetric tensor: ``C(n+d-1, d)``."""
    n = check_nonnegative_int(n, "n")
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
    canonical (non-increasing along the last axis) index tuples."""
    canonical = np.asarray(canonical, dtype=np.int64)
    return nd_packed_offsets(
        [canonical[..., t] for t in range(canonical.shape[-1])]
    )


def nd_packed_offsets(columns: Sequence[np.ndarray]) -> np.ndarray:
    """Offsets of the tuples whose ``t``-th indices are ``columns[t]``
    (int64 arrays, broadcast together, non-increasing in ``t``).

    Evaluates ``C(i_t + d - t, d - t + 1)`` with the rising-product
    formula ``Π_{s=0}^{k-1} (i_t + s) / k!`` in exact int64 arithmetic
    — valid while offsets fit 63 bits, far beyond any storable tensor.
    Each term is computed at its column's own shape, so a column that
    varies along one axis only costs one row of work.
    """
    d = len(columns)
    offsets = np.zeros((), dtype=np.int64)
    for t, values in enumerate(columns, start=1):
        offsets = offsets + nd_packed_term(values, d - t + 1)
    return offsets


def nd_packed_term(values: np.ndarray, k: int) -> np.ndarray:
    """``C(values + k − 1, k)``: the part of a packed offset that an
    index contributes from the ``k``-th-to-last position (see
    :func:`nd_packed_offsets`)."""
    term = values
    for s in range(1, k):
        term = term * (values + s)
    return term // factorial(k)


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
        # (see repro.core.plans): a plan bakes current values into its
        # precomputed products, so it must detect writes through
        # ``tensor[i, j, k] = v``.
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

    def copy(self) -> "NdPackedSymmetricTensor":
        """Deep copy, of the same type."""
        return _rebuilt(self, self.n, self.data.copy())

    def nbytes(self) -> int:
        """Bytes of packed storage."""
        return self.data.nbytes

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NdPackedSymmetricTensor)
            and (self.n, self.d) == (other.n, other.d)
            and np.array_equal(self.data, other.data)
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self.n}, d={self.d},"
            f" entries={self.data.size})"
        )


def _rebuilt(tensor, n: int, data: np.ndarray) -> NdPackedSymmetricTensor:
    """A tensor of ``tensor``'s type and order over ``data`` (dimension
    ``n``); subclasses such as the order-3
    :class:`~repro.tensor.packed.PackedSymmetricTensor` fix ``d`` in
    their own constructors, so this bypasses them."""
    out = object.__new__(type(tensor))
    NdPackedSymmetricTensor.__init__(out, n, tensor.d, data)
    return out


def pad_ndpacked(
    tensor: NdPackedSymmetricTensor, n_padded: int
) -> NdPackedSymmetricTensor:
    """Zero-pad to mode dimension ``n_padded`` (no-op when equal); the
    result has ``tensor``'s type.

    The combinatorial-number-system offset of a tuple is independent of
    ``n``, and tuples with maximum value below ``n`` occupy exactly the
    first ``C(n+d-1, d)`` offsets — so padding is a flat concatenation.
    Padded entries are zero, so STTSV on the padded problem restricted
    to the first ``n`` outputs equals the original STTSV (§6.1).
    """
    if n_padded < tensor.n:
        raise ConfigurationError(
            f"cannot pad n={tensor.n} down to {n_padded}"
        )
    if n_padded == tensor.n:
        return tensor
    data = np.zeros(nd_packed_size(n_padded, tensor.d))
    data[: tensor.data.size] = tensor.data
    return _rebuilt(tensor, n_padded, data)


def nd_random_symmetric(n: int, d: int, seed=None) -> NdPackedSymmetricTensor:
    """Random order-d symmetric tensor with iid N(0,1) canonical entries."""
    from repro.util.seeding import as_generator

    rng = as_generator(seed)
    return NdPackedSymmetricTensor(n, d, rng.normal(size=nd_packed_size(n, d)))
