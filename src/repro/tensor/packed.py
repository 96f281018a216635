"""Packed lower-tetrahedral storage for symmetric 3-D tensors.

The canonical representative of entry ``(i, j, k)`` is its sorted-
descending form ``i >= j >= k``; packed offsets follow the layered
layout

    offset(i, j, k) = T3(i) + T2(j) + k,

where ``T3(i) = i(i+1)(i+2)/6`` counts complete ``i``-layers and
``T2(j) = j(j+1)/2`` counts complete rows within a layer. The map is a
bijection onto ``range(n(n+1)(n+2)/6)`` (property-tested), giving O(1)
random access without materializing ``n³`` memory — the storage saving
the paper's §1 highlights (≈ ``n³/6`` vs ``n³``).
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.tensor.ndpacked import nd_index_arrays
from repro.util.combinatorics import tetrahedral_number
from repro.util.validation import check_positive_int


def packed_size(n: int) -> int:
    """Number of stored entries for dimension ``n``: ``n(n+1)(n+2)/6``."""
    return tetrahedral_number(n)


def packed_index(i: int, j: int, k: int) -> int:
    """Packed offset of the canonical triple ``i >= j >= k >= 0``.

    The caller must supply indices already in canonical (descending)
    order; use :func:`canonical_triple` first for arbitrary order.
    """
    if not i >= j >= k >= 0:
        raise ConfigurationError(
            f"indices ({i}, {j}, {k}) not in canonical descending order"
        )
    return i * (i + 1) * (i + 2) // 6 + j * (j + 1) // 2 + k


def canonical_triple(i: int, j: int, k: int) -> Tuple[int, int, int]:
    """Sort a triple into descending (canonical) order."""
    a, b, c = sorted((i, j, k), reverse=True)
    return a, b, c


def unpacked_triple(offset: int) -> Tuple[int, int, int]:
    """Inverse of :func:`packed_index`: recover ``(i, j, k)`` from offset.

    Uses integer cube/square root seeds plus local correction, so it is
    exact for all offsets representable as Python ints.
    """
    if offset < 0:
        raise ConfigurationError(f"offset must be >= 0, got {offset}")
    # Find the largest i with T3(i) <= offset.
    i = int(round((6 * offset) ** (1 / 3)))
    while i * (i + 1) * (i + 2) // 6 > offset:
        i -= 1
    while (i + 1) * (i + 2) * (i + 3) // 6 <= offset:
        i += 1
    rem = offset - i * (i + 1) * (i + 2) // 6
    j = int((2 * rem) ** 0.5)
    while j * (j + 1) // 2 > rem:
        j -= 1
    while (j + 1) * (j + 2) // 2 <= rem:
        j += 1
    k = rem - j * (j + 1) // 2
    return i, j, k


class PackedSymmetricTensor:
    """A fully symmetric ``n × n × n`` tensor stored as a flat vector.

    Parameters
    ----------
    n:
        Mode dimension.
    data:
        Optional flat array of length ``n(n+1)(n+2)/6`` (float64); zeros
        if omitted. The array is used directly (no copy) when the dtype
        and length already match.

    Examples
    --------
    >>> t = PackedSymmetricTensor(4)
    >>> t[3, 1, 2] = 7.0    # any index order refers to the same entry
    >>> t[1, 2, 3]
    7.0
    """

    #: Tensor order, as on :class:`~repro.tensor.ndpacked.NdPackedSymmetricTensor`
    #: (the layouts coincide at order 3).
    d = 3

    def __init__(self, n: int, data: np.ndarray = None):
        self.n = check_positive_int(n, "n")
        size = packed_size(self.n)
        if data is None:
            data = np.zeros(size, dtype=np.float64)
        else:
            data = np.asarray(data, dtype=np.float64)
            if data.shape != (size,):
                raise ConfigurationError(
                    f"packed data must have shape ({size},), got {data.shape}"
                )
        self.data = data
        # Element-write counter consumed by the compiled-plan cache
        # (see repro.core.plans): a plan bakes current values into its
        # precomputed products, so it must detect writes through
        # ``tensor[i, j, k] = v``.
        self._mutations = 0

    # -- element access ---------------------------------------------------------

    def __getitem__(self, indices: Tuple[int, int, int]) -> float:
        i, j, k = canonical_triple(*indices)
        self._check_bounds(i)
        return float(self.data[packed_index(i, j, k)])

    def __setitem__(self, indices: Tuple[int, int, int], value: float) -> None:
        i, j, k = canonical_triple(*indices)
        self._check_bounds(i)
        self.data[packed_index(i, j, k)] = value
        self._mutations += 1

    def _check_bounds(self, largest: int) -> None:
        if largest >= self.n:
            raise ConfigurationError(
                f"index {largest} out of range for dimension {self.n}"
            )

    # -- iteration ----------------------------------------------------------------

    def canonical_entries(self) -> Iterator[Tuple[int, int, int, float]]:
        """Yield ``(i, j, k, value)`` over the lower tetrahedron."""
        offset = 0
        data = self.data
        for i in range(self.n):
            for j in range(i + 1):
                for k in range(j + 1):
                    yield i, j, k, float(data[offset])
                    offset += 1

    @staticmethod
    def index_arrays(n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized canonical index arrays aligned with packed layout.

        Returns ``(I, J, K)`` arrays of length ``packed_size(n)`` such
        that packed entry ``t`` corresponds to indices
        ``(I[t], J[t], K[t])``: the columns of the order-3
        :func:`~repro.tensor.ndpacked.nd_index_arrays` table.
        """
        I, J, K = nd_index_arrays(n, 3).T
        return I, J, K

    # -- conversions ------------------------------------------------------------------

    def to_dense(self) -> np.ndarray:
        """Expand to a full ``n × n × n`` symmetric ndarray."""
        from repro.tensor.dense import dense_from_packed

        return dense_from_packed(self)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "PackedSymmetricTensor":
        """Pack a symmetric dense tensor (validates symmetry)."""
        from repro.tensor.dense import packed_from_dense

        return packed_from_dense(dense)

    # -- misc -----------------------------------------------------------------------------

    def copy(self) -> "PackedSymmetricTensor":
        """Deep copy."""
        return PackedSymmetricTensor(self.n, self.data.copy())

    def nbytes(self) -> int:
        """Bytes of packed storage."""
        return self.data.nbytes

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PackedSymmetricTensor)
            and self.n == other.n
            and np.array_equal(self.data, other.data)
        )

    def __repr__(self) -> str:
        return f"PackedSymmetricTensor(n={self.n}, entries={self.data.size})"
