"""Packed lower-tetrahedral storage for symmetric 3-D tensors.

The order-3 case of :mod:`repro.tensor.ndpacked`: the canonical
representative of entry ``(i, j, k)`` is its sorted-descending form
``i >= j >= k``, and the combinatorial number system gives the layered
layout

    offset(i, j, k) = T3(i) + T2(j) + k,

where ``T3(i) = i(i+1)(i+2)/6`` counts complete ``i``-layers and
``T2(j) = j(j+1)/2`` counts complete rows within a layer. The map is a
bijection onto ``range(n(n+1)(n+2)/6)`` (property-tested), giving O(1)
random access without materializing ``n³`` memory — the storage saving
the paper's §1 highlights (≈ ``n³/6`` vs ``n³``).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.tensor.ndpacked import (
    NdPackedSymmetricTensor,
    nd_canonical,
    nd_packed_index,
    nd_packed_size,
    nd_unpacked,
)


def packed_size(n: int) -> int:
    """Number of stored entries for dimension ``n``: ``n(n+1)(n+2)/6``."""
    return nd_packed_size(n, 3)


def packed_index(i: int, j: int, k: int) -> int:
    """Packed offset of the canonical triple ``i >= j >= k >= 0`` (use
    :func:`canonical_triple` first for arbitrary order)."""
    return nd_packed_index((i, j, k))


def canonical_triple(i: int, j: int, k: int) -> Tuple[int, int, int]:
    """Sort a triple into descending (canonical) order."""
    return nd_canonical((i, j, k))


def unpacked_triple(offset: int) -> Tuple[int, int, int]:
    """Inverse of :func:`packed_index`: recover ``(i, j, k)`` from offset."""
    return nd_unpacked(offset, 3)


class PackedSymmetricTensor(NdPackedSymmetricTensor):
    """A fully symmetric ``n × n × n`` tensor stored as a flat vector:
    an :class:`~repro.tensor.ndpacked.NdPackedSymmetricTensor` with
    ``d = 3``.

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

    def __init__(self, n: int, data: np.ndarray = None):
        super().__init__(n, 3, data)

    def to_dense(self) -> np.ndarray:
        """Expand to a full ``n × n × n`` symmetric ndarray."""
        from repro.tensor.dense import dense_from_packed

        return dense_from_packed(self)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "PackedSymmetricTensor":
        """Pack a symmetric dense tensor (validates symmetry)."""
        from repro.tensor.dense import packed_from_dense

        return packed_from_dense(dense)
