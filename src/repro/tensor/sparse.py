"""Sparse symmetric 3-D tensors (canonical COO storage).

Hypergraph adjacency tensors and other combinatorial workloads have
``O(n)``–``O(n²)`` nonzeros rather than ``Θ(n³)``; packed dense storage
wastes memory and the scatter kernel wastes work on zeros. This module
stores only the canonical nonzeros — index arrays ``(I, J, K)`` with
``I >= J >= K`` plus values — and evaluates STTSV with the same
weighted three-scatter as the dense kernel, in
``O(nnz)`` time and memory.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.tensor.multiplicity import contribution_weights
from repro.tensor.packed import PackedSymmetricTensor, packed_index
from repro.util.validation import check_positive_int


class SparseSymmetricTensor:
    """Canonical-coordinate sparse symmetric tensor.

    Parameters
    ----------
    n:
        Mode dimension.
    indices:
        Integer array of shape ``(nnz, 3)`` with rows ``i >= j >= k``
        (duplicates forbidden).
    values:
        Float array of shape ``(nnz,)``.

    Examples
    --------
    >>> t = SparseSymmetricTensor(5, [[3, 1, 0], [4, 4, 2]], [1.0, 2.0])
    >>> t[0, 3, 1]
    1.0
    >>> t[2, 4, 4]
    2.0
    >>> t[1, 1, 1]
    0.0
    """

    def __init__(
        self,
        n: int,
        indices: Sequence[Sequence[int]],
        values: Sequence[float],
    ):
        self.n = check_positive_int(n, "n")
        indices = np.asarray(indices, dtype=np.int64).reshape(-1, 3)
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        if indices.shape[0] != values.shape[0]:
            raise ConfigurationError(
                f"{indices.shape[0]} index rows vs {values.shape[0]} values"
            )
        if indices.size:
            if indices.min() < 0 or indices.max() >= n:
                raise ConfigurationError("index out of range")
            if not (
                np.all(indices[:, 0] >= indices[:, 1])
                and np.all(indices[:, 1] >= indices[:, 2])
            ):
                raise ConfigurationError(
                    "indices must be canonical (i >= j >= k); use from_entries"
                )
            offsets = (
                indices[:, 0] * (indices[:, 0] + 1) * (indices[:, 0] + 2) // 6
                + indices[:, 1] * (indices[:, 1] + 1) // 2
                + indices[:, 2]
            )
            if np.unique(offsets).size != offsets.size:
                raise ConfigurationError("duplicate canonical entries")
            order = np.argsort(offsets)
            indices = indices[order]
            values = values[order]
        self.indices = indices
        self.values = values

    # -- constructors ------------------------------------------------------------

    @classmethod
    def from_entries(
        cls, n: int, entries: Dict[Tuple[int, int, int], float]
    ) -> "SparseSymmetricTensor":
        """Build from a dict of (any-order) index triples to values."""
        canonical: Dict[Tuple[int, int, int], float] = {}
        for triple, value in entries.items():
            key = tuple(sorted(triple, reverse=True))
            if key in canonical and canonical[key] != value:
                raise ConfigurationError(
                    f"conflicting values for symmetric entry {key}"
                )
            canonical[key] = float(value)
        keys = sorted(canonical)
        return cls(n, list(keys), [canonical[k] for k in keys])

    @classmethod
    def from_hyperedges(
        cls, n: int, edges: Sequence[Tuple[int, int, int]], weight: float = 1.0
    ) -> "SparseSymmetricTensor":
        """Adjacency tensor of a 3-uniform hypergraph, O(|E|) memory."""
        rows = [tuple(sorted(edge, reverse=True)) for edge in edges]
        for i, j, k in rows:
            if not i > j > k:
                raise ConfigurationError(f"hyperedge {(i, j, k)} not 3 distinct")
        return cls(n, rows, [weight] * len(rows))

    # -- access --------------------------------------------------------------------

    @property
    def nnz(self) -> int:
        """Stored canonical nonzeros."""
        return int(self.values.size)

    def __getitem__(self, triple: Tuple[int, int, int]) -> float:
        i, j, k = sorted(triple, reverse=True)
        if i >= self.n or k < 0:
            raise ConfigurationError(f"index {triple} out of range")
        target = packed_index(i, j, k)
        offsets = (
            self.indices[:, 0] * (self.indices[:, 0] + 1) * (self.indices[:, 0] + 2) // 6
            + self.indices[:, 1] * (self.indices[:, 1] + 1) // 2
            + self.indices[:, 2]
        )
        position = np.searchsorted(offsets, target)
        if position < offsets.size and offsets[position] == target:
            return float(self.values[position])
        return 0.0

    def to_packed(self) -> PackedSymmetricTensor:
        """Densify into packed lower-tetrahedral storage."""
        dense = PackedSymmetricTensor(self.n)
        for (i, j, k), value in zip(self.indices, self.values):
            dense.data[packed_index(int(i), int(j), int(k))] = value
        return dense

    def __repr__(self) -> str:
        return f"SparseSymmetricTensor(n={self.n}, nnz={self.nnz})"


def sttsv_sparse(tensor: SparseSymmetricTensor, x: np.ndarray) -> np.ndarray:
    """STTSV in ``O(nnz)``: the weighted three-scatter of Algorithm 4
    restricted to stored entries."""
    n = tensor.n
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n,):
        raise ConfigurationError(f"vector must have shape ({n},)")
    return sparse_scatter(tensor.indices, tensor.values, x)


def sparse_scatter(
    indices: np.ndarray, values: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """The weighted three-scatter over canonical COO entries; ``y`` has
    ``x``'s length (Algorithm 5's per-processor sparse kernel too)."""
    n = x.size
    if values.size == 0:
        return np.zeros(n)
    I = indices[:, 0]
    J = indices[:, 1]
    K = indices[:, 2]
    w_i, w_j, w_k = contribution_weights(I, J, K)
    y = np.bincount(I, weights=w_i * values * x[J] * x[K], minlength=n)
    y += np.bincount(J, weights=w_j * values * x[I] * x[K], minlength=n)
    y += np.bincount(K, weights=w_k * values * x[I] * x[J], minlength=n)
    return y
