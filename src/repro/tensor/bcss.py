"""Blocked Compact Symmetric Storage (BCSS) for order-m symmetric tensors.

Schatz et al.'s resolution of the symmetry-vs-BLAS conflict: partition
the ``n^m`` cube into ``n̄ = n / b`` row blocks per mode and store only
the ``C(n̄ + m - 1, m)`` blocks whose block-index tuple is canonical
(non-increasing) — but store each such block *dense* (``b^m`` words),
so every block contraction is a plain gemm/einsum on contiguous data.
Storage overhead over fully-packed is a factor ``≈ m!`` at the block
boundary scale only: total words are
``C(n̄+m-1, m) · b^m ≈ n^m / m! · (1 + O(m²b/n))``.

Block offsets reuse the combinatorial number system of
:mod:`repro.tensor.ndpacked` applied to block-index tuples — the same
bijection at a coarser granularity — and the per-block multiplicity
weights are :func:`repro.tensor.multiplicity.nd_contribution_weights`.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.tensor.ndpacked import (
    NdPackedSymmetricTensor,
    nd_index_arrays,
    nd_packed_index,
    nd_packed_offsets,
    nd_packed_size,
)
from repro.util.validation import check_positive_int


def bcss_block_count(nbar: int, m: int) -> int:
    """Stored blocks: one per canonical block tuple, ``C(n̄+m-1, m)``."""
    nbar = check_positive_int(nbar, "nbar")
    m = check_positive_int(m, "m")
    return comb(nbar + m - 1, m)


@lru_cache(maxsize=4096)
def _block_entry_offsets(
    block_index: Tuple[int, ...], block_size: int
) -> np.ndarray:
    """Packed offsets of every entry of one dense ``(b,)*m`` block.

    Each entry's global index tuple is sorted descending by
    compare-exchanges on broadcast axes, then mapped through
    :func:`~repro.tensor.ndpacked.nd_packed_offsets`. Only axes whose
    block indices are equal need exchanging — a canonical block tuple
    already orders the others — so an off-diagonal block's offsets are
    one broadcast sum of per-axis terms.

    Cached (4096 entries, read-only arrays): offsets depend only on the
    block tuple and block size, never on ``n`` (the combinatorial
    number system is n-independent), so reloads — HOPM restarts,
    deflation stages, re-registrations — skip recomputing them.
    """
    b, m = block_size, len(block_index)
    axes = [
        np.arange(index * b, (index + 1) * b, dtype=np.int64).reshape(
            (1,) * t + (b,) + (1,) * (m - t - 1)
        )
        for t, index in enumerate(block_index)
    ]
    for end in range(m - 1, 0, -1):  # bubble network, descending
        for t in range(end):
            if block_index[t] == block_index[t + 1]:
                hi = np.maximum(axes[t], axes[t + 1])
                axes[t + 1] = np.minimum(axes[t], axes[t + 1])
                axes[t] = hi
    offsets = nd_packed_offsets(axes)  # axis t spans dimension t: full shape
    offsets.setflags(write=False)
    return offsets


def gather_blocks(
    tensor: NdPackedSymmetricTensor,
    block_indices,
    block_size: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The dense ``(b,)*m`` blocks of ``tensor`` at its canonical block
    tuples ``block_indices``, in that order, gathered from packed
    storage into ``out`` (a fresh ``(len(block_indices), b, ..., b)``
    array if not given). Mirrored entries of a diagonal block are one
    stored word, so every block is exactly symmetric in the modes a
    repeated block index spans."""
    if out is None:
        out = np.empty((len(block_indices),) + (block_size,) * tensor.d)
    for block, index in zip(out, np.asarray(block_indices).tolist()):
        # Offsets are in range by construction; "clip" lets take
        # write straight into the block without a bounds buffer.
        np.take(
            tensor.data,
            _block_entry_offsets(tuple(index), block_size),
            out=block,
            mode="clip",
        )
    return out


class BCSSTensor:
    """Order-``m`` symmetric tensor in blocked compact symmetric storage.

    Parameters
    ----------
    n:
        Mode dimension; must be divisible by ``block_size`` (pad first
        with :func:`repro.tensor.ndpacked.pad_ndpacked` otherwise).
    m:
        Tensor order.
    block_size:
        Dense block edge ``b``.
    blocks:
        Optional ``(num_blocks, b, ..., b)`` array of block payloads in
        block-offset order.
    """

    def __init__(
        self, n: int, m: int, block_size: int, blocks: np.ndarray = None
    ):
        self.n = check_positive_int(n, "n")
        self.m = check_positive_int(m, "m")
        self.block_size = check_positive_int(block_size, "block_size")
        if self.n % self.block_size:
            raise ConfigurationError(
                f"n={n} not divisible by block_size={block_size}"
            )
        self.nbar = self.n // self.block_size
        self.num_blocks = bcss_block_count(self.nbar, self.m)
        shape = (self.num_blocks,) + (self.block_size,) * self.m
        if blocks is None:
            blocks = np.zeros(shape)
        else:
            blocks = np.asarray(blocks, dtype=np.float64)
            if blocks.shape != shape:
                raise ConfigurationError(
                    f"blocks must have shape {shape}, got {blocks.shape}"
                )
        self.blocks = blocks
        # Row o holds the canonical block tuple whose block offset is o.
        self.block_indices = nd_index_arrays(self.nbar, self.m)

    def block(self, block_index) -> np.ndarray:
        """Dense payload of one canonical block tuple: a view into
        :attr:`blocks`, not a copy."""
        block_index = tuple(block_index)
        if max(block_index) >= self.nbar:
            raise ConfigurationError(
                f"block {block_index} exceeds the {self.nbar} row blocks"
            )
        return self.blocks[nd_packed_index(block_index)]

    @property
    def storage_words(self) -> int:
        return self.num_blocks * self.block_size**self.m

    @property
    def nbytes(self) -> int:
        return self.blocks.nbytes

    @classmethod
    def from_ndpacked(
        cls, tensor: NdPackedSymmetricTensor, block_size: int
    ) -> "BCSSTensor":
        """Exact conversion: gather each dense block from packed storage.

        Examples
        --------
        >>> from repro.tensor.ndpacked import nd_random_symmetric
        >>> tensor = nd_random_symmetric(6, 3, seed=0)
        >>> bcss = BCSSTensor.from_ndpacked(tensor, 2)
        >>> cube = tensor.to_dense()[4:6, 2:4, 2:4]
        >>> bool(np.array_equal(bcss.block((2, 1, 1)), cube))
        True
        """
        out = cls(tensor.n, tensor.d, block_size)
        gather_blocks(tensor, out.block_indices, block_size, out=out.blocks)
        return out

    def to_ndpacked(self) -> NdPackedSymmetricTensor:
        """Exact inverse of :meth:`from_ndpacked`.

        Every canonical entry lies inside its canonical block (the
        blockwise floor of a non-increasing tuple is non-increasing),
        so scattering all stored blocks covers the packed layout; the
        symmetric duplicates within a block overwrite with equal
        values.
        """
        data = np.empty(nd_packed_size(self.n, self.m))
        for block, index in zip(self.blocks, self.block_indices.tolist()):
            data[_block_entry_offsets(tuple(index), self.block_size)] = block
        return NdPackedSymmetricTensor(self.n, self.m, data)

    def to_dense(self) -> np.ndarray:
        """Expand to the full ``n^m`` cube (test scale only)."""
        return self.to_ndpacked().to_dense()

    @classmethod
    def from_dense(cls, dense: np.ndarray, block_size: int) -> "BCSSTensor":
        return cls.from_ndpacked(
            NdPackedSymmetricTensor.from_dense(dense), block_size
        )

    def __repr__(self) -> str:
        return (
            f"BCSSTensor(n={self.n}, m={self.m}, b={self.block_size},"
            f" blocks={self.num_blocks})"
        )
