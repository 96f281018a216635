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

from math import comb
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.tensor.ndpacked import (
    NdPackedSymmetricTensor,
    nd_index_arrays,
    nd_packed_index,
    nd_packed_term,
    nd_packed_size,
)
from repro.util.validation import check_positive_int


def bcss_block_count(nbar: int, m: int) -> int:
    """Stored blocks: one per canonical block tuple, ``C(n̄+m-1, m)``."""
    nbar = check_positive_int(nbar, "nbar")
    m = check_positive_int(m, "m")
    return comb(nbar + m - 1, m)


def _local_axes(pattern: Tuple[bool, ...], block_size: int):
    """Within-block indices of every entry of a dense ``(b,)*m`` block,
    sorted descending entry by entry: broadcast arrays whose axis ``t``
    spans dimension ``t``. ``pattern[t]`` says whether the block's
    indices ``t`` and ``t + 1`` are equal.

    Each entry's index tuple is sorted by compare-exchanges on
    broadcast axes. Only axes whose block indices are equal need
    exchanging — a canonical block tuple already orders the others —
    so an off-diagonal block's axes stay one-dimensional.
    """
    b, m = block_size, len(pattern) + 1
    axes = [
        np.arange(b, dtype=np.int64).reshape((1,) * t + (b,) + (1,) * (m - t - 1))
        for t in range(m)
    ]
    for end in range(m - 1, 0, -1):  # bubble network, descending
        for t in range(end):
            if pattern[t]:
                hi = np.maximum(axes[t], axes[t + 1])
                axes[t + 1] = np.minimum(axes[t], axes[t + 1])
                axes[t] = hi
    return axes


def _equal_neighbours(block_index: Sequence[int]) -> Tuple[bool, ...]:
    return tuple(a == b for a, b in zip(block_index, block_index[1:]))


def _offsets(block_index: Sequence[int], block_size: int, axes) -> np.ndarray:
    """Packed offsets of one block's entries at sorted within-block
    ``axes`` (:func:`_local_axes`, or a leading subset of them for a
    partial sum): each axis looks its term up in a ``b``-long table."""
    b = block_size
    return sum(
        nd_packed_term(np.arange(index * b, (index + 1) * b), axis.ndim - t)[axis]
        for t, (index, axis) in enumerate(zip(block_index, axes))
    )


def _block_entry_offsets(
    block_index: Tuple[int, ...], block_size: int
) -> np.ndarray:
    """Packed offsets of every entry of one dense ``(b,)*m`` block."""
    axes = _local_axes(_equal_neighbours(block_index), block_size)
    return _offsets(block_index, block_size, axes)


def _run_layout(pattern: Tuple[bool, ...], block_size: int):
    """How :func:`gather_blocks` fills a block whose equal block indices
    follow ``pattern``: the sorted within-block axes of its leading
    ``m − 1`` indices (the last one is left unsorted, so each line
    along it is one packed run), and the first position of the
    trailing run of positions that share the last block index."""
    axes = _local_axes(pattern[:-1] + (False,), block_size)[:-1]
    first = len(pattern)
    while first and pattern[first - 1]:
        first -= 1
    return axes, first


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
    repeated block index spans.

    Nothing outlives the call, so a load keeps only its blocks. Every
    block is filled from ``b``-long runs of packed storage: with the
    last axis left unsorted, each line along it is a contiguous run,
    gathered through a strided view of every run. The within-block
    axes are built once per pattern of equal block indices
    (:func:`_run_layout`). A run is right wherever the last index is
    the smallest of the trailing equal block indices, which is
    everywhere when the last two block indices differ; the rest of the
    block is mirrored from those entries by swapping the last axis
    with the one holding the smallest index.
    """
    b = block_size
    if out is None:
        out = np.empty((len(block_indices),) + (b,) * tensor.d)
    runs = np.lib.stride_tricks.sliding_window_view(tensor.data, b)
    layouts = {}
    for block, index in zip(out, np.asarray(block_indices).tolist()):
        pattern = _equal_neighbours(index)
        if not pattern:  # order 1: the block is one run
            block[...] = runs[index[0] * b]
            continue
        if pattern not in layouts:
            layouts[pattern] = _run_layout(pattern, b)
        axes, first = layouts[pattern]
        # The last index's term is the index itself: a run's start.
        starts = _offsets(index[:-1], b, axes) + index[-1] * b
        block[...] = runs[starts[..., 0]]
        # Where position p holds the smallest index v of the trailing
        # run and the last index exceeds it, the entry is the gathered
        # one with axes p and m−1 swapped. Those have v last, so no
        # mirror writes what another reads.
        m = len(index)
        for p in range(first, m - 1):
            swapped = block.swapaxes(p, -1)
            for v in range(b - 1):
                region = [slice(None)] * first + [slice(v, None)] * (m - first)
                region[p], region[-1] = v, slice(v + 1, None)
                region = tuple(region)
                block[region] = swapped[region]
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
