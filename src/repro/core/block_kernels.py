"""Per-block ternary-multiplication kernels (Algorithm 5, lines 24–36).

Each processor owns dense ``b × b × b`` blocks of the virtual full
symmetric tensor and the ``q + 1`` row blocks of ``x`` its index set
``R_p`` touches. For a block with block-index ``(I, J, K)`` the paper's
case split becomes three (or fewer) weighted triple contractions:

* ``I > J > K`` (off-diagonal, line 26–28)::

      y[I] += 2 · A ×₂ x[J] ×₃ x[K]
      y[J] += 2 · A ×₁ x[I] ×₃ x[K]
      y[K] += 2 · A ×₁ x[I] ×₂ x[J]

* ``I == J > K`` (non-central diagonal, line 30)::

      y[I] += 2 · A ×₂ x[I] ×₃ x[K]
      y[K] += 1 · A ×₁ x[I] ×₂ x[I]

* ``I > J == K`` (non-central diagonal, line 32)::

      y[I] += 1 · A ×₂ x[K] ×₃ x[K]
      y[K] += 2 · A ×₁ x[I] ×₂ x[K]

* ``I == J == K`` (central diagonal, line 34)::

      y[I] += 1 · A ×₂ x[I] ×₃ x[I]

The weights {2, 1} are the ordered-arrangement multiplicities of the
block positions in the full tensor; summed over a processor's block
inventory these updates reproduce the exact symmetric STTSV (verified
against :func:`repro.core.sttsv_sequential.sttsv_packed`).

Each contraction is two BLAS matrix-vector products on reshaped or
transposed views of the block — no Python-level loops over tensor
entries, no copies of a C-contiguous block, and none of the per-call
contraction-path search ``np.einsum(..., optimize=True)`` would pay.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.errors import ConfigurationError


def contract_mode23(block: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``(A ×₂ u ×₃ v)_i = Σ_{j,k} A[i,j,k] u_j v_k``."""
    return (block.transpose(0, 2, 1) @ u) @ v


def contract_mode13(block: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``(A ×₁ u ×₃ v)_j = Σ_{i,k} A[i,j,k] u_i v_k``."""
    b0, b1, b2 = block.shape
    return (u @ block.reshape(b0, b1 * b2)).reshape(b1, b2) @ v


def contract_mode12(block: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``(A ×₁ u ×₂ v)_k = Σ_{i,j} A[i,j,k] u_i v_j``."""
    b0, b1, b2 = block.shape
    return v @ (u @ block.reshape(b0, b1 * b2)).reshape(b1, b2)


def apply_block(
    block_index: Tuple[int, int, int],
    block: np.ndarray,
    x_blocks: Dict[int, np.ndarray],
    y_blocks: Dict[int, np.ndarray],
) -> None:
    """Accumulate one block's contributions into per-row-block outputs.

    Parameters
    ----------
    block_index:
        Canonical ``(I, J, K)`` with ``I >= J >= K``.
    block:
        The dense ``b × b × b`` sub-cube at that position.
    x_blocks:
        Row blocks of the input vector, keyed by row-block index; must
        contain ``I``, ``J`` and ``K``.
    y_blocks:
        Mutable accumulator row blocks (same keys); updated in place.
    """
    I, J, K = block_index
    if not I >= J >= K:
        raise ConfigurationError(f"block index {block_index} not canonical")
    if I > J > K:
        y_blocks[I] += 2.0 * contract_mode23(block, x_blocks[J], x_blocks[K])
        y_blocks[J] += 2.0 * contract_mode13(block, x_blocks[I], x_blocks[K])
        y_blocks[K] += 2.0 * contract_mode12(block, x_blocks[I], x_blocks[J])
    elif I == J and J > K:
        y_blocks[I] += 2.0 * contract_mode23(block, x_blocks[I], x_blocks[K])
        y_blocks[K] += contract_mode12(block, x_blocks[I], x_blocks[I])
    elif I > J and J == K:
        y_blocks[I] += contract_mode23(block, x_blocks[K], x_blocks[K])
        y_blocks[K] += 2.0 * contract_mode13(block, x_blocks[I], x_blocks[K])
    else:  # I == J == K
        y_blocks[I] += contract_mode23(block, x_blocks[I], x_blocks[I])


def block_flop_count(block_index: Tuple[int, int, int], b: int) -> int:
    """Ternary multiplications Algorithm 5 performs for this block (§7.1).

    Off-diagonal blocks do ``3 b³``; non-central diagonal blocks
    ``3 b²(b-1)/2 + 2 b²``; central ``3 b(b-1)(b-2)/6 + 2 b(b-1) + b``.
    (The dense kernels above perform more *elementary* multiplications
    — they do not exploit symmetry inside diagonal blocks — but the
    paper's cost metric counts the canonical ternary multiplications,
    which is what this function returns.)
    """
    from repro.tensor.blocks import classify_block, ternary_multiplications

    return ternary_multiplications(classify_block(block_index), b)
