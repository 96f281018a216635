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

:func:`apply_block` reads each block the fewest times the case allows
and lets one partial product feed every output it can. With the
mode-3 partial ``M = A ×₃ x[K]`` and the mode-1 partial
``N = A ×₁ x[I]`` (each one BLAS matrix-vector product over the
block, viewed as ``b² × b`` or ``b × b²``):

* ``I > J > K`` reads the block twice: ``y[I] += 2·M x[J]``,
  ``y[J] += 2·x[I] M`` and ``y[K] += 2·x[J] N``;
* ``I == J > K`` reads it once: ``y[I] += 2·N x[K]``,
  ``y[K] += x[I] N``;
* ``I > J == K`` reads it once: ``y[I] += M x[K]``,
  ``y[K] += 2·x[I] M``;
* the central block reads it once, as before.

The two single-read diagonal cases use the block's symmetry in its
repeated modes (``A[i,j,k] == A[j,i,k]`` when ``I == J``, and
``A[i,j,k] == A[i,k,j]`` when ``J == K``). That symmetry is exact,
not approximate, for blocks cut from packed symmetric storage
(:meth:`repro.tensor.bcss.BCSSTensor.from_ndpacked`): mirrored entries
are the same stored word. A diagonal block that is not symmetric in its
repeated modes gets a wrong answer.

No Python-level loops over tensor entries and no ``np.einsum``
contraction-path search per call.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.errors import ConfigurationError


def contract_mode23(block: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``(A ×₂ u ×₃ v)_i = Σ_{j,k} A[i,j,k] u_j v_k``."""
    return (block.transpose(0, 2, 1) @ u) @ v


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
        The dense ``b × b × b`` sub-cube at that position, symmetric in
        its repeated modes when the index repeats (true of every block
        :meth:`~repro.tensor.bcss.BCSSTensor.from_ndpacked` cuts from
        packed storage; see the module docstring).
    x_blocks:
        Row blocks of the input vector, keyed by row-block index; must
        contain ``I``, ``J`` and ``K``.
    y_blocks:
        Mutable accumulator row blocks (same keys); updated in place.
    """
    I, J, K = block_index
    if not I >= J >= K:
        raise ConfigurationError(f"block index {block_index} not canonical")
    b = block.shape[0]
    if I > J > K:
        M = (block.reshape(b * b, b) @ x_blocks[K]).reshape(b, b)
        N = (x_blocks[I] @ block.reshape(b, b * b)).reshape(b, b)
        y_blocks[I] += 2.0 * (M @ x_blocks[J])
        y_blocks[J] += 2.0 * (x_blocks[I] @ M)
        y_blocks[K] += 2.0 * (x_blocks[J] @ N)
    elif I == J and J > K:
        N = (x_blocks[I] @ block.reshape(b, b * b)).reshape(b, b)
        y_blocks[I] += 2.0 * (N @ x_blocks[K])
        y_blocks[K] += x_blocks[I] @ N
    elif I > J and J == K:
        M = (block.reshape(b * b, b) @ x_blocks[K]).reshape(b, b)
        y_blocks[I] += M @ x_blocks[K]
        y_blocks[K] += 2.0 * (x_blocks[I] @ M)
    else:  # I == J == K
        y_blocks[I] += contract_mode23(block, x_blocks[I], x_blocks[I])


def block_flop_count(block_index: Tuple[int, int, int], b: int) -> int:
    """Ternary multiplications Algorithm 5 performs for this block (§7.1).

    Off-diagonal blocks do ``3 b³``; non-central diagonal blocks
    ``3 b²(b-1)/2 + 2 b²``; central ``3 b(b-1)(b-2)/6 + 2 b(b-1) + b``.
    (:func:`apply_block` performs a different number of *elementary*
    multiplications: it uses the symmetry of the repeated modes of a
    non-central diagonal block to read it once, but still multiplies
    every stored entry of the dense block, mirrored ones included. The
    paper's cost metric counts the canonical ternary multiplications,
    which is what this function returns.)
    """
    from repro.tensor.blocks import classify_block, ternary_multiplications

    return ternary_multiplications(classify_block(block_index), b)
