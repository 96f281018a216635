"""Order-m BCSS block kernels.

The order-m analogue of :mod:`repro.core.block_kernels`: one stored
dense block's full contribution to the blocked STTSV. For a canonical
block tuple ``B = (I₁ ≥ ... ≥ I_m)`` and each *distinct* row block
``t ∈ B``, the block adds

    w_t · (block contracted on every mode except t's first position
           against the x row blocks of the other modes)

into ``y_t``, where ``w_t`` is the arrangement count of the remaining
``m-1`` indices (:func:`repro.tensor.multiplicity.nd_contribution_weights`).
At ``m = 3`` this reproduces the four-way case split of
``block_kernels.apply_block`` exactly.

:func:`apply_block_ndim` computes those contractions as chains of BLAS
matrix-vector products on reshaped views, with no ``np.einsum`` and so
no per-call contraction-path search. It contracts the block's modes
from the right once, ``R_k = R_{k+1}.reshape(-1, b) @ x[B_k]`` with
``R_m`` the block, and every kept position ``t`` starts from the
shared partial ``R_{t+1}`` and contracts its modes left of ``t``. A
block is read at most twice: once by the right-hand chain and once
more only when its last position is kept. :func:`contract_all_but` is
the ``einsum`` definition, kept as the reference for one contraction.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.tensor.multiplicity import nd_contribution_weights

_LETTERS = "abcdefghij"


def contract_all_but(
    block: np.ndarray, keep_mode: int, vectors: Sequence[np.ndarray]
) -> np.ndarray:
    """Contract every mode of ``block`` except ``keep_mode`` with the
    corresponding entry of ``vectors`` (``vectors[keep_mode]`` is
    ignored); returns a vector along the kept mode."""
    m = block.ndim
    subscripts = [_LETTERS[:m]]
    operands = [block]
    for mode in range(m):
        if mode != keep_mode:
            subscripts.append(_LETTERS[mode])
            operands.append(vectors[mode])
    spec = ",".join(subscripts) + "->" + _LETTERS[keep_mode]
    return np.einsum(spec, *operands, optimize=True)


def apply_block_ndim(
    block_index: Sequence[int],
    block: np.ndarray,
    x_blocks: Sequence[np.ndarray],
    y_blocks: Sequence[np.ndarray],
) -> None:
    """Accumulate one BCSS block's contribution into ``y_blocks``.

    ``x_blocks``/``y_blocks`` are indexed by row-block number; the
    block supplies one weighted contraction per distinct value of its
    canonical tuple, taken at that value's first position. That relies
    on the block being symmetric in the modes a repeated value spans,
    which every block of BCSS storage is.
    """
    block_index = tuple(int(v) for v in block_index)
    weights = nd_contribution_weights(block_index)
    vectors = [x_blocks[value] for value in block_index]
    b = block.shape[0]
    # right[t] is R_{t+1}: the block contracted over modes t+1..m-1.
    right = [block]
    for vector in reversed(vectors[1:]):
        right.append(right[-1].reshape(-1, b) @ vector)
    right.reverse()
    seen = set()
    for position, value in enumerate(block_index):
        if value in seen:
            continue
        seen.add(value)
        partial = right[position]
        for vector in vectors[:position]:
            partial = vector @ partial.reshape(b, -1)
        y_blocks[value] += weights[value] * partial.reshape(b)
