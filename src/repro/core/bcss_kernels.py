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
    canonical tuple.
    """
    block_index = tuple(int(v) for v in block_index)
    weights = nd_contribution_weights(block_index)
    mode_vectors = [x_blocks[value] for value in block_index]
    seen = set()
    for position, value in enumerate(block_index):
        if value in seen:
            continue
        seen.add(value)
        contribution = contract_all_but(block, position, mode_vectors)
        y_blocks[value] += weights[value] * contribution

