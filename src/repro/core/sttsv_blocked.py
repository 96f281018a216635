"""Cache-blocked sequential STTSV.

Runs Algorithm 5's per-block kernels (lines 24–36) sequentially over
*all* lower-tetrahedral blocks — the single-processor specialization of
the paper's blocked computation. Each off-diagonal block becomes three
dense contractions (BLAS matrix-vector products), so arithmetic intensity rises
from one multiply-add per packed element (scatter kernel) to dense
tensor-contraction level — the same effect Agullo et al. (2023) exploit
for distributed SYMM, here applied to the sequential kernel.

Use :func:`sttsv_blocked` for large ``n``; it matches the scatter
kernels to rounding and is typically several times faster once ``n``
exceeds a few hundred (see ``benchmarks/bench_sequential_kernels.py``).
"""

from __future__ import annotations

import numpy as np

from repro.core.block_kernels import apply_block
from repro.core.sttsv_sequential import _check_vector
from repro.errors import ConfigurationError
from repro.tensor.blocks import extract_block, lower_tetrahedral_blocks
from repro.tensor.packed import PackedSymmetricTensor


def choose_block_size(n: int, target: int = 48) -> int:
    """Pick a block size near ``target`` that divides padded-n cheaply.

    Returns the largest ``b <= target`` with ``b`` dividing ``n`` if one
    exists with ``b >= target // 2``, else ``target`` (the kernel pads).
    """
    if n <= target:
        return n
    for b in range(target, target // 2, -1):
        if n % b == 0:
            return b
    return target


def sttsv_blocked(
    tensor: PackedSymmetricTensor,
    x: np.ndarray,
    block_size: int = None,
) -> np.ndarray:
    """Blocked STTSV: ``y = A ×₂ x ×₃ x`` via dense per-block contractions.

    Parameters
    ----------
    block_size:
        Tile edge ``b``; defaults to :func:`choose_block_size`. When
        ``b`` does not divide ``n`` the problem is zero-padded to the
        next multiple (outputs unaffected).
    """
    n = tensor.n
    x = _check_vector(x, n)
    if block_size is None:
        block_size = choose_block_size(n)
    if block_size < 1:
        raise ConfigurationError("block size must be >= 1")
    b = min(block_size, n)
    m = -(-n // b)
    n_padded = m * b
    if n_padded != n:
        from repro.core.parallel_sttsv import pad_tensor

        tensor = pad_tensor(tensor, n_padded)
        x = np.concatenate([x, np.zeros(n_padded - n)])
    x_blocks = {i: x[i * b : (i + 1) * b] for i in range(m)}
    y_blocks = {i: np.zeros(b) for i in range(m)}
    for index in lower_tetrahedral_blocks(m):
        block = extract_block(tensor, index, b)
        apply_block(index, block, x_blocks, y_blocks)
    return np.concatenate([y_blocks[i] for i in range(m)])[:n]
