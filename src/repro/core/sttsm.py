"""Blocked order-m STTSV and STTSM (symmetric tensor times same matrix).

The Multi-TTM workload of Al Daas, Ballard, Grigori, Kumar & Rouse:
``C = A ×₁ X ×₂ X ··· ×ₘ X`` for a symmetric order-m tensor ``A`` and
an ``n × s`` matrix ``X``; the result is an order-m symmetric tensor
over ``s`` indices. Computed blockwise over BCSS storage via the
cascade of mode products with partially-symmetric temporaries: each
stored canonical block ``D`` at tuple ``B`` is contracted mode-by-mode
against the matching row panels of ``X`` (each step a gemm), and the
resulting ``s^m`` core is added once per distinct permutation of ``B``
with the corresponding output-axis transpose.

Also provides the blocked STTSV over BCSS storage (the stacked block
kernel of :mod:`repro.core.block_kernels`) and dense oracles for both.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from repro.core.block_kernels import apply_stacks, case_stacks
from repro.errors import ConfigurationError
from repro.tensor.bcss import BCSSTensor
from repro.tensor.ndpacked import (
    NdPackedSymmetricTensor,
    nd_index_arrays,
    pad_ndpacked,
)


def sttsv_bcss(bcss: BCSSTensor, x: np.ndarray) -> np.ndarray:
    """Blocked order-m STTSV: every stored block as one stack, one
    :func:`~repro.core.block_kernels.apply_case` pass per block case.

    Cases are visited in sorted order and, within a case, blocks in
    block-offset order; one scatter-add sums every contribution in that
    order, so the result is deterministic.
    """
    n, b = bcss.n, bcss.block_size
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n,):
        raise ConfigurationError(f"vector must have shape ({n},)")
    indices = bcss.block_indices
    return apply_stacks(
        (
            (case, bcss.blocks[members], rows)
            for case, members, rows in case_stacks(indices, indices * b, b)
        ),
        x,
    )


def sttsm_dense_reference(dense: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Oracle: contract every mode of a dense hypercube with ``X``."""
    dense = np.asarray(dense, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != dense.shape[0]:
        raise ConfigurationError(
            f"matrix must have shape ({dense.shape[0]}, s), got {X.shape}"
        )
    result = dense
    for _ in range(dense.ndim):
        result = np.tensordot(result, X, axes=([0], [0]))
    return result


def sttsm(bcss: BCSSTensor, X: np.ndarray) -> NdPackedSymmetricTensor:
    """Blocked STTSM over BCSS storage; returns the packed ``s``-dim
    order-m symmetric result.

    Per stored block ``D`` at canonical tuple ``B``: the cascade
    ``G = D ×₁ X[I₁] ×₂ X[I₂] ··· ×ₘ X[I_m]`` (each step one gemm over
    a partially-symmetric temporary), then ``C += transpose(G, σ)`` for
    one ``σ`` per distinct ordered arrangement of ``B`` — the
    block-level analogue of expanding packed storage to the full cube.
    """
    m, b = bcss.m, bcss.block_size
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != bcss.n:
        raise ConfigurationError(
            f"matrix must have shape ({bcss.n}, s), got {X.shape}"
        )
    s = X.shape[1]
    core = np.zeros((s,) * m)
    for offset in range(bcss.num_blocks):
        block_tuple = tuple(int(v) for v in bcss.block_indices[offset])
        panels = [X[index * b : (index + 1) * b] for index in block_tuple]
        partial = bcss.blocks[offset]
        for panel in panels:
            partial = np.tensordot(partial, panel, axes=([0], [0]))
        seen = set()
        for sigma in permutations(range(m)):
            arranged = tuple(block_tuple[axis] for axis in sigma)
            if arranged in seen:
                continue
            seen.add(arranged)
            core += np.transpose(partial, axes=sigma)
    packed = NdPackedSymmetricTensor(s, m)
    canonical = nd_index_arrays(s, m)
    packed.data[:] = core[tuple(canonical[:, t] for t in range(m))]
    return packed


def sttsm_ndpacked(
    tensor: NdPackedSymmetricTensor, X: np.ndarray, block_size: int = None
) -> NdPackedSymmetricTensor:
    """Convenience wrapper: pad to a block multiple, convert to BCSS,
    run the blocked cascade. Zero padding rows of ``X`` keep the result
    exact."""
    X = np.asarray(X, dtype=np.float64)
    if block_size is None:
        block_size = max(1, min(tensor.n, 8))
    n_padded = -(-tensor.n // block_size) * block_size
    padded = pad_ndpacked(tensor, n_padded)
    X_padded = np.zeros((n_padded, X.shape[1]))
    X_padded[: tensor.n] = X
    bcss = BCSSTensor.from_ndpacked(padded, block_size)
    return sttsm(bcss, X_padded)
