"""Sequential STTSV kernels (paper Algorithms 3 and 4).

``y = A ×₂ x ×₃ x`` with ``y_i = Σ_{j,k} a_ijk x_j x_k``. Three
implementations with identical results:

* :func:`sttsv_naive` — Algorithm 3, literal triple loop over the full
  cube (``n³`` ternary multiplications); reference fidelity only.
* :func:`sttsv_symmetric` — Algorithm 4, literal loop over the lower
  tetrahedron with the paper's four-way case split
  (``n²(n+1)/2`` ternary multiplications).
* :func:`sttsv_packed` — vectorized Algorithm 4: three weighted
  ``np.add.at`` scatter-adds over the packed entry list (the test
  reference; :func:`repro.core.sttsv_ndim.sttsv_ndim` is the
  ``bincount`` form at any order).

:func:`sttsv`, the production entry point, runs a compiled
:class:`~repro.core.plans.SequentialPlan`.

Plus :func:`sttsv_dense_reference`, a one-line einsum used as the
independent oracle in tests.
"""

from __future__ import annotations

import numpy as np

from repro.core.sttsv_ndim import _ndim_scatter_plan
from repro.errors import ConfigurationError
from repro.tensor.packed import PackedSymmetricTensor


def _check_vector(x: np.ndarray, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n,):
        raise ConfigurationError(f"vector must have shape ({n},), got {x.shape}")
    return x


def sttsv_dense_reference(dense: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Oracle: ``y_i = Σ_{j,k} a_ijk x_j x_k`` via einsum on a dense cube."""
    dense = np.asarray(dense, dtype=np.float64)
    x = _check_vector(x, dense.shape[0])
    return np.einsum("ijk,j,k->i", dense, x, x)


def sttsv_naive(dense: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Algorithm 3: all ``n³`` ternary multiplications, scalar loops.

    Faithful to the paper's pseudocode; use only at test scale.
    """
    dense = np.asarray(dense, dtype=np.float64)
    n = dense.shape[0]
    x = _check_vector(x, n)
    y = np.zeros(n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                y[i] += dense[i, j, k] * x[j] * x[k]
    return y


def sttsv_symmetric(tensor: PackedSymmetricTensor, x: np.ndarray) -> np.ndarray:
    """Algorithm 4: lower tetrahedron only, explicit case split.

    Performs exactly ``n²(n+1)/2`` ternary multiplications (3 per
    strict-lower entry, 2 per non-central diagonal entry, 1 per central
    diagonal entry) — the count asserted by
    :func:`repro.util.combinatorics.ternary_multiplication_count_symmetric`.
    """
    n = tensor.n
    x = _check_vector(x, n)
    y = np.zeros(n)
    for i, j, k, a in tensor.canonical_entries():
        if i != j and j != k:
            y[i] += 2 * a * x[j] * x[k]
            y[j] += 2 * a * x[i] * x[k]
            y[k] += 2 * a * x[i] * x[j]
        elif i == j and j != k:
            y[i] += 2 * a * x[j] * x[k]
            y[k] += a * x[i] * x[j]
        elif i != j and j == k:
            y[i] += a * x[j] * x[k]
            y[j] += 2 * a * x[i] * x[k]
        else:
            y[i] += a * x[j] * x[k]
    return y


def sttsv_packed(tensor: PackedSymmetricTensor, x: np.ndarray) -> np.ndarray:
    """Vectorized Algorithm 4 over packed storage.

    The three case-split updates become three weighted scatter-adds,
    with weights zeroed where a duplicate output index would
    double-count (see
    :func:`repro.tensor.multiplicity.contribution_weights`). Identical
    floating-point contributions to :func:`sttsv_symmetric` up to
    summation order.
    """
    n = tensor.n
    x = _check_vector(x, n)
    indices, weights = _ndim_scatter_plan(n, 3)
    I, J, K = indices.T
    w_i, w_j, w_k = weights.T
    a = tensor.data
    y = np.zeros(n)
    np.add.at(y, I, w_i * a * x[J] * x[K])
    np.add.at(y, J, w_j * a * x[I] * x[K])
    np.add.at(y, K, w_k * a * x[I] * x[J])
    return y


def sttsv(tensor: PackedSymmetricTensor, x: np.ndarray) -> np.ndarray:
    """Public entry point: the fastest exact sequential kernel.

    Compiles (and caches on the tensor) an execution plan so repeated
    products against the same tensor — the shape of every iterative
    driver in :mod:`repro.apps` — skip all ``x``-independent work. See
    :mod:`repro.core.plans` for strategy selection and the batched
    multi-vector entry point ``sequential_plan(tensor).apply_batch(X)``.
    """
    from repro.core.plans import sequential_plan  # deferred: avoids cycle

    return sequential_plan(tensor).apply(x)


def ttv_all_modes(tensor: PackedSymmetricTensor, x: np.ndarray) -> float:
    """``A ×₁ x ×₂ x ×₃ x`` — the scalar used for λ in Algorithm 1 line 8.

    For a symmetric tensor this is ``xᵀ (A ×₂ x ×₃ x) = xᵀ y``.
    """
    return float(np.dot(_check_vector(x, tensor.n), sttsv(tensor, x)))
