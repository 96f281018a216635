"""Dense symmetric-tensor helpers: converters, generators, validators.

Dense form is only used at test/benchmark scale (it costs ``n³``
memory); the library's algorithms operate on packed or blocked storage.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from repro.errors import ConfigurationError
from repro.tensor.ndpacked import nd_index_arrays
from repro.tensor.packed import PackedSymmetricTensor
from repro.util.seeding import SeedLike, as_generator


def symmetrize(tensor: np.ndarray) -> np.ndarray:
    """Project a cube onto the symmetric subspace (mean over the 6 mode
    permutations)."""
    tensor = np.asarray(tensor, dtype=np.float64)
    if tensor.ndim != 3 or len(set(tensor.shape)) != 1:
        raise ConfigurationError(f"expected a cubic 3-D array, got {tensor.shape}")
    total = np.zeros_like(tensor)
    for axes in permutations(range(3)):
        total += np.transpose(tensor, axes)
    return total / 6.0


def is_symmetric(tensor: np.ndarray, tolerance: float = 1e-12) -> bool:
    """True iff the cube equals all six of its mode permutations."""
    tensor = np.asarray(tensor)
    if tensor.ndim != 3 or len(set(tensor.shape)) != 1:
        return False
    for axes in permutations(range(3)):
        if axes == (0, 1, 2):
            continue
        if not np.allclose(
            tensor, np.transpose(tensor, axes), atol=tolerance, rtol=tolerance
        ):
            return False
    return True


def dense_from_packed(packed: PackedSymmetricTensor) -> np.ndarray:
    """Expand packed storage into the full symmetric cube."""
    n = packed.n
    dense = np.empty((n, n, n), dtype=np.float64)
    I, J, K = nd_index_arrays(n, 3).T
    values = packed.data
    for axes in set(permutations((0, 1, 2))):
        order = [None, None, None]
        order[axes[0]], order[axes[1]], order[axes[2]] = I, J, K
        dense[order[0], order[1], order[2]] = values
    return dense


def packed_from_dense(dense: np.ndarray) -> PackedSymmetricTensor:
    """Pack a dense symmetric cube; validates symmetry exactly-ish.

    Raises
    ------
    ConfigurationError
        If the input is not (numerically) symmetric; use
        :func:`symmetrize` first for arbitrary cubes.
    """
    dense = np.asarray(dense, dtype=np.float64)
    if not is_symmetric(dense, tolerance=1e-12):
        raise ConfigurationError("input cube is not symmetric; call symmetrize()")
    n = dense.shape[0]
    I, J, K = nd_index_arrays(n, 3).T
    return PackedSymmetricTensor(n, dense[I, J, K].copy())


def random_symmetric(
    n: int, seed: SeedLike = None, *, scale: float = 1.0
) -> PackedSymmetricTensor:
    """A random symmetric tensor with iid N(0, scale²) canonical entries."""
    rng = as_generator(seed)
    from repro.tensor.packed import packed_size

    data = rng.normal(0.0, scale, size=packed_size(n))
    return PackedSymmetricTensor(n, data)


def rank_one_symmetric(vector: np.ndarray, weight: float = 1.0) -> np.ndarray:
    """Dense symmetric rank-one term ``weight · v ∘ v ∘ v``."""
    v = np.asarray(vector, dtype=np.float64)
    if v.ndim != 1:
        raise ConfigurationError("expected a vector")
    return weight * np.einsum("i,j,k->ijk", v, v, v)


def odeco_tensor(
    n: int, rank: int, seed: SeedLike = None
) -> tuple:
    """An orthogonally decomposable symmetric tensor plus its factors.

    Builds ``A = Σ_ℓ λ_ℓ v_ℓ ∘ v_ℓ ∘ v_ℓ`` with orthonormal ``v_ℓ`` and
    positive, strictly separated weights ``λ_ℓ``. For such tensors the
    higher-order power method (paper Algorithm 1) provably converges to
    a robust Z-eigenpair, making them the natural correctness workload
    for the HOPM application.

    Returns
    -------
    (PackedSymmetricTensor, weights, factors)
        ``factors`` has shape ``(n, rank)`` with orthonormal columns.
    """
    if rank > n:
        raise ConfigurationError(f"odeco rank {rank} cannot exceed dimension {n}")
    rng = as_generator(seed)
    random_matrix = rng.normal(size=(n, n))
    orthogonal, _ = np.linalg.qr(random_matrix)
    factors = orthogonal[:, :rank]
    weights = np.sort(rng.uniform(1.0, 2.0, size=rank))[::-1]
    weights += np.arange(rank, 0, -1) * 0.5  # enforce separation
    dense = np.zeros((n, n, n))
    for term in range(rank):
        dense += rank_one_symmetric(factors[:, term], weights[term])
    return packed_from_dense(dense), weights, factors
