"""Structured symmetric tensor generators for benchmarks and studies.

Deterministic and parameterized families complementing
:func:`~repro.tensor.dense.random_symmetric`:

* **banded** — entries vanish unless all index pairs are within a
  bandwidth ``w`` (models local interactions; exercises sparsity-like
  structure in packed form);
* **Hilbert-like** — ``a_ijk = 1/(i+j+k+1)``: a classic ill-conditioned
  deterministic family, handy for reproducible cross-machine checks;
* **low-rank plus noise** — odeco signal with controllable SNR, the
  standard planted model for HOPM/CP recovery studies;
* **diagonally dominant** — guarantees the NQZ positivity conditions
  while keeping off-diagonal randomness.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.tensor.dense import odeco_tensor
from repro.tensor.ndpacked import nd_index_arrays
from repro.tensor.packed import PackedSymmetricTensor
from repro.util.seeding import SeedLike, as_generator
from repro.util.validation import check_nonnegative_int, check_positive_int


def banded_symmetric(
    n: int, bandwidth: int, seed: SeedLike = None
) -> PackedSymmetricTensor:
    """Random symmetric tensor supported on ``max(i,j,k) − min(i,j,k) <= w``.

    ``bandwidth = 0`` gives a purely central-diagonal tensor;
    ``bandwidth >= n − 1`` gives a fully dense one.
    """
    n = check_positive_int(n, "n")
    bandwidth = check_nonnegative_int(bandwidth, "bandwidth")
    rng = as_generator(seed)
    I, J, K = nd_index_arrays(n, 3).T
    inside = (I - K) <= bandwidth  # canonical order: I >= J >= K
    data = np.where(inside, rng.normal(size=I.size), 0.0)
    return PackedSymmetricTensor(n, data)


def hilbert_symmetric(n: int) -> PackedSymmetricTensor:
    """Deterministic ``a_ijk = 1 / (i + j + k + 1)`` (0-based indices).

    Fully symmetric by construction; entries in ``(0, 1]``; severely
    ill-conditioned like its matrix namesake — a good stress input for
    iterative apps.
    """
    n = check_positive_int(n, "n")
    I, J, K = nd_index_arrays(n, 3).T
    return PackedSymmetricTensor(n, 1.0 / (I + J + K + 1.0))


def planted_lowrank(
    n: int,
    rank: int,
    noise: float = 0.0,
    seed: SeedLike = None,
):
    """Odeco signal plus iid Gaussian noise at a chosen level.

    Returns ``(tensor, weights, factors)``; ``noise`` is the standard
    deviation of the added canonical-entry perturbation relative to the
    largest signal entry (0 = exact low rank).
    """
    if noise < 0:
        raise ConfigurationError("noise must be >= 0")
    rng = as_generator(seed)
    tensor, weights, factors = odeco_tensor(n, rank, seed=rng)
    if noise > 0:
        scale = noise * float(np.abs(tensor.data).max())
        tensor = PackedSymmetricTensor(
            n, tensor.data + scale * rng.normal(size=tensor.data.shape)
        )
    return tensor, weights, factors


def diagonally_dominant_positive(
    n: int, seed: SeedLike = None
) -> PackedSymmetricTensor:
    """Strictly positive tensor with reinforced central diagonal.

    Off-diagonal canonical entries are uniform in ``(0, 1)``; each
    ``a_iii`` is set above the total weight of row ``i``'s off-diagonal
    contributions, giving a well-conditioned Perron problem for NQZ.
    """
    n = check_positive_int(n, "n")
    rng = as_generator(seed)
    I, J, K = nd_index_arrays(n, 3).T
    data = rng.uniform(0.01, 1.0, size=I.size)
    tensor = PackedSymmetricTensor(n, data)
    from repro.tensor.multiplicity import contribution_weights

    w_i, w_j, w_k = contribution_weights(I, J, K)
    row_weight = np.bincount(I, weights=w_i * data, minlength=n)
    row_weight += np.bincount(J, weights=w_j * data, minlength=n)
    row_weight += np.bincount(K, weights=w_k * data, minlength=n)
    for i in range(n):
        tensor[i, i, i] = float(row_weight[i]) + 1.0
    return tensor
