"""Experiment C5 — Algorithm 4 does half of Algorithm 3's work (§3).

Times the vectorized symmetric kernel against a dense einsum baseline
of the naive algorithm, and asserts the ternary-multiplication count
identities: Algorithm 3 = n³, Algorithm 4 = n²(n+1)/2 ≈ half, with
numerically identical results.
"""

import numpy as np
import pytest

from repro.core import bounds
from repro.core.sttsv_sequential import (
    sttsv_dense_reference,
    sttsv_packed,
)
from repro.tensor.dense import dense_from_packed, random_symmetric

N = 60


@pytest.fixture(scope="module")
def workload():
    tensor = random_symmetric(N, seed=0)
    return tensor, dense_from_packed(tensor), np.random.default_rng(1).normal(size=N)


def test_symmetric_kernel(benchmark, workload):
    tensor, dense, x = workload
    y = benchmark(lambda: sttsv_packed(tensor, x))
    assert np.allclose(y, sttsv_dense_reference(dense, x))
    counts = bounds.sequential_ternary_counts(N)
    ratio = counts["symmetric"] / counts["naive"]
    assert counts["symmetric"] == N * N * (N + 1) // 2
    assert 0.5 <= ratio <= 0.51
    print(
        f"\n[C5 — ternary multiplications at n={N}]"
        f" naive={counts['naive']}, symmetric={counts['symmetric']},"
        f" ratio={ratio:.4f} (paper: ≈ 1/2)"
    )


def test_naive_dense_kernel(benchmark, workload):
    """The dense (no-symmetry) kernel as the timing baseline."""
    tensor, dense, x = workload
    y = benchmark(lambda: sttsv_dense_reference(dense, x))
    assert np.allclose(y, sttsv_packed(tensor, x))


def test_bincount_kernel(benchmark, workload):
    """The bincount scatter kernel (bincount beats np.add.at)."""
    from repro.core.sttsv_ndim import sttsv_ndim

    tensor, dense, x = workload
    y = benchmark(lambda: sttsv_ndim(tensor, x))
    assert np.allclose(y, sttsv_dense_reference(dense, x))
