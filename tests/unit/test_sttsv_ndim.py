"""Order-d STTSV kernels and the generalized lower bound (§8)."""

import numpy as np
import pytest

from repro.core.bounds import sttsv_lower_bound
from repro.core.sttsv_ndim import (
    sttsv_ndim,
    sttsv_ndim_dense_reference,
    sttsv_ndim_lower_bound,
    sttsv_ndim_scalar,
    sttsv_ndim_ternary_count,
)
from repro.core.plans import SequentialPlan
from repro.core.sttsv_sequential import sttsv_packed
from repro.errors import ConfigurationError
from repro.tensor.dense import random_symmetric
from repro.tensor.ndpacked import NdPackedSymmetricTensor, nd_random_symmetric
from repro.util.combinatorics import ternary_multiplication_count_symmetric


class TestKernels:
    @pytest.mark.parametrize("n,d", [(4, 1), (5, 2), (5, 3), (4, 4), (3, 5)])
    def test_matches_dense_oracle(self, n, d, rng):
        tensor = nd_random_symmetric(n, d, seed=rng.integers(1 << 30))
        x = rng.normal(size=n)
        reference = sttsv_ndim_dense_reference(tensor.to_dense(), x)
        assert np.allclose(sttsv_ndim(tensor, x), reference)

    def test_d3_matches_algorithm4(self, rng):
        t3 = random_symmetric(7, seed=2)
        tnd = NdPackedSymmetricTensor(7, 3, t3.data.copy())
        x = rng.normal(size=7)
        assert np.allclose(sttsv_ndim(tnd, x), sttsv_packed(t3, x))

    def test_d2_is_symmetric_matvec(self, rng):
        tensor = nd_random_symmetric(6, 2, seed=3)
        x = rng.normal(size=6)
        matrix = tensor.to_dense()
        assert np.allclose(sttsv_ndim(tensor, x), matrix @ x)

    def test_d1_is_identity_read(self):
        tensor = NdPackedSymmetricTensor(4, 1, np.array([1.0, 2.0, 3.0, 4.0]))
        # y_i = a_i (no modes to contract).
        assert np.allclose(sttsv_ndim(tensor, np.ones(4)), [1, 2, 3, 4])

    def test_homogeneity_degree_d_minus_1(self, rng):
        d = 4
        tensor = nd_random_symmetric(5, d, seed=4)
        x = rng.normal(size=5)
        assert np.allclose(
            sttsv_ndim(tensor, 2.0 * x),
            2.0 ** (d - 1) * sttsv_ndim(tensor, x),
        )

    def test_shape_validation(self):
        tensor = nd_random_symmetric(4, 3, seed=5)
        with pytest.raises(ConfigurationError):
            sttsv_ndim(tensor, np.ones(5))


class TestVectorizedKernel:
    @pytest.mark.parametrize("n,d", [(5, 2), (6, 3), (5, 4), (4, 5)])
    def test_matches_scalar_reference(self, n, d, rng):
        tensor = nd_random_symmetric(n, d, seed=6)
        x = rng.normal(size=n)
        assert np.allclose(
            sttsv_ndim(tensor, x),
            sttsv_ndim_scalar(tensor, x),
            rtol=1e-12, atol=1e-12,
        )

    def test_d3_bitwise_matches_bincount_kernel(self, rng):
        """The order-3 bincount plan over ``PackedSymmetricTensor``
        storage performs the kernel's exact op sequence — per-column
        products left to right, bincount scatter in column order — so
        agreement is bitwise."""
        from repro.tensor.packed import PackedSymmetricTensor

        n = 9
        packed = PackedSymmetricTensor(
            n, rng.normal(size=n * (n + 1) * (n + 2) // 6)
        )
        tensor = NdPackedSymmetricTensor(n, 3, packed.data.copy())
        x = rng.normal(size=n)
        assert (
            sttsv_ndim(tensor, x).tobytes()
            == SequentialPlan(packed, "bincount").apply(x).tobytes()
        )

    def test_exact_on_integer_data(self):
        """Small-integer tensors keep every op exact: the vectorized
        kernel, the scalar loop, and the dense oracle agree bitwise."""
        rng = np.random.default_rng(8)
        from repro.tensor.ndpacked import nd_packed_size

        n, d = 7, 4
        data = rng.integers(-3, 4, size=nd_packed_size(n, d)).astype(float)
        tensor = NdPackedSymmetricTensor(n, d, data)
        x = rng.integers(-2, 3, size=n).astype(float)
        oracle = sttsv_ndim_dense_reference(tensor.to_dense(), x)
        assert sttsv_ndim(tensor, x).tobytes() == oracle.tobytes()
        assert sttsv_ndim_scalar(tensor, x).tobytes() == oracle.tobytes()


class TestCounts:
    def test_d3_count_matches_algorithm4(self):
        for n in range(1, 12):
            assert sttsv_ndim_ternary_count(n, 3) == (
                ternary_multiplication_count_symmetric(n)
            )

    def test_saving_factor_grows_with_d(self):
        """Work relative to the naive n^d loop approaches 1/(d−1)!."""
        n = 30
        # Limits ~ d/(d-1)! with low-order slack at finite n.
        for d, limit in [(3, 0.53), (4, 0.19), (5, 0.052)]:
            ratio = sttsv_ndim_ternary_count(n, d) / n**d
            assert ratio < limit


class TestGeneralizedLowerBound:
    def test_d3_reduces_to_theorem52(self):
        for n, P in [(120, 30), (60, 10)]:
            assert sttsv_ndim_lower_bound(n, P, 3) == pytest.approx(
                sttsv_lower_bound(n, P)
            )

    def test_monotone_in_d(self):
        """Higher order → more reuse possible per vector element → the
        per-processor floor grows with d at fixed n, P."""
        n, P = 1000, 30
        values = [sttsv_ndim_lower_bound(n, P, d) for d in (3, 4, 5)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_d_exceeding_n_rejected(self):
        with pytest.raises(ConfigurationError):
            sttsv_ndim_lower_bound(3, 10, 5)
