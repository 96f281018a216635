"""Sequential STTSV kernels: Algorithms 3, 4, vectorized, and the oracle."""

import numpy as np
import pytest

from repro.core.sttsv_sequential import (
    sttsv,
    sttsv_dense_reference,
    sttsv_naive,
    sttsv_packed,
    sttsv_symmetric,
    ttv_all_modes,
)
from repro.errors import ConfigurationError
from repro.tensor.dense import dense_from_packed, random_symmetric
from repro.tensor.packed import PackedSymmetricTensor


@pytest.fixture(params=[1, 2, 3, 5, 8, 12])
def problem(request, rng):
    n = request.param
    tensor = random_symmetric(n, seed=rng.integers(1 << 30))
    x = rng.normal(size=n)
    return tensor, x


class TestKernelAgreement:
    def test_all_four_kernels_agree(self, problem):
        tensor, x = problem
        dense = dense_from_packed(tensor)
        reference = sttsv_dense_reference(dense, x)
        assert np.allclose(sttsv_naive(dense, x), reference)
        assert np.allclose(sttsv_symmetric(tensor, x), reference)
        assert np.allclose(sttsv_packed(tensor, x), reference)

    def test_public_entry_point(self, problem):
        # sttsv() routes to the bincount kernel; summation order differs
        # from add.at by rounding only.
        tensor, x = problem
        assert np.allclose(sttsv(tensor, x), sttsv_packed(tensor, x))

    def test_bincount_kernel_agrees(self, problem):
        from repro.core.sttsv_ndim import sttsv_ndim

        tensor, x = problem
        assert np.allclose(sttsv_ndim(tensor, x), sttsv_packed(tensor, x))

    def test_symmetric_and_packed_bit_identical_on_integers(self):
        """With integer-valued data every contribution is exact, so the
        scalar and vectorized kernels agree bit for bit."""
        rng = np.random.default_rng(0)
        tensor = PackedSymmetricTensor(
            6, rng.integers(-4, 5, size=56).astype(float)
        )
        x = rng.integers(-3, 4, size=6).astype(float)
        assert np.array_equal(sttsv_symmetric(tensor, x), sttsv_packed(tensor, x))


class TestSpecialCases:
    def test_identity_like_tensor(self):
        # a_iii = 1, rest 0: y_i = x_i^2.
        n = 5
        tensor = PackedSymmetricTensor(n)
        for i in range(n):
            tensor[i, i, i] = 1.0
        x = np.arange(1.0, n + 1)
        assert np.allclose(sttsv_packed(tensor, x), x**2)

    def test_all_ones_tensor(self):
        # a_ijk = 1 for all: y_i = (sum x)^2.
        n = 4
        from repro.tensor.packed import packed_size

        tensor = PackedSymmetricTensor(n, np.ones(packed_size(n)))
        x = np.array([1.0, -2.0, 0.5, 3.0])
        expected = np.full(n, x.sum() ** 2)
        assert np.allclose(sttsv_packed(tensor, x), expected)

    def test_zero_vector(self, problem):
        tensor, _ = problem
        assert np.allclose(sttsv_packed(tensor, np.zeros(tensor.n)), 0.0)

    def test_quadratic_homogeneity(self, problem):
        # STTSV is quadratic in x: y(c x) = c^2 y(x).
        tensor, x = problem
        assert np.allclose(
            sttsv_packed(tensor, 3.0 * x), 9.0 * sttsv_packed(tensor, x)
        )

    def test_linearity_in_tensor(self, rng):
        n = 6
        a = random_symmetric(n, seed=1)
        b = random_symmetric(n, seed=2)
        combined = PackedSymmetricTensor(n, 2.0 * a.data + 3.0 * b.data)
        x = rng.normal(size=n)
        assert np.allclose(
            sttsv_packed(combined, x),
            2.0 * sttsv_packed(a, x) + 3.0 * sttsv_packed(b, x),
        )


class TestTtvAllModes:
    def test_matches_einsum(self, problem):
        tensor, x = problem
        dense = dense_from_packed(tensor)
        expected = float(np.einsum("ijk,i,j,k->", dense, x, x, x))
        assert ttv_all_modes(tensor, x) == pytest.approx(expected)


class TestValidation:
    def test_wrong_vector_shape(self):
        tensor = random_symmetric(4, seed=0)
        with pytest.raises(ConfigurationError):
            sttsv_packed(tensor, np.ones(5))
        with pytest.raises(ConfigurationError):
            sttsv_symmetric(tensor, np.ones(3))
        with pytest.raises(ConfigurationError):
            sttsv_naive(np.zeros((4, 4, 4)), np.ones(2))
