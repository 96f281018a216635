"""Structured tensor generators."""

import numpy as np
import pytest

from repro.apps.heig import nqz_h_eigenpair
from repro.apps.hopm import hopm
from repro.core.sttsv_sequential import sttsv_packed
from repro.errors import ConfigurationError
from repro.tensor.structured import (
    banded_symmetric,
    diagonally_dominant_positive,
    hilbert_symmetric,
    planted_lowrank,
)


class TestBanded:
    def test_support(self):
        tensor = banded_symmetric(8, 2, seed=0)
        for (i, j, k), value in tensor.canonical_entries():
            if i - k > 2:
                assert value == 0.0

    def test_bandwidth_zero_is_central_only(self):
        tensor = banded_symmetric(5, 0, seed=1)
        for (i, j, k), value in tensor.canonical_entries():
            if not (i == j == k):
                assert value == 0.0

    def test_full_bandwidth_dense(self):
        tensor = banded_symmetric(5, 4, seed=2)
        assert np.count_nonzero(tensor.data) == tensor.data.size

    def test_sttsv_locality(self, rng):
        """With bandwidth w, y_i only depends on x within w of i."""
        n, w = 10, 1
        tensor = banded_symmetric(n, w, seed=3)
        x = rng.normal(size=n)
        bumped = x.copy()
        bumped[9] += 1.0  # far from index 0
        y0 = sttsv_packed(tensor, x)
        y1 = sttsv_packed(tensor, bumped)
        assert y0[0] == pytest.approx(y1[0])  # index 0 unaffected


class TestHilbert:
    def test_values(self):
        tensor = hilbert_symmetric(4)
        assert tensor[0, 0, 0] == 1.0
        assert tensor[3, 2, 1] == pytest.approx(1.0 / 7.0)

    def test_deterministic(self):
        assert np.array_equal(hilbert_symmetric(6).data, hilbert_symmetric(6).data)

    def test_hopm_runs_on_illconditioned(self):
        result = hopm(hilbert_symmetric(12), shift=5.0, seed=0, max_iterations=500)
        assert result.residual < 1e-6


class TestPlantedLowrank:
    def test_exact_when_noiseless(self):
        tensor, weights, factors = planted_lowrank(10, 2, noise=0.0, seed=4)
        from repro.apps.eigen import is_z_eigenpair

        for t in range(2):
            assert is_z_eigenpair(tensor, factors[:, t], weights[t], 1e-8)

    def test_noise_perturbs(self):
        clean, _, _ = planted_lowrank(8, 2, noise=0.0, seed=5)
        noisy, _, _ = planted_lowrank(8, 2, noise=0.1, seed=5)
        assert not np.allclose(clean.data, noisy.data)

    def test_negative_noise_rejected(self):
        with pytest.raises(ConfigurationError):
            planted_lowrank(5, 1, noise=-0.1)

    def test_hopm_survives_mild_noise(self):
        tensor, weights, factors = planted_lowrank(15, 2, noise=1e-4, seed=6)
        result = hopm(tensor, x0=factors[:, 0] + 0.01, max_iterations=300)
        assert abs(result.eigenvalue - weights[0]) < 0.05


class TestDiagonallyDominant:
    def test_all_positive(self):
        tensor = diagonally_dominant_positive(8, seed=7)
        assert np.all(tensor.data > 0)

    def test_nqz_converges_fast(self):
        tensor = diagonally_dominant_positive(10, seed=8)
        result = nqz_h_eigenpair(tensor)
        assert result.converged
        assert result.iterations < 60
        assert np.all(result.eigenvector > 0)
