"""HOPM, CP gradient, and eigen utilities (paper Algorithms 1 and 2)."""

import numpy as np
import pytest

from repro.apps.cp_gradient import (
    cp_gradient,
    cp_objective,
    parallel_cp_gradient,
    symmetric_cp_decompose,
)
from repro.apps.eigen import is_z_eigenpair, rayleigh_quotient, z_eigen_residual
from repro.apps.hopm import hopm, parallel_hopm
from repro.core.sttsv_sequential import sttsv_packed
from repro.errors import ConfigurationError
from repro.tensor.dense import (
    dense_from_packed,
    odeco_tensor,
    packed_from_dense,
    random_symmetric,
    rank_one_symmetric,
)


class TestEigenUtilities:
    def test_rank_one_eigenpair(self):
        """For A = λ v∘v∘v with unit v: A ×₂v ×₃v = λ v exactly."""
        v = np.array([0.6, 0.8, 0.0])
        tensor = packed_from_dense(rank_one_symmetric(v, 2.5))
        assert rayleigh_quotient(tensor, v) == pytest.approx(2.5)
        assert z_eigen_residual(tensor, v) == pytest.approx(0.0, abs=1e-12)
        assert is_z_eigenpair(tensor, v, 2.5)

    def test_odeco_factors_are_eigenvectors(self):
        tensor, weights, factors = odeco_tensor(10, 3, seed=1)
        for t in range(3):
            assert is_z_eigenpair(tensor, factors[:, t], weights[t], tolerance=1e-8)

    def test_scaling_invariance_of_rayleigh(self, rng):
        tensor = random_symmetric(6, seed=2)
        x = rng.normal(size=6)
        assert rayleigh_quotient(tensor, x) == pytest.approx(
            rayleigh_quotient(tensor, 5.0 * x)
        )

    def test_zero_vector_rejected(self):
        with pytest.raises(ConfigurationError):
            rayleigh_quotient(random_symmetric(4, seed=0), np.zeros(4))


class TestSequentialHOPM:
    def test_converges_on_odeco(self):
        tensor, weights, factors = odeco_tensor(12, 4, seed=3)
        result = hopm(tensor, seed=5)
        assert result.converged
        assert result.residual < 1e-8
        # Converges to one of the robust eigenpairs.
        distances = [
            min(
                np.linalg.norm(result.eigenvector - factors[:, t]),
                np.linalg.norm(result.eigenvector + factors[:, t]),
            )
            for t in range(4)
        ]
        assert min(distances) < 1e-6
        matched = int(np.argmin(distances))
        assert result.eigenvalue == pytest.approx(weights[matched], abs=1e-8)

    def test_warm_start_finds_top_eigenpair(self):
        tensor, weights, factors = odeco_tensor(10, 3, seed=4)
        result = hopm(tensor, x0=factors[:, 0] + 0.05)
        assert result.eigenvalue == pytest.approx(weights[0], abs=1e-8)

    def test_shifted_monotone_history(self):
        """SS-HOPM with a large shift has monotone nondecreasing λ."""
        tensor = random_symmetric(8, seed=6)
        result = hopm(tensor, shift=50.0, max_iterations=300, seed=7)
        history = np.array(result.lambda_history)
        assert np.all(np.diff(history) >= -1e-8)

    def test_iteration_budget_respected(self):
        tensor = random_symmetric(10, seed=8)
        result = hopm(tensor, max_iterations=3, tolerance=0.0)
        assert result.iterations == 3
        assert not result.converged

    def test_bad_x0_rejected(self):
        tensor = random_symmetric(5, seed=9)
        with pytest.raises(ConfigurationError):
            hopm(tensor, x0=np.ones(4))
        with pytest.raises(ConfigurationError):
            hopm(tensor, x0=np.zeros(5))


class TestParallelHOPM:
    def test_matches_sequential_trajectory(self, partition_q2, loaded_engine):
        """Same start, same tensor: the parallel run converges to the
        same eigenpair with the same λ."""
        tensor, weights, factors = odeco_tensor(30, 3, seed=10)
        x0 = np.random.default_rng(11).normal(size=30)
        sequential = hopm(tensor, x0=x0.copy())
        engine, machine = loaded_engine(partition_q2, tensor)
        parallel = parallel_hopm(engine, machine, tensor, x0=x0.copy())
        assert parallel.converged
        assert parallel.eigenvalue == pytest.approx(sequential.eigenvalue, abs=1e-8)
        assert parallel.residual < 1e-8

    def test_per_iteration_communication_is_sttsv_cost(
        self, partition_q2, loaded_engine
    ):
        from repro.core import bounds

        tensor, _, _ = odeco_tensor(30, 2, seed=12)
        engine, machine = loaded_engine(partition_q2, tensor)
        result = parallel_hopm(
            engine, machine, tensor, max_iterations=5, tolerance=0.0
        )
        sttsv_words = bounds.optimal_bandwidth_cost(30, 2)
        # One STTSV exchange plus O(log P) scalar allreduce words.
        assert result.words_per_iteration >= sttsv_words
        assert result.words_per_iteration <= sttsv_words + 4 * np.log2(10) + 8

    def test_ledger_accumulates(self, partition_q2, loaded_engine):
        tensor, _, _ = odeco_tensor(30, 2, seed=13)
        engine, machine = loaded_engine(partition_q2, tensor)
        result = parallel_hopm(
            engine, machine, tensor, max_iterations=4, tolerance=0.0
        )
        assert result.ledger is not None
        assert result.ledger.total_words() > 0
        assert result.iterations == 4


class TestCPGradient:
    def test_gradient_matches_finite_differences(self, rng):
        tensor = random_symmetric(7, seed=14)
        X = rng.normal(size=(7, 3))
        gradient = cp_gradient(tensor, X)
        eps = 1e-6
        for i, ell in [(0, 0), (3, 1), (6, 2)]:
            bump = np.zeros_like(X)
            bump[i, ell] = eps
            fd = (cp_objective(tensor, X + bump) - cp_objective(tensor, X - bump)) / (
                2 * eps
            )
            assert gradient[i, ell] == pytest.approx(fd, rel=1e-4, abs=1e-6)

    def test_objective_zero_at_exact_factorization(self):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(6, 2))
        dense = sum(rank_one_symmetric(X[:, t]) for t in range(2))
        tensor = packed_from_dense(dense)
        assert cp_objective(tensor, X) == pytest.approx(0.0, abs=1e-18)
        assert np.allclose(cp_gradient(tensor, X), 0.0, atol=1e-10)

    def test_objective_matches_dense_norm(self, rng):
        tensor = random_symmetric(6, seed=16)
        X = rng.normal(size=(6, 2))
        dense = dense_from_packed(tensor)
        model = sum(rank_one_symmetric(X[:, t]) for t in range(2))
        expected = np.sum((dense - model) ** 2) / 6.0
        assert cp_objective(tensor, X) == pytest.approx(expected)

    def test_gradient_column_is_sttsv_combination(self, rng):
        """Column ℓ of the STTSV stack inside the gradient equals
        A ×₂ x_ℓ ×₃ x_ℓ."""
        tensor = random_symmetric(5, seed=17)
        X = rng.normal(size=(5, 2))
        gram = X.T @ X
        gradient = cp_gradient(tensor, X)
        for ell in range(2):
            sttsv_col = sttsv_packed(tensor, X[:, ell])
            reconstructed = (X @ (gram * gram))[:, ell] - gradient[:, ell]
            assert np.allclose(reconstructed, sttsv_col)

    def test_shape_validation(self):
        tensor = random_symmetric(5, seed=18)
        with pytest.raises(ConfigurationError):
            cp_gradient(tensor, np.ones((4, 2)))


class TestParallelCPGradient:
    def test_matches_sequential(self, partition_q2, loaded_engine, rng):
        tensor = random_symmetric(30, seed=19)
        X = rng.normal(size=(30, 2))
        expected = cp_gradient(tensor, X)
        engine, machine = loaded_engine(partition_q2, tensor)
        result, ledger = parallel_cp_gradient(engine, machine, X)
        assert np.allclose(result, expected)
        # r STTSVs worth of communication.
        from repro.core import bounds

        per_sttsv = bounds.optimal_bandwidth_cost(30, 2)
        assert ledger.max_words_sent() == pytest.approx(2 * per_sttsv)


class TestCPDecompose:
    def test_recovers_exact_low_rank(self):
        rng = np.random.default_rng(20)
        true_factors = rng.normal(size=(8, 2))
        dense = sum(rank_one_symmetric(true_factors[:, t]) for t in range(2))
        tensor = packed_from_dense(dense)
        # Start near the truth: gradient descent should drive f to ~0.
        X0 = true_factors + 0.01 * rng.normal(size=true_factors.shape)
        result = symmetric_cp_decompose(tensor, 2, X0=X0, max_iterations=400)
        assert result.objective < 1e-10

    def test_objective_monotone(self):
        tensor = random_symmetric(6, seed=21)
        result = symmetric_cp_decompose(tensor, 2, seed=22, max_iterations=50)
        history = np.array(result.objective_history)
        assert np.all(np.diff(history) <= 1e-12)

    def test_bad_x0_shape(self):
        with pytest.raises(ConfigurationError):
            symmetric_cp_decompose(
                random_symmetric(5, seed=23), 2, X0=np.ones((5, 3))
            )


class TestSuggestedShift:
    def test_auto_shift_gives_monotone_history(self):
        """The suggested shift makes every random run monotone."""
        from repro.apps.hopm import suggested_shift

        for seed in range(5):
            tensor = random_symmetric(9, seed=100 + seed)
            shift = suggested_shift(tensor)
            result = hopm(
                tensor, shift=shift, max_iterations=200, seed=seed
            )
            history = np.array(result.lambda_history)
            assert np.all(np.diff(history) >= -1e-8), seed

    def test_shift_scale(self):
        """Shift scales linearly with the tensor."""
        from repro.apps.hopm import suggested_shift

        tensor = random_symmetric(7, seed=0)
        from repro.tensor.packed import PackedSymmetricTensor

        doubled = PackedSymmetricTensor(7, 2.0 * tensor.data)
        assert suggested_shift(doubled) == pytest.approx(
            2.0 * suggested_shift(tensor)
        )

    def test_order4_shift(self):
        """At order d the shift is (d−1) times the largest absolute
        row sum of the mode-1 flattening."""
        from repro.apps.hopm import suggested_shift
        from repro.tensor.ndpacked import nd_random_symmetric

        tensor = nd_random_symmetric(6, 4, seed=0)
        rows = np.abs(tensor.to_dense()).reshape(6, -1).sum(axis=1)
        assert suggested_shift(tensor) == pytest.approx(3.0 * rows.max())


class TestCrossAppPipeline:
    def test_deflation_initializes_cp(self, rng):
        """Eigenpairs from deflation seed an exact CP recovery — the
        HOPM -> CP pipeline on an odeco tensor."""
        from repro.apps.deflation import deflated_eigenpairs

        tensor, weights, factors = odeco_tensor(10, 2, seed=40)
        found = deflated_eigenpairs(tensor, 2, seed=41)
        # Initialize CP factors as lambda^{1/3} * v per component.
        X0 = np.column_stack(
            [
                np.cbrt(found.eigenvalues[t]) * found.eigenvectors[:, t]
                for t in range(2)
            ]
        )
        from repro.apps.cp_gradient import cp_objective, symmetric_cp_decompose

        assert cp_objective(tensor, X0) < 1e-12  # odeco: deflation is exact
        result = symmetric_cp_decompose(tensor, 2, X0=X0, max_iterations=5)
        assert result.objective < 1e-12
