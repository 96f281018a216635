"""Applications driven end to end through the parallel kernel."""

import numpy as np
import pytest

from repro.apps.cp_gradient import (
    cp_gradient,
    cp_objective,
    parallel_cp_gradient,
    symmetric_cp_decompose,
)
from repro.apps.eigen import is_z_eigenpair
from repro.apps.hopm import hopm, parallel_hopm
from repro.core import bounds
from repro.core.partition_ndim import QuadruplePartition
from repro.tensor.dense import odeco_tensor, packed_from_dense, rank_one_symmetric
from repro.tensor.ndpacked import nd_random_symmetric


class TestHOPMEndToEnd:
    def test_parallel_hopm_finds_robust_eigenpair_sqs8(
        self, partition_sqs8, loaded_engine
    ):
        """HOPM on the SQS(8) machine (P=14, n=56) lands on an odeco
        factor with machine-precision residual."""
        tensor, weights, factors = odeco_tensor(56, 5, seed=30)
        engine, machine = loaded_engine(partition_sqs8, tensor)
        result = parallel_hopm(
            engine, machine, tensor, seed=31, max_iterations=200
        )
        assert result.converged
        assert result.residual < 1e-8
        assert is_z_eigenpair(tensor, result.eigenvector, result.eigenvalue, 1e-7)
        distances = [
            min(
                np.linalg.norm(result.eigenvector - factors[:, t]),
                np.linalg.norm(result.eigenvector + factors[:, t]),
            )
            for t in range(5)
        ]
        assert min(distances) < 1e-6

    def test_communication_budget_scales_with_iterations(
        self, partition_q2, loaded_engine
    ):
        tensor, _, _ = odeco_tensor(30, 2, seed=32)
        engine, machine = loaded_engine(partition_q2, tensor)
        short = parallel_hopm(
            engine, machine, tensor, seed=33, max_iterations=2, tolerance=0.0
        )
        long = parallel_hopm(
            engine, machine, tensor, seed=33, max_iterations=6, tolerance=0.0
        )
        assert long.ledger.total_words() == 3 * short.ledger.total_words()

    def test_parallel_matches_sequential_lambda_history(
        self, partition_q2, loaded_engine
    ):
        tensor, _, _ = odeco_tensor(30, 3, seed=34)
        x0 = np.random.default_rng(35).normal(size=30)
        seq = hopm(tensor, x0=x0.copy(), max_iterations=10, tolerance=0.0)
        engine, machine = loaded_engine(partition_q2, tensor)
        par = parallel_hopm(
            engine, machine, tensor, x0=x0.copy(), max_iterations=10, tolerance=0.0
        )
        assert np.allclose(seq.lambda_history, par.lambda_history, atol=1e-9)


    def test_parallel_hopm_on_order4_engine(self, sqs8, loaded_engine):
        """The same driver on a BCSS-4 engine: SQS(8) quadruple
        partition (P=14, n=56) tracks sequential HOPM's λ history."""
        tensor = nd_random_symmetric(56, 4, seed=1)
        engine, machine = loaded_engine(QuadruplePartition(sqs8), tensor)
        par = parallel_hopm(
            engine, machine, tensor, seed=2, max_iterations=8, tolerance=0.0
        )
        seq = hopm(tensor, seed=2, max_iterations=8, tolerance=0.0)
        assert par.iterations == 8
        assert np.allclose(par.lambda_history, seq.lambda_history, rtol=0, atol=1e-9)
        assert par.ledger.all_rounds_are_permutations()


class TestCPEndToEnd:
    def test_gradient_descent_reduces_objective_from_parallel_gradients(
        self, partition_q2, loaded_engine
    ):
        """Full loop: gradients computed on the simulated machine drive a
        descent that shrinks the objective."""
        rng = np.random.default_rng(36)
        true = rng.normal(size=(30, 2))
        tensor = packed_from_dense(
            sum(rank_one_symmetric(true[:, t]) for t in range(2))
        )
        X = true + 0.01 * rng.normal(size=true.shape)
        f0 = cp_objective(tensor, X)
        engine, machine = loaded_engine(partition_q2, tensor)
        for _ in range(8):
            gradient, ledger = parallel_cp_gradient(engine, machine, X)
            assert np.allclose(gradient, cp_gradient(tensor, X))
            # Crude backtracking so the fixed test never diverges.
            step = 1e-3
            current = cp_objective(tensor, X)
            while cp_objective(tensor, X - step * gradient) > current:
                step *= 0.5
            X = X - step * gradient
        assert cp_objective(tensor, X) < f0

    def test_cp_decompose_then_verify_residual(self):
        rng = np.random.default_rng(37)
        true = rng.normal(size=(10, 2))
        tensor = packed_from_dense(
            sum(rank_one_symmetric(true[:, t]) for t in range(2))
        )
        result = symmetric_cp_decompose(
            tensor, 2, X0=true + 0.005 * rng.normal(size=true.shape)
        )
        assert result.objective < 1e-9

    def test_parallel_gradient_cost_is_r_sttsvs(self, partition_q3, loaded_engine):
        rng = np.random.default_rng(38)
        from repro.tensor.dense import random_symmetric

        n, r = 120, 3
        tensor = random_symmetric(n, seed=39)
        X = rng.normal(size=(n, r))
        engine, machine = loaded_engine(partition_q3, tensor)
        _, ledger = parallel_cp_gradient(engine, machine, X)
        assert ledger.max_words_sent() == pytest.approx(
            r * bounds.optimal_bandwidth_cost(n, 3)
        )
