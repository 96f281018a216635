"""NQZ H-eigenpairs of nonnegative symmetric tensors."""

import numpy as np
import pytest

from repro.apps.heig import (
    h_eigen_residual,
    nqz_h_eigenpair,
    parallel_nqz_h_eigenpair,
)
from repro.errors import ConfigurationError
from repro.tensor.packed import PackedSymmetricTensor, packed_size


def positive_tensor(n, seed, low=0.1, high=1.0):
    rng = np.random.default_rng(seed)
    return PackedSymmetricTensor(n, rng.uniform(low, high, size=packed_size(n)))


class TestSequentialNQZ:
    def test_converges_with_tight_collatz_gap(self):
        tensor = positive_tensor(12, 0)
        result = nqz_h_eigenpair(tensor)
        assert result.converged
        assert result.collatz_upper - result.collatz_lower < 1e-8
        assert result.collatz_lower <= result.eigenvalue <= result.collatz_upper

    def test_h_eigen_equation_satisfied(self):
        tensor = positive_tensor(10, 1)
        result = nqz_h_eigenpair(tensor)
        residual = h_eigen_residual(tensor, result.eigenvector, result.eigenvalue)
        assert residual < 1e-8 * result.eigenvalue

    def test_eigenvector_positive(self):
        tensor = positive_tensor(8, 2)
        result = nqz_h_eigenpair(tensor)
        assert np.all(result.eigenvector > 0)

    def test_all_ones_tensor_closed_form(self):
        """For a_ijk = 1: A x² = (Σx)² · 1; the Perron H-eigenvector is
        uniform x = c·1 with A x² = n²c²·1 = λ x^[2] → λ = n²."""
        n = 6
        tensor = PackedSymmetricTensor(n, np.ones(packed_size(n)))
        result = nqz_h_eigenpair(tensor)
        assert result.eigenvalue == pytest.approx(n * n, rel=1e-10)
        uniform = result.eigenvector / result.eigenvector[0]
        assert np.allclose(uniform, 1.0)

    def test_scaling_covariance(self):
        """Scaling the tensor by c scales the H-eigenvalue by c."""
        tensor = positive_tensor(9, 3)
        scaled = PackedSymmetricTensor(9, 5.0 * tensor.data)
        a = nqz_h_eigenpair(tensor, seed=4)
        b = nqz_h_eigenpair(scaled, seed=4)
        assert b.eigenvalue == pytest.approx(5.0 * a.eigenvalue, rel=1e-8)

    def test_monotone_history(self):
        """The geometric-mean Collatz estimate stabilizes monotonically
        in gap (upper-lower shrinks)."""
        tensor = positive_tensor(10, 5)
        result = nqz_h_eigenpair(tensor, tolerance=1e-14)
        assert result.iterations >= 2

    def test_negative_entries_rejected(self):
        from repro.tensor.dense import random_symmetric

        with pytest.raises(ConfigurationError):
            nqz_h_eigenpair(random_symmetric(5, seed=6))


class TestParallelNQZ:
    def test_matches_sequential(self, partition_q2, loaded_engine):
        tensor = positive_tensor(30, 7)
        sequential = nqz_h_eigenpair(tensor, seed=8)
        engine, machine = loaded_engine(partition_q2, tensor)
        parallel = parallel_nqz_h_eigenpair(engine, machine, tensor, seed=8)
        assert parallel.converged
        assert parallel.eigenvalue == pytest.approx(
            sequential.eigenvalue, rel=1e-10
        )

    def test_communication_ledger_populated(self, partition_q2, loaded_engine):
        tensor = positive_tensor(30, 9)
        engine, machine = loaded_engine(partition_q2, tensor)
        result = parallel_nqz_h_eigenpair(engine, machine, tensor, seed=10)
        assert result.ledger is not None
        assert result.ledger.total_words() > 0

    def test_padding_rejected_with_explanation(self, partition_q2, loaded_engine):
        tensor = positive_tensor(25, 11)  # pads to 30
        engine, machine = loaded_engine(partition_q2, tensor)
        with pytest.raises(ConfigurationError, match="reducible"):
            parallel_nqz_h_eigenpair(engine, machine, tensor)

    def test_order4_engine_rejected(self, sqs8, loaded_engine):
        from repro.core.partition_ndim import QuadruplePartition
        from repro.tensor.ndpacked import NdPackedSymmetricTensor, nd_packed_size

        data = np.random.default_rng(12).uniform(0.1, 1.0, nd_packed_size(56, 4))
        tensor = NdPackedSymmetricTensor(56, 4, data)
        engine, machine = loaded_engine(QuadruplePartition(sqs8), tensor)
        with pytest.raises(ConfigurationError, match="order-3"):
            parallel_nqz_h_eigenpair(engine, machine, tensor)
