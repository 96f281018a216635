"""HOPM deflation: recover all odeco eigenpairs."""

import numpy as np
import pytest

from repro.apps.deflation import _subtract_rank_one, deflated_eigenpairs
from repro.core.partition_ndim import QuadruplePartition
from repro.errors import ConfigurationError
from repro.tensor.dense import odeco_tensor
from repro.tensor.ndpacked import NdPackedSymmetricTensor, nd_index_arrays


def _odeco4(n, weights, seed):
    """Packed order-4 ``Σ_t w_t v_t^{⊗4}`` over orthonormal ``v_t``."""
    rng = np.random.default_rng(seed)
    factors, _ = np.linalg.qr(rng.normal(size=(n, len(weights))))
    columns = nd_index_arrays(n, 4).T
    data = sum(
        w * np.prod([factors[c, t] for c in columns], axis=0)
        for t, w in enumerate(weights)
    )
    return NdPackedSymmetricTensor(n, 4, data), factors


class TestSequentialDeflation:
    def test_recovers_all_components(self):
        tensor, weights, factors = odeco_tensor(12, 3, seed=0)
        result = deflated_eigenpairs(tensor, 3, seed=1)
        assert np.allclose(
            sorted(result.eigenvalues, reverse=True), weights, atol=1e-6
        )
        # Each recovered vector matches a factor column up to sign.
        for t in range(3):
            vector = result.eigenvectors[:, t]
            sims = [abs(float(vector @ factors[:, s])) for s in range(3)]
            assert max(sims) > 1 - 1e-6

    def test_residuals_small(self):
        tensor, _, _ = odeco_tensor(10, 2, seed=2)
        result = deflated_eigenpairs(tensor, 2, seed=3)
        assert all(res < 1e-7 for res in result.residuals)

    def test_stage_metadata(self):
        tensor, _, _ = odeco_tensor(8, 2, seed=4)
        result = deflated_eigenpairs(tensor, 2, seed=5, restarts=2)
        assert len(result.stages) == 2
        assert all(stage.converged for stage in result.stages)

    def test_even_order_keeps_negative_eigenvalue(self):
        """At even order (λ, −x) is the same pair as (λ, x), so a
        negative λ must not be flipped: deflating ``−v⊗4`` by its pair
        removes it instead of doubling it."""
        tensor, _ = _odeco4(6, [-1.0], seed=0)  # −v⊗4, v a unit vector
        result = deflated_eigenpairs(tensor, 1, seed=1, restarts=1)
        assert np.isclose(result.eigenvalues[0], -1.0, atol=1e-9)
        remainder = _subtract_rank_one(
            tensor, result.eigenvalues[0], result.eigenvectors[:, 0]
        )
        assert isinstance(remainder, NdPackedSymmetricTensor)
        assert np.abs(remainder.data).max() < 1e-12

    def test_count_validation(self):
        tensor, _, _ = odeco_tensor(6, 2, seed=6)
        with pytest.raises(ConfigurationError):
            deflated_eigenpairs(tensor, 0)


class TestParallelDeflation:
    def test_parallel_stages_match(self, partition_q2, loaded_engine):
        tensor, weights, _ = odeco_tensor(30, 2, seed=7)
        engine, machine = loaded_engine(partition_q2, tensor)
        result = deflated_eigenpairs(
            tensor, 2, engine=engine, machine=machine, seed=8, restarts=3
        )
        assert np.allclose(
            sorted(result.eigenvalues, reverse=True), weights, atol=1e-6
        )
        # Parallel stages carry communication ledgers.
        assert all(stage.ledger is not None for stage in result.stages)
        assert all(stage.ledger.total_words() > 0 for stage in result.stages)

    def test_engine_needs_its_machine(self, partition_q2, loaded_engine):
        tensor, _, _ = odeco_tensor(30, 2, seed=9)
        engine, _ = loaded_engine(partition_q2, tensor)
        with pytest.raises(ConfigurationError, match="together"):
            deflated_eigenpairs(tensor, 1, engine=engine)

    def test_order4_parallel_stages_match_sequential(self, sqs8, loaded_engine):
        """Deflation on a BCSS-4 engine (SQS(8) quadruple partition,
        P=14, n=56): every parallel stage tracks the sequential one."""
        tensor, _ = _odeco4(56, [3.0, 2.0], seed=10)
        engine, machine = loaded_engine(QuadruplePartition(sqs8), tensor)
        par = deflated_eigenpairs(
            tensor, 2, engine=engine, machine=machine, seed=11, restarts=1
        )
        seq = deflated_eigenpairs(tensor, 2, seed=11, restarts=1)
        assert np.allclose(par.eigenvalues, [3.0, 2.0], atol=1e-9)
        assert np.allclose(par.eigenvalues, seq.eigenvalues, rtol=0, atol=1e-9)
        assert np.allclose(par.eigenvectors, seq.eigenvectors, rtol=0, atol=1e-9)
        for stage, reference in zip(par.stages, seq.stages):
            assert np.allclose(
                stage.lambda_history, reference.lambda_history, rtol=0, atol=1e-9
            )
