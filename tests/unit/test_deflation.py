"""HOPM deflation: recover all odeco eigenpairs."""

import numpy as np
import pytest

from repro.apps.deflation import deflated_eigenpairs
from repro.errors import ConfigurationError
from repro.tensor.dense import odeco_tensor


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
