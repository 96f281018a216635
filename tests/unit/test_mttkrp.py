"""Symmetric MTTKRP (paper §8)."""

import numpy as np
import pytest

from repro.apps.mttkrp import (
    parallel_symmetric_mttkrp,
    parallel_symmetric_mttkrp_batched,
    symmetric_mttkrp,
    symmetric_mttkrp_batched,
)
from repro.core.bounds import optimal_bandwidth_cost
from repro.core.parallel_sttsv import CommBackend
from repro.core.sttsv_sequential import sttsv_packed
from repro.errors import ConfigurationError
from repro.tensor.dense import dense_from_packed, random_symmetric
from repro.tensor.hypergraph import random_hypergraph
from repro.tensor.sparse import SparseSymmetricTensor


class TestSequential:
    def test_columns_are_sttsv(self, rng):
        tensor = random_symmetric(8, seed=0)
        X = rng.normal(size=(8, 3))
        Y = symmetric_mttkrp(tensor, X)
        for col in range(3):
            assert np.allclose(Y[:, col], sttsv_packed(tensor, X[:, col]))

    def test_matches_dense_definition(self, rng):
        """Y_{iℓ} = Σ_{j,k} a_ijk X_jℓ X_kℓ straight from the paper."""
        tensor = random_symmetric(6, seed=1)
        X = rng.normal(size=(6, 2))
        dense = dense_from_packed(tensor)
        expected = np.einsum("ijk,jl,kl->il", dense, X, X)
        assert np.allclose(symmetric_mttkrp(tensor, X), expected)

    def test_batched_matches_columnwise(self, rng):
        tensor = random_symmetric(10, seed=2)
        X = rng.normal(size=(10, 5))
        assert np.allclose(
            symmetric_mttkrp_batched(tensor, X), symmetric_mttkrp(tensor, X)
        )

    def test_single_column(self, rng):
        tensor = random_symmetric(5, seed=3)
        X = rng.normal(size=(5, 1))
        assert np.allclose(
            symmetric_mttkrp_batched(tensor, X)[:, 0],
            sttsv_packed(tensor, X[:, 0]),
        )

    def test_shape_validation(self):
        tensor = random_symmetric(5, seed=4)
        with pytest.raises(ConfigurationError):
            symmetric_mttkrp(tensor, np.ones((4, 2)))
        with pytest.raises(ConfigurationError):
            symmetric_mttkrp_batched(tensor, np.ones(5))


class TestParallel:
    def test_matches_sequential(self, partition_q2, loaded_engine, rng):
        tensor = random_symmetric(30, seed=5)
        X = rng.normal(size=(30, 2))
        engine, machine = loaded_engine(partition_q2, tensor)
        Y, ledger = parallel_symmetric_mttkrp(engine, machine, X)
        assert np.allclose(Y, symmetric_mttkrp(tensor, X))

    def test_communication_is_r_sttsvs(self, partition_q2, loaded_engine, rng):
        n, r = 60, 3
        tensor = random_symmetric(n, seed=6)
        X = rng.normal(size=(n, r))
        engine, machine = loaded_engine(partition_q2, tensor)
        _, ledger = parallel_symmetric_mttkrp(engine, machine, X)
        assert ledger.max_words_sent() == pytest.approx(
            r * optimal_bandwidth_cost(n, 2)
        )


class TestBatchedParallel:
    def test_matches_reference_with_padding(self, partition_q2, loaded_engine, rng):
        tensor = random_symmetric(41, seed=7)  # forces padding
        X = rng.normal(size=(41, 3))
        engine, machine = loaded_engine(partition_q2, tensor)
        Y, ledger = parallel_symmetric_mttkrp_batched(engine, machine, X)
        assert np.allclose(Y, symmetric_mttkrp(tensor, X))

    def test_same_words_r_fold_fewer_rounds(self, partition_q2, loaded_engine, rng):
        n, r = 30, 4
        tensor = random_symmetric(n, seed=8)
        X = rng.normal(size=(n, r))
        engine, machine = loaded_engine(partition_q2, tensor)
        _, batched = parallel_symmetric_mttkrp_batched(engine, machine, X)
        _, columnwise = parallel_symmetric_mttkrp(engine, machine, X)
        assert batched.max_words_sent() == columnwise.max_words_sent()
        assert batched.round_count() * r == columnwise.round_count()
        assert batched.all_rounds_are_permutations()

    @pytest.mark.parametrize("sparse,backend", [
        (False, CommBackend.ALL_TO_ALL), (True, CommBackend.POINT_TO_POINT)
    ])
    def test_serves_all_to_all_and_sparse_engines(
        self, partition_q2, loaded_engine, sparse, backend, rng
    ):
        """The batch is one engine run on the factor matrix, so every
        engine serves it: an all-to-all engine and a sparse one give the
        reference result with the column loop's words."""
        tensor = random_symmetric(30, seed=9)
        if sparse:
            tensor = SparseSymmetricTensor.from_hyperedges(
                30, random_hypergraph(30, 60, seed=1)
            )
        X = rng.normal(size=(30, 2))
        engine, machine = loaded_engine(partition_q2, tensor, backend)
        Y, batched = parallel_symmetric_mttkrp_batched(engine, machine, X)
        _, columnwise = parallel_symmetric_mttkrp(engine, machine, X)
        reference = tensor.to_packed() if sparse else tensor
        assert np.allclose(Y, symmetric_mttkrp(reference, X))
        assert batched.words_sent == columnwise.words_sent
        assert batched.round_count() * 2 == columnwise.round_count()

    def test_q2_ledger_pin(self, partition_q2, loaded_engine, rng):
        """n=120, r=16 at q=2: 16 × 120 words per processor in one
        run's 18 rounds, the engine's predicted ledger."""
        n, r = 120, 16
        engine, machine = loaded_engine(partition_q2, random_symmetric(n, seed=10))
        _, ledger = parallel_symmetric_mttkrp_batched(
            engine, machine, rng.normal(size=(n, r))
        )
        assert ledger.words_sent == [1920] * partition_q2.P
        assert ledger.round_count() == 18
        assert ledger.words_sent == engine.predicted_ledger(r).words_sent
