"""Parallel SYMM and SYR2K (the cited kernel family, §2). SYMM is the
order-2 Algorithm-5 engine (SYMV) loaded with ``B``'s ``k`` columns."""

import numpy as np
import pytest

from repro.core.parallel_sttsv import ParallelSTTSV
from repro.errors import ConfigurationError
from repro.machine.machine import Machine
from repro.matrix.partition import TriangleBlockPartition
from repro.matrix.symm import (
    ParallelSYR2K,
    symm_reference,
    syr2k_reference,
)
from repro.steiner.pairwise import projective_plane_system
from repro.tensor.ndpacked import nd_random_symmetric


@pytest.fixture(scope="module")
def fano():
    part = TriangleBlockPartition(projective_plane_system(2))
    part.validate()
    return part


class TestSYMM:
    @pytest.mark.parametrize("n,k", [(21, 1), (21, 3), (42, 2), (19, 2)])
    def test_matches_dense(self, fano, n, k, rng):
        matrix = nd_random_symmetric(n, 2, seed=n)
        B = rng.normal(size=(n, k))
        machine = Machine(fano.P)
        algo = ParallelSTTSV(fano, n)
        algo.load(machine, matrix, B)
        algo.run(machine)
        assert np.allclose(algo.gather_result(machine), symm_reference(matrix, B))

    def test_two_phase_cost(self, fano, rng):
        """SYMM cost == k × SYMV cost: the same two phases and rounds,
        k columns per message."""
        n, k = 21, 4
        machine = Machine(fano.P)
        algo = ParallelSTTSV(fano, n)
        algo.load(machine, nd_random_symmetric(n, 2, seed=0), rng.normal(size=(n, k)))
        algo.run(machine)
        expected = k * algo.expected_words_per_processor()
        assert machine.ledger.words_sent == [expected] * fano.P
        assert machine.ledger.words_sent == algo.predicted_ledger(k).words_sent
        assert machine.ledger.round_count() == algo.predicted_ledger().round_count()

    def test_k1_equals_symv(self, fano, rng):
        """SYMM with one column is bitwise the SYMV run."""
        n = 21
        matrix = nd_random_symmetric(n, 2, seed=1)
        x = rng.normal(size=n)
        algo = ParallelSTTSV(fano, n)
        results = []
        for value in (x, x[:, None]):
            with Machine(fano.P) as machine:
                algo.load(machine, matrix, value)
                algo.run(machine)
                results.append(algo.gather_result(machine))
        assert results[1].shape == (n, 1)
        assert np.array_equal(results[1][:, 0], results[0])

    def test_shape_validation(self, fano):
        algo = ParallelSTTSV(fano, 21)
        with pytest.raises(ConfigurationError):
            algo.load(Machine(7), nd_random_symmetric(21, 2, seed=0), np.ones((20, 2)))


class TestSYR2K:
    @pytest.mark.parametrize("n,k", [(21, 1), (21, 3), (42, 2)])
    def test_matches_dense(self, fano, n, k, rng):
        A = rng.normal(size=(n, k))
        B = rng.normal(size=(n, k))
        machine = Machine(fano.P)
        algo = ParallelSYR2K(fano, n, k)
        algo.load(machine, A, B)
        algo.run(machine)
        assert np.allclose(algo.gather_result(machine), syr2k_reference(A, B))

    def test_single_phase_double_syrk_cost(self, fano, rng):
        from repro.matrix.syrk import ParallelSYRK

        n, k = 21, 3
        machine = Machine(fano.P)
        algo = ParallelSYR2K(fano, n, k)
        algo.load(machine, rng.normal(size=(n, k)), rng.normal(size=(n, k)))
        algo.run(machine)
        expected = algo.expected_words_per_processor()
        assert machine.ledger.words_sent == [expected] * fano.P
        assert expected == 2 * ParallelSYRK(fano, n, k).expected_words_per_processor()
        # Single phase: only gather-tagged messages.
        for record in machine.ledger.rounds:
            for message in record.messages:
                assert message.tag == "syr2k-gather"

    def test_symmetry_of_output(self, fano, rng):
        n, k = 21, 2
        machine = Machine(fano.P)
        algo = ParallelSYR2K(fano, n, k)
        algo.load(machine, rng.normal(size=(n, k)), rng.normal(size=(n, k)))
        algo.run(machine)
        C = algo.gather_result(machine)
        assert np.allclose(C, C.T)

    def test_shape_validation(self, fano):
        algo = ParallelSYR2K(fano, 21, 2)
        with pytest.raises(ConfigurationError):
            algo.load(Machine(7), np.ones((21, 2)), np.ones((20, 2)))
