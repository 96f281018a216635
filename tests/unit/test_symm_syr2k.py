"""Parallel SYMM and SYR2K (the cited kernel family, §2)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.machine.machine import Machine
from repro.matrix.partition import TriangleBlockPartition
from repro.matrix.symm import (
    ParallelSYMM,
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
        algo = ParallelSYMM(fano, n, k)
        algo.load(machine, matrix, B)
        algo.run(machine)
        assert np.allclose(algo.gather_result(machine), symm_reference(matrix, B))

    def test_two_phase_cost(self, fano, rng):
        n, k = 21, 4
        machine = Machine(fano.P)
        algo = ParallelSYMM(fano, n, k)
        algo.load(machine, nd_random_symmetric(n, 2, seed=0), rng.normal(size=(n, k)))
        algo.run(machine)
        expected = algo.expected_words_per_processor()
        assert machine.ledger.words_sent == [expected] * fano.P
        # SYMM cost == k × SYMV cost (same two-phase pattern, k columns).
        from repro.core.parallel_sttsv import ParallelSTTSV

        symv_words = ParallelSTTSV(fano, n).expected_words_per_processor()
        assert expected == k * symv_words

    def test_k1_equals_symv(self, fano, rng):
        """SYMM with one column reproduces SYMV exactly."""
        from repro.core.sttsv_ndim import sttsv_ndim

        n = 21
        matrix = nd_random_symmetric(n, 2, seed=1)
        x = rng.normal(size=n)
        machine = Machine(fano.P)
        algo = ParallelSYMM(fano, n, 1)
        algo.load(machine, matrix, x[:, None])
        algo.run(machine)
        assert np.allclose(algo.gather_result(machine)[:, 0], sttsv_ndim(matrix, x))

    def test_shape_validation(self, fano):
        algo = ParallelSYMM(fano, 21, 2)
        with pytest.raises(ConfigurationError):
            algo.load(Machine(7), nd_random_symmetric(21, 2, seed=0), np.ones((21, 3)))


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
