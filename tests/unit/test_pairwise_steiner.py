"""Steiner (m, r, 2) systems: axioms and the two classical families."""

import pytest

from repro.errors import SteinerError
from repro.steiner.pairwise import (
    PairwiseSteinerSystem,
    bose_triple_system,
    projective_plane_system,
)


class TestContainer:
    def test_fano_by_hand(self):
        fano = PairwiseSteinerSystem(
            7,
            3,
            [
                (0, 1, 2),
                (0, 3, 4),
                (0, 5, 6),
                (1, 3, 5),
                (1, 4, 6),
                (2, 3, 6),
                (2, 4, 5),
            ],
        )
        assert len(fano) == 7
        assert fano.point_replication() == 3

    def test_missing_pair_detected(self):
        with pytest.raises(SteinerError):
            PairwiseSteinerSystem(4, 2, [(0, 1), (2, 3)])

    def test_duplicate_pair_detected(self):
        with pytest.raises(SteinerError):
            PairwiseSteinerSystem(3, 2, [(0, 1), (0, 1), (0, 2), (1, 2)])

    def test_block_of_pair(self):
        system = projective_plane_system(2)
        index = system.block_of_pair(0, 3)
        assert {0, 3} <= set(system.blocks[index])
        with pytest.raises(SteinerError):
            system.block_of_pair(2, 2)

    def test_expected_count_rejects_impossible(self):
        # C(5,2)=10 not divisible by C(4,2)=6.
        with pytest.raises(SteinerError):
            PairwiseSteinerSystem.expected_block_count(5, 4)


class TestProjectivePlanes:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
    def test_parameters(self, q):
        plane = projective_plane_system(q)
        m = q * q + q + 1
        assert plane.m == m
        assert plane.r == q + 1
        assert len(plane) == m  # self-dual: #lines == #points
        assert plane.point_replication() == q + 1

    def test_two_lines_meet_in_one_point(self):
        plane = projective_plane_system(3)
        blocks = [set(b) for b in plane.blocks]
        for i in range(len(blocks)):
            for j in range(i):
                assert len(blocks[i] & blocks[j]) == 1

    def test_non_prime_power_rejected(self):
        with pytest.raises(SteinerError):
            projective_plane_system(6)


class TestBoseTripleSystems:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_parameters(self, k):
        system = bose_triple_system(k)
        m = 6 * k + 3
        assert system.m == m
        assert system.r == 3
        assert len(system) == m * (m - 1) // 6
        assert system.point_replication() == (m - 1) // 2

    def test_k0_rejected(self):
        with pytest.raises(SteinerError):
            bose_triple_system(0)


class TestSkolemTripleSystems:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_parameters(self, k):
        from repro.steiner.pairwise import skolem_triple_system

        system = skolem_triple_system(k)
        m = 6 * k + 1
        assert system.m == m
        assert system.r == 3
        assert len(system) == m * (m - 1) // 6
        assert system.point_replication() == (m - 1) // 2

    def test_k0_rejected(self):
        from repro.steiner.pairwise import skolem_triple_system

        with pytest.raises(SteinerError):
            skolem_triple_system(0)

    def test_drives_triangle_partition_and_symv(self):
        """STS(13) from Skolem: P=26 triangle partition runs parallel
        SYMV (the Algorithm-5 engine at order 2) exactly at its
        closed-form cost."""
        import numpy as np

        from repro.core.parallel_sttsv import ParallelSTTSV
        from repro.core.sttsv_ndim import sttsv_ndim
        from repro.machine.machine import Machine
        from repro.matrix.partition import TriangleBlockPartition
        from repro.steiner.pairwise import skolem_triple_system
        from repro.tensor.ndpacked import nd_random_symmetric

        partition = TriangleBlockPartition(skolem_triple_system(2))
        partition.validate()
        n = partition.m * partition.steiner.point_replication()  # 13*6
        matrix = nd_random_symmetric(n, 2, seed=0)
        x = np.random.default_rng(1).normal(size=n)
        machine = Machine(partition.P)
        algo = ParallelSTTSV(partition, n)
        algo.load(machine, matrix, x)
        algo.run(machine)
        assert np.allclose(algo.gather_result(machine), sttsv_ndim(matrix, x))
        expected = algo.expected_words_per_processor()
        assert machine.ledger.words_sent == [expected] * partition.P
