"""Symmetric matrix substrate: order-2 packed storage, SYMV kernels,
triangle partition, SYMV on the Algorithm-5 engine and its bounds."""

import numpy as np
import pytest

from repro.core.parallel_sttsv import CommBackend, ParallelSTTSV
from repro.core.plans import sequential_plan
from repro.core.sttsv_ndim import (
    sttsv_ndim,
    sttsv_ndim_dense_reference,
    sttsv_ndim_scalar,
)
from repro.errors import ConfigurationError, PartitionError
from repro.machine.machine import Machine
from repro.matrix.bounds import (
    symv_lower_bound,
    symv_lower_bound_leading,
    symv_optimal_bandwidth,
    symv_optimal_bandwidth_projective,
    symv_schedule_step_count,
)
from repro.matrix.partition import TriangleBlockPartition
from repro.steiner.pairwise import bose_triple_system, projective_plane_system
from repro.tensor.bcss import BCSSTensor
from repro.tensor.ndpacked import (
    NdPackedSymmetricTensor,
    nd_packed_index,
    nd_packed_size,
    nd_random_symmetric,
    nd_unpacked,
    pad_ndpacked,
)


@pytest.fixture(scope="module")
def fano_partition():
    part = TriangleBlockPartition(projective_plane_system(2))
    part.validate()
    return part


@pytest.fixture(scope="module")
def bose_partition():
    part = TriangleBlockPartition(bose_triple_system(1))
    part.validate()
    return part


class TestPackedMatrix:
    def test_index_bijection(self):
        seen = set()
        n = 10
        for i in range(n):
            for j in range(i + 1):
                seen.add(nd_packed_index((i, j)))
        assert seen == set(range(nd_packed_size(n, 2)))

    def test_unpack_roundtrip(self):
        for offset in range(nd_packed_size(12, 2)):
            assert nd_packed_index(nd_unpacked(offset, 2)) == offset

    def test_symmetric_access(self):
        matrix = NdPackedSymmetricTensor(4, 2)
        matrix[1, 3] = 5.0
        assert matrix[3, 1] == 5.0

    def test_dense_roundtrip(self):
        matrix = nd_random_symmetric(6, 2, seed=0)
        dense = matrix.to_dense()
        assert np.allclose(dense, dense.T)
        back = NdPackedSymmetricTensor.from_dense(dense)
        assert np.array_equal(back.data, matrix.data)

    def test_from_dense_rejects_asymmetric(self):
        with pytest.raises(ConfigurationError):
            NdPackedSymmetricTensor.from_dense(np.arange(9.0).reshape(3, 3))

    def test_bad_shape(self):
        with pytest.raises(ConfigurationError):
            NdPackedSymmetricTensor(3, 2, np.zeros(5))


class TestSymvKernels:
    @pytest.mark.parametrize("n", [1, 2, 5, 11])
    def test_all_kernels_agree(self, n, rng):
        matrix = nd_random_symmetric(n, 2, seed=rng.integers(1 << 30))
        x = rng.normal(size=n)
        reference = sttsv_ndim_dense_reference(matrix.to_dense(), x)
        assert np.allclose(sttsv_ndim_scalar(matrix, x), reference)
        assert np.allclose(sttsv_ndim(matrix, x), reference)
        assert np.allclose(sequential_plan(matrix).apply(x), reference)

    def test_shape_validation(self):
        with pytest.raises(ConfigurationError):
            sttsv_ndim(nd_random_symmetric(4, 2, seed=0), np.ones(5))


class TestTrianglePartition:
    def test_fano_coverage(self, fano_partition):
        owner = fano_partition.owner_of_block()
        assert len(owner) == 7 * 8 // 2  # m(m+1)/2 blocks

    def test_projective_one_diagonal_each(self, fano_partition):
        # m == P: every processor holds exactly one diagonal block.
        assert all(len(d) == 1 for d in fano_partition.D)

    def test_bose_diagonals(self, bose_partition):
        total = sum(len(d) for d in bose_partition.D)
        assert total == bose_partition.m == 9
        assert all(len(d) <= 1 for d in bose_partition.D)

    def test_off_diagonal_unique_owner_via_pair_axiom(self, fano_partition):
        system = fano_partition.steiner
        owner = fano_partition.owner_of_block()
        for (I, J), p in owner.items():
            if I != J:
                assert system.block_of_pair(I, J) == p

    def test_q_sets(self, bose_partition):
        replication = bose_partition.steiner.point_replication()
        assert all(len(qq) == replication for qq in bose_partition.Q)

    def test_shared_at_most_one(self, bose_partition):
        for p in range(bose_partition.P):
            for p2 in range(p):
                assert len(bose_partition.shared_row_blocks(p, p2)) <= 1

    def test_exchange_schedule_rejects_two_shared_blocks(self, fano_partition):
        with pytest.raises(PartitionError, match="more than one point"):
            fano_partition.exchange_schedule({(0, 1): [0, 1], (1, 0): [0, 1]})

    def test_storage_leading_term(self, fano_partition):
        b = 9
        n = fano_partition.m * b
        for p in range(fano_partition.P):
            words = fano_partition.storage_words(p, b)
            assert words == pytest.approx(n * n / (2 * fano_partition.P), rel=0.2)

    def test_multiplications_total(self, fano_partition):
        b = 3
        n = fano_partition.m * b
        total = sum(
            fano_partition.multiplications(p, b)
            for p in range(fano_partition.P)
        )
        assert total == n * n  # every a_ij used once per side


class TestBlockExtraction:
    def test_matches_dense(self):
        matrix = nd_random_symmetric(8, 2, seed=1)
        dense = matrix.to_dense()
        blocks = BCSSTensor.from_ndpacked(matrix, 2)
        for block in [(3, 1), (2, 2), (0, 0)]:
            extracted = blocks.block(block)
            I, J = block
            assert np.array_equal(
                extracted, dense[2 * I : 2 * I + 2, 2 * J : 2 * J + 2]
            )

    def test_pad_preserves(self):
        matrix = nd_random_symmetric(3, 2, seed=2)
        padded = pad_ndpacked(matrix, 5)
        assert padded[2, 1] == matrix[2, 1]
        assert padded[4, 4] == 0.0


class TestEngineSYMV:
    """SYMV is Algorithm 5 at order 2: :class:`ParallelSTTSV` on a
    triangle partition and an order-2 packed tensor."""

    @pytest.mark.parametrize(
        "fixture,multiplier", [("fano_partition", 1), ("fano_partition", 2),
                               ("bose_partition", 1)]
    )
    def test_matches_sequential(self, fixture, multiplier, request, rng):
        partition = request.getfixturevalue(fixture)
        n = multiplier * partition.m * partition.steiner.point_replication()
        matrix = nd_random_symmetric(n, 2, seed=3)
        x = rng.normal(size=n)
        machine = Machine(partition.P)
        algo = ParallelSTTSV(partition, n)
        algo.load(machine, matrix, x)
        algo.run(machine)
        assert np.allclose(algo.gather_result(machine), sttsv_ndim(matrix, x))

    def test_exact_cost_and_rounds(self, fano_partition):
        n = 21
        machine = Machine(7)
        algo = ParallelSTTSV(fano_partition, n)
        algo.load(machine, nd_random_symmetric(n, 2, seed=4), np.ones(n))
        algo.run(machine)
        expected = algo.expected_words_per_processor()
        assert machine.ledger.words_sent == [expected] * 7
        assert expected == int(symv_optimal_bandwidth_projective(n, 2))
        assert machine.ledger.round_count() == 2 * symv_schedule_step_count(7, 3)
        assert machine.ledger.all_rounds_are_permutations()

    def test_all_to_all_slot_is_one_shard(self, fano_partition, rng):
        """Two lines share at most one row block, so the All-to-All
        slot is one shard: no padding, the point-to-point volume."""
        n = 21
        matrix = nd_random_symmetric(n, 2, seed=4)
        x = rng.normal(size=n)
        machine = Machine(7)
        algo = ParallelSTTSV(fano_partition, n, CommBackend.ALL_TO_ALL)
        algo.load(machine, matrix, x)
        algo.run(machine)
        assert np.allclose(algo.gather_result(machine), sttsv_ndim(matrix, x))
        p2p = ParallelSTTSV(fano_partition, n).expected_words_per_processor()
        assert algo.expected_words_per_processor() == p2p == 12
        assert machine.ledger.words_sent == [12] * 7
        assert algo.words_per_processor() == [12] * 7

    def test_lower_bound_respected(self, fano_partition):
        n = 42
        machine = Machine(7)
        algo = ParallelSTTSV(fano_partition, n)
        algo.load(machine, nd_random_symmetric(n, 2, seed=5), np.ones(n))
        algo.run(machine)
        assert machine.ledger.max_words_sent() >= symv_lower_bound(n, 7)

    def test_padding(self, fano_partition, rng):
        n = 20  # pads to 21
        matrix = nd_random_symmetric(n, 2, seed=6)
        x = rng.normal(size=n)
        machine = Machine(7)
        algo = ParallelSTTSV(fano_partition, n)
        assert algo.n_padded == 21
        algo.load(machine, matrix, x)
        algo.run(machine)
        assert np.allclose(algo.gather_result(machine), sttsv_ndim(matrix, x))


class TestBounds:
    def test_leading_term_matches_projective(self):
        """Projective-plane SYMV hits 2n/√P at leading order."""
        n = 10**6
        for q in (5, 25):
            P = q * q + q + 1
            ratio = symv_optimal_bandwidth_projective(
                n - n % P, q
            ) / symv_lower_bound_leading(n - n % P, P)
            assert ratio == pytest.approx(1.0, rel=0.12)

    def test_lower_bound_positive_and_monotone(self):
        values = [symv_lower_bound(1000, P) for P in (7, 13, 31, 57)]
        assert all(v > 0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_divisibility_enforced(self):
        with pytest.raises(ConfigurationError):
            symv_optimal_bandwidth(100, 7, 3)  # 7 does not divide 100
