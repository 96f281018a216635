"""Packed symmetric storage, dense converters, blocks, multiplicities."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.tensor.bcss import BCSSTensor
from repro.tensor.blocks import (
    BlockKind,
    block_counts,
    block_slice,
    blocked_storage_words,
    canonical_entry_count,
    classify_block,
    lower_tetrahedral_blocks,
    ternary_multiplications,
)
from repro.tensor.dense import (
    dense_from_packed,
    is_symmetric,
    odeco_tensor,
    packed_from_dense,
    random_symmetric,
    rank_one_symmetric,
    symmetrize,
)
from repro.tensor.multiplicity import (
    contribution_weights,
    permutation_multiplicity,
    remaining_pair_multiplicity,
)
from repro.tensor.packed import (
    PackedSymmetricTensor,
    canonical_triple,
    packed_index,
    packed_size,
    unpacked_triple,
)


class TestPackedIndexing:
    def test_sizes(self):
        assert packed_size(1) == 1
        assert packed_size(4) == 20
        assert packed_size(10) == 220

    def test_bijection(self):
        n = 12
        seen = set()
        for i in range(n):
            for j in range(i + 1):
                for k in range(j + 1):
                    offset = packed_index(i, j, k)
                    assert 0 <= offset < packed_size(n)
                    seen.add(offset)
        assert len(seen) == packed_size(n)

    def test_inverse(self):
        for offset in range(packed_size(15)):
            i, j, k = unpacked_triple(offset)
            assert i >= j >= k >= 0
            assert packed_index(i, j, k) == offset

    def test_non_canonical_rejected(self):
        with pytest.raises(ConfigurationError):
            packed_index(1, 2, 0)

    def test_canonical_triple(self):
        assert canonical_triple(1, 5, 3) == (5, 3, 1)
        assert canonical_triple(2, 2, 2) == (2, 2, 2)


class TestPackedTensor:
    def test_symmetric_access(self):
        t = PackedSymmetricTensor(5)
        t[4, 1, 2] = 3.5
        for perm in [(4, 1, 2), (4, 2, 1), (1, 4, 2), (1, 2, 4), (2, 4, 1), (2, 1, 4)]:
            assert t[perm] == 3.5

    def test_out_of_bounds(self):
        t = PackedSymmetricTensor(3)
        with pytest.raises(ConfigurationError):
            t[3, 0, 0]
        with pytest.raises(ConfigurationError):
            t[0, 0, 5] = 1.0

    def test_data_shape_validation(self):
        with pytest.raises(ConfigurationError):
            PackedSymmetricTensor(4, np.zeros(7))

    def test_canonical_entries_iteration(self):
        t = random_symmetric(4, seed=0)
        entries = list(t.canonical_entries())
        assert len(entries) == packed_size(4)
        for (i, j, k), value in entries:
            assert i >= j >= k
            assert t[i, j, k] == value

    def test_index_arrays_alignment(self):
        n = 6
        I, J, K = random_symmetric(n, seed=0).index_arrays().T
        for offset in range(packed_size(n)):
            assert (I[offset], J[offset], K[offset]) == unpacked_triple(offset)

    def test_copy_and_eq(self):
        t = random_symmetric(4, seed=1)
        clone = t.copy()
        assert clone == t
        clone[0, 0, 0] = 99
        assert clone != t

    def test_nbytes(self):
        t = PackedSymmetricTensor(4)
        assert t.nbytes() == packed_size(4) * 8


class TestDenseConversions:
    def test_roundtrip(self):
        t = random_symmetric(6, seed=2)
        dense = dense_from_packed(t)
        assert is_symmetric(dense)
        back = packed_from_dense(dense)
        assert np.array_equal(back.data, t.data)

    def test_to_from_dense_methods(self):
        t = random_symmetric(4, seed=3)
        assert np.array_equal(
            PackedSymmetricTensor.from_dense(t.to_dense()).data, t.data
        )

    def test_packed_from_asymmetric_rejected(self):
        cube = np.arange(27, dtype=float).reshape(3, 3, 3)
        with pytest.raises(ConfigurationError):
            packed_from_dense(cube)

    def test_symmetrize_projects(self):
        rng = np.random.default_rng(4)
        cube = rng.normal(size=(4, 4, 4))
        sym = symmetrize(cube)
        assert is_symmetric(sym)
        # Projection is idempotent.
        assert np.allclose(symmetrize(sym), sym)

    def test_symmetrize_rejects_noncube(self):
        with pytest.raises(ConfigurationError):
            symmetrize(np.zeros((2, 3, 2)))

    def test_is_symmetric_rejects_noncube(self):
        assert not is_symmetric(np.zeros((2, 2)))
        assert not is_symmetric(np.zeros((2, 3, 2)))


class TestGenerators:
    def test_random_symmetric_deterministic(self):
        a = random_symmetric(5, seed=7)
        b = random_symmetric(5, seed=7)
        assert np.array_equal(a.data, b.data)

    def test_rank_one(self):
        v = np.array([1.0, 2.0])
        cube = rank_one_symmetric(v, weight=2.0)
        assert cube[1, 1, 0] == pytest.approx(2.0 * 2 * 2 * 1)
        assert is_symmetric(cube)

    def test_odeco(self):
        tensor, weights, factors = odeco_tensor(8, 3, seed=5)
        assert factors.shape == (8, 3)
        assert np.allclose(factors.T @ factors, np.eye(3), atol=1e-12)
        assert np.all(np.diff(weights) < 0)  # strictly decreasing
        # Reconstruct and compare.
        dense = sum(
            rank_one_symmetric(factors[:, t], weights[t]) for t in range(3)
        )
        assert np.allclose(dense_from_packed(tensor), dense)

    def test_odeco_rank_exceeds_dim(self):
        with pytest.raises(ConfigurationError):
            odeco_tensor(3, 5)


class TestBlocks:
    def test_classification(self):
        assert classify_block((3, 2, 1)) is BlockKind.OFF_DIAGONAL
        assert classify_block((2, 2, 1)) is BlockKind.NON_CENTRAL_DIAGONAL
        assert classify_block((2, 1, 1)) is BlockKind.NON_CENTRAL_DIAGONAL
        assert classify_block((2, 2, 2)) is BlockKind.CENTRAL_DIAGONAL

    def test_non_canonical_rejected(self):
        with pytest.raises(ConfigurationError):
            classify_block((1, 2, 3))

    def test_entry_counts(self):
        b = 4
        assert canonical_entry_count(BlockKind.OFF_DIAGONAL, b) == 64
        assert canonical_entry_count(BlockKind.NON_CENTRAL_DIAGONAL, b) == 40
        assert canonical_entry_count(BlockKind.CENTRAL_DIAGONAL, b) == 20

    def test_ternary_counts_sum_to_global(self):
        """Per-block §7.1 counts over all blocks == Algorithm 4's total."""
        from repro.util.combinatorics import (
            ternary_multiplication_count_symmetric,
        )

        m, b = 5, 3
        total = sum(
            ternary_multiplications(classify_block(idx), b)
            for idx in lower_tetrahedral_blocks(m)
        )
        assert total == ternary_multiplication_count_symmetric(m * b)

    def test_block_counts(self):
        counts = block_counts(10)
        assert counts[BlockKind.OFF_DIAGONAL] == 120
        assert counts[BlockKind.NON_CENTRAL_DIAGONAL] == 90
        assert counts[BlockKind.CENTRAL_DIAGONAL] == 10
        assert sum(counts.values()) == 220  # tetrahedral_number(10)

    def test_lower_tetrahedral_enumeration(self):
        blocks = list(lower_tetrahedral_blocks(3))
        assert len(blocks) == 10
        assert all(i >= j >= k for i, j, k in blocks)

    def test_block_slice(self):
        assert block_slice(2, 5) == slice(10, 15)

    def test_extract_block_matches_dense(self):
        t = random_symmetric(8, seed=6)
        dense = dense_from_packed(t)
        b = 2
        block_at = BCSSTensor.from_ndpacked(t, b).block
        for index in lower_tetrahedral_blocks(4):
            block = block_at(index)
            I, J, K = index
            expected = dense[
                I * b : (I + 1) * b, J * b : (J + 1) * b, K * b : (K + 1) * b
            ]
            assert np.array_equal(block, expected)

    def test_extract_out_of_range(self):
        t = random_symmetric(4, seed=0)
        with pytest.raises(ConfigurationError):
            BCSSTensor.from_ndpacked(t, 2).block((2, 0, 0))

    def test_blocked_storage_words(self):
        words = blocked_storage_words([(2, 1, 0), (1, 1, 0), (0, 0, 0)], 3)
        assert words == 27 + 18 + 10


class TestMultiplicity:
    def test_permutation_multiplicity(self):
        assert permutation_multiplicity(3, 2, 1) == 6
        assert permutation_multiplicity(2, 2, 1) == 3
        assert permutation_multiplicity(1, 1, 1) == 1

    def test_remaining_pair(self):
        assert remaining_pair_multiplicity(3, 3, 2, 1) == 2
        # Removing output 1 from (2,1,1) leaves (2,1): distinct -> 2.
        assert remaining_pair_multiplicity(1, 2, 1, 1) == 2
        # Removing output 2 from (2,1,1) leaves (1,1): equal -> 1.
        assert remaining_pair_multiplicity(2, 2, 1, 1) == 1

    def test_contribution_weights_match_algorithm4_cases(self):
        import numpy as np

        I = np.array([3, 2, 2, 1])
        J = np.array([2, 2, 1, 1])
        K = np.array([1, 1, 1, 1])
        w_i, w_j, w_k = contribution_weights(I, J, K)
        # distinct: (2,2,2); i==j: (2,0,1); j==k: (1,2,0); all equal: (1,0,0)
        assert list(w_i) == [2, 2, 1, 1]
        assert list(w_j) == [2, 0, 2, 0]
        assert list(w_k) == [2, 1, 0, 0]
