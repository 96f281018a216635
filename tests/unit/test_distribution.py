"""Vector shard distribution and reassembly (paper §6.1.2)."""

import numpy as np
import pytest

from repro.core.distribution import (
    assemble_vector,
    initial_shards,
    owned_element_count,
    pad_vector,
    shard_bounds,
)
from repro.errors import PartitionError


class TestPadVector:
    def test_identity(self):
        x = np.arange(4.0)
        assert pad_vector(x, 4) is x

    def test_zero_fill(self):
        padded = pad_vector(np.array([1.0, 2.0]), 5)
        assert np.array_equal(padded, [1, 2, 0, 0, 0])

    def test_rejects_shrink(self):
        with pytest.raises(PartitionError):
            pad_vector(np.ones(5), 3)

    def test_rejects_matrix(self):
        with pytest.raises(PartitionError):
            pad_vector(np.ones((2, 2)), 8)


class TestShardRoundtrip:
    @pytest.mark.parametrize("fixture,b", [("partition_q2", 6), ("partition_q3", 12)])
    def test_initial_shards_partition_the_vector(self, fixture, b, request, rng):
        part = request.getfixturevalue(fixture)
        n = part.m * b
        x = rng.normal(size=n)
        shards = initial_shards(part, x, b)
        rebuilt = assemble_vector(part, shards, b)
        assert np.allclose(rebuilt, x)

    def test_each_processor_owns_n_over_p(self, partition_q3):
        b = 12
        n = partition_q3.m * b
        x = np.arange(float(n))
        shards = initial_shards(partition_q3, x, b)
        for p in range(partition_q3.P):
            total = sum(s.size for s in shards[p].values())
            assert total == n // partition_q3.P
            assert owned_element_count(partition_q3, p, b) == total

    def test_wrong_length_rejected(self, partition_q2):
        with pytest.raises(PartitionError):
            initial_shards(partition_q2, np.ones(7), 6)


class TestShardBounds:
    def test_bounds_tile_the_row_block(self, partition_q2):
        b = 6
        for i in range(partition_q2.m):
            covered = []
            for p in partition_q2.Q[i]:
                lo, hi = shard_bounds(partition_q2, i, p, b)
                covered.append((lo, hi))
            covered.sort()
            assert covered[0][0] == 0
            assert covered[-1][1] == b
            for (lo1, hi1), (lo2, hi2) in zip(covered, covered[1:]):
                assert hi1 == lo2


class TestAssembleValidation:
    def test_missing_shard_detected(self, partition_q2, rng):
        b = 6
        x = rng.normal(size=partition_q2.m * b)
        shards = initial_shards(partition_q2, x, b)
        del shards[0][next(iter(shards[0]))]
        with pytest.raises(PartitionError):
            assemble_vector(partition_q2, shards, b)

    def test_non_finite_values_assemble(self, partition_q2, rng):
        b = 6
        x = rng.normal(size=partition_q2.m * b)
        x[[0, 4, 11]] = [np.nan, np.inf, -np.inf]
        shards = initial_shards(partition_q2, x, b)
        out = assemble_vector(partition_q2, shards, b)
        assert np.array_equal(out, x, equal_nan=True)

    def test_overlap_with_all_nan_shard_detected(self):
        class Overlapping:
            """Row block 0 of length 4 in halves; holders 0 and 1 both
            claim the first half."""

            m = 1

            def shard_size(self, b):
                return b // 2

            def shard_owner_position(self, i, p):
                return {0: 0, 1: 0, 2: 1}[p]

        shards = [{0: np.full(2, np.nan)}, {0: np.ones(2)}, {0: np.full(2, 2.0)}]
        with pytest.raises(PartitionError, match="overlaps"):
            assemble_vector(Overlapping(), shards, 4)

    def test_truncation_to_original_length(self, partition_q2, rng):
        b = 6
        n_padded = partition_q2.m * b
        x = rng.normal(size=n_padded)
        shards = initial_shards(partition_q2, x, b)
        out = assemble_vector(partition_q2, shards, b, original_length=20)
        assert out.shape == (20,)
        assert np.allclose(out, x[:20])
