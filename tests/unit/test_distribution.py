"""Vector shard distribution and reassembly (paper §6.1.2): the
padding and shard-bound conventions, and the engine's shard layout
(:meth:`ExchangePlan.split_shards`) and reassembly
(:meth:`ExchangePlan.assemble`) built on them."""

import numpy as np
import pytest

from repro.core.distribution import shard_bounds
from repro.core.parallel_sttsv import ParallelSTTSV
from repro.core.plans import ExchangePlan
from repro.errors import PartitionError
from repro.machine.machine import Machine


class TestShardRoundtrip:
    @pytest.mark.parametrize("fixture,b", [("partition_q2", 6), ("partition_q3", 12)])
    def test_initial_shards_partition_the_vector(self, fixture, b, request, rng):
        part = request.getfixturevalue(fixture)
        plan = ExchangePlan(part, b)
        x = rng.normal(size=part.m * b)
        shards = plan.split_shards(x[plan.load_index])
        assert np.array_equal(plan.assemble(shards), x)

    def test_each_processor_owns_n_over_p(self, partition_q3):
        b = 12
        n = partition_q3.m * b
        plan = ExchangePlan(partition_q3, b)
        shards = plan.split_shards(np.arange(float(n))[plan.load_index])
        for p in range(partition_q3.P):
            total = sum(s.size for s in shards[p].values())
            assert total == n // partition_q3.P
            widths = [
                hi - lo
                for lo, hi in (
                    shard_bounds(partition_q3, i, p, b) for i in partition_q3.R[p]
                )
            ]
            assert sum(widths) == total

    def test_wrong_length_rejected(self, partition_q2):
        plan = ExchangePlan(partition_q2, 6)
        shards = plan.split_shards(np.ones(plan.load_index.size))
        i = next(iter(shards[0]))
        shards[0][i] = np.ones(shards[0][i].size + 1)
        with pytest.raises(PartitionError, match="shards hold"):
            plan.assemble(shards)


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
        plan = ExchangePlan(partition_q2, 6)
        x = rng.normal(size=partition_q2.m * 6)
        shards = plan.split_shards(x[plan.load_index])
        del shards[0][next(iter(shards[0]))]
        with pytest.raises(PartitionError, match="missing shards"):
            plan.assemble(shards)

    def test_non_finite_values_assemble(self, partition_q2, rng):
        plan = ExchangePlan(partition_q2, 6)
        x = rng.normal(size=partition_q2.m * 6)
        x[[0, 4, 11]] = [np.nan, np.inf, -np.inf]
        shards = plan.split_shards(x[plan.load_index])
        out = plan.assemble(shards)
        assert np.array_equal(out, x, equal_nan=True)

    def test_truncation_to_original_length(self, partition_q2, rng):
        algo = ParallelSTTSV(partition_q2, 20)
        assert algo.n_padded == 30
        x = rng.normal(size=20)
        with Machine(partition_q2.P) as machine:
            algo.load_vector(machine, x)
            out = algo.gather_x(machine)
        assert out.shape == (20,)
        assert np.array_equal(out, x)
