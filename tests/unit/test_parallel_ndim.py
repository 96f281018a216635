"""Order-4 partitioning, greedy exchange scheduling, and the parallel
blocked STTSV (the Algorithm 5 sibling over SQS quadruples)."""

from math import comb

import numpy as np
import pytest

from repro.core.parallel_sttsv import CommBackend, ParallelSTTSV
from repro.core.partition_ndim import (
    QuadruplePartition,
    greedy_partial_permutation_rounds,
)
from repro.core.sttsv_ndim import (
    sttsv_ndim,
    sttsv_ndim_dense_reference,
    sttsv_ndim_lower_bound,
)
from repro.errors import ConfigurationError, MachineError, PartitionError
from repro.machine.machine import Machine
from repro.machine.transport import make_transport
from repro.tensor.dense import random_symmetric
from repro.tensor.ndpacked import (
    NdPackedSymmetricTensor,
    nd_packed_size,
    nd_random_symmetric,
)
from repro.tensor.sparse import SparseSymmetricTensor


@pytest.fixture(scope="module")
def quad_partition(sqs8):
    partition = QuadruplePartition(sqs8)
    partition.validate()
    return partition


class TestQuadruplePartition:
    def test_validates_on_sqs8(self, quad_partition):
        assert quad_partition.P == 14
        assert quad_partition.m == 8
        assert quad_partition.replication == 7

    def test_every_block_owned_exactly_once(self, quad_partition):
        owned = [
            index for p in range(quad_partition.P)
            for index in quad_partition.owned[p]
        ]
        assert len(owned) == len(set(owned)) == comb(8 + 3, 4)

    def test_owners_hold_their_row_blocks(self, quad_partition):
        for p in range(quad_partition.P):
            need = set(quad_partition.need[p])
            assert set(quad_partition.R[p]) <= need
            for index in quad_partition.owned[p]:
                assert set(index) <= need

    def test_consumers_invert_need(self, quad_partition):
        for i in range(quad_partition.m):
            assert list(quad_partition.consumers[i]) == sorted(
                p for p in range(quad_partition.P)
                if i in quad_partition.need[p]
            )

    def test_rejects_non_quadruple_systems(self, steiner_q2):
        with pytest.raises(PartitionError):
            QuadruplePartition(steiner_q2)

    def test_shard_size_requires_replication_multiple(self, quad_partition):
        assert quad_partition.shard_size(7) == 1
        with pytest.raises(PartitionError):
            quad_partition.shard_size(5)

    def test_shard_owner_position(self, quad_partition):
        for i in range(quad_partition.m):
            for slot, p in enumerate(quad_partition.Q[i]):
                assert quad_partition.shard_owner_position(i, p) == slot
        outsider = next(
            p for p in range(quad_partition.P)
            if p not in quad_partition.Q[0]
        )
        with pytest.raises(PartitionError):
            quad_partition.shard_owner_position(0, outsider)


class TestGreedyScheduler:
    def test_rounds_are_partial_permutations(self):
        edges = [
            (0, 1), (0, 2), (0, 3), (1, 0), (1, 2), (2, 3), (3, 1), (2, 0),
        ]
        rounds = greedy_partial_permutation_rounds(edges)
        scheduled = []
        for round_map in rounds:
            senders = list(round_map)
            receivers = list(round_map.values())
            assert len(set(senders)) == len(senders)
            assert len(set(receivers)) == len(receivers)
            scheduled.extend(round_map.items())
        assert sorted(scheduled) == sorted(set(edges))

    def test_round_count_bounded_by_degree(self):
        # A star: one sender to 5 receivers needs exactly 5 rounds.
        edges = [(0, d) for d in range(1, 6)]
        assert len(greedy_partial_permutation_rounds(edges)) == 5

    def test_self_edges_rejected(self):
        with pytest.raises(PartitionError):
            greedy_partial_permutation_rounds([(1, 1)])

    def test_empty_graph(self):
        assert greedy_partial_permutation_rounds([]) == []


class TestParallelSTTSVm:
    def test_matches_sequential_kernel(self, quad_partition, rng):
        n = 26
        tensor = nd_random_symmetric(n, 4, seed=17)
        x = rng.standard_normal(n)
        algo = ParallelSTTSV(quad_partition, n)
        with Machine(
            quad_partition.P,
            transport=make_transport("simulated", quad_partition.P),
        ) as machine:
            algo.load(machine, tensor, x)
            algo.run(machine)
            y = algo.gather_result(machine)
        assert np.allclose(y, sttsv_ndim(tensor, x))

    def test_bitwise_against_dense_oracle_on_integers(self, quad_partition):
        """Integer-valued data keeps every float64 op exact, so the
        distributed result must equal the dense oracle bitwise."""
        rng = np.random.default_rng(7)
        n = 20
        data = rng.integers(-3, 4, size=nd_packed_size(n, 4)).astype(float)
        tensor = NdPackedSymmetricTensor(n, 4, data)
        x = rng.integers(-2, 3, size=n).astype(float)
        algo = ParallelSTTSV(quad_partition, n)
        with Machine(
            quad_partition.P,
            transport=make_transport("simulated", quad_partition.P),
        ) as machine:
            algo.load(machine, tensor, x)
            algo.run(machine)
            y = algo.gather_result(machine)
        oracle = sttsv_ndim_dense_reference(tensor.to_dense(), x)
        assert y.tobytes() == oracle.tobytes()

    def test_words_respect_generalized_lower_bound(self, quad_partition):
        n = 26
        tensor = nd_random_symmetric(n, 4, seed=18)
        x = np.random.default_rng(19).standard_normal(n)
        algo = ParallelSTTSV(quad_partition, n)
        with Machine(
            quad_partition.P,
            transport=make_transport("simulated", quad_partition.P),
        ) as machine:
            algo.load(machine, tensor, x)
            algo.run(machine)
            ledger_max = machine.ledger.max_words_sent()
        bound = sttsv_ndim_lower_bound(n, quad_partition.P, 4)
        assert max(algo.words_per_processor()) == ledger_max
        assert ledger_max >= bound > 0

    def test_only_point_to_point(self, quad_partition):
        with pytest.raises(ConfigurationError):
            ParallelSTTSV(quad_partition, 26, backend=CommBackend.ALL_TO_ALL)

    def test_rejects_wrong_order_tensor(self, quad_partition, partition_q2):
        cases = [
            (quad_partition, nd_random_symmetric(8, 3, seed=20)),
            (quad_partition, random_symmetric(8, seed=20)),
            (partition_q2, nd_random_symmetric(8, 4, seed=20)),
        ]
        for partition, tensor in cases:
            algo = ParallelSTTSV(partition, 8)
            with Machine(
                partition.P,
                transport=make_transport("simulated", partition.P),
            ) as machine:
                with pytest.raises(ConfigurationError):
                    algo.load_tensor(machine, tensor)

    def test_rejects_wrong_machine_size(self, quad_partition):
        algo = ParallelSTTSV(quad_partition, 8)
        tensor = nd_random_symmetric(8, 4, seed=21)
        with Machine(
            3, transport=make_transport("simulated", 3)
        ) as machine:
            with pytest.raises(MachineError):
                algo.load_tensor(machine, tensor)

    def test_rejects_wrong_vector_shape(self, quad_partition, partition_q2):
        algo = ParallelSTTSV(quad_partition, 8)
        with Machine(
            quad_partition.P,
            transport=make_transport("simulated", quad_partition.P),
        ) as machine:
            with pytest.raises(ConfigurationError):
                algo.load_vector(machine, np.ones(9))
        sparse = SparseSymmetricTensor.from_hyperedges(
            25, [(0, 5, 11), (3, 7, 19)]
        )
        algo = ParallelSTTSV(partition_q2, 25)
        with Machine(partition_q2.P) as machine:
            with pytest.raises(ConfigurationError):
                algo.load(machine, sparse, np.ones(24))

    def test_shared_memory_transport_agrees(self, quad_partition, rng):
        n = 16
        tensor = nd_random_symmetric(n, 4, seed=22)
        x = rng.standard_normal(n)
        results = {}
        for name in ("simulated", "shm"):
            algo = ParallelSTTSV(quad_partition, n)
            with Machine(
                quad_partition.P,
                transport=make_transport(name, quad_partition.P),
            ) as machine:
                algo.load(machine, tensor, x)
                algo.run(machine)
                results[name] = algo.gather_result(machine)
        assert results["simulated"].tobytes() == results["shm"].tobytes()
