"""Parallel sparse STTSV: correctness, identical communication, balance."""

import numpy as np
import pytest

from repro.core.parallel_sttsv import ParallelSTTSV
from repro.core.sttsv_sequential import sttsv_packed
from repro.machine.machine import Machine
from repro.tensor.dense import random_symmetric
from repro.tensor.hypergraph import random_hypergraph
from repro.tensor.sparse import SparseSymmetricTensor, sttsv_sparse


@pytest.fixture()
def hypergraph_problem(rng):
    n = 30
    edges = random_hypergraph(n, 80, seed=5)
    tensor = SparseSymmetricTensor.from_hyperedges(n, edges)
    x = rng.normal(size=n)
    return tensor, x


class TestCorrectness:
    def test_matches_sparse_sequential(self, partition_q2, hypergraph_problem):
        tensor, x = hypergraph_problem
        machine = Machine(partition_q2.P)
        algo = ParallelSTTSV(partition_q2, tensor.n)
        algo.load(machine, tensor, x)
        algo.run(machine)
        assert np.allclose(algo.gather_result(machine), sttsv_sparse(tensor, x))

    def test_matches_dense_parallel(self, partition_q2, hypergraph_problem):
        tensor, x = hypergraph_problem
        machine_sparse = Machine(partition_q2.P)
        sparse_algo = ParallelSTTSV(partition_q2, tensor.n)
        sparse_algo.load(machine_sparse, tensor, x)
        sparse_algo.run(machine_sparse)

        machine_dense = Machine(partition_q2.P)
        dense_algo = ParallelSTTSV(partition_q2, tensor.n)
        dense_algo.load(machine_dense, tensor.to_packed(), x)
        dense_algo.run(machine_dense)

        assert np.allclose(
            sparse_algo.gather_result(machine_sparse),
            dense_algo.gather_result(machine_dense),
        )
        # Identical communication: only vector shards cross the network.
        assert (
            machine_sparse.ledger.words_sent == machine_dense.ledger.words_sent
        )
        assert machine_sparse.ledger.round_count() == (
            machine_dense.ledger.round_count()
        )

    def test_sqs8_with_padding(self, partition_sqs8, rng):
        n = 50  # pads to 56
        edges = random_hypergraph(n, 100, seed=6)
        tensor = SparseSymmetricTensor.from_hyperedges(n, edges)
        x = rng.normal(size=n)
        machine = Machine(partition_sqs8.P)
        algo = ParallelSTTSV(partition_sqs8, n)
        algo.load(machine, tensor, x)
        algo.run(machine)
        assert np.allclose(algo.gather_result(machine), sttsv_sparse(tensor, x))

    def test_general_sparse_values(self, partition_q2, rng):
        """Not just 0/1 adjacency: arbitrary values incl. diagonal entries."""
        n = 30
        entries = {}
        for _ in range(60):
            triple = tuple(
                sorted((int(v) for v in rng.integers(0, n, size=3)), reverse=True)
            )
            entries[triple] = float(rng.normal())
        tensor = SparseSymmetricTensor.from_entries(n, entries)
        x = rng.normal(size=n)
        machine = Machine(partition_q2.P)
        algo = ParallelSTTSV(partition_q2, n)
        algo.load(machine, tensor, x)
        algo.run(machine)
        assert np.allclose(
            algo.gather_result(machine),
            sttsv_packed(tensor.to_packed(), x),
        )


class TestAccounting:
    def test_load_balance_report(self, partition_q2, hypergraph_problem):
        tensor, x = hypergraph_problem
        machine = Machine(partition_q2.P)
        algo = ParallelSTTSV(partition_q2, tensor.n)
        algo.load(machine, tensor, x)
        balance = algo.load_balance(machine)
        assert balance["total_nnz"] == tensor.nnz
        assert balance["imbalance"] >= 1.0

    def test_memory_is_sparse(self, partition_q2, hypergraph_problem):
        """Per-processor resident words scale with local nnz, far below
        the dense n³/(6P) blocks."""
        tensor, x = hypergraph_problem
        machine = Machine(partition_q2.P)
        algo = ParallelSTTSV(partition_q2, tensor.n)
        algo.load(machine, tensor, x)
        dense_words = tensor.n**3 / (6 * partition_q2.P)
        for p in range(partition_q2.P):
            indices, values = machine[p].load("sparse_entries")
            assert values.size <= tensor.nnz
        # The entire sparse tensor is smaller than one dense share.
        assert tensor.nnz * 4 < dense_words * partition_q2.P

    def test_sparse_share_counts_in_resident_words(
        self, partition_q2, hypergraph_problem
    ):
        """A processor's share is its ``(indices, values)`` tuple: four
        words (three int64 indices and a value) per local nonzero, in
        resident and peak words alike."""
        tensor, _ = hypergraph_problem
        algo = ParallelSTTSV(partition_q2, tensor.n)
        with Machine(partition_q2.P) as machine:
            algo.load_tensor(machine, tensor)
            for proc in machine:
                local = proc.load("sparse_entries")[1].size
                assert proc.resident_words() == 4 * local
                assert proc.peak_words() == 4 * local
            assert sum(proc.resident_words() for proc in machine) == 4 * tensor.nnz


class TestReload:
    def test_each_load_drops_the_other_storage(
        self, partition_q2, hypergraph_problem
    ):
        """dense → sparse → dense on one engine and machine: after each
        load exactly one storage key is resident, and every processor's
        resident words equal a fresh machine's after the same load."""
        sparse, x = hypergraph_problem
        dense = random_symmetric(sparse.n, seed=8)
        algo = ParallelSTTSV(partition_q2, sparse.n)

        def fresh_words(tensor):
            with Machine(partition_q2.P) as fresh:
                ParallelSTTSV(partition_q2, tensor.n).load_tensor(fresh, tensor)
                return [proc.resident_words() for proc in fresh]

        keys = {"tensor_blocks", "sparse_entries"}
        with Machine(partition_q2.P) as machine:
            for tensor, key in (
                (dense, "tensor_blocks"),
                (sparse, "sparse_entries"),
                (dense, "tensor_blocks"),
            ):
                algo.load_tensor(machine, tensor)
                for proc in machine:
                    assert keys & set(proc.memory) == {key}
                assert [proc.resident_words() for proc in machine] == (
                    fresh_words(tensor)
                )
            algo.load_vector(machine, x)
            algo.run(machine)
            assert np.allclose(algo.gather_result(machine), sttsv_packed(dense, x))

