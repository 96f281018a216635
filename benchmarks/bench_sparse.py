"""Extension — sparse (hypergraph) STTSV, sequential and parallel.

The paper cites tensor-times-same-vector for hypergraphs (Shivakumar
et al.) as a motivating workload. This bench times the O(nnz) sparse
kernel against the dense packed kernel on an adjacency tensor, and
asserts the parallel sparse variant moves exactly the same words as
dense Algorithm 5 (only vector shards ever cross the network).
"""

import numpy as np
import pytest

from repro.core.bounds import optimal_bandwidth_cost
from repro.core.parallel_sttsv import ParallelSTTSV
from repro.core.sttsv_sequential import sttsv_packed
from repro.machine.machine import Machine
from repro.tensor.hypergraph import random_hypergraph
from repro.tensor.sparse import SparseSymmetricTensor, sttsv_sparse

N = 300
EDGES = 4 * N


@pytest.fixture(scope="module")
def workload():
    edges = random_hypergraph(N, EDGES, seed=0)
    tensor = SparseSymmetricTensor.from_hyperedges(N, edges)
    x = np.random.default_rng(1).normal(size=N)
    return tensor, x


def test_sparse_kernel(benchmark, workload):
    tensor, x = workload
    y = benchmark(lambda: sttsv_sparse(tensor, x))
    assert np.allclose(y, sttsv_packed(tensor.to_packed(), x))
    dense_entries = N * (N + 1) * (N + 2) // 6
    print(
        f"\n[sparse — n={N}, nnz={tensor.nnz}] touches {tensor.nnz} of"
        f" {dense_entries} packed entries ({tensor.nnz / dense_entries:.2e})"
    )


def test_dense_kernel_same_tensor(benchmark, workload):
    tensor, x = workload
    packed = tensor.to_packed()
    y = benchmark(lambda: sttsv_packed(packed, x))
    assert np.allclose(y, sttsv_sparse(tensor, x))


def test_sparse_parallel_cost(benchmark, workload, partition_q2):
    tensor, x = workload

    def run():
        machine = Machine(partition_q2.P)
        algo = ParallelSTTSV(partition_q2, tensor.n)
        algo.load(machine, tensor, x)
        algo.run(machine)
        return machine, algo

    machine, algo = benchmark(run)
    assert np.allclose(algo.gather_result(machine), sttsv_sparse(tensor, x))
    expected = optimal_bandwidth_cost(algo.n_padded, 2)
    assert machine.ledger.max_words_sent() == int(expected)
    balance = algo.load_balance(machine)
    print(
        f"\n[sparse parallel — P=10] words/proc"
        f" {machine.ledger.max_words_sent()} (dense formula"
        f" {expected:.0f}); nnz imbalance {balance['imbalance']:.2f}x"
    )
