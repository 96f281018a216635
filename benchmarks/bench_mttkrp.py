"""Extension — symmetric MTTKRP (paper §8 future work).

Times the batched symmetric MTTKRP kernel (one pass over the packed
tensor for all r columns) against the column-by-column reference, and
asserts the parallel variants' communication: the column loop is
exactly r optimal STTSV exchanges, and the column-batched run (one
Algorithm-5 run on the factor matrix) moves the same words in 1/r of
its rounds.
"""

import numpy as np
import pytest

from repro.apps.mttkrp import (
    parallel_symmetric_mttkrp,
    parallel_symmetric_mttkrp_batched,
    symmetric_mttkrp,
    symmetric_mttkrp_batched,
)
from repro.core.bounds import optimal_bandwidth_cost
from repro.core.parallel_sttsv import ParallelSTTSV
from repro.machine.machine import Machine
from repro.tensor.dense import random_symmetric

N, R = 80, 8


@pytest.fixture(scope="module")
def workload():
    return random_symmetric(N, seed=0), np.random.default_rng(1).normal(size=(N, R))


def test_mttkrp_batched(benchmark, workload):
    tensor, X = workload
    Y = benchmark(lambda: symmetric_mttkrp_batched(tensor, X))
    assert np.allclose(Y, symmetric_mttkrp(tensor, X))


def test_mttkrp_parallel_cost(benchmark, workload, partition_q2):
    tensor, X = workload
    small_X = X[:60, :4]
    small_tensor = random_symmetric(60, seed=2)
    engine = ParallelSTTSV(partition_q2, 60)
    with Machine(partition_q2.P) as machine:
        engine.load_tensor(machine, small_tensor)
        Y, ledger = benchmark(
            lambda: parallel_symmetric_mttkrp(engine, machine, small_X)
        )
    assert np.allclose(Y, symmetric_mttkrp(small_tensor, small_X))
    assert ledger.max_words_sent() == pytest.approx(
        4 * optimal_bandwidth_cost(60, 2)
    )
    print(
        f"\n[mttkrp — n=60, r=4, P=10] words/processor ="
        f" {ledger.max_words_sent()} = 4 STTSVs"
    )


def test_mttkrp_parallel_batched(benchmark, partition_q2):
    n, r = 60, 4
    tensor = random_symmetric(n, seed=2)
    X = np.random.default_rng(3).normal(size=(n, r))
    engine = ParallelSTTSV(partition_q2, n)
    with Machine(partition_q2.P) as machine:
        engine.load_tensor(machine, tensor)
        Y, batched = benchmark(
            lambda: parallel_symmetric_mttkrp_batched(engine, machine, X)
        )
        _, columnwise = parallel_symmetric_mttkrp(engine, machine, X)
    assert np.allclose(Y, symmetric_mttkrp(tensor, X))
    assert batched.words_sent == columnwise.words_sent
    assert batched.round_count() * r == columnwise.round_count()
    print(
        f"\n[batched mttkrp — n={n}, r={r}, P=10] words/processor ="
        f" {batched.max_words_sent()} in {batched.round_count()} rounds"
        f" (column loop: {columnwise.round_count()})"
    )
