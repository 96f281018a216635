"""Experiment A1 — parallel HOPM (Algorithm 1) on the simulator.

Times a full parallel HOPM solve on an odeco workload and asserts the
application-level claims: convergence to a robust Z-eigenpair at
machine precision, and per-iteration communication equal to one optimal
STTSV exchange plus an O(log P) scalar-allreduce tail.
"""

import numpy as np

from repro.apps.hopm import parallel_hopm
from repro.core.bounds import optimal_bandwidth_cost
from repro.core.parallel_sttsv import ParallelSTTSV
from repro.machine.machine import Machine
from repro.tensor.dense import odeco_tensor


def test_parallel_hopm(benchmark, partition_q2):
    n, rank = 60, 3
    tensor, weights, factors = odeco_tensor(n, rank, seed=3)

    engine = ParallelSTTSV(partition_q2, n)
    with Machine(partition_q2.P) as machine:
        engine.load_tensor(machine, tensor)
        result = benchmark(
            lambda: parallel_hopm(
                engine, machine, tensor, seed=4, max_iterations=200
            )
        )
    assert result.converged
    assert result.residual < 1e-8
    matched = int(
        np.argmin([abs(abs(result.eigenvalue) - w) for w in weights])
    )
    assert abs(abs(result.eigenvalue) - weights[matched]) < 1e-8
    sttsv_words = optimal_bandwidth_cost(n, 2)
    assert result.words_per_iteration >= sttsv_words
    assert result.words_per_iteration <= sttsv_words + 32
    print(
        f"\n[A1 — parallel HOPM, n={n}, P=10] λ={result.eigenvalue:.6f}"
        f" (true {weights[matched]:.6f}), {result.iterations} iterations,"
        f" residual {result.residual:.2e},"
        f" words/iteration {result.words_per_iteration}"
        f" (STTSV share {sttsv_words:.0f})"
    )
