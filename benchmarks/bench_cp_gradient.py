"""Experiment A2 — parallel symmetric CP gradient (Algorithm 2).

Times one parallel gradient evaluation (r STTSVs on a loaded engine
plus the replicated r×r Gram algebra) and asserts it matches
the sequential gradient exactly while costing exactly r optimal STTSV
exchanges of communication.
"""

import numpy as np
import pytest

from repro.apps.cp_gradient import cp_gradient, parallel_cp_gradient
from repro.core.bounds import optimal_bandwidth_cost
from repro.core.parallel_sttsv import ParallelSTTSV
from repro.machine.machine import Machine
from repro.tensor.dense import random_symmetric


def test_parallel_cp_gradient(benchmark, partition_q2, rng):
    n, r = 60, 4
    tensor = random_symmetric(n, seed=5)
    X = rng.normal(size=(n, r))

    engine = ParallelSTTSV(partition_q2, n)
    with Machine(partition_q2.P) as machine:
        engine.load_tensor(machine, tensor)
        gradient, ledger = benchmark(
            lambda: parallel_cp_gradient(engine, machine, X)
        )
    assert np.allclose(gradient, cp_gradient(tensor, X))
    per_sttsv = optimal_bandwidth_cost(n, 2)
    assert ledger.max_words_sent() == pytest.approx(r * per_sttsv)
    print(
        f"\n[A2 — parallel CP gradient, n={n}, r={r}, P=10]"
        f" words/processor = {ledger.max_words_sent()}"
        f" = {r} x {per_sttsv:.0f} (one optimal STTSV per component)"
    )
