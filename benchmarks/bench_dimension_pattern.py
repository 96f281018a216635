"""Cross-dimension pattern — the paper's motivating picture (§1).

Runs the communication-optimal symmetric kernels in 2-D (SYMV on a
triangle block partition, the substrate the paper extends) and 3-D
(STTSV on the tetrahedral partition, the paper's contribution) — both
on the one Algorithm-5 engine, ``ParallelSTTSV`` — and
shows the common structure: storage savings d!, per-processor
communication 2n/P^{1/d} matching the memory-independent bound's
leading term in both dimensions.
"""

import numpy as np

from repro.core import bounds as bounds3
from repro.core.parallel_sttsv import ParallelSTTSV
from repro.machine.machine import Machine
from repro.matrix import bounds as bounds2
from repro.matrix.partition import TriangleBlockPartition
from repro.steiner.pairwise import projective_plane_system
from repro.tensor.dense import random_symmetric
from repro.tensor.ndpacked import nd_random_symmetric


def run_2d():
    partition = TriangleBlockPartition(projective_plane_system(3))  # P = 13
    n = partition.m * partition.steiner.point_replication() * 3  # 156
    machine = Machine(partition.P)
    algo = ParallelSTTSV(partition, n)
    algo.load(machine, nd_random_symmetric(n, 2, seed=0), np.ones(n))
    algo.run(machine)
    return n, partition.P, machine.ledger.max_words_sent()


def run_3d(partition_q3):
    n = partition_q3.m * partition_q3.steiner.point_replication()  # 120
    machine = Machine(partition_q3.P)
    algo = ParallelSTTSV(partition_q3, n)
    algo.load(machine, random_symmetric(n, seed=0), np.ones(n))
    algo.run(machine)
    return n, partition_q3.P, machine.ledger.max_words_sent()


def test_dimension_pattern(benchmark, partition_q3):
    (n2, P2, words2), (n3, P3, words3) = benchmark(
        lambda: (run_2d(), run_3d(partition_q3))
    )
    lower2 = bounds2.symv_lower_bound(n2, P2)
    lower3 = bounds3.sttsv_lower_bound(n3, P3)
    assert words2 >= lower2 and words3 >= lower3
    ratio2 = words2 / bounds2.symv_lower_bound_leading(n2, P2)
    ratio3 = words3 / bounds3.sttsv_lower_bound_leading(n3, P3)
    # Both algorithms sit within a (1 + o(1)) factor of 2n/P^{1/d}.
    assert 0.8 < ratio2 < 1.2
    assert 0.8 < ratio3 < 1.2
    print("\n[cross-dimension pattern — measured vs 2n/P^{1/d}]")
    print(f"{'d':>3} {'kernel':>7} {'P':>4} {'n':>5} {'words':>6}"
          f" {'2n/P^(1/d)':>11} {'ratio':>6}")
    print(f"{2:>3} {'SYMV':>7} {P2:>4} {n2:>5} {words2:>6}"
          f" {bounds2.symv_lower_bound_leading(n2, P2):>11.1f} {ratio2:>6.3f}")
    print(f"{3:>3} {'STTSV':>7} {P3:>4} {n3:>5} {words3:>6}"
          f" {bounds3.sttsv_lower_bound_leading(n3, P3):>11.1f} {ratio3:>6.3f}")
