"""The 2-D substrate: communication-optimal symmetric matrix-vector.

The paper's tetrahedral partition extends the *triangle block
partition* of symmetric matrices (Beaumont et al. 2022; Al Daas et al.
2023/2025). This example runs the 2-D analogue: parallel SYMV on a
triangle partition generated from a projective plane PG(2, q), where
the number of lines equals the number of points, so each processor owns
exactly one line's triangle block plus one diagonal block. SYMV is
Algorithm 5 at order 2: the same ``ParallelSTTSV`` engine runs it on an
order-2 ``NdPackedSymmetricTensor``. Measured
communication matches ``2qn/(q²+q+1) ≈ 2n/√P`` — the 2-D
memory-independent bound's leading term — mirroring the 3-D
``2n/P^{1/3}`` result.

Run:  python examples/symmetric_matrix_symv.py
"""

import numpy as np

from repro.core.parallel_sttsv import ParallelSTTSV
from repro.core.sttsv_ndim import sttsv_ndim
from repro.machine import Machine
from repro.matrix.bounds import (
    symv_lower_bound,
    symv_optimal_bandwidth_projective,
    symv_schedule_step_count,
)
from repro.matrix.partition import TriangleBlockPartition
from repro.steiner.pairwise import projective_plane_system
from repro.tensor.ndpacked import nd_random_symmetric


def main() -> None:
    print(f"{'q':>3} {'P':>4} {'n':>6} | {'measured':>9} {'formula':>9}"
          f" {'lower bnd':>10} {'steps':>6}")
    print("-" * 58)
    for q in (2, 3, 4, 5):
        system = projective_plane_system(q)
        partition = TriangleBlockPartition(system)
        partition.validate()
        n = 4 * partition.m * system.point_replication()
        matrix = nd_random_symmetric(n, 2, seed=q)
        x = np.random.default_rng(q + 10).normal(size=n)
        machine = Machine(partition.P)
        algo = ParallelSTTSV(partition, n)
        algo.load(machine, matrix, x)
        algo.run(machine)
        assert np.allclose(algo.gather_result(machine), sttsv_ndim(matrix, x))
        steps = machine.ledger.round_count()
        print(
            f"{q:>3} {partition.P:>4} {n:>6} |"
            f" {machine.ledger.max_words_sent():>9}"
            f" {symv_optimal_bandwidth_projective(n, q):>9.1f}"
            f" {symv_lower_bound(n, partition.P):>10.1f}"
            f" {steps:>6}"
        )
        assert steps == 2 * symv_schedule_step_count(partition.m, partition.r)
    print(
        "\nEvery row: result verified against the sequential kernel;"
        "\nmeasured = closed form exactly; steps = 2·r(λ₁−1) ="
        " 2·(q+1)q = 2(P−1)"
        "\n(projective planes make the exchange graph complete)."
    )


if __name__ == "__main__":
    main()
