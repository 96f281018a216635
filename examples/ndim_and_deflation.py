"""Extensions from the paper's §8: order-d STTSV and eigenpair deflation.

Part 1 — d-dimensional STTSV: the symmetric kernel touches each of the
C(n+d−1, d) canonical entries once (a (d−1)!-fold saving over the naive
n^d loop) and the generalized lower bound
``2(n(n−1)···(n−d+1)/P)^{1/d} − 2n/P`` reduces to Theorem 5.2 at d=3.

Part 2 — deflation: repeated (parallel) HOPM with rank-one subtraction
recovers *all* robust Z-eigenpairs of an odeco tensor, each stage
paying exactly the optimal STTSV communication per iteration.

Run:  python examples/ndim_and_deflation.py
"""

import numpy as np

from repro import (
    Machine,
    ParallelSTTSV,
    TetrahedralPartition,
    spherical_steiner_system,
)
from repro.apps.deflation import deflated_eigenpairs
from repro.core.sttsv_ndim import (
    sttsv_ndim,
    sttsv_ndim_dense_reference,
    sttsv_ndim_lower_bound,
    sttsv_ndim_ternary_count,
)
from repro.tensor.dense import odeco_tensor
from repro.tensor.ndpacked import nd_random_symmetric


def part1_ndim() -> None:
    print("Part 1: d-dimensional STTSV")
    print(f"{'d':>3} {'n':>4} {'fused mults':>12} {'naive n^d':>10} {'saving':>7}"
          f" {'bound(P=30)':>12}")
    rng = np.random.default_rng(0)
    for d, n in ((3, 12), (4, 12), (5, 10)):
        tensor = nd_random_symmetric(n, d, seed=rng)
        x = rng.normal(size=n)
        y = sttsv_ndim(tensor, x)
        reference = sttsv_ndim_dense_reference(tensor.to_dense(), x)
        assert np.allclose(y, reference)
        work = sttsv_ndim_ternary_count(n, d)
        print(
            f"{d:>3} {n:>4} {work:>12} {n**d:>10} {work / n**d:>7.3f}"
            f" {sttsv_ndim_lower_bound(120, 30, d):>12.1f}"
        )
    print("  (kernels verified against dense-einsum oracle; saving → d/d!"
          " as n grows)\n")


def part2_deflation() -> None:
    print("Part 2: all Z-eigenpairs of an odeco tensor by parallel deflation")
    partition = TetrahedralPartition(spherical_steiner_system(2))  # P = 10
    n, rank = 30, 4
    tensor, weights, factors = odeco_tensor(n, rank, seed=5)
    print(f"  true eigenvalues: {np.round(weights, 6)}")
    engine = ParallelSTTSV(partition, n)
    with Machine(partition.P) as machine:
        engine.load_tensor(machine, tensor)
        result = deflated_eigenpairs(
            tensor, rank, engine=engine, machine=machine, seed=6, restarts=4
        )
    order = np.argsort(result.eigenvalues)[::-1]
    print(f"  found (sorted):   {np.round(result.eigenvalues[order], 6)}")
    for position, stage_index in enumerate(order):
        vector = result.eigenvectors[:, stage_index]
        similarity = max(
            abs(float(vector @ factors[:, s])) for s in range(rank)
        )
        stage = result.stages[stage_index]
        print(
            f"  eigenpair {position}: residual"
            f" {result.residuals[stage_index]:.2e}, factor match"
            f" {similarity:.8f}, comm {stage.ledger.total_words()} words"
            f" over {stage.iterations} iterations"
        )


def main() -> None:
    part1_ndim()
    part2_deflation()


if __name__ == "__main__":
    main()
