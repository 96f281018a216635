"""Order-m BCSS: blocked storage, the sttsm cascade, and order-4
parallel STTSV over a Steiner quadruple system.

Part 1 — storage and kernels: pack an order-4 tensor into blocked
compact symmetric storage (only the C(n̄+m−1, m) canonical dense
blocks), compute the symmetric Tucker core ``A ×₁ Xᵀ ··· ×₄ Xᵀ`` via
``sttsm``, and time the compiled plan (the symmetric unfolding)
against the scalar packed loop.

Part 2 — order-4 parallel STTSV: partition the BCSS blocks over the
quadruples of the Boolean SQS(8) (P = 14 processors) and run the
distributed kernel on the simulated machine, checking the measured
per-processor words against the generalized lower bound.

Run:  python examples/bcss_sttsm.py
"""

import time

import numpy as np

from repro.core.parallel_sttsv import ParallelSTTSV
from repro.core.partition_ndim import QuadruplePartition
from repro.core.plans import SequentialPlan
from repro.core.sttsm import sttsm, sttsm_dense_reference
from repro.core.sttsv_ndim import (
    sttsv_ndim,
    sttsv_ndim_lower_bound,
    sttsv_ndim_scalar,
)
from repro.machine.machine import Machine
from repro.machine.transport import make_transport
from repro.steiner.boolean import boolean_steiner_system
from repro.tensor.bcss import BCSSTensor
from repro.tensor.ndpacked import nd_packed_size, nd_random_symmetric


def part1_storage_and_kernels() -> None:
    print("Part 1: BCSS storage, sttsm, and the compiled plan")
    n, m, b, r = 24, 4, 4, 3
    tensor = nd_random_symmetric(n, m, seed=0)
    bcss = BCSSTensor.from_ndpacked(tensor, b)
    print(f"  n={n} m={m} b={b}: {bcss.num_blocks} canonical blocks, "
          f"{bcss.storage_words} words "
          f"(packed {nd_packed_size(n, m)}, dense {n**m})")

    rng = np.random.default_rng(1)
    X = rng.normal(size=(n, r))
    core = sttsm(bcss, X)
    want = sttsm_dense_reference(tensor.to_dense(), X)
    assert np.allclose(core.to_dense(), want)
    print(f"  sttsm core: order-{m} packed over r={r}, matches dense cascade")

    plan = SequentialPlan(tensor)
    x = rng.normal(size=n)
    assert np.allclose(plan.apply(x), sttsv_ndim(tensor, x))
    start = time.perf_counter()
    sttsv_ndim_scalar(tensor, x)
    scalar = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(20):
        plan.apply(x)
    planned = (time.perf_counter() - start) / 20
    print(f"  {plan.strategy} plan: {scalar / planned:.0f}x over the scalar "
          f"packed loop (see BENCH_ndim.json for the committed sweep)")


def part2_parallel_order4() -> None:
    print("Part 2: order-4 parallel STTSV over SQS(8)")
    partition = QuadruplePartition(boolean_steiner_system(3))
    partition.validate()
    n = 4 * partition.replication  # a convenient multiple of m·c
    tensor = nd_random_symmetric(n, 4, seed=2)
    x = np.random.default_rng(3).normal(size=n)
    algo = ParallelSTTSV(partition, n)
    with Machine(
        partition.P, transport=make_transport("simulated", partition.P)
    ) as machine:
        algo.load(machine, tensor, x)
        algo.run(machine)
        y = algo.gather_result(machine)
        words = machine.ledger.max_words_sent()
        rounds = len(machine.ledger.rounds)
    assert np.allclose(y, sttsv_ndim(tensor, x))
    bound = sttsv_ndim_lower_bound(n, partition.P, 4)
    print(f"  P={partition.P} (SQS(8) quadruples), n={n}, "
          f"replication={partition.replication}")
    print(f"  max words/processor: {words}  rounds: {rounds}  "
          f"lower bound: {bound:.1f}")


if __name__ == "__main__":
    part1_storage_and_kernels()
    print()
    part2_parallel_order4()
