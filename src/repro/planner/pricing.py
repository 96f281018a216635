"""Work counts and the names the planner enumerates.

Communication is not priced here: each parallel candidate's ledger
comes from the engine that would run it
(:meth:`~repro.core.parallel_sttsv.ParallelSTTSV.predicted_ledger`,
:meth:`~repro.core.parallel_symk.ParallelSymKTTSV.predicted_ledger`),
so the planner prices exactly the rounds, batches and fusion framing a
run records, and parallel flops come from the representation
(:mod:`repro.core.representations`). This module holds the per-vector
work of the sequential plan strategies.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.parallel_sttsv import CommBackend
from repro.core.plans import gemm_multiply_adds

#: Comm-variant names (string forms of ``CommBackend`` values).
VARIANTS = tuple(backend.value for backend in CommBackend)

#: Plan-strategy names the sequential path can be pinned to.
STRATEGIES = ("gemm", "bincount")


def gemm_plan_flops(n: int) -> float:
    """Per-vector flops of the ``gemm`` plan strategy at order 3: two
    per multiply-add of the cut symmetric unfolding's products
    (:func:`~repro.core.plans.gemm_multiply_adds`)."""
    return 2.0 * gemm_multiply_adds(n, 3)


def scatter_plan_ops(n: int) -> float:
    """Per-vector scatter ops of the ``bincount`` plan strategy: a
    bounded number of weighted scatter-adds per packed entry."""
    return 6.0 * (n * (n + 1) * (n + 2) // 6)


def symk_plan_flops(n: int, rank: int) -> float:
    """Per-vector flops of the sequential low-rank path: two GEMVs
    against the ``n × r`` factors (``z = Vᵀx``, ``y = V w``)."""
    return 4.0 * n * rank


def plan_cost(
    strategy: str, batch_width: int, n: int, rank: Optional[int], compute
) -> Tuple[float, float]:
    """Per-vector work of one plan-mode candidate and the calibrated
    rate (seconds per unit of work) it runs at."""
    if strategy == "symk":
        return symk_plan_flops(n, rank), compute.gemv_flop_s
    if strategy == "gemm":
        rate = compute.gemm_flop_s if batch_width > 1 else compute.gemv_flop_s
        return gemm_plan_flops(n), rate
    # bincount batches column by column: width buys nothing.
    return scatter_plan_ops(n), compute.scatter_op_s
