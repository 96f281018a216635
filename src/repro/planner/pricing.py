"""Work counts and the names the planner enumerates.

Communication is not priced here: each parallel candidate's ledger
comes from the engine that would run it
(:meth:`~repro.core.parallel_sttsv.ParallelSTTSV.predicted_ledger`,
:meth:`~repro.core.parallel_symk.ParallelSymKTTSV.predicted_ledger`),
so the planner prices exactly the rounds, batches and fusion framing a
run records. This module holds what the engines do not know: the
per-vector work of the sequential plan strategies and of the low-rank
paths.
"""

from __future__ import annotations

from repro.core.parallel_sttsv import CommBackend

#: Comm-variant names (string forms of ``CommBackend`` values).
VARIANTS = tuple(backend.value for backend in CommBackend)

#: Plan-strategy names the sequential path can be pinned to.
STRATEGIES = ("gemm", "bincount")


def gemm_plan_flops(n: int) -> float:
    """Per-vector flops of the ``gemm`` plan strategy: one product of
    the ``n × n(n+1)/2`` symmetry-reduced unfolding."""
    return 2.0 * n * (n * (n + 1) // 2)


def scatter_plan_ops(n: int) -> float:
    """Per-vector scatter ops of the ``bincount`` plan strategy: a
    bounded number of weighted scatter-adds per packed entry."""
    return 6.0 * (n * (n + 1) * (n + 2) // 6)


def symk_plan_flops(n: int, rank: int) -> float:
    """Per-vector flops of the sequential low-rank path: two GEMVs
    against the ``n × r`` factors (``z = Vᵀx``, ``y = V w``)."""
    return 4.0 * n * rank


def symk_parallel_flops(P: int, n: int, rank: int) -> float:
    """Critical-path per-processor flops of the distributed low-rank
    path: the two GEMVs on one ``⌈n/P⌉``-row block plus the rank-order
    reduction of ``P`` ``r``-word partials."""
    b = -(-n // P)
    return 4.0 * b * rank + float(P * rank)
