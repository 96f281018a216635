"""Experiment P1 — compiled execution plans vs the unplanned kernels.

Two comparisons the plan layer is built for:

* **plan-vs-unplanned**: ``SequentialPlan.apply`` (compiled gemm
  operator) against the bincount scatter kernel that re-derives fused
  weights every call;
* **batch-vs-loop**: ``apply_batch(X)`` for ``X ∈ R^{n×s}`` against
  ``s`` independent kernel calls — the multi-vector engine's payoff.

``pytest benchmarks/bench_plans.py -s --benchmark-only`` prints the
four timings side by side; ``--benchmark-json=FILE`` records them.
"""

import numpy as np
import pytest

from repro.core.plans import SequentialPlan
from repro.core.sttsv_ndim import sttsv_ndim
from repro.core.sttsv_sequential import sttsv_packed
from repro.tensor.dense import random_symmetric

N = 120
S = 16


@pytest.fixture(scope="module")
def workload():
    tensor = random_symmetric(N, seed=0)
    rng = np.random.default_rng(1)
    return tensor, rng.normal(size=N), rng.normal(size=(N, S))


@pytest.fixture(scope="module")
def gemm_plan(workload):
    tensor, _, _ = workload
    return SequentialPlan(tensor, strategy="gemm")


def test_unplanned_bincount_kernel(benchmark, workload):
    """Baseline: the seed's fastest kernel, weights recomputed every call."""
    tensor, x, _ = workload
    y = benchmark(lambda: sttsv_ndim(tensor, x))
    assert np.allclose(y, sttsv_packed(tensor, x))


def test_planned_apply(benchmark, workload, gemm_plan):
    """Compiled gemm plan: one GEMV over the precompiled operator."""
    tensor, x, _ = workload
    y = benchmark(lambda: gemm_plan.apply(x))
    assert np.allclose(y, sttsv_packed(tensor, x))


def test_looped_batch(benchmark, workload):
    """s independent kernel calls — what apply_batch replaces."""
    tensor, _, X = workload
    Y = benchmark(
        lambda: np.column_stack(
            [sttsv_ndim(tensor, X[:, c]) for c in range(S)]
        )
    )
    assert Y.shape == (N, S)


def test_batched_apply(benchmark, workload, gemm_plan):
    """One multi-column GEMM for the whole batch."""
    tensor, _, X = workload
    Y = benchmark(lambda: gemm_plan.apply_batch(X))
    reference = np.column_stack(
        [sttsv_packed(tensor, X[:, c]) for c in range(S)]
    )
    assert np.allclose(Y, reference, rtol=1e-12, atol=1e-12)
    print(
        f"\n[P1 — batched engine at n={N}, s={S}]"
        f" operator={gemm_plan.nbytes() / 1e6:.1f} MB,"
        f" strategy={gemm_plan.strategy}"
    )



LARGE_N = 300
LARGE_S = 32


@pytest.fixture(scope="module")
def large_workload():
    tensor = random_symmetric(LARGE_N, seed=0)
    rng = np.random.default_rng(2)
    x, X = rng.normal(size=LARGE_N), rng.normal(size=(LARGE_N, LARGE_S))
    return tensor, x, X, SequentialPlan(tensor, strategy="gemm")


def test_cut_operator_apply(benchmark, large_workload):
    """n = 300: the unfolding cut into row blocks, under half the
    whole ``n × n(n+1)/2`` one (a size check, not a timing gate)."""
    tensor, x, _, plan = large_workload
    whole = 8 * LARGE_N * (LARGE_N * (LARGE_N + 1) // 2)
    assert plan.nbytes() <= 0.5 * whole
    y = benchmark(lambda: plan.apply(x))
    want = sttsv_ndim(tensor, x)
    assert np.max(np.abs(y - want)) <= 1e-13 * np.max(np.abs(want))
    print(
        f"\n[P1 — cut operator at n={LARGE_N}]"
        f" {plan.nbytes() / 1e6:.1f} MB of {whole / 1e6:.1f} MB whole"
    )


def test_cut_operator_batch(benchmark, large_workload):
    """n = 300, a 32-column batch through the cut unfolding."""
    tensor, _, X, plan = large_workload
    Y = benchmark(lambda: plan.apply_batch(X))
    reference = np.column_stack(
        [sttsv_ndim(tensor, X[:, c]) for c in range(LARGE_S)]
    )
    assert np.max(np.abs(Y - reference)) <= 1e-13 * np.max(np.abs(reference))
