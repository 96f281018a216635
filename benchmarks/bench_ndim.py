"""Extension — d-dimensional STTSV (paper §8 future work).

Times the order-d symmetric kernel, asserts its work count is the
(d−1)!-factor saving over the naive n^d loop, asserts the compiled
plan runs at least 5x the per-entry scalar loop at orders 3 and 4,
and evaluates the generalized lower bound, which reduces to
Theorem 5.2 at d = 3.
"""

import numpy as np
import pytest

from repro.core.bounds import sttsv_lower_bound
from repro.core.plans import SequentialPlan
from repro.core.sttsv_ndim import (
    sttsv_ndim,
    sttsv_ndim_dense_reference,
    sttsv_ndim_lower_bound,
    sttsv_ndim_scalar,
    sttsv_ndim_ternary_count,
)
from repro.tensor.ndpacked import nd_random_symmetric


def test_ndim_kernel(benchmark):
    n, d = 12, 4
    tensor = nd_random_symmetric(n, d, seed=0)
    x = np.random.default_rng(1).normal(size=n)
    y = benchmark(lambda: sttsv_ndim(tensor, x))
    assert np.allclose(y, sttsv_ndim_dense_reference(tensor.to_dense(), x))
    ratio = sttsv_ndim_ternary_count(n, d) / n**d
    print(
        f"\n[d-dim — n={n}, d={d}] fused multiplications ="
        f" {sttsv_ndim_ternary_count(n, d)} = {ratio:.3f} · n^d"
        f" (naive {n**d}; asymptotic saving 1/(d-1)! = {1/6:.3f}·d)"
    )


@pytest.mark.parametrize("d,n", [(3, 24), (4, 20)])
def test_plan_beats_scalar_loop(benchmark, median_seconds, d, n):
    tensor = nd_random_symmetric(n, d, seed=0)
    x = np.random.default_rng(1).normal(size=n)
    plan = SequentialPlan(tensor)
    y = benchmark(lambda: plan.apply(x))
    assert np.allclose(y, sttsv_ndim_scalar(tensor, x))
    scalar = median_seconds(lambda: sttsv_ndim_scalar(tensor, x), 2)
    planned = median_seconds(lambda: plan.apply(x), 5)
    print(
        f"\n[order-{d} plan vs scalar loop — n={n}] scalar"
        f" {scalar * 1e3:.2f} ms, {plan.strategy} plan"
        f" {planned * 1e6:.1f} us: {scalar / planned:.0f}x"
    )
    assert scalar / planned >= 5


def test_ndim_lower_bound_table(benchmark):
    def grid():
        return {
            (n, P, d): sttsv_ndim_lower_bound(n, P, d)
            for n in (120, 240)
            for P in (30, 130)
            for d in (3, 4, 5)
        }

    values = benchmark(grid)
    for (n, P, d), value in values.items():
        assert value > 0
        if d == 3:
            assert value == pytest.approx(sttsv_lower_bound(n, P))
    print("\n[d-dim lower bound 2(n!/(n-d)!/P)^{1/d} - 2n/P]")
    print(f"{'n':>5} {'P':>5} |" + "".join(f"   d={d}" for d in (3, 4, 5)))
    for n in (120, 240):
        for P in (30, 130):
            row = "".join(f" {values[(n, P, d)]:>6.1f}" for d in (3, 4, 5))
            print(f"{n:>5} {P:>5} |{row}")
