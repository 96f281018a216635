"""Low-rank (symk) STTSV against the dense plan (DESIGN.md §15).

The factored kernel ``V diag(λ) (Vᵀx)^{m−1}`` costs O(nr): at n=200,
r=4 it must run at least 10x the compiled dense gemm plan. Its
parallel exchange is one all-gather of ``r``-word partials,
``(P−1)·r`` words per processor, fewer than the dense closed form
(the executed ledger is pinned in ``tests/unit/test_parallel_symk.py``).
"""

import numpy as np

from repro.core.bounds import optimal_bandwidth_cost, processors_for_q
from repro.core.parallel_symk import symk_words_per_processor
from repro.core.plans import SequentialPlan
from repro.tensor.dense import random_symmetric
from repro.tensor.symk import random_symk


def test_fast_path_beats_dense_plan(benchmark, median_seconds):
    n, r = 200, 4
    plan = SequentialPlan(random_symmetric(n, seed=0), strategy="gemm")
    tensor = random_symk(n, r, seed=1)
    x = np.random.default_rng(2).normal(size=n)
    y = benchmark(lambda: tensor.ttsv(x))
    assert np.allclose(y, tensor.dense_ttsv(x))
    dense = median_seconds(lambda: plan.apply(x), 5)
    symk = median_seconds(lambda: tensor.ttsv(x), 5)
    print(
        f"\n[symk fast path — n={n}, r={r}] dense gemm plan"
        f" {dense * 1e3:.2f} ms, factored {symk * 1e6:.1f} us:"
        f" {dense / symk:.0f}x"
    )
    assert dense / symk >= 10


def test_exchange_beats_dense_closed_form(benchmark):
    q, n, r = 2, 100, 4
    P = processors_for_q(q)
    words = benchmark(lambda: symk_words_per_processor(P, r))
    dense = optimal_bandwidth_cost(n, q)
    print(
        f"\n[symk exchange — q={q}, P={P}, n={n}, r={r}] (P-1)*r = {words}"
        f" words/proc against the dense {dense:.0f}: {dense / words:.1f}x"
    )
    assert words == (P - 1) * r
    assert dense > words
