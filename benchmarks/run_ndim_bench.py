"""Standalone order-m kernel benchmark → machine-readable BENCH_ndim.json.

Usage::

    PYTHONPATH=src python benchmarks/run_ndim_bench.py [--quick]

Writes ``BENCH_ndim.json`` at the repository root so later PRs can
track the performance trajectory. ``--quick`` shrinks sizes/repeats for
CI smoke runs (results still recorded, flagged ``"quick": true``).

Measured comparisons per order (median of repeats, warmup excluded):

* ``dense_oracle``: the unstructured ``tensordot`` cascade over the
  full ``n^m`` array (at a reduced ``n`` for m = 4 — dense order-4
  storage grows too fast to time at the packed sizes);
* ``scalar``: the per-canonical-entry Python loop
  (``sttsv_ndim_scalar``, the pre-vectorization kernel);
* ``vectorized``: the bincount-scatter kernel (``sttsv_ndim``);
* ``plan``: the compiled :class:`SequentialPlan` (its symmetric
  unfolding under the default ``auto`` strategy), single apply and
  ``s``-column batch.

Storage fields record the exact BCSS block count ``C(n̄+m−1, m)`` at
block size ``min(n, 16)`` and its word ratio against packed and dense
storage. The acceptance target for this benchmark:
``plan_vs_scalar_speedup >= 5`` at n=60, m=4.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.plans import SequentialPlan  # noqa: E402
from repro.core.sttsv_ndim import (  # noqa: E402
    sttsv_ndim,
    sttsv_ndim_dense_reference,
    sttsv_ndim_scalar,
)
from repro.tensor.bcss import bcss_block_count  # noqa: E402
from repro.tensor.ndpacked import (  # noqa: E402
    nd_packed_size,
    nd_random_symmetric,
)


def median_seconds(fn, repeats: int, warmup: int = 2) -> float:
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


def bench_order(
    m: int,
    n: int,
    n_dense: int,
    s: int,
    repeats: int,
    scalar_repeats: int,
) -> dict:
    tensor = nd_random_symmetric(n, m, seed=0)
    rng = np.random.default_rng(1)
    x = rng.normal(size=n)
    X = rng.normal(size=(n, s))

    compile_start = time.perf_counter()
    plan = SequentialPlan(tensor)
    compile_seconds = time.perf_counter() - compile_start
    b = min(n, 16)
    nbar = -(-n // b)

    reference = sttsv_ndim(tensor, x)
    assert np.allclose(plan.apply(x), reference)
    assert np.allclose(sttsv_ndim_scalar(tensor, x), reference)

    scalar = median_seconds(
        lambda: sttsv_ndim_scalar(tensor, x), scalar_repeats, warmup=0
    )
    vectorized = median_seconds(lambda: sttsv_ndim(tensor, x), repeats)
    planned = median_seconds(lambda: plan.apply(x), repeats)
    batched = median_seconds(lambda: plan.apply_batch(X), repeats)

    # Dense oracle at its own (possibly reduced) size, checked against
    # the packed kernel there so the timing stays an apples comparison.
    small = nd_random_symmetric(n_dense, m, seed=2)
    dense = small.to_dense()
    x_small = rng.normal(size=n_dense)
    assert np.allclose(
        sttsv_ndim_dense_reference(dense, x_small), sttsv_ndim(small, x_small)
    )
    dense_seconds = median_seconds(
        lambda: sttsv_ndim_dense_reference(dense, x_small), repeats
    )

    packed_words = nd_packed_size(n, m)
    num_blocks = bcss_block_count(nbar, m)
    bcss_words = num_blocks * b**m
    dense_words = (nbar * b) ** m
    return {
        "m": m,
        "n": n,
        "s": s,
        "block_size": b,
        "n_padded": nbar * b,
        "num_blocks": num_blocks,
        "packed_words": packed_words,
        "bcss_words": bcss_words,
        "dense_words": dense_words,
        "storage_ratio_bcss_over_packed": bcss_words / packed_words,
        "storage_ratio_bcss_over_dense": bcss_words / dense_words,
        "plan_strategy": plan.strategy,
        "plan_bytes": plan.nbytes(),
        "plan_compile_seconds": compile_seconds,
        "dense_oracle": {"n": n_dense, "seconds": dense_seconds},
        "scalar_seconds": scalar,
        "vectorized_seconds": vectorized,
        "plan_seconds": planned,
        "batch_seconds": batched,
        "batch_seconds_per_column": batched / s,
        "vectorized_vs_scalar_speedup": scalar / vectorized,
        "plan_vs_scalar_speedup": scalar / planned,
        "plan_vs_vectorized_speedup": vectorized / planned,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small sizes / few repeats (CI smoke)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_ndim.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args()

    if args.quick:
        order3 = bench_order(
            m=3, n=24, n_dense=24, s=4, repeats=3, scalar_repeats=2
        )
        order4 = bench_order(
            m=4, n=20, n_dense=14, s=4, repeats=3, scalar_repeats=2
        )
    else:
        order3 = bench_order(
            m=3, n=60, n_dense=60, s=8, repeats=5, scalar_repeats=3
        )
        order4 = bench_order(
            m=4, n=60, n_dense=30, s=8, repeats=5, scalar_repeats=1
        )

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except Exception:
        commit = "unknown"

    report = {
        "benchmark": "ndim",
        "quick": args.quick,
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "order3": order3,
        "order4": order4,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {args.output}")


if __name__ == "__main__":
    main()
