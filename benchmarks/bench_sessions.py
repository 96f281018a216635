"""Serving sessions — a plan-only dense registration holds no engine blocks.

A q=2, n=300 dense REGISTER hands the server the packed tensor,
C(302, 3) float64 words (36.4 MB). A session builds each execution
structure when the first request of its mode arrives, so a session
that serves only ``mode="plan"`` compiles the gemm plan (47.5 MB) and
never gathers Algorithm 5's 60.5 MB of BCSS blocks. The tracemalloc
peak of registration plus one plan apply, through an in-process
server and client, stays within the body, the plan and 2 MiB.
"""

import time
import tracemalloc

import numpy as np

from repro.core.plans import plan_nbytes
from repro.service.client import ServiceClient
from repro.service.server import STTSVServer
from repro.tensor.packed import PackedSymmetricTensor, packed_size


def test_plan_only_session_holds_body_and_plan(benchmark):
    n = 300
    rng = np.random.default_rng(0)
    tensor = PackedSymmetricTensor(n, rng.standard_normal(packed_size(n)))
    x = rng.standard_normal(n)
    body_bytes = tensor.data.nbytes
    with STTSVServer(tracing=False) as server, ServiceClient(
        *server.address
    ) as client:
        tracemalloc.start()
        try:
            began = time.perf_counter()
            info = client.register("T", tensor, q=2)
            registered = time.perf_counter()
            client.apply("T", x, mode="plan")
            applied = time.perf_counter()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (key,) = server.pool.keys()
        session = server.pool.get(key)
        plan_bytes = session.plan.nbytes()
        assert plan_bytes == plan_nbytes(n, 3, info["plan_strategy"])
        assert "tensor_blocks" not in session.machine[0].memory
        benchmark(client.apply, "T", x, mode="plan")
    print(f"\n[sessions — plan-only REGISTER q=2, n={n}]")
    print(
        f"  body = {body_bytes / 1e6:.1f} MB, plan = {plan_bytes / 1e6:.1f} MB,"
        f" blocks (not built) = {session.algo.tensor_nbytes() / 1e6:.1f} MB"
    )
    print(
        f"  REGISTER {1e3 * (registered - began):.0f} ms, first apply"
        f" (compiles the plan) {1e3 * (applied - registered):.0f} ms,"
        f" tracemalloc peak = {peak / 1e6:.1f} MB"
    )
    assert peak <= body_bytes + plan_bytes + 2 * 2**20
