"""Tests of the benchmark's output checks, span accounting and comparison.

    PYTHONPATH=src python -m pytest servebench/bench_checks.py

Not part of the repository's tier-1 suite (which collects ``tests/``).
Replies are produced by a real in-process server where the claim is a
served==reference identity, and perturbed by one unit in the last place
to show each check rejects a wrong reply.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from compare import label  # noqa: E402
from harness.analysis import _budget, _process_totals  # noqa: E402
from harness.checks import (  # noqa: E402
    bitwise_equal,
    close_enough,
    final_rank_matches,
    words_match,
)
from harness.spans import SpanLog  # noqa: E402
from harness.workloads import WORKLOADS  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402
from repro.service.server import STTSVServer  # noqa: E402


def _ulp(y: np.ndarray) -> np.ndarray:
    """``y`` with its largest entry moved one unit in the last place."""
    out = y.copy()
    i = int(np.argmax(np.abs(out)))
    out[i] = np.nextafter(out[i], np.inf)
    return out


@pytest.fixture(scope="module")
def client():
    with STTSVServer(tracing=False) as server:
        host, port = server.address
        with ServiceClient(host, port) as cli:
            yield cli


class TestCheckFunctions:
    def test_close_enough_accepts_rounding_and_rejects_a_real_error(self):
        y = np.array([1.0, -2.0, 1e-20])
        assert close_enough(y * (1 + 1e-14), y)
        assert not close_enough(y * (1 + 1e-9), y)
        assert not close_enough(y[:2], y)

    def test_bitwise_equal_rejects_one_ulp(self):
        y = np.random.default_rng(0).standard_normal(7)
        assert bitwise_equal(y.copy(), y)
        assert not bitwise_equal(_ulp(y), y)

    def test_words_and_rank_are_exact(self):
        assert words_match(1200, 10, 120)
        assert not words_match(1201, 10, 120)
        assert not words_match(0, 0, 120)
        assert final_rank_matches(1008, 8, 1000)
        assert not final_rank_matches(1007, 8, 1000)


class TestServedReplies:
    def test_alg5_parallel_is_bitwise_the_direct_run(self, client):
        (target,) = WORKLOADS["alg5_parallel"].build(5, 1.0).targets
        target.register(client)
        assert target.expected_words == 120
        x = np.random.default_rng(1).standard_normal(target.n)
        y = client.apply(target.tensor_id, x, mode="parallel")
        assert target.check(x, y, None)
        assert not target.check(x, _ulp(y), None)
        session = next(
            s for label_, s in client.stats()["sessions"].items()
            if label_.startswith("dense120@")
        )
        assert words_match(
            session["comm_words"], session["parallel_runs"], target.expected_words
        )

    def test_gateway_targets_match_their_references(self, client):
        for target in WORKLOADS["gateway_mixed"].build(6, 1.0).targets:
            target.register(client)
            x = np.random.default_rng(2).standard_normal(target.n)
            y = client.apply(target.tensor_id, x, mode=target.mode)
            assert target.check(x, y, None), target.tensor_id
            assert not target.check(x, y * (1 + 1e-9), None), target.tensor_id

    def test_symk_reads_are_bitwise_the_rebuild_at_their_epoch(self, client):
        instance = WORKLOADS["symk_stream"].build(7, 0.1)
        (target,), writer = instance.targets, instance.writer
        target.register(client)
        x = np.random.default_rng(3).standard_normal(target.n)
        for i in range(len(writer.weights)):
            epoch = client.update(writer.tensor_id, float(writer.weights[i]), writer.vectors[i])
            y = client.apply(target.tensor_id, x, min_epoch=epoch)
            assert client.last_update_epoch == epoch == i + 1
            assert target.check(x, y, epoch)
            assert not target.check(x, y, epoch - 1)
            assert not target.check(x, _ulp(y), epoch)


class TestSpanAccounting:
    def test_self_time_and_cross_thread_children(self):
        # Two requests (handler threads 1 and 4) coalesced into one batch
        # of width 2 on thread 2, whose exchange ran on thread 3.
        # id, parent, stage, start, end, tid, weight, cls, value
        spans = [
            (0, None, "server.handle", 0.0, 10.0, 1, 1, "read", None),
            (1, 0, "protocol.decode", 1.0, 2.0, 1, 1, "read", None),
            (2, 0, "batcher.future", 2.0, 8.0, 1, 1, "read", None),
            (6, None, "server.handle", 0.5, 9.0, 4, 1, "read", None),
            (7, 6, "batcher.future", 2.0, 8.0, 4, 1, "read", None),
            (3, None, "batcher.dispatch", 3.0, 8.0, 2, 2, "read", None),
            (4, 3, "plans.apply", 3.0, 7.0, 2, 2, "read", None),
            (5, 4, "machine.fused_exchange", 3.0, 4.0, 3, 2, "read", None),
        ]
        log = SpanLog()
        log.spans = spans
        totals = _process_totals(log, 0.0, 20.0)
        # 10 − 1 (decode) − 6 (future), plus 8.5 − 6 for the second.
        assert totals.self_w[("server.handle", "read")] == pytest.approx(5.5)
        # The other-thread child is not subtracted; weight 2 counts twice.
        assert totals.self_w[("plans.apply", "read")] == pytest.approx(8.0)
        budget = _budget(totals, requests=2, cls="read")
        # The other-thread exchange overlaps its cause: reported, not summed.
        assert "machine.fused_exchange" not in budget
        # Queue wait = futures − the batch execution both requests shared.
        assert budget["batcher.queue_wait"] == pytest.approx((12.0 - 10.0) * 1e6 / 2)


class TestCompare:
    def test_labels(self):
        parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
        faster = [v * 0.8 for v in parent]
        slower = [v * 1.2 for v in parent]
        assert label(parent, faster, 0.1, lower_is_better=True)["label"] == "improved"
        assert label(parent, slower, 0.1, lower_is_better=True)["label"] == "regressed"
        assert label(parent, parent, 0.1, lower_is_better=True)["label"] == "unchanged"
        noisy = [1.0, 2.0, 3.0, 4.0]
        assert label(noisy, noisy, 0.1, lower_is_better=False)["label"] == "unresolved"

    def test_a_wide_spread_still_regresses_when_every_change_run_is_worse(self):
        noisy = [1.0, 2.0, 3.0, 4.0]
        doubled = [v * 2 + 4.0 for v in noisy]
        assert label(noisy, doubled, 0.1, lower_is_better=True)["label"] == "regressed"
        # One change run inside the parent's range leaves it unresolved.
        overlapping = [3.5, *doubled[1:]]
        assert label(noisy, overlapping, 0.1, lower_is_better=True)["label"] == "unresolved"
        # The improving direction of the same rows is not a regression.
        assert label(noisy, doubled, 0.1, lower_is_better=False)["label"] != "regressed"
