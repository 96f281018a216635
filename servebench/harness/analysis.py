"""Turn a window's samples and spans into the benchmark's metrics.

End-to-end metrics come from the generator's own timestamps. Per-layer
metrics come from spans (see :mod:`harness.spans`), all restricted to
spans that started inside the measured window and normalised per
request: a ``<stage>_us`` value is the stage's **self time** (span
minus the same-thread child spans it waited on), weighted by the number
of requests each span served, summed, and divided by the requests the
generator completed in the window. Stages on one request's blocking
path therefore add up to its mean latency, and what they leave over is
``server.unattributed_us``.

Two stages are derived rather than recorded: ``batcher.queue_wait_us``
is the admission-to-resolution wait minus the batch execution every
request shared, and ``gateway.hop_us`` is the gateway's shard round
trip minus the time the shard's own spans account for. Spans running
on another thread than their cause (the overlap pipeline's background
exchange) are reported but left out of the blocking-path budget,
because their cause waits for them inside its own span.
"""

from __future__ import annotations

import bisect
import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .loadgen import Window
from .spans import SpanLog

#: Per-layer metrics reported by the traced pass, with their units.
PER_LAYER_UNITS: Dict[str, str] = {
    "client.send_us": "us",
    "client.decode_us": "us",
    "socket.in_us": "us",
    "socket.out_us": "us",
    "protocol.frame_parse_us": "us",
    "protocol.decode_us": "us",
    "protocol.encode_us": "us",
    "server.loop_recv_us": "us",
    "server.dispatch_wait_us": "us",
    "server.handle_us": "us",
    "server.reply_wait_us": "us",
    "server.loop_send_us": "us",
    "server.unattributed_us": "us",
    "batcher.admit_us": "us",
    "batcher.queue_wait_us": "us",
    "batcher.batch_width_mean": "count",
    "sessions.exec_us": "us",
    "plans.apply_us": "us",
    "plans.operator_mb": "MB",
    "plans.computed_gbps": "GB/s",
    "parallel.load_vector_us": "us",
    "parallel.run_us": "us",
    "parallel.gather_us": "us",
    "parallel.exchange_x_us": "us",
    "parallel.local_compute_us": "us",
    "parallel.exchange_y_us": "us",
    "machine.fused_exchange_us": "us",
    "machine.fusion_pack_us": "us",
    "machine.fusion_unpack_us": "us",
    "machine.checksum_calls_per_run": "count",
    "machine.words_per_proc": "words",
    "machine.rounds_per_run": "count",
    "machine.physical_msgs_per_run": "count",
    "machine.retry_rounds": "count",
    "gateway.handle_us": "us",
    "gateway.backend_rtt_us": "us",
    "gateway.self_us": "us",
    "gateway.hop_us": "us",
    "shard.handle_us": "us",
    "gateway.p50_ms_dense3": "ms",
    "gateway.p50_ms_order4": "ms",
    "gateway.p50_ms_symk": "ms",
    "symk.update_us": "us",
    "symk.lock_wait_us": "us",
    "symk.final_rank": "count",
    "symk.write_p50_ms": "ms",
    "symk.write_p99_ms": "ms",
    "generator_late_ms_p99": "ms",
}

#: Stages reported as their own self time per read request.
_SELF_STAGES = (
    "client.send", "client.decode", "protocol.frame_parse",
    "protocol.decode", "protocol.encode", "server.loop_recv",
    "server.dispatch_wait", "server.handle", "server.reply_wait",
    "server.loop_send", "batcher.admit",
    "sessions.exec", "plans.apply", "parallel.load_vector", "parallel.run",
    "parallel.gather", "parallel.exchange_x", "parallel.local_compute",
    "parallel.exchange_y", "machine.fused_exchange", "machine.fusion_pack",
    "machine.fusion_unpack",
)

#: End-to-end metrics of the untraced pass, with their units.
END_TO_END_UNITS: Dict[str, str] = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Report-only details of the untraced pass that are printed beside the
#: end-to-end metrics but not gated, with their units.
DETAIL_UNITS: Dict[str, str] = {
    "latency_p99_ms": "ms",
    "failed_frac": "fraction",
}


# -- end to end -------------------------------------------------------------------


def _ms(requests) -> np.ndarray:
    return np.asarray([(r.end - r.start) * 1e3 for r in requests])


def _throughput(requests, start: float, end: float) -> float:
    """Requests completed in ``[start, end]`` per second up to the last
    completion."""
    finished = [r.end for r in requests if r.end <= end]
    span = max(finished, default=end) - start
    return len(finished) / span if span > 0 else 0.0


def end_to_end(
    window: Window,
    setup_seconds: List[float],
    peak_rss_mb: float,
    failed_checks: int,
    prefix_seconds: Optional[float] = None,
) -> Tuple[Dict[str, float], Dict]:
    """The gated end-to-end metrics, plus report-only details.

    ``prefix_seconds`` adds the throughput of the window's first seconds
    only, to compare with a shorter traced window (``symk_stream``'s
    reads slow down as the rank grows, so only equal spans compare).
    """
    reads = window.in_window(window.reads)
    ok_reads = [r for r in reads if r.ok]
    latency = _ms(ok_reads)
    metrics = {
        "throughput_rps": _throughput(ok_reads, window.start, window.end),
        "latency_p50_ms": _pct(latency, 50),
        "setup_s": float(statistics.median(setup_seconds)),
        "peak_rss_mb": peak_rss_mb,
    }
    writes = window.writes
    write_latency = _ms([w for w in writes if w.ok])
    attempted = len(reads) + len(writes)
    failed = (
        sum(1 for r in reads if not r.ok)
        + sum(1 for w in writes if not w.ok)
        + failed_checks
    )
    details = {
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "latency_p99_ms": _pct(latency, 99),
        "latency_samples": int(latency.size),
        "latency_mean_ms": float(latency.mean()) if latency.size else 0.0,
        "setup_runs_s": list(setup_seconds),
        "writes": len(writes),
        "write_latency_p50_ms": _pct(write_latency, 50),
        "write_latency_p99_ms": _pct(write_latency, 99),
        "generator_late_ms_p99": _pct(np.asarray(window.lateness) * 1e3, 99),
    }
    if prefix_seconds is not None:
        end = window.start + prefix_seconds
        details["prefix_throughput_rps"] = _throughput(
            [r for r in ok_reads if r.start < end], window.start, end
        )
    return metrics, details


def _pct(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


# -- spans --------------------------------------------------------------------------

# Span tuple fields (see SpanLog.record).
_ID, _PARENT, _STAGE, _START, _END, _TID, _WEIGHT, _CLS, _VALUE = range(9)


class _Totals:
    """Per-(stage, class) sums over one process's in-window spans."""

    def __init__(self):
        self.self_w = defaultdict(float)       # Σ self × weight
        self.inclusive_w = defaultdict(float)  # Σ duration × weight
        self.in_path_w = defaultdict(float)    # Σ self × weight, blocking path
        self.count = defaultdict(int)
        self.weight = defaultdict(float)
        self.value = defaultdict(float)
        self.duration = defaultdict(float)


def _process_totals(process: SpanLog, start: float, end: float) -> _Totals:
    by_id = {span[_ID]: span for span in process.spans}
    child_time: Dict[int, float] = defaultdict(float)
    child_cls: Dict[int, str] = {}
    for span in process.spans:
        parent = by_id.get(span[_PARENT])
        if parent is not None and parent[_TID] == span[_TID]:
            child_time[parent[_ID]] += span[_END] - span[_START]
            if span[_CLS] is not None:
                child_cls.setdefault(parent[_ID], span[_CLS])
    overlapped: Dict[int, bool] = {}

    def is_overlapped(span) -> bool:
        chain = []
        while True:
            known = overlapped.get(span[_ID])
            if known is not None:
                result = known
                break
            parent = by_id.get(span[_PARENT])
            if parent is None:
                result = False
                break
            if parent[_TID] != span[_TID]:
                result = True
                break
            chain.append(span)
            span = parent
        for member in chain:
            overlapped[member[_ID]] = result
        overlapped[span[_ID]] = result
        return result

    totals = _Totals()
    for span in process.spans:
        if not start <= span[_START] < end:
            continue
        # A loop-thread read learns its class from the frame it parsed.
        key = (span[_STAGE], span[_CLS] or child_cls.get(span[_ID]))
        duration = span[_END] - span[_START]
        own = duration - child_time.get(span[_ID], 0.0)
        weight = span[_WEIGHT]
        totals.self_w[key] += own * weight
        totals.inclusive_w[key] += duration * weight
        if not is_overlapped(span):
            totals.in_path_w[key] += own * weight
        totals.count[key] += 1
        totals.weight[key] += weight
        totals.duration[key] += duration
        if span[_VALUE] is not None:
            totals.value[key] += span[_VALUE]
    return totals


def _budget(totals: _Totals, requests: int, cls: str) -> Dict[str, float]:
    """Blocking-path µs per request of one process, by stage."""
    budget: Dict[str, float] = defaultdict(float)
    for (stage, span_cls), seconds in totals.in_path_w.items():
        if span_cls == cls and stage not in ("batcher.future", "server.loop_send"):
            budget[stage] += seconds * 1e6 / requests
    future = totals.inclusive_w.get(("batcher.future", cls), 0.0)
    if future:
        shared = totals.inclusive_w.get(("batcher.dispatch", cls), 0.0)
        budget["batcher.queue_wait"] += (future - shared) * 1e6 / requests
    return budget


def _socket_us(
    client: SpanLog, front: SpanLog, start: float, end: float,
    requests: int,
) -> Tuple[float, float]:
    """µs per read between the two processes, matched by client port:
    from the client's send to the server loop picking the bytes up, and
    from the server loop starting the reply send to the client having
    read it. Both include the kernel, the wake-up and any wait for a
    GIL. (The loop's reply span can end after the client already has
    the reply — it waits for the GIL after the send — so the outbound
    leg is timed from its start and the span itself is left out of the
    blocking-path budget.)"""
    recvs: Dict[int, List[float]] = defaultdict(list)
    sends: Dict[int, List[float]] = defaultdict(list)
    for span in front.spans:
        if span[_VALUE] is None:
            continue
        if span[_STAGE] == "server.loop_recv":
            recvs[int(span[_VALUE])].append(span[_START])
        elif span[_STAGE] == "server.loop_send":
            sends[int(span[_VALUE])].append(span[_START])
    for times in (*recvs.values(), *sends.values()):
        times.sort()
    inbound = outbound = 0.0
    for span in client.spans:
        if span[_CLS] != "read" or not start <= span[_START] < end:
            continue
        port = int(span[_VALUE]) if span[_VALUE] is not None else None
        if span[_STAGE] == "client.send":
            times = recvs.get(port, [])
            i = bisect.bisect_left(times, span[_START])
            if i < len(times):
                inbound += max(0.0, times[i] - span[_END])
        elif span[_STAGE] == "client.wait":
            times = sends.get(port, [])
            j = bisect.bisect_right(times, span[_END]) - 1
            if j >= 0 and times[j] >= span[_START]:
                outbound += span[_END] - times[j]
    return inbound * 1e6 / requests, outbound * 1e6 / requests


def layer_metrics(
    window: Window,
    servers: List[SpanLog],
    client: SpanLog,
    target_names: List[str],
    final_rank: int,
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer metrics and the per-stage latency budget (µs/request)."""
    start, end = window.start, window.end
    reads = [r for r in window.in_window(window.reads) if r.ok]
    n_reads = max(1, len(reads))
    n_writes = max(1, sum(1 for w in window.writes if w.ok))
    latency_mean_us = float(_ms(reads).mean()) * 1e3 if reads else 0.0

    client_totals = _process_totals(client, start, end)
    gateways = [p for p in servers if p.meta.get("role") == "gateway"]
    shards = [p for p in servers if p.meta.get("role") != "gateway"]
    gateway_totals = [_process_totals(p, start, end) for p in gateways]
    shard_totals = [_process_totals(p, start, end) for p in shards]
    everyone = [client_totals, *gateway_totals, *shard_totals]

    def self_us(stage: str, cls: str = "read", requests: int = n_reads) -> float:
        return sum(t.self_w.get((stage, cls), 0.0) for t in everyone) * 1e6 / requests

    def inclusive_us(totals: Iterable[_Totals], stage: str) -> float:
        return sum(t.inclusive_w.get((stage, "read"), 0.0) for t in totals) * 1e6 / n_reads

    def summed(attr: str, stage: str, cls: Optional[str] = "read") -> float:
        return sum(
            value
            for t in everyone
            for (name, span_cls), value in getattr(t, attr).items()
            if name == stage and (cls is None or span_cls == cls)
        )

    metrics = {f"{stage}_us": self_us(stage) for stage in _SELF_STAGES}
    front = gateways[0] if gateways else shards[0]
    metrics["socket.in_us"], metrics["socket.out_us"] = _socket_us(
        client, front, start, end, n_reads
    )

    # Batcher.
    shard_budgets = [_budget(t, n_reads, "read") for t in shard_totals]
    metrics["batcher.queue_wait_us"] = sum(b.get("batcher.queue_wait", 0.0) for b in shard_budgets)
    batches = summed("count", "batcher.dispatch")
    metrics["batcher.batch_width_mean"] = (
        summed("weight", "batcher.dispatch") / batches if batches else 0.0
    )

    # Plans: bytes are computed from plan.nbytes(), not measured.
    calls = summed("count", "plans.apply", cls=None)
    operator_bytes = summed("value", "plans.apply", cls=None)
    busy = summed("duration", "plans.apply", cls=None)
    metrics["plans.operator_mb"] = operator_bytes / calls / 1e6 if calls else 0.0
    metrics["plans.computed_gbps"] = operator_bytes / busy / 1e9 if busy else 0.0

    # Machine counters.
    runs = summed("count", "parallel.run")
    checksums = sum(
        1 for p in servers for name, t, _ in p.events
        if name == "machine.checksum" and start <= t < end
    )
    ledgers = [
        values for p in servers for name, t, values in p.events
        if name == "machine.ledger" and start <= t < end
    ]
    metrics["machine.checksum_calls_per_run"] = checksums / runs if runs else 0.0
    for metric, field in (
        ("machine.words_per_proc", "words_per_proc"),
        ("machine.rounds_per_run", "rounds"),
        ("machine.physical_msgs_per_run", "physical_msgs"),
    ):
        metrics[metric] = (
            float(np.mean([ledger[field] for ledger in ledgers])) if ledgers else 0.0
        )
    metrics["machine.retry_rounds"] = float(sum(ledger["retry_rounds"] for ledger in ledgers))

    # Gateway.
    gateway_budgets = [_budget(t, n_reads, "read") for t in gateway_totals]
    shard_path_us = sum(sum(b.values()) for b in shard_budgets) if gateways else 0.0
    rtt = inclusive_us(gateway_totals, "gateway.backend_rtt")
    metrics["gateway.handle_us"] = inclusive_us(gateway_totals, "gateway.handle")
    metrics["gateway.backend_rtt_us"] = rtt
    metrics["gateway.self_us"] = self_us("gateway.handle")
    metrics["gateway.hop_us"] = rtt - shard_path_us if gateways else 0.0
    metrics["shard.handle_us"] = (
        inclusive_us(shard_totals, "server.handle") if gateways else 0.0
    )
    for index, name in enumerate(target_names):
        if name in ("dense3", "order4", "symk"):
            samples = _ms([r for r in reads if r.target == index])
            metrics[f"gateway.p50_ms_{name}"] = _pct(samples, 50)
    for name in ("dense3", "order4", "symk"):
        metrics.setdefault(f"gateway.p50_ms_{name}", 0.0)

    # Low-rank streaming.
    metrics["symk.update_us"] = self_us("symk.update", "write", n_writes)
    waits = summed("count", "symk.lock_wait", cls=None)
    metrics["symk.lock_wait_us"] = (
        summed("duration", "symk.lock_wait", cls=None) * 1e6 / waits if waits else 0.0
    )
    metrics["symk.final_rank"] = float(final_rank)
    write_latency = _ms([w for w in window.writes if w.ok])
    metrics["symk.write_p50_ms"] = _pct(write_latency, 50)
    metrics["symk.write_p99_ms"] = _pct(write_latency, 99)
    metrics["generator_late_ms_p99"] = _pct(np.asarray(window.lateness) * 1e3, 99)

    # The blocking-path budget of one read.
    budget: Dict[str, float] = defaultdict(float)
    for stage in ("client.send", "client.decode", "socket.in", "socket.out"):
        budget[stage] = metrics[f"{stage}_us"]
    for part in (*gateway_budgets, *shard_budgets):
        for stage, us in part.items():
            budget[stage] += us
    if gateways:
        budget.pop("gateway.backend_rtt", None)
        budget["gateway.hop"] = metrics["gateway.hop_us"]
    attributed = sum(budget.values())
    metrics["server.unattributed_us"] = latency_mean_us - attributed
    budget = {f"{stage}_us": us for stage, us in budget.items() if us}
    budget["server.unattributed_us"] = metrics["server.unattributed_us"]
    budget["latency_mean_us"] = latency_mean_us
    return metrics, budget


def top_stages(budget: Dict[str, float], count: int = 3) -> List[Dict]:
    """The ``count`` largest blocking-path stages by share of mean latency."""
    total = budget.get("latency_mean_us", 0.0)
    stages = [
        (name, us) for name, us in budget.items()
        if name not in ("latency_mean_us", "server.unattributed_us")
    ]
    stages.sort(key=lambda item: item[1], reverse=True)
    return [
        {"stage": name, "us": us, "share": us / total if total else 0.0}
        for name, us in stages[:count]
    ]
