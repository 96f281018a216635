"""End-to-end observability: one trace id links a client's request
through the batcher lane and session to its ``execute_round`` spans —
demonstrated in both exporter formats (Prometheus text and JSON-lines
spans), which is the PR's headline acceptance criterion.
"""

import re

import numpy as np
import pytest

from repro.obs.export import spans_from_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import get_tracer
from repro.reporting.trace import service_table, trace_table
from repro.service.client import ServiceClient
from repro.service.gateway import STTSVGateway
from repro.service.protocol import ServiceError
from repro.service.server import STTSVServer
from repro.tensor.dense import random_symmetric

N = 40  # q=2 -> P=10; padded as needed


@pytest.fixture()
def server():
    with STTSVServer() as srv:
        get_tracer().clear()
        yield srv
    get_tracer().clear()


def _register(server, tensor_id="obs"):
    host, port = server.address
    with ServiceClient(host, port) as client:
        client.register(tensor_id, random_symmetric(N, seed=3), q=2)
    return host, port


def test_trace_id_links_request_to_rounds_in_both_formats(server):
    host, port = _register(server)
    with ServiceClient(host, port) as client:
        y = client.apply("obs", np.ones(N), mode="parallel")
        trace_id = client.last_trace_id
        assert y.shape == (N,)
        assert trace_id and len(trace_id) == 16

        # -- JSONL spans format ------------------------------------------------
        spans = spans_from_jsonl(client.spans_jsonl(trace_id))
        kinds = {span.kind for span in spans}
        assert {"request", "batch", "phase", "round"} <= kinds
        for span in spans:
            assert trace_id in span.trace_ids
        by_kind = {}
        for span in spans:
            by_kind.setdefault(span.kind, []).append(span)
        # The chain: the request span and the batch span share the
        # trace id (the batch runs on a worker thread — a coalesced
        # batch can serve many requests, so linkage across the thread
        # boundary is by trace id, not span parentage)...
        (request,) = by_kind["request"]
        (batch,) = by_kind["batch"]
        assert request.trace_ids == (trace_id,)
        assert trace_id in batch.trace_ids
        assert batch.attrs["size"] == 1
        # ...and within the execution thread the spans nest properly:
        # every round span's parent chain reaches the batch span.
        rounds = by_kind["round"]
        assert len(rounds) > 0
        parents = {span.span_id: span.parent_id for span in spans}
        for round_span in rounds:
            ancestor = round_span.parent_id
            while ancestor is not None and ancestor != batch.span_id:
                ancestor = parents.get(ancestor)
            assert ancestor == batch.span_id
        # The rendered tree shows the same linkage.
        rendered = trace_table(spans, trace_id=trace_id)
        assert "request:apply" in rendered
        assert "round:" in rendered

        # -- Prometheus format -------------------------------------------------
        text = client.metrics_text()
        assert "# TYPE sttsv_server_events_total counter" in text
        assert 'sttsv_server_events_total{event="accepted"} 1' in text
        assert "sttsv_session_comm_words_total{" in text
        assert "repro_plan_cache_hits_total" in text
        # ...and the trace id is discoverable from the stats payload
        # that rides next to it.
        stats = client.stats()
        assert trace_id in stats["recent_traces"]
        assert stats["config"]["tracing"] is True
        assert trace_id in service_table(stats)


def test_client_supplied_trace_id_round_trips(server):
    host, port = _register(server, tensor_id="mine")
    with ServiceClient(host, port) as client:
        client.apply("mine", np.ones(N), trace_id="feedfacecafebeef")
        assert client.last_trace_id == "feedfacecafebeef"
        spans = spans_from_jsonl(client.spans_jsonl("feedfacecafebeef"))
        assert any(span.kind == "request" for span in spans)


def test_coalesced_batch_span_carries_every_member_trace_id(server):
    """Two held requests coalesce into one batch; the batch span (and
    the round spans under it) must carry BOTH trace ids."""
    import threading

    host, port = _register(server, tensor_id="pair")
    server.batcher.hold()
    results = {}

    def call(tag):
        with ServiceClient(host, port) as client:
            client.apply("pair", np.ones(N), mode="parallel", trace_id=tag)
            results[tag] = client.last_trace_id

    threads = [
        threading.Thread(target=call, args=(f"{i:016x}",)) for i in (1, 2)
    ]
    for thread in threads:
        thread.start()
    deadline = 5.0
    import time

    start = time.monotonic()
    while server.batcher.pending() < 2:
        assert time.monotonic() - start < deadline, "requests never queued"
        time.sleep(0.01)
    server.batcher.release()
    for thread in threads:
        thread.join(timeout=30.0)
    assert results == {t: t for t in ("0" * 15 + "1", "0" * 15 + "2")}

    tracer = get_tracer()
    batch_spans = [
        s
        for s in tracer.spans()
        if s.kind == "batch" and len(s.trace_ids) == 2
    ]
    assert batch_spans, "no coalesced batch span recorded"
    coalesced = batch_spans[-1]
    assert set(coalesced.trace_ids) == set(results)
    assert coalesced.attrs["size"] == 2
    # Round spans under the batch carry both ids too — one execution,
    # attributable to each request it served.
    rounds_both = [
        s
        for s in tracer.spans()
        if s.kind == "round" and set(s.trace_ids) == set(results)
    ]
    assert rounds_both


def test_no_tracing_server_records_nothing(tmp_path):
    with STTSVServer(tracing=False) as srv:
        tracer = get_tracer()
        tracer.clear()
        host, port = srv.address
        with ServiceClient(host, port) as client:
            client.register("quiet", random_symmetric(N, seed=5), q=2)
            client.apply("quiet", np.ones(N))
            # Requests still get ids (replies stay uniform)...
            assert client.last_trace_id
            # ...but nothing is recorded and stats say tracing is off.
            assert client.spans_jsonl() == ""
            stats = client.stats()
            assert stats["config"]["tracing"] is False
            assert stats["recent_traces"] == []


def test_session_eviction_emits_event_span(server):
    host, port = _register(server, tensor_id="first")
    with STTSVServer(max_sessions=1) as small:
        shost, sport = small.address
        with ServiceClient(shost, sport) as client:
            client.register("one", random_symmetric(N, seed=6), q=2)
            client.register("two", random_symmetric(N, seed=7), q=2)
        evictions = [
            s for s in get_tracer().spans() if s.kind == "eviction"
        ]
        assert evictions
        assert any("one@" in s.name for s in evictions)


#: The loop-hook counters both endpoints report, under STATS ``server``.
_LOOP_COUNTERS = [
    "accepted", "bad_requests", "connections_opened", "deadline_exceeded",
    "internal_errors", "registrations", "rejected_overload", "updates",
]

#: Each endpoint's Prometheus families, in exposition order.
_FAMILIES = {
    "server": [
        "sttsv_server_events_total", "sttsv_queue_depth",
        "sttsv_open_connections", "sttsv_pool_sessions", "sttsv_pool_bytes",
        "sttsv_pool_evictions_total", "sttsv_session_requests_total",
        "sttsv_session_batch_requests_total",
        "sttsv_session_parallel_runs_total",
        "sttsv_session_comm_rounds_total", "sttsv_session_comm_words_total",
        "sttsv_session_retry_rounds_total", "sttsv_session_retry_words_total",
        "sttsv_session_retry_messages_total", "sttsv_session_latency_ms",
    ],
    "gateway": [
        "sttsv_ring_backends", "sttsv_gateway_shard_state",
        "sttsv_gateway_shard_requests_total",
        "sttsv_gateway_resident_tensors", "sttsv_gateway_events_total",
        "sttsv_gateway_server_events_total",
    ],
}


def test_loop_counters_keep_their_stats_keys_and_families():
    """Server and gateway count connections, bad frames and typed
    errors through the one ``FrameLoopServer.metrics``; the STATS keys
    and Prometheus families they export are unchanged by that."""
    with STTSVServer(registry=MetricsRegistry()) as srv:
        _register(srv)  # session families appear with a session
        with STTSVGateway(
            [srv.address], replication=1, registry=MetricsRegistry()
        ) as gateway:
            for name, endpoint in (("server", srv), ("gateway", gateway)):
                with ServiceClient(*endpoint.address) as client:
                    with pytest.raises(ServiceError):
                        client.apply("missing", np.ones(N))
                    stats = client.stats()
                    text = client.metrics_text()
                counters = (
                    stats["server"] if name == "server"
                    else stats["gateway"]["server"]
                )
                counters.pop("queue_depth", None)
                assert sorted(counters) == _LOOP_COUNTERS
                assert counters["connections_opened"] >= 1
                assert counters["bad_requests"] >= 1
                families = re.findall(r"^# TYPE (\S+) ", text, re.M)
                assert families == _FAMILIES[name]
                events = _FAMILIES[name][-1 if name == "gateway" else 0]
                assert sorted(
                    re.findall(rf'^{events}{{event="(\w+)"}}', text, re.M)
                ) == _LOOP_COUNTERS
