"""Event-loop TCP server fronting warm STTSV engine sessions.

Request path for ``APPLY``::

    client ──frame──▶ event loop ──dispatch──▶ executor worker
                                                    │ submit
                                              DynamicBatcher lane
                                                    │ (coalesce)
    client ◀─frame── event loop ◀─reply── EngineSession.apply_batch

The connection layer is the non-blocking selector loop of
:class:`~repro.service.eventloop.FrameLoopServer`: one thread owns
every socket, feeds incremental frame readers, and writes replies as
sockets accept them — no thread per connection. Engine work never runs
on the loop: complete frames dispatch (serially per connection) to a
bounded executor, where the handler enqueues into the
:class:`~repro.service.batcher.DynamicBatcher` and blocks on the
returned future — which is what lets concurrent requests from
independent connections coalesce into one batched execution, exactly
as before the refactor. Sessions, batcher lanes, and trace
propagation keep their seams unchanged.

Failure discipline: every error a request can cause becomes a typed
``ERROR`` reply (:class:`~repro.service.protocol.ErrorCode`) on that
request's connection; the server never prints a traceback and never
dies because of one request. Backpressure is immediate and two-layer —
a full batcher lane is an ``OVERLOADED`` reply from the worker, a
saturated executor is an ``OVERLOADED`` reply straight from the loop —
so a saturated server stays observable (``STATS`` still answers) and
recoverable.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import TimeoutError as FutureTimeout
from contextlib import nullcontext
from typing import Dict, Optional, Tuple

from repro.machine.transport import FaultPolicy
from repro.obs.export import prometheus_text, spans_to_jsonl
from repro.obs.metrics import (
    MetricFamily,
    MetricsRegistry,
    Sample,
    default_registry,
)
from repro.obs.tracing import get_tracer, new_trace_id, trace_context
from repro.service.batcher import (
    DEFAULT_ADMISSION_CAPACITY,
    DEFAULT_MAX_BATCH,
    DynamicBatcher,
)
from repro.service.eventloop import (
    DEFAULT_EXECUTOR_WORKERS,
    FrameLoopServer,
    Reply,
)
from repro.service.protocol import (
    ErrorCode,
    MessageType,
    ServiceError,
    decode_array,
    encode_array,
)
from repro.service.representations import parse_registration
from repro.service.sessions import (
    DEFAULT_MAX_SESSIONS,
    EngineSession,
    SessionKey,
    SessionPool,
)

#: Grace added to a request deadline when waiting on its future: the
#: batcher enforces expiry at dequeue; this only guards against a
#: wedged execution.
_DEADLINE_GRACE_S = 5.0

#: Reusable no-op context for the tracing-disabled fast path.
_NULL_SPAN = nullcontext(None)


class STTSVServer(FrameLoopServer):
    """Serve STTSV applies over TCP with dynamic batching.

    ``port=0`` (the default) binds an ephemeral port; read
    :attr:`address` after :meth:`start`. The server object doubles as a
    context manager::

        with STTSVServer() as server:
            host, port = server.address
            ...

    Tests drive deterministic coalescing/overload through
    :attr:`batcher` (``hold()`` / ``release()``).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        max_sessions: int = DEFAULT_MAX_SESSIONS,
        session_byte_budget: Optional[int] = None,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_wait_ms: float = 0.0,
        admission_capacity: int = DEFAULT_ADMISSION_CAPACITY,
        faults: Optional[FaultPolicy] = None,
        tracing: bool = True,
        registry: Optional[MetricsRegistry] = None,
        executor_workers: int = DEFAULT_EXECUTOR_WORKERS,
        max_inflight: Optional[int] = None,
        calibration_path: Optional[str] = None,
        accepted_orders: Tuple[int, ...] = (3, 4),
    ):
        super().__init__(
            host=host,
            port=port,
            executor_workers=executor_workers,
            max_inflight=max_inflight,
            name="sttsv",
        )
        self.faults = faults
        #: Tensor orders this server admits at registration, for the
        #: representations that are order-gated (the dense ones).
        self.accepted_orders = tuple(accepted_orders)
        #: Calibration file auto-mode registrations price with (None =
        #: the default path, falling back to documented constants).
        self.calibration_path = calibration_path
        #: Whether this server turns on the process tracer while it
        #: runs (the prior tracer state is restored on :meth:`stop`).
        self.tracing = tracing
        self.registry = registry if registry is not None else default_registry()
        self._tracer_was_enabled = False
        self.pool = SessionPool(
            max_sessions=max_sessions,
            byte_budget=session_byte_budget,
            on_evict=self._on_session_evicted,
        )
        self.batcher = DynamicBatcher(
            max_wait_ms=max_wait_ms,
            max_batch=max_batch,
            admission_capacity=admission_capacity,
            on_batch=self._on_batch_executed,
        )
        #: ``tensor_id -> SessionKey`` routing table.
        self._routes: Dict[str, SessionKey] = {}
        self._routes_lock = threading.Lock()

    # -- lifecycle hooks -------------------------------------------------------

    def on_start(self) -> None:
        tracer = get_tracer()
        self._tracer_was_enabled = tracer.enabled
        if self.tracing:
            tracer.enable()
        self.registry.register_collector(self._collect_metrics)

    def on_stop(self) -> None:
        """Drain and release: pending requests fail ``SHUTTING_DOWN``,
        all sessions close, collectors and tracer state restore."""
        self.batcher.close()
        with self._routes_lock:
            self._routes.clear()
        self.pool.clear()
        self.registry.unregister_collector(self._collect_metrics)
        if self.tracing and not self._tracer_was_enabled:
            get_tracer().disable()

    def __enter__(self) -> "STTSVServer":
        self.start()
        return self

    # -- callbacks -------------------------------------------------------------

    def _on_session_evicted(self, key: SessionKey, session: EngineSession):
        """Pool eviction: fail that session's queued work and drop its
        route before the pool closes the machine."""
        self.batcher.close_lanes(key)
        with self._routes_lock:
            if self._routes.get(key.tensor_id) == key:
                del self._routes[key.tensor_id]

    def _on_batch_executed(self, key: SessionKey, mode: str, size: int):
        session = self.pool.get(key)
        if session is not None:
            session.metrics.batch_sizes.record(size)

    # -- metrics collector ------------------------------------------------------

    def _collect_metrics(self) -> "list[MetricFamily]":
        """Scrape-time view of this server for the metrics registry:
        admission counters, queue depths, pool occupancy, and
        per-session serving/communication totals. Registered on
        :meth:`start`, removed on :meth:`stop`; costs nothing between
        scrapes."""
        server = self.metrics.snapshot()
        events = MetricFamily(
            "sttsv_server_events_total", "counter",
            "Server admission and lifecycle events by kind",
            [
                Sample(labels=(("event", name),), value=float(count))
                for name, count in sorted(server.items())
            ],
        )
        depth = MetricFamily(
            "sttsv_queue_depth", "gauge",
            "Requests waiting in each batcher lane",
            [
                Sample(labels=(("lane", lane),), value=float(waiting))
                for lane, waiting in sorted(
                    self.batcher.queue_depths().items()
                )
            ],
        )
        connections = MetricFamily(
            "sttsv_open_connections", "gauge",
            "Connections currently owned by the event loop",
            [Sample(labels=(), value=float(self.connection_count()))],
        )
        info = self.pool.info()
        pool = [
            MetricFamily(
                "sttsv_pool_sessions", "gauge",
                "Warm sessions currently resident",
                [Sample(labels=(), value=float(info.currsize))],
            ),
            MetricFamily(
                "sttsv_pool_bytes", "gauge",
                "Bytes of resident session state",
                [Sample(labels=(), value=float(info.nbytes))],
            ),
            MetricFamily(
                "sttsv_pool_evictions_total", "counter",
                "Sessions evicted by the pool's LRU/byte bounds",
                [Sample(labels=(), value=float(info.evictions))],
            ),
        ]
        session_counters = [
            "requests", "batch_requests", "parallel_runs",
            "comm_rounds", "comm_words",
            "retry_rounds", "retry_words", "retry_messages",
        ]
        per_session: Dict[str, list] = {name: [] for name in session_counters}
        latency: list = []
        for key in self.pool.keys():
            session = self.pool.get(key)
            if session is None or session.closed:
                continue
            snap = session.snapshot()
            label = (("session", key.label()),)
            for name in session_counters:
                per_session[name].append(
                    Sample(labels=label, value=float(snap.get(name, 0)))
                )
            for quantile in ("p50_ms", "p95_ms", "p99_ms"):
                latency.append(
                    Sample(
                        labels=label + (("quantile", quantile),),
                        value=float(snap["latency"][quantile]),
                    )
                )
        sessions = [
            MetricFamily(
                f"sttsv_session_{name}_total", "counter",
                f"Per-session {name.replace('_', ' ')} served",
                samples,
            )
            for name, samples in per_session.items()
            if samples
        ]
        if latency:
            sessions.append(
                MetricFamily(
                    "sttsv_session_latency_ms", "gauge",
                    "Per-session request latency percentiles",
                    latency,
                )
            )
        return [events, depth, connections, *pool, *sessions]

    # -- request dispatch ------------------------------------------------------

    def handle_request(
        self, msg_type: MessageType, header: Dict, body: bytes
    ) -> Reply:
        """Serve one request on an executor thread (may block on the
        batcher); exceptions become typed ``ERROR`` replies upstream."""
        if msg_type == MessageType.REGISTER:
            return self._handle_register(header, body)
        if msg_type == MessageType.APPLY:
            return self._handle_apply(header, body)
        if msg_type == MessageType.APPLY_BATCH:
            return self._handle_apply_batch(header, body)
        if msg_type == MessageType.UPDATE:
            return self._handle_update(header, body)
        if msg_type == MessageType.STATS:
            return self._handle_stats(header)
        if msg_type == MessageType.SHUTDOWN:
            return Reply(
                MessageType.OK, {"stopping": True},
                close=True, then=self.stop,
            )
        raise ServiceError(
            ErrorCode.BAD_REQUEST,
            f"{MessageType(msg_type).name} is not a request type",
        )

    # -- request handlers ------------------------------------------------------

    def _handle_register(self, header: Dict, body: bytes) -> Reply:
        """Validate the header, decode the body and open a session,
        whose first request of each mode builds that mode's state. The
        representation the header selects
        (:mod:`repro.service.representations`) decides the field rules,
        ``P``, the body layout, ``auto`` resolution and the engine."""
        registration = parse_registration(header)
        representation = registration.representation
        if (
            representation.order_gated
            and registration.order not in self.accepted_orders
        ):
            raise ServiceError(
                ErrorCode.BAD_REQUEST,
                f"this server accepts orders"
                f" {', '.join(map(str, self.accepted_orders))};"
                f" got {registration.order}",
            )
        planned = "auto" in (registration.backend, registration.variant)
        if planned:
            registration = registration.resolved(self.calibration_path)
        data = decode_array(header, body, expected_ndim=1)
        tensor = representation.decode(registration, data)
        key = SessionKey(
            tensor_id=registration.tensor_id,
            q=registration.q,
            P=registration.P,
            backend=registration.backend,
            order=registration.order,
            kind=representation.kind,
        )
        session = EngineSession(
            key,
            tensor,
            strategy=registration.strategy,
            faults=self.faults,
            variant=registration.variant,
        )
        with self._routes_lock:
            self._routes[key.tensor_id] = key
        self.pool.put(key, session)
        self.metrics.incr("registrations")
        return Reply(
            MessageType.OK,
            {
                "tensor_id": key.tensor_id,
                "n": registration.n,
                "q": key.q,
                "P": key.P,
                "order": key.order,
                "backend": key.backend,
                "variant": session.variant.value,
                "planned": planned,
                "plan_strategy": session.plan_strategy,
                "session_bytes": session.nbytes(),
                **representation.reply_fields(session),
            },
        )

    def _resolve(self, header: Dict) -> Tuple[SessionKey, EngineSession]:
        tensor_id = header.get("tensor_id")
        if not isinstance(tensor_id, str) or not tensor_id:
            raise ServiceError(
                ErrorCode.BAD_REQUEST, "request needs a tensor_id string"
            )
        with self._routes_lock:
            key = self._routes.get(tensor_id)
        session = self.pool.get(key) if key is not None else None
        if session is None or session.closed:
            raise ServiceError(
                ErrorCode.UNKNOWN_TENSOR,
                f"tensor {tensor_id!r} is not registered (or was"
                " evicted); REGISTER it first",
            )
        return key, session

    @staticmethod
    def _mode(header: Dict) -> str:
        mode = header.get("mode", "plan")
        if mode not in ("plan", "parallel"):
            raise ServiceError(
                ErrorCode.BAD_REQUEST,
                f"mode must be 'plan' or 'parallel', got {mode!r}",
            )
        return mode

    @staticmethod
    def _trace_id(header: Dict) -> str:
        """Accept the client's trace id or mint one (every request is
        traceable; ids round-trip in the ``RESULT`` header)."""
        trace_id = header.get("trace_id")
        if isinstance(trace_id, str) and trace_id:
            return trace_id
        return new_trace_id()

    def _handle_update(self, header: Dict, body: bytes) -> Reply:
        """``UPDATE``: fold one streamed rank-1 term into a resident
        low-rank tensor under the session lock.

        The body is the flat float64 concatenation ``[λ_new, v_new (n
        words)]``. The reply echoes the session's new monotone
        ``update_epoch``; every subsequent apply reply carries the
        epoch its result reflects, so a client that saw epoch ``e``
        acknowledged can fence reads with ``min_epoch=e``.
        """
        start = time.monotonic()
        key, session = self._resolve(header)
        if not session.representation.versioned:
            raise ServiceError(
                ErrorCode.BAD_REQUEST,
                f"tensor {key.tensor_id!r} is"
                f" {session.representation.name}; UPDATE applies to"
                " versioned (kind='symk') registrations only",
            )
        data = decode_array(header, body, expected_ndim=1)
        if data.shape[0] != 1 + session.n:
            raise ServiceError(
                ErrorCode.BAD_REQUEST,
                f"update body has {data.shape[0]} entries, needs"
                f" {1 + session.n} (lambda_new then v_new)",
            )
        with session.exec_lock:
            epoch = session.update_rank1(float(data[0]), data[1:])
            rank = session.tensor.r
        session.metrics.latency.record(time.monotonic() - start)
        self.metrics.incr("updates")
        self.metrics.incr("accepted")
        return Reply(
            MessageType.OK,
            {
                "tensor_id": key.tensor_id,
                "update_epoch": epoch,
                "rank": rank,
                "n": session.n,
            },
        )

    @staticmethod
    def _min_epoch(header: Dict) -> Optional[int]:
        min_epoch = header.get("min_epoch")
        if min_epoch is None:
            return None
        if not isinstance(min_epoch, int) or min_epoch < 0:
            raise ServiceError(
                ErrorCode.BAD_REQUEST,
                f"min_epoch must be a non-negative integer, got"
                f" {min_epoch!r}",
            )
        return min_epoch

    @staticmethod
    def _check_epoch_fence(
        session: EngineSession, min_epoch: Optional[int]
    ) -> None:
        """Caller holds ``exec_lock``: reject reads behind the fence."""
        if min_epoch is not None and session.update_epoch < min_epoch:
            raise ServiceError(
                ErrorCode.STALE_READ,
                f"session is at update_epoch {session.update_epoch},"
                f" client fenced at {min_epoch}",
            )

    def _apply_versioned(
        self, session: EngineSession, mode: str, x, min_epoch: Optional[int]
    ):
        """Applies to a versioned session bypass the batcher and serve
        directly under the session lock: the epoch a result reflects must be
        captured atomically with the computation (an UPDATE landing
        between a batched execution and its reply would otherwise
        mis-stamp the result), which is what makes interleaved
        UPDATE/APPLY streams linearizable by epoch prefix."""
        with session.exec_lock:
            self._check_epoch_fence(session, min_epoch)
            if x.ndim == 1:
                y = session.apply(x, mode=mode)
            else:
                y = session.apply_batch(x, mode=mode)
            return y, session.update_epoch

    def _handle_apply(self, header: Dict, body: bytes) -> Reply:
        start = time.monotonic()
        trace_id = self._trace_id(header)
        key, session = self._resolve(header)
        mode = self._mode(header)
        deadline_ms = header.get("deadline_ms")
        min_epoch = self._min_epoch(header)
        x = decode_array(header, body, expected_ndim=1)
        if x.shape[0] != session.n:
            raise ServiceError(
                ErrorCode.BAD_REQUEST,
                f"vector has {x.shape[0]} entries, tensor has n={session.n}",
            )
        tracer = get_tracer()
        epoch: Optional[int] = None
        with trace_context(trace_id):
            if tracer.enabled:
                span_cm = tracer.span(
                    "request:apply",
                    kind="request",
                    attrs={"tensor_id": key.tensor_id, "mode": mode},
                )
            else:
                span_cm = None
            with span_cm if span_cm is not None else _NULL_SPAN:
                if session.representation.versioned:
                    y, epoch = self._apply_versioned(
                        session, mode, x, min_epoch
                    )
                else:
                    future = self.batcher.submit(
                        key, mode, session, x,
                        deadline_ms=deadline_ms,
                        trace_id=trace_id,
                    )
                    timeout = (
                        deadline_ms / 1e3 + _DEADLINE_GRACE_S
                        if deadline_ms is not None
                        else None
                    )
                    try:
                        y = future.result(timeout=timeout)
                    except FutureTimeout:
                        raise ServiceError(
                            ErrorCode.DEADLINE_EXCEEDED,
                            f"no result within deadline_ms={deadline_ms}",
                        ) from None
        session.metrics.incr("requests")
        session.metrics.latency.record(time.monotonic() - start)
        self.metrics.incr("accepted")
        return self._result(y, trace_id, epoch)

    def _handle_apply_batch(self, header: Dict, body: bytes) -> Reply:
        start = time.monotonic()
        trace_id = self._trace_id(header)
        key, session = self._resolve(header)
        mode = self._mode(header)
        min_epoch = self._min_epoch(header)
        X = decode_array(header, body, expected_ndim=2)
        if X.shape[0] != session.n:
            raise ServiceError(
                ErrorCode.BAD_REQUEST,
                f"batch rows ({X.shape[0]}) != tensor n ({session.n})",
            )
        tracer = get_tracer()
        epoch: Optional[int] = None
        with trace_context(trace_id):
            if tracer.enabled:
                span_cm = tracer.span(
                    "request:apply_batch",
                    kind="request",
                    attrs={
                        "tensor_id": key.tensor_id,
                        "mode": mode,
                        "size": X.shape[1],
                    },
                )
            else:
                span_cm = None
            with span_cm if span_cm is not None else _NULL_SPAN:
                if session.representation.versioned:
                    Y, epoch = self._apply_versioned(
                        session, mode, X, min_epoch
                    )
                else:
                    with session.exec_lock:
                        Y = session.apply_batch(X, mode=mode)
        session.metrics.incr("batch_requests")
        session.metrics.incr("requests", X.shape[1])
        session.metrics.batch_sizes.record(X.shape[1])
        session.metrics.latency.record(time.monotonic() - start)
        self.metrics.incr("accepted", X.shape[1])
        return self._result(Y, trace_id, epoch)

    @staticmethod
    def _result(y, trace_id: str, epoch: Optional[int]) -> Reply:
        """A ``RESULT`` reply; versioned sessions stamp the epoch the
        result reflects."""
        result_header, result_body = encode_array(y)
        result_header["trace_id"] = trace_id
        if epoch is not None:
            result_header["update_epoch"] = epoch
        return Reply(MessageType.RESULT, result_header, result_body)

    def _handle_stats(self, header: Optional[Dict] = None) -> Reply:
        """``STATS`` with optional exporter formats: the default reply
        is the JSON stats payload; ``{"format": "prometheus"}`` returns
        the registry in Prometheus text format and ``{"format":
        "spans"}`` the tracer's buffer as JSON-lines (optionally
        filtered by ``trace_id``) — both as UTF-8 frame bodies."""
        fmt = (header or {}).get("format", "json")
        if fmt == "json":
            return Reply(MessageType.OK, self.stats())
        if fmt == "prometheus":
            text = prometheus_text(self.registry)
            return Reply(
                MessageType.OK,
                {"format": "prometheus"}, text.encode("utf-8"),
            )
        if fmt == "spans":
            trace_id = (header or {}).get("trace_id")
            spans = get_tracer().spans(trace_id=trace_id)
            text = spans_to_jsonl(spans)
            return Reply(
                MessageType.OK,
                {"format": "spans", "count": len(spans)},
                text.encode("utf-8"),
            )
        raise ServiceError(
            ErrorCode.BAD_REQUEST,
            f"stats format must be json, prometheus, or spans;"
            f" got {fmt!r}",
        )

    # -- introspection ---------------------------------------------------------

    def stats(self) -> Dict:
        """The ``STATS`` payload (also usable in-process)."""
        sessions = {}
        # Snapshot without touching LRU recency: iterate a key copy and
        # read through the pool's cache get (which does refresh) — the
        # refresh order matches iteration order, so recency is restored.
        for key in self.pool.keys():
            session = self.pool.get(key)
            if session is not None and not session.closed:
                sessions[key.label()] = session.snapshot()
        info = self.pool.info()
        return {
            "server": self.metrics.snapshot(
                queue_depth=self.batcher.queue_depths()
            ),
            "sessions": sessions,
            "pool": {
                "sessions": info.currsize,
                "max_sessions": info.maxsize,
                "bytes": info.nbytes,
                "byte_budget": info.byte_budget,
                "evictions": info.evictions,
            },
            "connections": self.connection_count(),
            "config": {
                "max_batch": self.batcher.max_batch,
                "max_wait_ms": self.batcher.max_wait_ms,
                "admission_capacity": self.batcher.admission_capacity,
                "executor_workers": self.executor_workers,
                "max_inflight": self.max_inflight,
                "faults": self.faults is not None and self.faults.enabled,
                "accepted_orders": list(self.accepted_orders),
                "tracing": get_tracer().enabled,
            },
            "recent_traces": get_tracer().recent_trace_ids(),
        }
