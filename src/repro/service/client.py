"""Blocking client and closed-loop load generator for the STTSV server.

:class:`ServiceClient` is one TCP connection speaking the frame
protocol — register a tensor, apply vectors (optionally pre-batched),
pull stats, request shutdown. Typed ``ERROR`` replies re-raise as
:class:`~repro.service.protocol.ServiceError`, so callers branch on
``error.code`` (``OVERLOADED``, ``DEADLINE_EXCEEDED``, ...) exactly as
the server classified the failure.

Transport failures are retried: a reset, broken pipe, or mid-frame
close (the server restarted, or an idle connection was reaped) tears
down the socket, reconnects after a short exponential backoff, and
replays the request — bounded by ``retries`` attempts, after which the
underlying ``OSError`` propagates. Malformed-but-delivered frames
(plain :class:`~repro.service.protocol.ProtocolError`) are *not*
retried: the peer answered, it just answered garbage, and replaying
the request cannot fix that.

:func:`run_load` is the closed-loop generator behind ``repro load``
and the service benchmark: ``clients`` threads, each with its own
connection, each issuing ``requests_per_client`` applies back to back.
Concurrent in-flight requests are what give the server's micro-batcher
something to coalesce — the returned summary carries client-side
throughput and latency percentiles next to the server's own stats
snapshot (batch-size histogram included) for cross-checking.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.service.protocol import (
    ErrorCode,
    MessageType,
    ProtocolError,
    ServiceError,
    decode_array,
    encode_array,
    parse_error,
    read_frame,
    write_frame,
)
from repro.tensor.packed import PackedSymmetricTensor


#: Reconnect attempts after the first transport failure.
DEFAULT_RETRIES = 2

#: First-retry backoff; doubles per attempt.
DEFAULT_RETRY_BACKOFF_S = 0.05


class ServiceClient:
    """One blocking connection to an :class:`STTSVServer` (or gateway),
    with bounded reconnect-and-replay on transport failure."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout: Optional[float] = 30.0,
        retries: int = DEFAULT_RETRIES,
        retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
    ):
        self._host = host
        self._port = port
        self._timeout = timeout
        self._retries = max(0, int(retries))
        self._retry_backoff_s = retry_backoff_s
        # Connect lazily: the first ``_roundtrip`` dials inside its
        # bounded-backoff retry loop, so a transient refusal at
        # construction time (racing a shard restart behind the
        # gateway) is retried like any other transport failure instead
        # of raising before ``retries`` ever applied.
        self._sock: Optional[socket.socket] = None
        self._lock = threading.Lock()
        #: Transport failures recovered by reconnect-and-replay —
        #: including a failed initial dial that a later attempt in the
        #: same bounded-backoff loop recovered.
        self.reconnects = 0
        #: Trace id of the most recent ``apply``/``apply_batch`` reply
        #: (the server mints one per request and echoes it back, so
        #: ``repro trace <id>`` can find that request's spans).
        self.last_trace_id: Optional[str] = None
        #: Update epoch echoed by the most recent symk ``update`` /
        #: ``apply`` / ``apply_batch`` reply — pass it back as
        #: ``min_epoch`` to fence a read after your own writes.
        self.last_update_epoch: Optional[int] = None

    # -- plumbing --------------------------------------------------------------

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(
            (self._host, self._port), timeout=self._timeout
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _drop_socket(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _roundtrip(
        self, msg_type: MessageType, header: Dict, body: bytes = b""
    ) -> Tuple[MessageType, Dict, bytes]:
        """One request/reply exchange; raises on typed ``ERROR``.

        A reset, broken pipe, or mid-frame close reconnects (with
        exponential backoff) and replays the request, up to
        ``retries`` extra attempts. Requests here are safe to replay:
        applies are pure computation, registrations are idempotent
        upserts.
        """
        with self._lock:
            for attempt in range(self._retries + 1):
                try:
                    if self._sock is None:
                        self._sock = self._connect()
                    write_frame(self._sock, msg_type, header, body)
                    reply_type, reply_header, reply_body = read_frame(
                        self._sock
                    )
                    break
                except ProtocolError as error:
                    if not isinstance(error, ConnectionError):
                        raise  # delivered-but-malformed: not retryable
                    self._drop_socket()
                    if attempt == self._retries:
                        raise
                    self.reconnects += 1
                    time.sleep(self._retry_backoff_s * (2**attempt))
                except OSError:
                    self._drop_socket()
                    if attempt == self._retries:
                        raise
                    self.reconnects += 1
                    time.sleep(self._retry_backoff_s * (2**attempt))
        if reply_type == MessageType.ERROR:
            raise parse_error(reply_header)
        return reply_type, reply_header, reply_body

    @staticmethod
    def _expect(reply_type: MessageType, expected: MessageType) -> None:
        if reply_type != expected:
            raise ProtocolError(
                f"expected {expected.name} reply, got {reply_type.name}"
            )

    def close(self) -> None:
        self._drop_socket()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- requests --------------------------------------------------------------

    def register(
        self,
        tensor_id: str,
        tensor: PackedSymmetricTensor,
        q: int,
        backend: str = "simulated",
        strategy: str = "auto",
        variant: str = "point-to-point",
        order: int = 3,
    ) -> Dict:
        """Upload a tensor and warm an engine session for it.

        Pass ``backend="auto"`` and/or ``variant="auto"`` to let the
        server's planner pick the cheapest configuration under its
        calibrated constants; the reply echoes what was chosen
        (``planned: true``). For ``order=4`` pass an
        :class:`~repro.tensor.ndpacked.NdPackedSymmetricTensor` (any
        object with ``.n`` and packed ``.data`` works) and ``q`` is the
        SQS parameter ``k`` of ``S(2^k, 4, 3)``.
        """
        return self._register(
            tensor.data, tensor_id=tensor_id, n=tensor.n, q=q,
            backend=backend, strategy=strategy, variant=variant, order=order,
        )

    def register_symk(
        self,
        tensor_id: str,
        tensor,
        q: int = 2,
        P: Optional[int] = None,
        backend: str = "simulated",
        strategy: str = "auto",
        variant: str = "point-to-point",
    ) -> Dict:
        """Upload a low-rank :class:`~repro.tensor.symk.SymKTensor`.

        The body carries the factorization — ``lambda_`` then ``V``
        row-major as one flat float64 array — so the wire cost is
        ``r + n·r`` words instead of the dense packed payload. ``P``
        defaults server-side to ``q(q²+1)`` so symk and dense plans
        price side by side; any ``P ≥ 1`` is accepted (no Steiner
        structure constrains it). Pass ``backend="auto"`` or
        ``variant="auto"`` to let the server's planner choose using
        the symk communication formula ``(P−1)·r``.
        """
        payload = np.concatenate(
            [
                np.ascontiguousarray(tensor.lambda_, dtype=np.float64),
                np.ascontiguousarray(tensor.V, dtype=np.float64).ravel(),
            ]
        )
        reply_header = self._register(
            payload, tensor_id=tensor_id, kind="symk", n=tensor.n,
            rank=tensor.r, order=tensor.m, q=q, backend=backend,
            strategy=strategy, variant=variant,
            **({} if P is None else {"P": P}),
        )
        self.last_update_epoch = reply_header.get("update_epoch")
        return reply_header

    def _register(self, payload: np.ndarray, **fields) -> Dict:
        """Send one REGISTER frame: ``payload`` is the body, ``fields``
        join the array header."""
        header, body = encode_array(payload)
        header.update(fields)
        reply_type, reply_header, _ = self._roundtrip(
            MessageType.REGISTER, header, body
        )
        self._expect(reply_type, MessageType.OK)
        return reply_header

    def update(
        self, tensor_id: str, weight: float, vector: np.ndarray
    ) -> int:
        """Stream one rank-1 update ``(λ_new, v_new)`` into a served
        symk tensor and return the new update epoch.

        Updates are applied under the session lock in arrival order;
        the returned epoch is the fence token: pass it as
        ``min_epoch`` to a later :meth:`apply` to guarantee the read
        reflects this write (a replica that has not caught up answers
        with a typed ``STALE_READ`` error instead of stale data).

        Unlike applies and registrations, an update is *not*
        idempotent: if the connection dies after the server applied
        the frame but before the reply arrived, the replay applies it
        again. The echoed epoch is the detector — it advances by
        exactly one per applied update, so a caller streaming k
        updates expects to land on ``start + k`` and can rebuild on
        mismatch.
        """
        payload = np.concatenate(
            [
                np.asarray([weight], dtype=np.float64),
                np.ascontiguousarray(vector, dtype=np.float64),
            ]
        )
        header, body = encode_array(payload)
        header["tensor_id"] = tensor_id
        reply_type, reply_header, _ = self._roundtrip(
            MessageType.UPDATE, header, body
        )
        self._expect(reply_type, MessageType.OK)
        epoch = int(reply_header["update_epoch"])
        self.last_update_epoch = epoch
        return epoch

    def apply(
        self,
        tensor_id: str,
        x: np.ndarray,
        mode: str = "plan",
        deadline_ms: Optional[float] = None,
        trace_id: Optional[str] = None,
        min_epoch: Optional[int] = None,
    ) -> np.ndarray:
        """Serve ``y = A ×₂ x ×₃ x`` for one vector.

        Pass ``trace_id`` to propagate a caller-minted id; otherwise
        the server mints one. Either way the id used is readable on
        :attr:`last_trace_id` after the call returns. For symk
        sessions, pass ``min_epoch`` (an epoch previously returned by
        :meth:`update`) to fence the read after that write; the
        server replies ``STALE_READ`` rather than serve older state.
        """
        header, body = encode_array(x)
        header["tensor_id"] = tensor_id
        header["mode"] = mode
        if deadline_ms is not None:
            header["deadline_ms"] = deadline_ms
        if trace_id is not None:
            header["trace_id"] = trace_id
        if min_epoch is not None:
            header["min_epoch"] = min_epoch
        reply_type, reply_header, reply_body = self._roundtrip(
            MessageType.APPLY, header, body
        )
        self._expect(reply_type, MessageType.RESULT)
        self.last_trace_id = reply_header.get("trace_id")
        if "update_epoch" in reply_header:
            self.last_update_epoch = int(reply_header["update_epoch"])
        return decode_array(reply_header, reply_body, expected_ndim=1)

    def apply_batch(
        self,
        tensor_id: str,
        X: np.ndarray,
        mode: str = "plan",
        trace_id: Optional[str] = None,
        min_epoch: Optional[int] = None,
    ) -> np.ndarray:
        """Serve a pre-batched ``n × s`` matrix in one request."""
        header, body = encode_array(X)
        header["tensor_id"] = tensor_id
        header["mode"] = mode
        if trace_id is not None:
            header["trace_id"] = trace_id
        if min_epoch is not None:
            header["min_epoch"] = min_epoch
        reply_type, reply_header, reply_body = self._roundtrip(
            MessageType.APPLY_BATCH, header, body
        )
        self._expect(reply_type, MessageType.RESULT)
        self.last_trace_id = reply_header.get("trace_id")
        if "update_epoch" in reply_header:
            self.last_update_epoch = int(reply_header["update_epoch"])
        return decode_array(reply_header, reply_body, expected_ndim=2)

    def stats(self) -> Dict:
        """Live metrics snapshot (server, sessions, pool, config)."""
        reply_type, reply_header, _ = self._roundtrip(
            MessageType.STATS, {}
        )
        self._expect(reply_type, MessageType.OK)
        return reply_header

    def metrics_text(self) -> str:
        """The server's metrics registry in Prometheus text format."""
        reply_type, _, reply_body = self._roundtrip(
            MessageType.STATS, {"format": "prometheus"}
        )
        self._expect(reply_type, MessageType.OK)
        return reply_body.decode("utf-8")

    def spans_jsonl(self, trace_id: Optional[str] = None) -> str:
        """The server's span buffer as JSON-lines text, optionally
        filtered to one trace id."""
        header: Dict = {"format": "spans"}
        if trace_id is not None:
            header["trace_id"] = trace_id
        reply_type, _, reply_body = self._roundtrip(
            MessageType.STATS, header
        )
        self._expect(reply_type, MessageType.OK)
        return reply_body.decode("utf-8")

    def shutdown(self) -> None:
        """Ask the server to stop (replies OK before stopping)."""
        reply_type, _, _ = self._roundtrip(MessageType.SHUTDOWN, {})
        self._expect(reply_type, MessageType.OK)


# -- load generation ------------------------------------------------------------


def run_load(
    host: str,
    port: int,
    tensor_id: str,
    n: int,
    clients: int = 16,
    requests_per_client: int = 32,
    mode: str = "plan",
    deadline_ms: Optional[float] = None,
    seed: int = 0,
    retries: int = DEFAULT_RETRIES,
) -> Dict:
    """Drive the server with ``clients`` concurrent closed-loop workers.

    Every worker owns a connection and a seeded vector stream, issues
    its requests back to back, and records per-request latency
    client-side. Returns a JSON-compatible summary::

        {clients, requests, ok, overloaded, deadline_exceeded, errors,
         elapsed_s, throughput_rps, latency: {p50_ms, p95_ms, p99_ms,
         mean_ms, max_ms}, server_stats: <final STATS snapshot>}
    """
    latencies: List[float] = []
    counts = {"ok": 0, "overloaded": 0, "deadline_exceeded": 0, "errors": 0}
    lock = threading.Lock()
    start_gate = threading.Event()

    def worker(worker_id: int) -> None:
        rng = np.random.default_rng(seed + worker_id)
        local_lat: List[float] = []
        local = {"ok": 0, "overloaded": 0, "deadline_exceeded": 0, "errors": 0}
        with ServiceClient(host, port, retries=retries) as client:
            start_gate.wait()
            for _ in range(requests_per_client):
                x = rng.standard_normal(n)
                t0 = time.monotonic()
                try:
                    client.apply(
                        tensor_id, x, mode=mode, deadline_ms=deadline_ms
                    )
                except ServiceError as error:
                    if error.code == ErrorCode.OVERLOADED:
                        local["overloaded"] += 1
                    elif error.code == ErrorCode.DEADLINE_EXCEEDED:
                        local["deadline_exceeded"] += 1
                    else:
                        local["errors"] += 1
                except OSError:
                    # Retries exhausted: count it, keep the worker
                    # alive — the client redials on the next request.
                    local["errors"] += 1
                else:
                    local["ok"] += 1
                    local_lat.append(time.monotonic() - t0)
        with lock:
            latencies.extend(local_lat)
            for name, value in local.items():
                counts[name] += value

    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    wall_start = time.monotonic()
    start_gate.set()
    for thread in threads:
        thread.join()
    elapsed = time.monotonic() - wall_start

    if latencies:
        arr = np.asarray(latencies)
        p50, p95, p99 = np.percentile(arr, [50, 95, 99])
        latency = {
            "mean_ms": float(arr.mean()) * 1e3,
            "p50_ms": float(p50) * 1e3,
            "p95_ms": float(p95) * 1e3,
            "p99_ms": float(p99) * 1e3,
            "max_ms": float(arr.max()) * 1e3,
        }
    else:
        latency = {
            "mean_ms": 0.0,
            "p50_ms": 0.0,
            "p95_ms": 0.0,
            "p99_ms": 0.0,
            "max_ms": 0.0,
        }

    with ServiceClient(host, port) as client:
        server_stats = client.stats()

    return {
        "clients": clients,
        "requests": clients * requests_per_client,
        **counts,
        "elapsed_s": elapsed,
        "throughput_rps": (counts["ok"] / elapsed) if elapsed > 0 else 0.0,
        "latency": latency,
        "server_stats": server_stats,
    }
