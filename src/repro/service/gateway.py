"""Consistent-hash gateway routing STTSV traffic across shard servers.

The gateway is a :class:`~repro.service.eventloop.FrameLoopServer`
speaking the exact same wire protocol as a shard — clients cannot tell
one from the other — that owns no engine state of its own. It holds:

* a :class:`~repro.service.ring.HashRing` placing every registered
  tensor's ``(tensor_id, q, P)`` routing key on backend shards;
* the registration payloads themselves, so membership changes can
  **re-register** resident tensors on their new owners (the bytes a
  client uploaded once are replayed by the gateway, never re-requested);
* per-shard connection pools, health state, in-flight counts, and
  request counters.

Routing: ``REGISTER`` forwards to the key's primary shard and
replicates to the next ``replication - 1`` distinct ring successors, so
a hot session is already warm on a secondary when its primary dies.
``APPLY``/``APPLY_BATCH`` forward to the primary with headers intact —
trace ids propagate end to end, and typed errors (``OVERLOADED``,
``DEADLINE_EXCEEDED``) pass through verbatim. ``UPDATE`` (streamed
rank-1 updates into a low-rank symk session) forwards to *every*
owner and the frame is retained in the tensor's update log, so any
replay — failover rebalance, restarted-shard retry — reproduces the
stream in epoch order and lands the new owner on byte-identical
factors.

Failure handling: a connection error to a shard marks it down, removes
it from the ring, re-registers the affected tensors on their new
owners, and retries the request there — a crashed shard costs one
reroute, not a failed request. A shard that answers ``UNKNOWN_TENSOR``
(restarted, or evicted the session) gets the registration replayed and
the request retried once.

Graceful drain (:meth:`STTSVGateway.drain`): the shard leaves the ring
first (no new routes), in-flight applies finish, resident tensors
re-register on their successors, then its connections close — the
membership change a deploy performs, as opposed to the one a crash
forces.

:func:`spawn_shard` / :class:`LocalFleet` launch real shard *processes*
(``python -m repro serve``) for the fleet CLI, the chaos tests, and the
fleet benchmark.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.export import prometheus_text
from repro.obs.metrics import (
    MetricFamily,
    MetricsRegistry,
    Sample,
    default_registry,
)
from repro.service.eventloop import (
    DEFAULT_EXECUTOR_WORKERS,
    FrameLoopServer,
    Reply,
)
from repro.service.metrics import ServerMetrics
from repro.service.protocol import (
    ErrorCode,
    MessageType,
    ServiceError,
    read_frame,
    write_frame,
)
from repro.service.representations import Registration, parse_registration
from repro.service.ring import DEFAULT_VNODES, HashRing, ring_key

#: Replicas (primary included) a registration is placed on.
DEFAULT_REPLICATION = 2

#: Socket timeout for gateway-to-shard round-trips.
DEFAULT_BACKEND_TIMEOUT_S = 60.0


class _Backend:
    """One shard: address, health, a pool of idle connections, counters.

    Round-trips are exclusive per socket — concurrent forwards each
    pop (or dial) their own connection and return it on success, so
    frames from different clients never interleave on one stream.
    """

    def __init__(
        self, name: str, host: str, port: int,
        timeout: float = DEFAULT_BACKEND_TIMEOUT_S,
    ):
        self.name = name
        self.host = host
        self.port = port
        self.timeout = timeout
        self.healthy = True
        self.state = "up"
        self.requests = 0
        self.errors = 0
        self._idle: List[socket.socket] = []
        self._lock = threading.Lock()

    def _dial(self) -> socket.socket:
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def roundtrip(
        self, msg_type: MessageType, header: Dict, body: bytes = b""
    ) -> Tuple[MessageType, Dict, bytes]:
        """One forwarded exchange; raises ``OSError`` when the shard is
        unreachable. A failure on a pooled (possibly stale) connection
        retries once on a fresh dial before giving up."""
        with self._lock:
            sock = self._idle.pop() if self._idle else None
        pooled = sock is not None
        if sock is None:
            sock = self._dial()
        try:
            write_frame(sock, msg_type, header, body)
            reply = read_frame(sock)
        except (OSError, ConnectionError):
            try:
                sock.close()
            except OSError:
                pass
            if not pooled:
                with self._lock:
                    self.errors += 1
                raise
            # The pooled connection may simply have gone stale (shard
            # restarted between requests); one fresh dial decides.
            sock = self._dial()
            try:
                write_frame(sock, msg_type, header, body)
                reply = read_frame(sock)
            except (OSError, ConnectionError):
                try:
                    sock.close()
                except OSError:
                    pass
                with self._lock:
                    self.errors += 1
                raise
        with self._lock:
            self._idle.append(sock)
            self.requests += 1
        return reply

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
        for sock in idle:
            try:
                sock.close()
            except OSError:
                pass


class _TensorRecord:
    """One registration the gateway can replay: routing identity, the
    original frame payload, and — for streamed-update tensors — every
    accepted ``UPDATE`` frame in epoch order.

    The update log is what makes failover exact: a shard that inherits
    the tensor receives the registration replay (epoch 0) followed by
    the retained updates in order, so its resident factors are
    byte-identical to the primary's at the log's epoch. ``update_lock``
    serializes update forwarding per tensor; the list itself is
    mutated only under the gateway state lock so rebalance reads a
    consistent prefix."""

    __slots__ = (
        "registration", "key", "header", "body", "owners", "updates",
        "update_lock",
    )

    def __init__(
        self, registration: Registration, key: str,
        header: Dict, body: bytes, owners: Tuple[str, ...],
    ):
        self.registration = registration
        self.key = key
        self.header = header
        self.body = body
        self.owners = owners
        self.updates: List[Tuple[Dict, bytes]] = []
        self.update_lock = threading.Lock()


class STTSVGateway(FrameLoopServer):
    """Route the STTSV protocol across N backend shards.

    ``backends`` is a sequence of ``(host, port)`` addresses (named
    ``host:port`` on the ring) or ``(name, host, port)`` triples.
    """

    def __init__(
        self,
        backends: Sequence[Tuple],
        host: str = "127.0.0.1",
        port: int = 0,
        replication: int = DEFAULT_REPLICATION,
        vnodes: int = DEFAULT_VNODES,
        backend_timeout_s: float = DEFAULT_BACKEND_TIMEOUT_S,
        executor_workers: int = DEFAULT_EXECUTOR_WORKERS,
        max_inflight: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        super().__init__(
            host=host,
            port=port,
            executor_workers=executor_workers,
            max_inflight=max_inflight,
            name="sttsv-gw",
        )
        if replication < 1:
            raise ServiceError(
                ErrorCode.BAD_REQUEST,
                f"replication must be >= 1, got {replication}",
            )
        self.replication = replication
        self.backend_timeout_s = backend_timeout_s
        self.registry = registry if registry is not None else default_registry()
        self.metrics = ServerMetrics()
        self._ring = HashRing(vnodes=vnodes)
        self._backends: Dict[str, _Backend] = {}
        self._tensors: Dict[str, _TensorRecord] = {}
        #: Guards ring/backends/tensors; re-entrant because a rebalance
        #: round-trip that fails marks another backend down inside it.
        self._state = threading.RLock()
        self._drain_cond = threading.Condition(self._state)
        self._inflight_by_shard: Dict[str, int] = {}
        self._events = {
            "reroutes": 0,
            "rebalanced_registrations": 0,
            "replica_registrations": 0,
            "replayed_updates": 0,
            "drains": 0,
        }
        for spec in backends:
            if len(spec) == 3:
                name, spec_host, spec_port = spec
            else:
                spec_host, spec_port = spec
                name = f"{spec_host}:{spec_port}"
            self._admit(
                _Backend(
                    name, spec_host, int(spec_port),
                    timeout=backend_timeout_s,
                )
            )

    def _admit(self, backend: _Backend) -> None:
        with self._state:
            self._backends[backend.name] = backend
            self._inflight_by_shard.setdefault(backend.name, 0)
            self._ring.add(backend.name)

    # -- lifecycle -------------------------------------------------------------

    def on_start(self) -> None:
        self.registry.register_collector(self._collect_metrics)

    def on_stop(self) -> None:
        self.registry.unregister_collector(self._collect_metrics)
        with self._state:
            backends = list(self._backends.values())
        for backend in backends:
            backend.close()

    def __enter__(self) -> "STTSVGateway":
        self.start()
        return self

    # -- loop hooks ------------------------------------------------------------

    def note_connection(self) -> None:
        self.metrics.incr("connections_opened")

    def note_bad_frame(self) -> None:
        self.metrics.incr("bad_requests")

    def note_error(self, code: ErrorCode) -> None:
        if code == ErrorCode.OVERLOADED:
            self.metrics.incr("rejected_overload")
        elif code == ErrorCode.DEADLINE_EXCEEDED:
            self.metrics.incr("deadline_exceeded")
        elif code == ErrorCode.INTERNAL:
            self.metrics.incr("internal_errors")
        else:
            self.metrics.incr("bad_requests")

    # -- membership ------------------------------------------------------------

    def add_backend(
        self, address: Tuple[str, int], name: Optional[str] = None
    ) -> str:
        """Join (or re-join) a shard and rebalance affected tensors
        onto it. Returns the shard's ring name."""
        host, port = address
        shard = name if name is not None else f"{host}:{port}"
        with self._state:
            old = self._backends.get(shard)
            if old is not None:
                old.close()
            self._admit(
                _Backend(shard, host, int(port), timeout=self.backend_timeout_s)
            )
            self._rebalance()
        return shard

    def drain(self, name: str, timeout: Optional[float] = 30.0) -> bool:
        """Gracefully remove a shard: leave the ring (no new routes),
        wait for its in-flight applies to finish, re-register its
        resident tensors on their successors, close its connections.
        Returns False if in-flight work outlived ``timeout``.

        Draining the *last* shard raises a typed
        :class:`~repro.errors.ConfigurationError` (from the ring): a
        planned removal must place a successor first, unlike a crash,
        which evicts unconditionally."""
        with self._state:
            backend = self._backends.get(name)
            if backend is None:
                return True
            self._ring.remove(name)
            backend.state = "draining"
            deadline = (
                time.monotonic() + timeout if timeout is not None else None
            )
            drained = True
            while self._inflight_by_shard.get(name, 0) > 0:
                remaining = (
                    deadline - time.monotonic()
                    if deadline is not None
                    else None
                )
                if remaining is not None and remaining <= 0:
                    drained = False
                    break
                self._drain_cond.wait(timeout=remaining)
            self._rebalance()
            backend.healthy = False
            backend.state = "drained"
            self._events["drains"] += 1
        backend.close()
        return drained

    def _backend_down(self, name: str) -> None:
        """A forward failed at the transport: evict the shard and move
        its tensors. Idempotent per outage."""
        with self._state:
            backend = self._backends.get(name)
            if backend is None or not backend.healthy:
                return
            backend.healthy = False
            backend.state = "down"
            self._ring.remove(name, allow_empty=True)
            self._events["reroutes"] += 1
            self._rebalance()
        backend.close()

    def _rebalance(self) -> None:
        """Recompute every tensor's owners against the current ring and
        replay registrations — then the tensor's retained ``UPDATE``
        frames, in epoch order — on newly-responsible shards. Caller
        holds the state lock; forwarding failures recurse into
        :meth:`_backend_down` (re-entrant lock) and the loop re-checks."""
        for record in list(self._tensors.values()):
            for _attempt in range(len(self._backends) + 1):
                new_owners = tuple(
                    self._ring.nodes_for(record.key, self.replication)
                )
                added = [
                    owner for owner in new_owners
                    if owner not in record.owners
                ]
                try:
                    for owner in added:
                        self._replay_record(owner, record)
                except (OSError, ConnectionError):
                    self._backend_down(owner)
                    continue
                record.owners = new_owners
                break

    def _replay_record(self, owner: str, record: _TensorRecord) -> None:
        """Replay one tensor onto one shard: the registration (which
        resets the shard's session to epoch 0) followed by every
        retained update frame in order, landing the shard on the log's
        epoch with factors byte-identical to the original stream.

        The update log is snapshotted first — an update racing the
        replay can leave the shard one epoch behind the log, which the
        client's ``min_epoch`` fence converts into a typed retry
        rather than a stale read."""
        backend = self._backends[owner]
        with self._state:
            updates = list(record.updates)
        backend.roundtrip(
            MessageType.REGISTER, record.header, record.body
        )
        with self._state:
            self._events["rebalanced_registrations"] += 1
        for update_header, update_body in updates:
            backend.roundtrip(
                MessageType.UPDATE, update_header, update_body
            )
            with self._state:
                self._events["replayed_updates"] += 1

    # -- request dispatch ------------------------------------------------------

    def handle_request(
        self, msg_type: MessageType, header: Dict, body: bytes
    ) -> Reply:
        if msg_type == MessageType.REGISTER:
            return self._handle_register(header, body)
        if msg_type in (MessageType.APPLY, MessageType.APPLY_BATCH):
            return self._forward_apply(msg_type, header, body)
        if msg_type == MessageType.UPDATE:
            return self._forward_update(header, body)
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

    def _handle_register(self, header: Dict, body: bytes) -> Reply:
        # The shard parses the same header through the same registry,
        # so the ring key's P is the one in the shard's session key.
        registration = parse_registration(header)
        key = ring_key(
            registration.tensor_id, registration.q, registration.P,
            order=registration.order,
        )
        # Like _forward_apply: a dead primary is discovered (and
        # evicted) by the very forward that fails, so re-read the ring
        # and retry on the new primary instead of surfacing the
        # transport error to the client.
        with self._state:
            attempts = len(self._backends) + 2
        for _attempt in range(attempts):
            with self._state:
                owners = tuple(self._ring.nodes_for(key, self.replication))
            if not owners:
                raise ServiceError(
                    ErrorCode.INTERNAL, "no healthy backend shards"
                )
            try:
                reply_type, reply_header, reply_body = self._forward_to(
                    owners[0], MessageType.REGISTER, header, body
                )
            except (OSError, ConnectionError):
                continue  # primary evicted; ring already rebalanced
            break
        else:
            raise ServiceError(
                ErrorCode.INTERNAL,
                f"registration could not be placed after {attempts}"
                " attempts",
            )
        if reply_type == MessageType.ERROR:
            return Reply(reply_type, reply_header, reply_body)
        # Replicate to the successors so a hot session is already warm
        # on a secondary shard when the primary dies. A replica that
        # fails mid-registration is an outage like any other — evict
        # and let the rebalance place the copy elsewhere.
        for replica in owners[1:]:
            try:
                self._backends[replica].roundtrip(
                    MessageType.REGISTER, header, body
                )
                with self._state:
                    self._events["replica_registrations"] += 1
            except (OSError, ConnectionError):
                self._backend_down(replica)
        with self._state:
            owners = tuple(self._ring.nodes_for(key, self.replication))
            self._tensors[registration.tensor_id] = _TensorRecord(
                registration, key, dict(header), bytes(body), owners
            )
        self.metrics.incr("registrations")
        reply_header = dict(reply_header)
        reply_header["shard"] = owners[0] if owners else None
        reply_header["replicas"] = list(owners[1:])
        return Reply(reply_type, reply_header, reply_body)

    def _forward_to(
        self, name: str, msg_type: MessageType, header: Dict, body: bytes
    ) -> Tuple[MessageType, Dict, bytes]:
        """Round-trip against one shard, tracking in-flight counts for
        drain; transport failure evicts the shard and re-raises."""
        with self._state:
            backend = self._backends.get(name)
            if backend is None or not backend.healthy:
                raise ServiceError(
                    ErrorCode.INTERNAL, f"shard {name} is not available"
                )
            self._inflight_by_shard[name] = (
                self._inflight_by_shard.get(name, 0) + 1
            )
        try:
            return backend.roundtrip(msg_type, header, body)
        except (OSError, ConnectionError):
            self._backend_down(name)
            raise
        finally:
            with self._state:
                self._inflight_by_shard[name] -= 1
                self._drain_cond.notify_all()

    def _record(self, header: Dict) -> _TensorRecord:
        """The registration a request's ``tensor_id`` names."""
        tensor_id = header.get("tensor_id")
        if not isinstance(tensor_id, str) or not tensor_id:
            raise ServiceError(
                ErrorCode.BAD_REQUEST, "request needs a tensor_id string"
            )
        record = self._tensors.get(tensor_id)
        if record is None:
            raise ServiceError(
                ErrorCode.UNKNOWN_TENSOR,
                f"tensor {tensor_id!r} is not registered with the"
                " gateway; REGISTER it first",
            )
        return record

    def _forward_apply(
        self, msg_type: MessageType, header: Dict, body: bytes
    ) -> Reply:
        record = self._record(header)
        replayed = False
        with self._state:
            attempts = len(self._backends) + 2
        for _attempt in range(attempts):
            with self._state:
                owners = tuple(
                    self._ring.nodes_for(record.key, self.replication)
                )
                record.owners = owners or record.owners
                target = next(
                    (
                        name for name in owners
                        if self._backends[name].healthy
                    ),
                    None,
                )
            if target is None:
                raise ServiceError(
                    ErrorCode.INTERNAL, "no healthy backend shards"
                )
            try:
                reply_type, reply_header, reply_body = self._forward_to(
                    target, msg_type, header, body
                )
            except (OSError, ConnectionError):
                continue  # shard evicted; ring already rebalanced
            if (
                reply_type == MessageType.ERROR
                and reply_header.get("code") == ErrorCode.UNKNOWN_TENSOR.value
                and not replayed
            ):
                # The shard restarted (or evicted the session): replay
                # the registration we hold — plus the tensor's update
                # log, in epoch order — and retry once.
                replayed = True
                try:
                    self._replay_record(target, record)
                except (OSError, ConnectionError):
                    self._backend_down(target)
                continue
            if reply_type != MessageType.ERROR:
                self.metrics.incr("accepted")
            return Reply(reply_type, reply_header, reply_body)
        raise ServiceError(
            ErrorCode.INTERNAL,
            f"request could not be placed after {attempts} attempts",
        )

    def _forward_update(self, header: Dict, body: bytes) -> Reply:
        """Forward a rank-1 ``UPDATE`` to *every* owner of the tensor
        and retain the frame for replay.

        Unlike applies (pure reads, served by any owner), an update
        mutates session state, so the primary *and* the replicas must
        all apply it — otherwise a failover would silently rewind the
        tensor. The per-record lock serializes updates for one tensor,
        which is what keeps the retained list in epoch order:
        frame k in the log produced epoch k on every shard that
        applied the stream. The primary's reply (with its echoed
        ``update_epoch``) is returned to the client; a replica that
        fails is evicted like any other outage and the rebalance
        replays the full log onto its successor."""
        record = self._record(header)
        with record.update_lock:
            replayed = False
            with self._state:
                attempts = len(self._backends) + 2
            for _attempt in range(attempts):
                with self._state:
                    owners = tuple(
                        self._ring.nodes_for(record.key, self.replication)
                    )
                    record.owners = owners or record.owners
                    healthy = [
                        name for name in owners
                        if self._backends[name].healthy
                    ]
                if not healthy:
                    raise ServiceError(
                        ErrorCode.INTERNAL, "no healthy backend shards"
                    )
                try:
                    reply_type, reply_header, reply_body = self._forward_to(
                        healthy[0], MessageType.UPDATE, header, body
                    )
                except (OSError, ConnectionError):
                    continue  # primary evicted; ring already rebalanced
                if (
                    reply_type == MessageType.ERROR
                    and reply_header.get("code")
                    == ErrorCode.UNKNOWN_TENSOR.value
                    and not replayed
                ):
                    # The shard restarted: replay registration plus the
                    # retained update log, then retry this update once.
                    replayed = True
                    try:
                        self._replay_record(healthy[0], record)
                    except (OSError, ConnectionError):
                        self._backend_down(healthy[0])
                    continue
                if reply_type == MessageType.ERROR:
                    return Reply(reply_type, reply_header, reply_body)
                # Primary applied it: the frame joins the log, then the
                # replicas apply it before the client sees the new
                # epoch. A replica that answers UNKNOWN_TENSOR
                # (restarted, or evicted the session) gets the full log
                # replayed instead — registration plus every update,
                # this one included.
                with self._state:
                    record.updates.append((dict(header), bytes(body)))
                for replica in healthy[1:]:
                    try:
                        r_type, r_header, _ = self._forward_to(
                            replica, MessageType.UPDATE, header, body
                        )
                        if (
                            r_type == MessageType.ERROR
                            and r_header.get("code")
                            == ErrorCode.UNKNOWN_TENSOR.value
                        ):
                            self._replay_record(replica, record)
                    except (OSError, ConnectionError):
                        self._backend_down(replica)
                self.metrics.incr("accepted")
                self.metrics.incr("updates")
                return Reply(reply_type, reply_header, reply_body)
            raise ServiceError(
                ErrorCode.INTERNAL,
                f"update could not be placed after {attempts} attempts",
            )

    # -- stats -----------------------------------------------------------------

    def _handle_stats(self, header: Optional[Dict] = None) -> Reply:
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
            # Spans live on the shards (the gateway runs no engine);
            # merge every healthy shard's buffer.
            trace_id = (header or {}).get("trace_id")
            shard_header: Dict = {"format": "spans"}
            if trace_id is not None:
                shard_header["trace_id"] = trace_id
            chunks: List[str] = []
            count = 0
            with self._state:
                backends = [
                    backend for backend in self._backends.values()
                    if backend.healthy
                ]
            for backend in backends:
                try:
                    _type, reply_header, reply_body = backend.roundtrip(
                        MessageType.STATS, shard_header
                    )
                except (OSError, ConnectionError):
                    self._backend_down(backend.name)
                    continue
                text = reply_body.decode("utf-8")
                if text:
                    chunks.append(text)
                count += int(reply_header.get("count", 0))
            return Reply(
                MessageType.OK,
                {"format": "spans", "count": count},
                "".join(chunks).encode("utf-8"),
            )
        raise ServiceError(
            ErrorCode.BAD_REQUEST,
            f"stats format must be json, prometheus, or spans;"
            f" got {fmt!r}",
        )

    def stats(self) -> Dict:
        """The gateway ``STATS`` payload: ring, shards, placements."""
        with self._state:
            shards = {
                backend.name: {
                    "host": backend.host,
                    "port": backend.port,
                    "healthy": backend.healthy,
                    "state": backend.state,
                    "requests": backend.requests,
                    "errors": backend.errors,
                    "inflight": self._inflight_by_shard.get(backend.name, 0),
                    "resident_tensors": sorted(
                        record.registration.tensor_id
                        for record in self._tensors.values()
                        if backend.name in record.owners
                    ),
                }
                for backend in self._backends.values()
            }
            tensors = {
                record.registration.tensor_id: {
                    "q": record.registration.q,
                    "P": record.registration.P,
                    "owners": list(record.owners),
                }
                for record in self._tensors.values()
            }
            ring = self._ring.describe()
            events = dict(self._events)
        return {
            "gateway": {
                "ring": ring,
                "shards": shards,
                "tensors": tensors,
                "events": events,
                "server": self.metrics.snapshot(),
            },
            "connections": self.connection_count(),
            "config": {
                "replication": self.replication,
                "executor_workers": self.executor_workers,
                "max_inflight": self.max_inflight,
                "backend_timeout_s": self.backend_timeout_s,
            },
        }

    # -- metrics collector ------------------------------------------------------

    def _collect_metrics(self) -> "list[MetricFamily]":
        with self._state:
            backends = list(self._backends.values())
            events = dict(self._events)
            tensors = list(self._tensors.values())
            ring_size = len(self._ring)
        families = [
            MetricFamily(
                "sttsv_ring_backends", "gauge",
                "Backend shards currently on the hash ring",
                [Sample(labels=(), value=float(ring_size))],
            ),
            MetricFamily(
                "sttsv_gateway_shard_state", "gauge",
                "Shard health (1 healthy, 0 down/drained)",
                [
                    Sample(
                        labels=(("shard", backend.name),),
                        value=1.0 if backend.healthy else 0.0,
                    )
                    for backend in backends
                ],
            ),
            MetricFamily(
                "sttsv_gateway_shard_requests_total", "counter",
                "Requests forwarded to each shard",
                [
                    Sample(
                        labels=(("shard", backend.name),),
                        value=float(backend.requests),
                    )
                    for backend in backends
                ],
            ),
            MetricFamily(
                "sttsv_gateway_resident_tensors", "gauge",
                "Tensors placed on each shard (primary or replica)",
                [
                    Sample(
                        labels=(("shard", backend.name),),
                        value=float(
                            sum(
                                1 for record in tensors
                                if backend.name in record.owners
                            )
                        ),
                    )
                    for backend in backends
                ],
            ),
            MetricFamily(
                "sttsv_gateway_events_total", "counter",
                "Gateway membership and rebalance events by kind",
                [
                    Sample(labels=(("event", name),), value=float(count))
                    for name, count in sorted(events.items())
                ],
            ),
        ]
        server = self.metrics.snapshot()
        families.append(
            MetricFamily(
                "sttsv_gateway_server_events_total", "counter",
                "Gateway admission and lifecycle events by kind",
                [
                    Sample(labels=(("event", name),), value=float(count))
                    for name, count in sorted(server.items())
                ],
            )
        )
        return families


# -- fleet process helpers ------------------------------------------------------


def free_port(host: str = "127.0.0.1") -> int:
    """An OS-assigned free TCP port (race-tolerant: bind-and-release)."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, 0))
        return sock.getsockname()[1]


def _repro_env() -> Dict[str, str]:
    """Subprocess environment with this repro package importable."""
    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_dir if not existing else src_dir + os.pathsep + existing
    )
    return env


def spawn_shard(
    port: int,
    host: str = "127.0.0.1",
    extra_args: Sequence[str] = (),
    log_path: Optional[str] = None,
) -> subprocess.Popen:
    """Launch one shard server process (``python -m repro serve``)."""
    command = [
        sys.executable, "-m", "repro", "serve",
        "--host", host, "--port", str(port), *extra_args,
    ]
    if log_path is not None:
        log = open(log_path, "ab")  # noqa: SIM115 — owned by the child
    else:
        log = subprocess.DEVNULL
    process = subprocess.Popen(
        command,
        stdout=log,
        stderr=subprocess.STDOUT,
        env=_repro_env(),
    )
    if log_path is not None:
        log.close()  # the child holds its own descriptor
    return process


def wait_for_port(
    host: str, port: int, timeout: float = 30.0
) -> None:
    """Block until a TCP connect to ``host:port`` succeeds."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            with socket.create_connection((host, port), timeout=1.0):
                return
        except OSError:
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"{host}:{port} did not accept within {timeout}s"
                ) from None
            time.sleep(0.05)


class LocalFleet:
    """N shard processes plus an in-process gateway, as one context.

    The harness behind ``repro serve --fleet N``, the chaos tests, and
    the fleet benchmark::

        with LocalFleet(shards=2) as fleet:
            host, port = fleet.gateway.address
            ... drive load; fleet.kill_shard(0); fleet.restart_shard(0)
    """

    def __init__(
        self,
        shards: int = 2,
        host: str = "127.0.0.1",
        gateway_port: int = 0,
        replication: int = DEFAULT_REPLICATION,
        shard_args: Sequence[str] = (),
        log_dir: Optional[str] = None,
        **gateway_kwargs,
    ):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self._host = host
        self._count = shards
        self._gateway_port = gateway_port
        self._replication = replication
        self._shard_args = tuple(shard_args)
        self._log_dir = log_dir
        self._gateway_kwargs = gateway_kwargs
        self.ports: List[int] = []
        self.processes: List[Optional[subprocess.Popen]] = []
        self.gateway: Optional[STTSVGateway] = None

    def _shard_log(self, index: int) -> Optional[str]:
        if self._log_dir is None:
            return None
        return os.path.join(self._log_dir, f"shard-{index}.log")

    def shard_name(self, index: int) -> str:
        return f"{self._host}:{self.ports[index]}"

    def start(self) -> "LocalFleet":
        self.ports = [free_port(self._host) for _ in range(self._count)]
        self.processes = [
            spawn_shard(
                port,
                host=self._host,
                extra_args=self._shard_args,
                log_path=self._shard_log(index),
            )
            for index, port in enumerate(self.ports)
        ]
        for port in self.ports:
            wait_for_port(self._host, port)
        self.gateway = STTSVGateway(
            [(self._host, port) for port in self.ports],
            host=self._host,
            port=self._gateway_port,
            replication=self._replication,
            **self._gateway_kwargs,
        )
        self.gateway.start()
        return self

    def kill_shard(self, index: int, sig: int = signal.SIGKILL) -> None:
        """Chaos: kill the shard process outright (default SIGKILL)."""
        process = self.processes[index]
        if process is None:
            return
        process.send_signal(sig)
        process.wait(timeout=10)
        self.processes[index] = None

    def restart_shard(self, index: int) -> None:
        """Respawn a killed shard on its original port and re-join it
        to the ring (tensors whose arcs it owned re-register onto it)."""
        if self.processes[index] is not None:
            self.kill_shard(index)
        port = self.ports[index]
        self.processes[index] = spawn_shard(
            port,
            host=self._host,
            extra_args=self._shard_args,
            log_path=self._shard_log(index),
        )
        wait_for_port(self._host, port)
        self.gateway.add_backend(
            (self._host, port), name=self.shard_name(index)
        )

    def stop(self) -> None:
        if self.gateway is not None:
            self.gateway.stop()
            self.gateway = None
        for index, process in enumerate(self.processes):
            if process is None:
                continue
            process.terminate()
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10)
            self.processes[index] = None

    def __enter__(self) -> "LocalFleet":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
