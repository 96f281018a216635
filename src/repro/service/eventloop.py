"""Non-blocking event-loop connection layer for frame servers.

One selector thread owns every socket — the listener and all accepted
connections — and never blocks on any of them:

* readable connections feed a per-connection incremental
  :class:`~repro.service.protocol.FrameReader`; complete request
  frames queue on the connection;
* each connection's requests dispatch **serially** (one in flight per
  connection, preserving the request/reply ordering the blocking
  client relies on) to a bounded ``ThreadPoolExecutor``, where the
  subclass's :meth:`FrameLoopServer.handle_request` runs — blocking on
  batcher futures or backend round-trips without ever stalling the
  loop;
* the worker hands its reply bytes back to the loop through a wake
  pipe, and the loop writes them out incrementally as the socket
  accepts them.

Saturation is explicit: when more requests are mid-execution than
``max_inflight``, the loop answers ``OVERLOADED`` directly — a typed
reply in microseconds instead of an unbounded dispatch queue — so a
saturated server stays observable and recoverable, exactly the
discipline the batcher applies one layer down.

:class:`STTSVServer` (engine work) and :class:`STTSVGateway`
(shard routing) are both fronts over this class; the only part they
implement is ``handle_request``. The loop counts connections, bad
frames and typed errors itself, in :attr:`FrameLoopServer.metrics`.
"""

from __future__ import annotations

import selectors
import socket
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Deque, Dict, NamedTuple, Optional, Tuple

from repro.errors import ReproError
from repro.service.metrics import ServerMetrics
from repro.service.protocol import (
    ErrorCode,
    FrameReader,
    MessageType,
    ProtocolError,
    ServiceError,
    error_header,
    pack_frame,
)

#: Default worker threads executing requests off-loop.
DEFAULT_EXECUTOR_WORKERS = 32

#: Loop poll interval — bounds shutdown latency when nothing is ready.
_SELECT_TIMEOUT_S = 0.5

#: Bytes pulled per readable event.
_RECV_CHUNK = 1 << 16


class Reply(NamedTuple):
    """What a request handler returns: one frame, plus connection fate.

    ``close`` flushes the reply and then drops the connection;
    ``then`` runs (on its own thread) after the reply has flushed —
    the hook ``SHUTDOWN`` uses to stop the server *after* its OK
    reaches the client.
    """

    msg_type: MessageType
    header: Dict
    body: bytes = b""
    close: bool = False
    then: Optional[Callable[[], None]] = None


class _Connection:
    """Loop-owned state of one accepted socket."""

    __slots__ = (
        "sock", "reader", "requests", "outbox", "offset",
        "busy", "close_after_flush", "then", "events",
    )

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.reader = FrameReader()
        #: Complete frames parsed but not yet dispatched.
        self.requests: Deque[Tuple[MessageType, Dict, bytes]] = deque()
        #: Reply byte buffers queued for writing.
        self.outbox: Deque[memoryview] = deque()
        #: Progress into ``outbox[0]``.
        self.offset = 0
        #: A request from this connection is executing off-loop.
        self.busy = False
        self.close_after_flush = False
        self.then: Optional[Callable[[], None]] = None
        #: Selector interest currently registered.
        self.events = selectors.EVENT_READ


class FrameLoopServer:
    """Selector-driven TCP server speaking the length-prefixed protocol.

    Subclasses implement :meth:`handle_request` (runs on an executor
    thread; may block) and the ``on_*`` lifecycle hooks; the ``note_*``
    hooks count into :attr:`metrics`, which subclasses share for their
    own counters. The public surface — ``start`` /
    ``stop`` / ``wait`` / ``address`` / context manager — matches the
    old thread-per-connection server exactly.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        executor_workers: int = DEFAULT_EXECUTOR_WORKERS,
        max_inflight: Optional[int] = None,
        name: str = "frameloop",
    ):
        if executor_workers < 1:
            raise ServiceError(
                ErrorCode.BAD_REQUEST,
                f"executor_workers must be >= 1, got {executor_workers}",
            )
        self._host = host
        self._port = port
        self._name = name
        self.executor_workers = executor_workers
        #: Requests allowed mid-execution before the loop answers
        #: OVERLOADED itself (default: 4x the worker count, so a burst
        #: can queue briefly without the executor backlog growing
        #: unboundedly).
        self.max_inflight = (
            max_inflight if max_inflight is not None else executor_workers * 4
        )
        self._sock: Optional[socket.socket] = None
        self._selector: Optional[selectors.BaseSelector] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._connections: Dict[socket.socket, _Connection] = {}
        self._callbacks: Deque[Callable[[], None]] = deque()
        self._callbacks_lock = threading.Lock()
        self._wake_r: Optional[socket.socket] = None
        self._wake_w: Optional[socket.socket] = None
        self._inflight = 0
        self._running = False
        self._stop_lock = threading.Lock()
        self._stop_event = threading.Event()
        self.metrics = ServerMetrics()

    # -- subclass hooks --------------------------------------------------------

    def handle_request(
        self, msg_type: MessageType, header: Dict, body: bytes
    ) -> Reply:
        """Serve one request; runs on an executor thread and may block.

        Raise :class:`ServiceError` (or any exception — see
        :meth:`classify_error`) to produce a typed ``ERROR`` reply.
        """
        raise NotImplementedError

    def classify_error(self, error: Exception) -> Tuple[ErrorCode, str]:
        """Map a handler exception to a typed error reply."""
        if isinstance(error, ServiceError):
            return error.code, error.detail
        if isinstance(error, ReproError):
            return ErrorCode.BAD_REQUEST, str(error)
        return ErrorCode.INTERNAL, f"{type(error).__name__}: {error}"

    def note_connection(self) -> None:
        """A connection was accepted."""
        self.metrics.incr("connections_opened")

    def note_bad_frame(self) -> None:
        """A connection sent an unparseable frame."""
        self.metrics.incr("bad_requests")

    def note_error(self, code: ErrorCode) -> None:
        """A request produced a typed ``ERROR`` reply."""
        if code == ErrorCode.OVERLOADED:
            self.metrics.incr("rejected_overload")
        elif code == ErrorCode.DEADLINE_EXCEEDED:
            self.metrics.incr("deadline_exceeded")
        elif code == ErrorCode.INTERNAL:
            self.metrics.incr("internal_errors")
        else:
            self.metrics.incr("bad_requests")

    def on_start(self) -> None:
        """Runs inside :meth:`start`, after the socket is listening."""

    def on_stop(self) -> None:
        """Runs inside :meth:`stop`, after the loop has exited."""

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Bind, listen, and spawn the event loop; returns the address."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self._host, self._port))
        sock.listen(128)
        sock.setblocking(False)
        self._sock = sock
        self._selector = selectors.DefaultSelector()
        self._selector.register(sock, selectors.EVENT_READ, None)
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._selector.register(self._wake_r, selectors.EVENT_READ, None)
        self._executor = ThreadPoolExecutor(
            max_workers=self.executor_workers,
            thread_name_prefix=f"{self._name}-worker",
        )
        self._running = True
        self._stop_event.clear()
        self.on_start()
        self._loop_thread = threading.Thread(
            target=self._loop, name=f"{self._name}-loop", daemon=True
        )
        self._loop_thread.start()
        return self.address

    @property
    def address(self) -> Tuple[str, int]:
        if self._sock is None:
            raise ServiceError(ErrorCode.INTERNAL, "server not started")
        host, port = self._sock.getsockname()[:2]
        return host, port

    def stop(self) -> None:
        """Shut down (idempotent): the loop exits, every connection and
        the listener close, queued work is abandoned."""
        with self._stop_lock:
            if not self._running:
                return
            self._running = False
        self._wake()
        if (
            self._loop_thread is not None
            and self._loop_thread is not threading.current_thread()
        ):
            self._loop_thread.join(timeout=5.0)
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
        self.on_stop()
        self._stop_event.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the server stops; returns False on timeout."""
        return self._stop_event.wait(timeout)

    def __enter__(self) -> "FrameLoopServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- loop ------------------------------------------------------------------

    def _loop(self) -> None:
        while self._running:
            events = self._selector.select(_SELECT_TIMEOUT_S)
            for key, mask in events:
                if key.fileobj is self._sock:
                    self._accept()
                elif key.fileobj is self._wake_r:
                    self._drain_wake()
                else:
                    conn = key.data
                    if mask & selectors.EVENT_READ:
                        self._readable(conn)
                    if (
                        mask & selectors.EVENT_WRITE
                        and conn.sock.fileno() != -1
                    ):
                        self._flush(conn)
            self._run_callbacks()
        self._teardown()

    def _teardown(self) -> None:
        for conn in list(self._connections.values()):
            self._close_connection(conn)
        for sock in (self._sock, self._wake_r, self._wake_w):
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass
        if self._selector is not None:
            self._selector.close()

    def _wake(self) -> None:
        if self._wake_w is not None:
            try:
                self._wake_w.send(b"\0")
            except OSError:
                pass

    def _drain_wake(self) -> None:
        try:
            while self._wake_r.recv(4096):
                pass
        except (BlockingIOError, OSError):
            pass

    def _call_soon(self, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` on the loop thread (thread-safe)."""
        with self._callbacks_lock:
            self._callbacks.append(callback)
        self._wake()

    def _run_callbacks(self) -> None:
        while True:
            with self._callbacks_lock:
                if not self._callbacks:
                    return
                callback = self._callbacks.popleft()
            callback()

    # -- accept / read ---------------------------------------------------------

    def _accept(self) -> None:
        while True:
            try:
                sock, _addr = self._sock.accept()
            except (BlockingIOError, OSError):
                return
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
            conn = _Connection(sock)
            self._connections[sock] = conn
            self._selector.register(sock, selectors.EVENT_READ, conn)
            self.note_connection()

    def _readable(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(_RECV_CHUNK)
        except BlockingIOError:
            return
        except OSError:
            self._close_connection(conn)
            return
        if not data:
            self._close_connection(conn)
            return
        conn.reader.feed(data)
        try:
            while True:
                frame = conn.reader.next_frame()
                if frame is None:
                    break
                conn.requests.append(frame)
        except ProtocolError as error:
            # Framing is broken: there is no recoverable next-frame
            # boundary. Reply once (typed), drop anything queued
            # behind the poison, and close after the reply flushes.
            self.note_bad_frame()
            conn.requests.clear()
            self._enqueue_reply(
                conn,
                pack_frame(
                    MessageType.ERROR,
                    error_header(ErrorCode.BAD_REQUEST, str(error)),
                ),
                close=True,
            )
            return
        self._pump(conn)

    # -- dispatch --------------------------------------------------------------

    def _pump(self, conn: _Connection) -> None:
        """Dispatch this connection's next request, if it is idle."""
        while (
            not conn.busy
            and not conn.close_after_flush
            and conn.requests
        ):
            frame = conn.requests.popleft()
            if self._inflight >= self.max_inflight:
                self.note_error(ErrorCode.OVERLOADED)
                self._enqueue_reply(
                    conn,
                    pack_frame(
                        MessageType.ERROR,
                        error_header(
                            ErrorCode.OVERLOADED,
                            f"{self._inflight} requests already executing"
                            f" (max_inflight={self.max_inflight})",
                        ),
                    ),
                )
                continue  # pipelined frames behind it still answered
            conn.busy = True
            self._inflight += 1
            self._executor.submit(self._process, conn, frame)

    def _process(
        self, conn: _Connection, frame: Tuple[MessageType, Dict, bytes]
    ) -> None:
        """Executor thread: run the handler, serialize one reply."""
        msg_type, header, body = frame
        close = False
        then: Optional[Callable[[], None]] = None
        try:
            reply = self.handle_request(msg_type, header, body)
            close, then = reply.close, reply.then
            payload = pack_frame(reply.msg_type, reply.header, reply.body)
        except Exception as error:  # noqa: BLE001 — one request never
            # kills the server; every failure becomes a typed reply
            code, message = self.classify_error(error)
            self.note_error(code)
            payload = pack_frame(
                MessageType.ERROR, error_header(code, message)
            )
        self._call_soon(lambda: self._finish(conn, payload, close, then))

    def _finish(
        self,
        conn: _Connection,
        payload: bytes,
        close: bool,
        then: Optional[Callable[[], None]],
    ) -> None:
        """Loop thread: queue the reply and resume the connection."""
        self._inflight -= 1
        conn.busy = False
        if conn.sock.fileno() == -1:  # peer vanished mid-execution
            if then is not None:
                threading.Thread(target=then, daemon=True).start()
            return
        self._enqueue_reply(conn, payload, close=close, then=then)
        if not close:
            self._pump(conn)

    # -- write -----------------------------------------------------------------

    def _enqueue_reply(
        self,
        conn: _Connection,
        payload: bytes,
        close: bool = False,
        then: Optional[Callable[[], None]] = None,
    ) -> None:
        conn.outbox.append(memoryview(payload))
        if close:
            conn.close_after_flush = True
        if then is not None:
            conn.then = then
        self._flush(conn)

    def _flush(self, conn: _Connection) -> None:
        while conn.outbox:
            buffer = conn.outbox[0]
            try:
                sent = conn.sock.send(buffer[conn.offset :])
            except BlockingIOError:
                break
            except OSError:
                self._close_connection(conn)
                return
            conn.offset += sent
            if conn.offset == len(buffer):
                conn.outbox.popleft()
                conn.offset = 0
            elif sent == 0:
                break
        if not conn.outbox and conn.close_after_flush:
            then = conn.then
            conn.then = None
            self._close_connection(conn)
            if then is not None:
                threading.Thread(target=then, daemon=True).start()
            return
        self._update_interest(conn)

    def _update_interest(self, conn: _Connection) -> None:
        events = selectors.EVENT_READ
        if conn.close_after_flush:
            events = 0
        if conn.outbox:
            events |= selectors.EVENT_WRITE
        if events == conn.events or conn.sock.fileno() == -1:
            return
        conn.events = events
        try:
            if events:
                self._selector.modify(conn.sock, events, conn)
            else:
                self._selector.unregister(conn.sock)
        except (KeyError, ValueError, OSError):
            pass

    def _close_connection(self, conn: _Connection) -> None:
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError, OSError):
            pass
        self._connections.pop(conn.sock, None)
        try:
            conn.sock.close()
        except OSError:
            pass

    # -- introspection ---------------------------------------------------------

    def connection_count(self) -> int:
        """Open connections (loop-owned; racy snapshot is fine)."""
        return len(self._connections)

    def inflight(self) -> int:
        """Requests currently executing off-loop."""
        return self._inflight
