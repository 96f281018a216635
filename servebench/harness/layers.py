"""Which functions of each layer the traced pass wraps, and as what stage.

Nothing under ``src/`` changes: the wrappers are installed from the
benchmark's own files, in the server processes by the launcher
(:func:`install_server_layers`) and in the load generator
(:func:`install_client_layers`). A function imported by name into
another module is wrapped at each import site the request path uses.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Optional

from repro.service.protocol import MessageType

from .spans import SpanLog, TimedLock

#: ``Instrumentation.span`` phase names → stage names.
PHASES = {
    "sttsv:exchange-x": "parallel.exchange_x",
    "sttsv:local-compute": "parallel.local_compute",
    "sttsv:exchange-y": "parallel.exchange_y",
}


def request_class(msg_type) -> str:
    """``read`` for applies, ``write`` for rank-1 updates, else ``other``."""
    if msg_type in (MessageType.APPLY, MessageType.APPLY_BATCH):
        return "read"
    if msg_type == MessageType.UPDATE:
        return "write"
    return "other"


def peer_port(conn) -> Optional[int]:
    """The client-side port of a server connection (links spans of one
    connection across processes)."""
    try:
        return conn.sock.getpeername()[1]
    except OSError:
        return None


def _trace_event_loop(log: SpanLog, loop_server) -> None:
    """The selector loop's own work and the two thread hand-offs of a
    request: loop → executor worker (``server.dispatch_wait``) and
    worker → loop (``server.reply_wait``), each from enqueue to start."""
    log.wrap(
        loop_server, "_readable", "server.loop_recv",
        value_of=lambda args: peer_port(args[1]),
    )
    log.wrap(
        loop_server, "_finish", "server.loop_send",
        value_of=lambda args: peer_port(args[1]),
    )
    start = loop_server.start

    def traced_start(self):
        address = start(self)
        submit = self._executor.submit

        def timed_submit(fn, conn, frame):
            queued = time.monotonic()

            def run():
                log.record(
                    "server.dispatch_wait", queued, time.monotonic(), None, 1,
                    request_class(frame[0]),
                )
                return fn(conn, frame)

            return submit(run)

        self._executor.submit = timed_submit
        return address

    loop_server.start = traced_start
    call_soon = loop_server._call_soon

    def timed_call_soon(self, callback):
        queued = time.monotonic()
        _parent, _weight, cls = log.current()

        def run():
            log.record("server.reply_wait", queued, time.monotonic(), None, 1, cls)
            with log.context(1, cls):
                callback()

        return call_soon(self, run)

    loop_server._call_soon = timed_call_soon


def install_server_layers(log: SpanLog) -> None:
    """Wrap the server-side layers of a shard or gateway process."""
    import repro.core.parallel_sttsv as parallel_sttsv
    import repro.machine.collectives as collectives
    import repro.service.eventloop as eventloop
    import repro.service.server as server
    from repro.core.plans import BlockedPlan, SequentialPlan
    from repro.machine.transport.fusion import FusionPlan
    from repro.obs.instrument import Instrumentation
    from repro.service.batcher import DynamicBatcher
    from repro.service.gateway import STTSVGateway, _Backend
    from repro.service.metrics import SessionMetrics
    from repro.service.protocol import FrameReader
    from repro.service.server import STTSVServer
    from repro.service.sessions import EngineSession
    from repro.tensor.symk import SymKPlan

    # Connection layer and codec.
    log.wrap(
        FrameReader, "next_frame", "protocol.frame_parse",
        result_cls=lambda frame: request_class(frame[0]), skip_none=True,
    )
    log.wrap(server, "decode_array", "protocol.decode")
    log.wrap(server, "encode_array", "protocol.encode")
    log.wrap(eventloop, "pack_frame", "protocol.encode")
    log.wrap(
        eventloop.FrameLoopServer, "_process", None,
        cls_of=lambda args: request_class(args[2][0]),
    )
    log.wrap(STTSVServer, "handle_request", "server.handle")
    log.wrap(STTSVGateway, "handle_request", "gateway.handle")
    log.wrap(_Backend, "roundtrip", "gateway.backend_rtt")
    _trace_event_loop(log, eventloop.FrameLoopServer)

    # Admission and coalescing. The future span runs from admission to
    # resolution on the handler's thread, under the handler's span.
    submit = DynamicBatcher.submit

    def timed_submit(self, *args, **kwargs):
        with log.span("batcher.admit"):
            future = submit(self, *args, **kwargs)
        parent, _weight, cls = log.current()
        start, tid = time.monotonic(), threading.get_ident()
        future.add_done_callback(
            lambda _f: log.record(
                "batcher.future", start, time.monotonic(), parent, 1, cls,
                tid=tid,
            )
        )
        return future

    DynamicBatcher.submit = timed_submit
    log.wrap(
        DynamicBatcher, "_execute", "batcher.dispatch",
        weight_of=lambda args: len(args[2]),
        cls_of=lambda args: "read",
    )

    # Sessions and plans.
    log.wrap(EngineSession, "apply", "sessions.exec")
    log.wrap(EngineSession, "apply_batch", "sessions.exec")
    for plan in (SequentialPlan, BlockedPlan, SymKPlan):
        for method in ("apply", "apply_batch"):
            log.wrap(
                plan, method, "plans.apply",
                value_of=lambda args: float(args[0].nbytes()),
            )

    # Algorithm 5 and the machine layer.
    log.wrap(parallel_sttsv.ParallelSTTSV, "load_vector", "parallel.load_vector")
    log.wrap(parallel_sttsv.ParallelSTTSV, "run", "parallel.run")
    log.wrap(parallel_sttsv.ParallelSTTSV, "gather_result", "parallel.gather")
    phase = Instrumentation.span

    @contextlib.contextmanager
    def traced_phase(self, name):
        stage = PHASES.get(name)
        if stage is None:
            with phase(self, name):
                yield
            return
        with log.span(stage), phase(self, name):
            yield

    Instrumentation.span = traced_phase
    log.wrap(collectives, "execute_rounds_fused", "machine.fused_exchange")
    parallel_sttsv.execute_rounds_fused = collectives.execute_rounds_fused
    log.wrap(FusionPlan, "pack", "machine.fusion_pack")
    log.wrap(FusionPlan, "unpack", "machine.fusion_unpack")
    log.count_calls(collectives, "payload_checksum", "machine.checksum")
    absorb = SessionMetrics.absorb_ledger

    def counted_absorb(self, ledger):
        log.event(
            "machine.ledger",
            {
                "words_per_proc": ledger.max_words_sent(),
                "rounds": ledger.round_count(),
                "physical_msgs": ledger.fused_messages,
                "retry_rounds": ledger.retry_rounds,
            },
        )
        return absorb(self, ledger)

    SessionMetrics.absorb_ledger = counted_absorb

    # Low-rank streaming: updates, and waits on the session lock.
    log.wrap(EngineSession, "update_rank1", "symk.update")
    init_symk = EngineSession._init_symk

    def timed_init_symk(self, *args, **kwargs):
        init_symk(self, *args, **kwargs)
        self.exec_lock = TimedLock(self.exec_lock, log, "symk.lock_wait")

    EngineSession._init_symk = timed_init_symk


def install_client_layers(log: SpanLog) -> None:
    """Wrap the generator's protocol calls: send, the wait for the reply
    (which contains the server's time, so it is only used to find the
    socket hand-offs), and reply decode."""
    import repro.service.client as client

    def local_port(args) -> int:
        return args[0].getsockname()[1]

    log.wrap(
        client.ServiceClient, "_roundtrip", None,
        cls_of=lambda args: request_class(args[1]),
    )
    log.wrap(client, "write_frame", "client.send", value_of=local_port)
    log.wrap(client, "read_frame", "client.wait", value_of=local_port)
    log.wrap(client, "decode_array", "client.decode", cls_of=lambda args: "read")
