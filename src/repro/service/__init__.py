"""STTSV serving layer: request broker, warm sessions, live metrics.

The serving stack composes, bottom to top:

* :mod:`repro.service.protocol` — versioned length-prefixed frames
  with typed error replies;
* :mod:`repro.service.sessions` — warm :class:`EngineSession` pool
  (resident tensor blocks and compiled plan per
  ``(tensor_id, q, P, backend)``, each built by the first request of
  its mode), LRU-bounded;
* :mod:`repro.service.batcher` — :class:`DynamicBatcher`, coalescing
  concurrent applies into batched executions with explicit
  backpressure;
* :mod:`repro.service.metrics` — latency percentiles, batch-size
  histogram, machine-layer counters;
* :mod:`repro.service.eventloop` — the selector-driven non-blocking
  connection layer (:class:`FrameLoopServer`) both endpoints run on;
* :mod:`repro.service.server` / :mod:`repro.service.client` — the
  shard server and auto-reconnecting client (``repro serve`` /
  ``repro load``);
* :mod:`repro.service.ring` / :mod:`repro.service.gateway` — the
  consistent-hash fleet tier (``repro gateway`` /
  ``repro serve --fleet N``): N shard processes behind one router
  with replicated registrations and graceful drain.
"""

from repro.service.batcher import DynamicBatcher
from repro.service.client import ServiceClient, run_load
from repro.service.eventloop import FrameLoopServer, Reply
from repro.service.gateway import LocalFleet, STTSVGateway
from repro.service.metrics import (
    BatchSizeHistogram,
    LatencyRecorder,
    ServerMetrics,
    SessionMetrics,
)
from repro.service.protocol import (
    ConnectionClosedMidFrame,
    ErrorCode,
    FrameReader,
    MessageType,
    ProtocolError,
    ServiceError,
)
from repro.service.ring import HashRing, ring_key
from repro.service.server import STTSVServer
from repro.service.sessions import EngineSession, SessionKey, SessionPool

__all__ = [
    "BatchSizeHistogram",
    "ConnectionClosedMidFrame",
    "DynamicBatcher",
    "EngineSession",
    "ErrorCode",
    "FrameLoopServer",
    "FrameReader",
    "HashRing",
    "LatencyRecorder",
    "LocalFleet",
    "MessageType",
    "ProtocolError",
    "Reply",
    "STTSVGateway",
    "STTSVServer",
    "ServerMetrics",
    "ServiceClient",
    "ServiceError",
    "SessionKey",
    "SessionMetrics",
    "SessionPool",
    "ring_key",
    "run_load",
]
