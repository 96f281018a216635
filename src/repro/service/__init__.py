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

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.service.batcher": ("DynamicBatcher",),
    "repro.service.client": ("ServiceClient", "run_load"),
    "repro.service.eventloop": ("FrameLoopServer", "Reply"),
    "repro.service.gateway": ("LocalFleet", "STTSVGateway"),
    "repro.service.metrics": (
        "BatchSizeHistogram",
        "LatencyRecorder",
        "ServerMetrics",
        "SessionMetrics",
    ),
    "repro.service.protocol": (
        "ConnectionClosedMidFrame",
        "ErrorCode",
        "FrameReader",
        "MessageType",
        "ProtocolError",
        "ServiceError",
    ),
    "repro.service.ring": ("HashRing", "ring_key"),
    "repro.service.server": ("STTSVServer",),
    "repro.service.sessions": ("EngineSession", "SessionKey", "SessionPool"),
})

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
