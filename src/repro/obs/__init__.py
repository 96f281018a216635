"""End-to-end observability: tracing, unified metrics, exporters.

The package that connects a served request (or a CLI run) to the
communication rounds it caused:

* :mod:`repro.obs.tracing` — trace ids minted per request, propagated
  through :mod:`contextvars`, collected as nested spans by a bounded
  process-wide :class:`~repro.obs.tracing.Tracer`;
* :mod:`repro.obs.instrument` — the per-phase
  :class:`~repro.obs.instrument.Instrumentation` timers (moved here
  from the machine layer), now emitting trace spans too;
* :mod:`repro.obs.metrics` — the process-wide
  :class:`~repro.obs.metrics.MetricsRegistry` consolidating service
  stats, plan-cache counters, and ledger words/messages/rounds behind
  one instrument/collector API;
* :mod:`repro.obs.export` — Prometheus text format and JSON-lines
  span dumps, served by the ``STATS`` endpoint and the ``repro
  stats`` / ``repro trace`` commands.

Everything is off by default and guarded by one flag read per site, so
disabled-mode overhead is negligible; ledger counts are read, never
written — the paper's exact communication accounting is untouched.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.obs.export": ("prometheus_text", "spans_from_jsonl", "spans_to_jsonl"),
    "repro.obs.instrument": ("Instrumentation", "PhaseTiming"),
    "repro.obs.metrics": (
        "Counter",
        "Gauge",
        "Histogram",
        "MetricFamily",
        "MetricsRegistry",
        "Sample",
        "default_registry",
    ),
    "repro.obs.tracing": (
        "Span",
        "Tracer",
        "current_trace_ids",
        "disable_tracing",
        "enable_tracing",
        "get_tracer",
        "new_trace_id",
        "trace_context",
    ),
})

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Instrumentation",
    "MetricFamily",
    "MetricsRegistry",
    "PhaseTiming",
    "Sample",
    "Span",
    "Tracer",
    "current_trace_ids",
    "default_registry",
    "disable_tracing",
    "enable_tracing",
    "get_tracer",
    "new_trace_id",
    "prometheus_text",
    "spans_from_jsonl",
    "spans_to_jsonl",
    "trace_context",
]
