"""Per-phase instrumentation, trace-aware.

This is the observability-layer home of :class:`Instrumentation`
(grown out of the machine layer; the old ``repro/machine/instrument``
path has been removed). Its surface is ``span`` / ``warn`` /
``timings`` / ``total_seconds`` / ``as_dict`` / ``reset``. On top of
the per-machine totals:

* every :meth:`Instrumentation.span` additionally records a trace span
  into the process-wide :class:`~repro.obs.tracing.Tracer` **when
  tracing is enabled**, stamped with the trace ids active in the
  calling context. That is the link between a served request (which
  installed its trace id via
  :func:`~repro.obs.tracing.trace_context`) and the algorithm phases
  it ran;
* :meth:`Instrumentation.warn` additionally emits a ``warning`` event
  span, so transport failovers show up on the timeline of the request
  that suffered them.

When tracing is disabled (the default), the only added cost over the
pre-observability implementation is one attribute read per span — the
wall-clock aggregation itself is unchanged.
"""

from __future__ import annotations

import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List

from repro.obs.tracing import get_tracer


@dataclass
class PhaseTiming:
    """Aggregated wall-clock time of one named phase."""

    name: str
    count: int = 0
    total_seconds: float = 0.0

    @property
    def mean_seconds(self) -> float:
        """Average duration per span (0 when never entered)."""
        return self.total_seconds / self.count if self.count else 0.0


class Instrumentation:
    """Per-phase timer registry with trace emission.

    Examples
    --------
    >>> instrument = Instrumentation()
    >>> with instrument.span("demo"):
    ...     pass
    >>> instrument.timings()["demo"].count
    1
    """

    def __init__(self):
        self._timings: Dict[str, PhaseTiming] = {}
        #: Degradation messages recorded by :meth:`warn`, in order.
        self.warnings: List[str] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a phase; nesting is allowed (each level records itself).

        When the process-wide tracer is enabled, the phase is also
        recorded as a ``phase`` trace span carrying the context's
        active trace ids (and nesting under any open span).
        """
        tracer = get_tracer()
        with ExitStack() as stack:
            if tracer.enabled:
                stack.enter_context(tracer.span(name, kind="phase"))
            start = time.perf_counter()
            try:
                yield
            finally:
                elapsed = time.perf_counter() - start
                record = self._timings.get(name)
                if record is None:
                    record = self._timings[name] = PhaseTiming(name)
                record.count += 1
                record.total_seconds += elapsed

    def warn(self, message: str) -> None:
        """Record a degradation event.

        Used by the machine's transport failover: the run continues on
        the fallback transport, but the event is never silent. With
        tracing enabled the warning also lands on the active trace as
        a ``warning`` event span.
        """
        self.warnings.append(message)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event("warning", kind="warning", attrs={"message": message})

    def timings(self) -> Dict[str, PhaseTiming]:
        """Aggregated timings keyed by span name (insertion-ordered)."""
        return dict(self._timings)

    def total_seconds(self, name: str) -> float:
        """Total time spent in ``name`` (0.0 if never entered)."""
        record = self._timings.get(name)
        return record.total_seconds if record else 0.0

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """JSON-friendly summary (the session stats' ``phases``)."""
        return {
            name: {
                "count": record.count,
                "total_seconds": record.total_seconds,
                "mean_seconds": record.mean_seconds,
            }
            for name, record in self._timings.items()
        }

    def reset(self) -> None:
        """Drop all recorded timings and warnings."""
        self._timings.clear()
        self.warnings.clear()

    def __repr__(self) -> str:
        return f"Instrumentation(phases={sorted(self._timings)})"
