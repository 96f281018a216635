"""In-memory span log for the traced pass, written out as JSONL at exit.

A span is one call of a wrapped function: its stage name, start and end
(``time.monotonic``, which is one clock for every process on the host),
the span that caused it, the thread it ran on, the number of requests
it served (``weight``: a coalesced batch of ``w`` requests has weight
``w``, inherited by everything it calls) and the request class it
belongs to (``read``, ``write`` or ``other``, inherited the same way).
Parent, weight and class travel in a context variable, so spans made
on a thread that copied the caller's context (the overlap pipeline's
exchange thread) still name their cause.

Events are timestamped counts (checksum calls, one per-run ledger
summary). Nothing is written until :meth:`SpanLog.dump`.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import json
import os
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: ``(span id, weight, class)`` of the innermost open span.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "servebench_span", default=None
)


class SpanLog:
    """Spans and events of one process."""

    def __init__(self, meta: Optional[Dict] = None):
        self.meta = dict(meta or {})
        self.spans: List[tuple] = []
        self.events: List[tuple] = []
        self._ids = itertools.count()
        self._wrapped: List[tuple] = []

    # -- recording --------------------------------------------------------------

    @staticmethod
    def current() -> Tuple[Optional[int], int, Optional[str]]:
        """``(parent id, weight, class)`` a new span would inherit."""
        outer = _CURRENT.get()
        return outer if outer is not None else (None, 1, None)

    def record(
        self,
        stage: str,
        start: float,
        end: float,
        parent: Optional[int],
        weight: int,
        cls: Optional[str],
        tid: Optional[int] = None,
    ) -> None:
        """Append one finished span (``list.append`` is atomic)."""
        self.spans.append(
            (
                next(self._ids), parent, stage, start, end,
                tid if tid is not None else threading.get_ident(),
                weight, cls, None,
            )
        )

    @contextlib.contextmanager
    def span(self, stage: str) -> Iterator[None]:
        """Record the enclosed block as one span."""
        parent, weight, cls = self.current()
        sid = next(self._ids)
        token = _CURRENT.set((sid, weight, cls))
        start = time.monotonic()
        try:
            yield
        finally:
            end = time.monotonic()
            _CURRENT.reset(token)
            self.spans.append(
                (
                    sid, parent, stage, start, end,
                    threading.get_ident(), weight, cls, None,
                )
            )

    @contextlib.contextmanager
    def context(self, weight: int, cls: Optional[str]) -> Iterator[None]:
        """Set weight and class for the enclosed block, recording nothing."""
        parent, _, _ = self.current()
        token = _CURRENT.set((parent, weight, cls))
        try:
            yield
        finally:
            _CURRENT.reset(token)

    def event(self, name: str, values: Optional[Dict] = None) -> None:
        self.events.append((name, time.monotonic(), values or {}))

    def wrap(
        self,
        owner,
        attr: str,
        stage: Optional[str],
        *,
        weight_of: Optional[Callable] = None,
        cls_of: Optional[Callable] = None,
        result_cls: Optional[Callable] = None,
        value_of: Optional[Callable] = None,
        skip_none: bool = False,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper recording one span per call.

        ``weight_of(args)`` and ``cls_of(args)`` override the inherited
        weight and class; ``result_cls(result)`` classifies by return
        value; ``value_of(args)`` attaches a number (bytes moved);
        ``skip_none`` records nothing for calls returning ``None`` (a
        frame reader with no complete frame yet). With ``stage=None``
        the wrapper only sets weight and class for what the call does.
        """
        original = getattr(owner, attr)
        log = self

        def wrapper(*args, **kwargs):
            parent, weight, cls = log.current()
            if weight_of is not None:
                weight = weight_of(args)
            if cls_of is not None:
                cls = cls_of(args)
            if stage is None:
                with log.context(weight, cls):
                    return original(*args, **kwargs)
            value = value_of(args) if value_of is not None else None
            sid = next(log._ids)
            token = _CURRENT.set((sid, weight, cls))
            start = time.monotonic()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.monotonic()
                _CURRENT.reset(token)
                if result is not None or not skip_none:
                    if result_cls is not None and result is not None:
                        cls = result_cls(result)
                    log.spans.append(
                        (
                            sid, parent, stage,
                            start, end, threading.get_ident(), weight, cls,
                            value,
                        )
                    )

        self._wrapped.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def unwrap_all(self) -> None:
        """Put back every function :meth:`wrap` replaced."""
        while self._wrapped:
            owner, attr, original = self._wrapped.pop()
            setattr(owner, attr, original)

    def count_calls(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a wrapper logging one event per call."""
        original = getattr(owner, attr)
        events = self.events

        def wrapper(*args, **kwargs):
            events.append((name, time.monotonic(), {}))
            return original(*args, **kwargs)

        setattr(owner, attr, wrapper)

    # -- persistence ------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write everything to ``path``, which appears only once complete
        (a process killed mid-write leaves no half file to misread)."""
        partial = f"{path}.partial"
        with open(partial, "w", encoding="utf-8") as out:
            out.write(json.dumps(["meta", self.meta]) + "\n")
            for span in list(self.spans):
                out.write(json.dumps(["span", *span]) + "\n")
            for name, t, values in list(self.events):
                out.write(json.dumps(["event", name, t, values]) + "\n")
        os.replace(partial, path)

    @classmethod
    def load(cls, path: str) -> "SpanLog":
        """A log read back from a :meth:`dump` file."""
        log = cls()
        with open(path, encoding="utf-8") as source:
            for line in source:
                record = json.loads(line)
                if record[0] == "meta":
                    log.meta = record[1]
                elif record[0] == "span":
                    log.spans.append(tuple(record[1:]))
                else:
                    log.events.append(tuple(record[1:]))
        return log


class TimedLock:
    """A ``with``-only lock that records each acquisition's wait as a span
    (the session code only ever takes ``exec_lock`` in ``with``)."""

    def __init__(self, lock, log: SpanLog, stage: str):
        self._lock = lock
        self._log = log
        self._stage = stage

    def __enter__(self) -> bool:
        parent, weight, cls = self._log.current()
        start = time.monotonic()
        acquired = self._lock.acquire()
        self._log.record(
            self._stage, start, time.monotonic(), parent, weight, cls
        )
        return acquired

    def __exit__(self, *exc) -> None:
        self._lock.release()

