"""Load generation: one or two connections, a thread each, one process.

Closed loop: a connection sends its next APPLY as soon as the previous
reply arrives, cycling round robin over the workload's targets. Open
loop (``symk_stream``'s writer): UPDATE ``i`` is due at ``window start +
i / rate`` whatever happened before; its latency runs from the due
time, so a stall is charged to every write it delays, and how late the
generator itself sent is recorded separately.

The first ``warmup`` seconds are not recorded. Every ``keep_every``-th
successful reply is kept with its input for the output checks that run
after the window.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.service.client import ServiceClient
from repro.service.protocol import ProtocolError, ServiceError

from .workloads import WRITE_RATE, Instance, Writer


@dataclass
class Request:
    start: float
    end: float
    target: int
    ok: bool


@dataclass
class Window:
    """What the generator saw during one measured window."""

    start: float
    end: float
    reads: List[Request] = field(default_factory=list)
    writes: List[Request] = field(default_factory=list)
    #: Seconds each write was sent after its due time.
    lateness: List[float] = field(default_factory=list)
    #: ``(target, x, y, epoch)`` of kept replies.
    kept: List[Tuple[int, np.ndarray, np.ndarray, Optional[int]]] = field(
        default_factory=list
    )
    errors: List[str] = field(default_factory=list)

    def in_window(self, requests: List[Request]) -> List[Request]:
        return [r for r in requests if self.start <= r.start < self.end]


class _Acked:
    """Last write epoch the server acknowledged (the read fence)."""

    def __init__(self):
        self.epoch = 0


def _closed_loop(
    client: ServiceClient,
    instance: Instance,
    worker: int,
    rng: np.random.Generator,
    window: Window,
    stop_at: float,
    keep_every: int,
    acked: _Acked,
) -> None:
    targets = instance.targets
    i = 0
    while time.monotonic() < stop_at:
        index = (i + worker) % len(targets)
        target = targets[index]
        x = rng.standard_normal(target.n)
        min_epoch = acked.epoch if target.fenced else None
        start = time.monotonic()
        try:
            y = client.apply(target.tensor_id, x, mode=target.mode, min_epoch=min_epoch)
            ok = True
        except (ServiceError, ProtocolError, OSError) as error:
            ok = False
            window.errors.append(f"{target.tensor_id}: {error}")
        end = time.monotonic()
        window.reads.append(Request(start, end, index, ok))
        if ok and i % keep_every == 0 and start >= window.start:
            epoch = client.last_update_epoch if target.fenced else None
            window.kept.append((index, x, y, epoch))
        i += 1


def _open_loop(
    client: ServiceClient, writer: Writer, window: Window, acked: _Acked
) -> None:
    interval = 1.0 / WRITE_RATE
    for i in range(len(writer.weights)):
        due = window.start + i * interval
        delay = due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        sent = time.monotonic()
        window.lateness.append(sent - due)
        try:
            acked.epoch = client.update(
                writer.tensor_id, float(writer.weights[i]), writer.vectors[i]
            )
            ok = True
        except (ServiceError, ProtocolError, OSError) as error:
            ok = False
            window.errors.append(f"update {i}: {error}")
        window.writes.append(Request(due, time.monotonic(), -1, ok))


def run_window(
    clients: List[ServiceClient],
    instance: Instance,
    seed: int,
    warmup: float,
    seconds: float,
    keep_every: int,
) -> Window:
    """Drive every connection through warm-up and one measured window.

    The calling thread runs connection 0; a connection 1, if given, runs
    on one more thread — the closed-loop twin, or the open-loop writer.
    """
    begin = time.monotonic()
    window = Window(start=begin + warmup, end=begin + warmup + seconds)
    acked = _Acked()
    second = None
    if instance.writer is not None:
        second = threading.Thread(
            target=_open_loop,
            args=(clients[1], instance.writer, window, acked),
        )
    elif len(clients) > 1:
        second = threading.Thread(
            target=_closed_loop,
            args=(
                clients[1], instance, 1, np.random.default_rng([seed, 101]),
                window, window.end, keep_every, acked,
            ),
        )
    if second is not None:
        second.start()
    try:
        _closed_loop(
            clients[0], instance, 0, np.random.default_rng([seed, 100]),
            window, window.end, keep_every, acked,
        )
    finally:
        if second is not None:
            second.join()
    return window
