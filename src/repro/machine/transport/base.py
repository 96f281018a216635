"""The Transport protocol: *who moves the bytes* of a communication round.

The machine layer separates three concerns that the paper's model keeps
distinct as well:

* **Transport** (this protocol) — actually delivering payloads between
  processors, one synchronous round at a time. Implementations range
  from an in-process copy loop (:class:`~repro.machine.transport.
  simulated.SimulatedTransport`) to worker processes copying through
  OS shared memory (:class:`~repro.machine.transport.shm.
  SharedMemoryTransport`).
* **CostModel** (:mod:`repro.machine.cost`) — pricing the *schedule* of
  a round into the :class:`~repro.machine.ledger.CommunicationLedger`.
  Costs are a pure function of the transfer list, so word / message /
  round counts are identical no matter which transport moved the bytes.
* **Instrumentation** (:mod:`repro.obs.instrument`) — wall-clock
  spans around phases, for benchmarks and traces.

A transport receives the full round as an ordered list of
:class:`Transfer` records and returns the delivered arrays in the same
order. Deliveries must be *copies*: mutating a sender-side payload
after ``exchange`` returns must never be observable at the receiver.
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass
from typing import List, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np

from repro.errors import MachineError


@dataclass(frozen=True)
class Transfer:
    """One scheduled point-to-point payload of a synchronous round.

    Attributes
    ----------
    source, dest:
        Processor ranks; ``source != dest`` (local movement never goes
        through a transport).
    payload:
        The array to deliver. May be empty (zero words); collectives
        decide whether such transfers are scheduled at all.
    """

    source: int
    dest: int
    payload: np.ndarray


@runtime_checkable
class Transport(Protocol):
    """Minimal interface every backend implements.

    Attributes
    ----------
    name:
        Stable backend identifier (``"simulated"``, ``"shm"``) used by
        CLI flags and benchmark reports.
    P:
        Number of processors the transport connects.
    """

    name: str
    P: int

    def exchange(self, transfers: Sequence[Transfer]) -> List[np.ndarray]:
        """Execute one synchronous round.

        Returns one delivered array per transfer, in input order; each
        is an independent copy of the corresponding payload.
        """
        ...

    def close(self) -> None:
        """Release any resources (worker processes, shared segments).

        Must be idempotent; the in-process transport makes it a no-op.
        """
        ...


def payload_checksum(array: np.ndarray) -> int:
    """CRC-32 over a payload's dtype, shape, and bytes.

    This is the integrity fingerprint ``execute_round`` computes from
    the schedule before any transport moves bytes, and again over each
    delivered array afterwards: a drop (zeroed buffer), corruption
    (flipped bits), or duplication (doubled bytes, hence a different
    shape) all change the digest, so a mismatch is sufficient evidence
    to re-execute the transfer.

    The digest is ``crc32(tobytes, crc32(repr(shape), crc32(dtype.str)))``;
    the dtype/shape prefix is memoised, and a C-contiguous array is
    read straight from its buffer instead of through a copy.
    """
    digest = _prefix_checksum(array.dtype, array.shape)
    if array.flags.c_contiguous:
        return zlib.crc32(array, digest)
    return zlib.crc32(array.tobytes(), digest)


@functools.lru_cache(maxsize=1024)
def _prefix_checksum(dtype: np.dtype, shape: Tuple[int, ...]) -> int:
    """CRC-32 of a payload's dtype string followed by its shape repr."""
    return zlib.crc32(repr(shape).encode(), zlib.crc32(dtype.str.encode()))


def check_transfers(P: int, transfers: Sequence[Transfer]) -> None:
    """Validate ranks of a round's transfers against ``P`` processors."""
    for t in transfers:
        if not (0 <= t.source < P and 0 <= t.dest < P):
            raise MachineError(
                f"transfer {t.source}->{t.dest} references unknown"
                f" processor (P={P})"
            )
        if t.source == t.dest:
            raise MachineError(f"transfer at rank {t.source} is a self-send")
