"""Pluggable data-movement backends for the simulated machine.

``Transport`` is the seam every scaling backend plugs into: the
collectives in :mod:`repro.machine.collectives` compute a round's
transfer *schedule*, price it into the ledger through the
:class:`~repro.machine.cost.CostModel`, and hand the same schedule to
``machine.transport`` to move the bytes. Adding a backend (MPI, async
sockets, multi-node) means implementing ``exchange`` + ``close`` and
registering a constructor here — no algorithm or ledger code changes.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro._lazy import lazy_exports
from repro.errors import ConfigurationError
from repro.machine.transport.base import Transport
from repro.machine.transport.faults import FaultInjectingTransport, FaultPolicy
from repro.machine.transport.simulated import SimulatedTransport

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.machine.transport.base": ("Transfer", "check_transfers", "payload_checksum"),
    "repro.machine.transport.faults": ("FaultStats",),
    "repro.machine.transport.fusion": (
        "FusedGroup",
        "FusionPlan",
        "FusionStats",
        "fusible_payload",
    ),
    "repro.machine.transport.shm": ("SharedMemoryTransport",),
})


def _shared_memory_transport(n_processors: int, **kwargs) -> Transport:
    """The ``"shm"`` backend, built by its first user: ``multiprocessing``
    and its shared memory load only in a process that runs one."""
    from repro.machine.transport.shm import SharedMemoryTransport

    return SharedMemoryTransport(n_processors, **kwargs)


#: Registry of constructible backends, keyed by CLI name.
TRANSPORTS: Dict[str, Callable[..., Transport]] = {
    "simulated": SimulatedTransport,
    "shm": _shared_memory_transport,
}


def make_transport(
    name: str,
    n_processors: int,
    faults: Optional[FaultPolicy] = None,
    **kwargs,
) -> Transport:
    """Construct a registered transport by name.

    Parameters
    ----------
    name:
        One of :data:`TRANSPORTS` (``"simulated"``, ``"shm"``).
    n_processors:
        Machine size the transport connects.
    faults:
        Optional :class:`FaultPolicy`; when given (and enabled) the
        backend is wrapped in a :class:`FaultInjectingTransport` so
        the round-recovery path is exercised end to end.
    kwargs:
        Backend-specific options (e.g. ``n_workers`` for ``"shm"``).
    """
    try:
        factory = TRANSPORTS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown transport {name!r}; available:"
            f" {', '.join(sorted(TRANSPORTS))}"
        ) from None
    transport = factory(n_processors, **kwargs)
    if faults is not None and faults.enabled:
        transport = FaultInjectingTransport(transport, faults)
    return transport


__all__ = [
    "Transfer",
    "Transport",
    "TRANSPORTS",
    "FaultInjectingTransport",
    "FaultPolicy",
    "FaultStats",
    "FusedGroup",
    "FusionPlan",
    "FusionStats",
    "fusible_payload",
    "SharedMemoryTransport",
    "SimulatedTransport",
    "check_transfers",
    "make_transport",
    "payload_checksum",
]
