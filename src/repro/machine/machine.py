"""The simulated machine: processors + transport + cost model + ledger."""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.errors import MachineError
from repro.machine.cost import CostModel
from repro.machine.ledger import CommunicationLedger
from repro.obs.instrument import Instrumentation
from repro.machine.processor import Processor
from repro.machine.recovery import RecoveryPolicy
from repro.machine.transport.base import Transport
from repro.machine.transport.simulated import SimulatedTransport
from repro.util.validation import check_positive_int


class Machine:
    """``P`` fully connected processors in the α-β-γ model (paper §3.1).

    The machine composes the three machine-layer services:

    * :attr:`transport` moves bytes (default
      :class:`~repro.machine.transport.simulated.SimulatedTransport`;
      pass a :class:`~repro.machine.transport.shm.SharedMemoryTransport`
      to execute exchanges across OS processes);
    * :attr:`cost` prices round schedules into :attr:`ledger` — counts
      depend only on the schedule, never on the transport;
    * :attr:`instrument` exposes per-phase wall-clock spans and
      degradation warnings;
    * :attr:`recovery` bounds the retry-with-backoff loop the
      collectives run when a delivered payload fails its integrity
      checksum (DESIGN.md §8).

    When :attr:`failover` is enabled (the default) and a non-simulated
    transport dies mid-run — e.g. the shared-memory worker pool loses a
    process — :meth:`fail_over` swaps in a fresh
    :class:`SimulatedTransport`, records a warning through
    :attr:`instrument`, and the round is re-executed there. Delivered
    values are bitwise identical across transports, so the run
    completes correctly, just slower.

    Examples
    --------
    >>> machine = Machine(4)
    >>> machine.P
    4
    >>> [p.rank for p in machine]
    [0, 1, 2, 3]
    >>> machine.transport.name
    'simulated'
    """

    def __init__(
        self,
        n_processors: int,
        transport: Optional[Transport] = None,
        cost_model: Optional[CostModel] = None,
        recovery: Optional[RecoveryPolicy] = None,
        failover: bool = True,
        fusion: bool = True,
    ):
        self.P = check_positive_int(n_processors, "n_processors")
        if transport is None:
            transport = SimulatedTransport(self.P)
        if transport.P != self.P:
            raise MachineError(
                f"transport connects {transport.P} processors, machine"
                f" has {self.P}"
            )
        self.transport = transport
        self.cost = cost_model if cost_model is not None else CostModel()
        self.recovery = recovery if recovery is not None else RecoveryPolicy()
        self.failover = failover
        #: When True (default) the collectives may pack batches of
        #: logical rounds into per-destination fused buffers; the
        #: algorithmic ledger is priced from the unfused schedule
        #: either way (DESIGN.md §11).
        self.fusion = fusion
        #: True once :meth:`fail_over` has replaced a dead transport.
        self.failed_over = False
        self.processors: List[Processor] = [Processor(r) for r in range(self.P)]
        self.ledger = CommunicationLedger(self.P)
        self.instrument = Instrumentation()

    def __iter__(self) -> Iterator[Processor]:
        return iter(self.processors)

    def __len__(self) -> int:
        return self.P

    def __getitem__(self, rank: int) -> Processor:
        if not 0 <= rank < self.P:
            raise MachineError(f"rank {rank} out of range for P={self.P}")
        return self.processors[rank]

    @property
    def verification_required(self) -> bool:
        """Whether delivered payloads must be checksum-verified.

        True when recovery is enabled or any layer of the transport
        stack injects faults. Recomputed per call because failover can
        swap the transport mid-run. The fault-layer walk reads
        ``__dict__`` directly: :class:`FaultInjectingTransport` forwards
        unknown attributes to its inner transport, so ``getattr`` would
        see phantom ``inner`` / ``policy`` attributes on plain
        transports.
        """
        if self.recovery.enabled:
            return True
        transport: Optional[Transport] = self.transport
        while transport is not None:
            policy = transport.__dict__.get("policy")
            if policy is not None and getattr(policy, "enabled", False):
                return True
            transport = transport.__dict__.get("inner")
        return False

    def reset_ledger(self) -> CommunicationLedger:
        """Swap in a fresh ledger, returning the old one.

        Iterative applications (HOPM) use this to measure per-iteration
        communication while accumulating a total.
        """
        old = self.ledger
        self.ledger = CommunicationLedger(self.P)
        return old

    def fail_over(self, reason: str) -> Optional[Transport]:
        """Replace a dead transport with a fresh :class:`SimulatedTransport`.

        Returns the replacement, or ``None`` when failover is disabled
        or the active transport already is the in-process fallback (in
        which case the caller should re-raise the original error). The
        event is recorded as an :meth:`Instrumentation.warn` warning —
        degradation is graceful but never silent.
        """
        if not self.failover or isinstance(self.transport, SimulatedTransport):
            return None
        try:
            self.transport.close()
        except Exception:
            pass  # the transport is already broken; keep degrading
        self.failed_over = True
        self.instrument.warn(
            f"transport {self.transport.name!r} failed"
            f" ({reason}); failing over to 'simulated'"
        )
        self.transport = SimulatedTransport(self.P)
        return self.transport

    def close(self) -> None:
        """Release transport resources (worker processes, segments)."""
        self.transport.close()

    def __enter__(self) -> "Machine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"Machine(P={self.P}, transport={self.transport.name!r})"
