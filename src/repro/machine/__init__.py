"""Simulated distributed-memory machine in the α-β-γ (MPI) model.

The paper's model (§3.1): ``P`` processors, each with private local
memory, connected by a fully connected network with bidirectional
links; a processor can send and receive at most one message at a time.
Communication cost = latency (α · #messages) + bandwidth (β · #words);
the paper analyses bandwidth (word counts), which this simulator
reproduces *exactly* — every word that crosses between two simulated
processors is recorded in a :class:`~repro.machine.ledger.CommunicationLedger`.

Design notes
------------
The machine layer is split into three pluggable services:

* **Transport** (:mod:`repro.machine.transport`) — moves the bytes.
  :class:`SimulatedTransport` is the sequential, deterministic default
  (bit-for-bit the seed simulator's behavior);
  :class:`SharedMemoryTransport` executes every exchange round across
  ``multiprocessing`` workers over OS shared-memory buffers.
* **CostModel** (:mod:`repro.machine.cost`) — prices each round's
  transfer *schedule* into the ledger before any bytes move, so word /
  message / round counts are identical under every transport. It also
  carries the α-β-γ parameters and time estimates.
* **Instrumentation** (:mod:`repro.obs.instrument`) — per-phase
  wall-clock spans consumed by traces and benchmarks.

SPMD algorithms are expressed as loops over per-processor state with
all cross-processor data movement funneled through the collectives in
:mod:`repro.machine.collectives`. Nothing stops Python code from
peeking at another processor's memory — instead, correctness is
enforced by the test suite, which verifies that algorithms produce
correct results *and* that their ledgers match the paper's closed-form
communication costs (an algorithm that cheated by peeking would show a
word count below the proven lower bound, which a test asserts cannot
happen).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.machine.message": ("Message",),
    "repro.machine.ledger": ("CommunicationLedger", "RoundRecord"),
    "repro.machine.processor": ("Processor",),
    "repro.machine.machine": ("Machine",),
    "repro.machine.cost": ("CostModel",),
    "repro.obs.instrument": ("Instrumentation", "PhaseTiming"),
    "repro.machine.recovery": ("RecoveryPolicy",),
    "repro.machine.transport.base": ("Transfer", "Transport", "payload_checksum"),
    "repro.machine.transport.faults": (
        "FaultInjectingTransport",
        "FaultPolicy",
        "FaultStats",
    ),
    "repro.machine.transport.fusion": (
        "FusedGroup",
        "FusionPlan",
        "FusionStats",
        "fusible_payload",
    ),
    "repro.machine.transport.shm": ("SharedMemoryTransport",),
    "repro.machine.transport.simulated": ("SimulatedTransport",),
    "repro.machine.transport": ("TRANSPORTS", "make_transport"),
    "repro.machine.auditing": ("AuditReport", "audit_ledger"),
    "repro.machine.collectives": (
        "all_to_all",
        "all_to_all_words",
        "execute_round",
        "execute_rounds_fused",
        "reduce_scatter",
        "all_reduce_vector",
        "point_to_point_rounds",
        "schedule_point_to_point",
        "all_gather",
        "all_reduce_scalar",
        "broadcast",
    ),
})

__all__ = [
    "AuditReport",
    "audit_ledger",
    "reduce_scatter",
    "all_reduce_vector",
    "Message",
    "CommunicationLedger",
    "RoundRecord",
    "Processor",
    "Machine",
    "CostModel",
    "Instrumentation",
    "PhaseTiming",
    "FaultInjectingTransport",
    "FaultPolicy",
    "FaultStats",
    "FusedGroup",
    "FusionPlan",
    "FusionStats",
    "fusible_payload",
    "RecoveryPolicy",
    "payload_checksum",
    "SharedMemoryTransport",
    "SimulatedTransport",
    "Transfer",
    "Transport",
    "TRANSPORTS",
    "make_transport",
    "all_to_all",
    "all_to_all_words",
    "execute_round",
    "execute_rounds_fused",
    "point_to_point_rounds",
    "schedule_point_to_point",
    "all_gather",
    "all_reduce_scalar",
    "broadcast",
]
