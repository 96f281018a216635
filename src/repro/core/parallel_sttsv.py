"""Parallel STTSV — the paper's Algorithm 5, for every partition and
tensor storage in the repo.

Phases (function ``STTSV`` of the paper):

1. **Gather x** (lines 10–21): the shards of row block ``i`` live on
   its holders ``Q_i``; every holder sends its shard to every other
   consumer of ``i``, so each processor ``p`` ends with the complete
   row blocks ``x[i]`` for ``i ∈ need_p``.
2. **Local compute** (lines 23–36): a block kernel chosen by the
   tensor's storage accumulates partial row blocks ``ŷ[i]``.
3. **Scatter-reduce y** (lines 38–50): the x pairs in reverse — each
   consumer of ``i`` sends every other holder ``p' ∈ Q_i`` the slice
   of its partial ``ŷ[i]`` covering ``p'``'s shard; holders sum what
   they receive, in delivery order, into their final shards
   ``y[i]^{(p)}``.

None of this depends on the tensor's order or on how its blocks are
stored, so one engine serves every partition and storage. The
partition supplies the exchange structure: its holders ``Q`` and
``consumers`` give the per-phase pair maps
(:class:`~repro.core.plans.ExchangePlan`), and its
``exchange_schedule`` gives the rounds — the §7.2.2 permutation
schedule for the order-3 :class:`~repro.core.partition.
TetrahedralPartition`, greedy partial-permutation rounds for the
irregular order-4 :class:`~repro.core.partition_ndim.QuadruplePartition`.

Storage and kernel come from the tensor type (:meth:`load_tensor`):

* :class:`~repro.tensor.packed.PackedSymmetricTensor` — dense
  ``b × b × b`` blocks, :func:`~repro.core.block_kernels.apply_block`;
* :class:`~repro.tensor.ndpacked.NdPackedSymmetricTensor` — dense BCSS
  blocks, :func:`~repro.core.bcss_kernels.apply_block_ndim`;
* :class:`~repro.tensor.sparse.SparseSymmetricTensor` — each
  processor's share as canonical COO entries (O(nnz/P) memory) and an
  O(local-nnz) bincount kernel. Only vector shards cross the network,
  so communication is identical to the dense run; a skewed hypergraph
  can concentrate nonzeros (:meth:`ParallelSTTSV.load_balance`).

All data movement goes through the machine's pluggable transport
(:mod:`repro.machine.transport`): construct the :class:`Machine` with a
:class:`~repro.machine.transport.shm.SharedMemoryTransport` to execute
both exchange phases across ``multiprocessing`` workers over shared
memory. Ledger accounting is schedule-derived and therefore identical
under every transport.

Two communication backends:

* ``CommBackend.POINT_TO_POINT`` — messages only between processors
  with overlapping row blocks, packed one message per neighbor. At
  order 3 this is the §7.2.2 schedule in ``q³/2 + 3q²/2 − 1``
  permutation steps, and per-processor bandwidth is exactly
  ``n(q+1)/(q²+1) − n/P`` per vector — the lower bound's leading term.
* ``CommBackend.ALL_TO_ALL`` — the paper's All-to-All formulation
  (lines 16/44): a uniform personalized collective in which every
  processor ships two shard-slots to *every* other processor (padding
  with zeros where less is needed, exactly the uniform-buffer model the
  paper prices). Per-processor bandwidth is ``2n/(q+1) · (1 − 1/P)``
  per vector — twice the lower bound's leading term (§7.2.2). Only
  symmetric exchange graphs (x pairs == y pairs) have that uniform
  slot, so the order-4 partitions reject it.
"""

from __future__ import annotations

import enum
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core import distribution as dist
from repro.core.bcss_kernels import apply_block_ndim
from repro.core.block_kernels import apply_block
from repro.core.partition import TetrahedralPartition
from repro.core.partition_ndim import QuadruplePartition
from repro.core.plans import ExchangePlan
from repro.core.schedule import ExchangeSchedule
from repro.errors import ConfigurationError, MachineError
from repro.machine.collectives import (
    all_to_all,
    execute_rounds_fused,
    schedule_point_to_point,
)
from repro.machine.machine import Machine
from repro.tensor.bcss import BCSSTensor
from repro.tensor.blocks import extract_block
from repro.tensor.ndpacked import NdPackedSymmetricTensor, pad_ndpacked
from repro.tensor.packed import PackedSymmetricTensor
from repro.tensor.sparse import SparseSymmetricTensor, sparse_scatter

#: Fused batches each point-to-point exchange phase is split into:
#: contiguous runs of permutation rounds, each executed as one fused
#: physical exchange. Four batches per phase give the 80 physical
#: messages per q=2 run that the planner's exact ledger and its
#: α→all-to-all decision flip are calibrated against.
FUSED_BATCHES = 4


def fused_batch_bounds(n_rounds: int) -> List[Tuple[int, int]]:
    """Split ``range(n_rounds)`` into up to :data:`FUSED_BATCHES`
    contiguous, near-equal ``(lo, hi)`` index ranges."""
    n_batches = min(n_rounds, FUSED_BATCHES)
    if n_batches <= 0:
        return []
    base, extra = divmod(n_rounds, n_batches)
    bounds = []
    lo = 0
    for batch in range(n_batches):
        hi = lo + base + (1 if batch < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


class CommBackend(enum.Enum):
    """Communication realization of Algorithm 5's two exchange phases."""

    POINT_TO_POINT = "point-to-point"
    ALL_TO_ALL = "all-to-all"


def pad_tensor(tensor: PackedSymmetricTensor, n_padded: int) -> PackedSymmetricTensor:
    """Embed a packed tensor into a larger zero-padded one (§6.1).

    Padded entries are zero, so STTSV on the padded problem restricted
    to the first ``n`` outputs equals the original STTSV.
    """
    n = tensor.n
    if n_padded < n:
        raise ConfigurationError(f"cannot pad {n} down to {n_padded}")
    if n_padded == n:
        return tensor
    I, J, K = PackedSymmetricTensor.index_arrays(n_padded)
    mask = I < n  # I >= J >= K, so I < n implies the whole triple fits
    old_offsets = (
        I[mask] * (I[mask] + 1) * (I[mask] + 2) // 6
        + J[mask] * (J[mask] + 1) // 2
        + K[mask]
    )
    data = np.zeros(I.size)
    data[mask] = tensor.data[old_offsets]
    return PackedSymmetricTensor(n_padded, data)


class ParallelSTTSV:
    """Executable Algorithm 5 on a simulated machine.

    Parameters
    ----------
    partition:
        The block partition: a :class:`TetrahedralPartition` (order 3,
        one Steiner triple system block per processor) or a
        :class:`~repro.core.partition_ndim.QuadruplePartition` (order
        4, one SQS quadruple per processor).
    n:
        Original tensor dimension. The instance computes the padded
        dimension ``n' = m · b`` with ``b`` the smallest multiple of
        the shard replication that makes ``n' >= n``.
    backend:
        Communication realization (see :class:`CommBackend`).

    Examples
    --------
    >>> from repro.steiner import spherical_steiner_system
    >>> from repro.tensor.dense import random_symmetric
    >>> part = TetrahedralPartition(spherical_steiner_system(2))
    >>> algo = ParallelSTTSV(part, n=30)
    >>> (algo.b, algo.n_padded)
    (6, 30)
    """

    def __init__(
        self,
        partition: Union[TetrahedralPartition, QuadruplePartition],
        n: int,
        backend: CommBackend = CommBackend.POINT_TO_POINT,
    ):
        self.partition = partition
        self.backend = backend
        self.n = n
        replication = partition.steiner.point_replication()
        m = partition.m
        per_row = -(-n // m)  # ceil(n / m): minimal row-block size
        self.b = replication * (-(-per_row // replication))
        self.n_padded = m * self.b
        self.shard = partition.shard_size(self.b)
        # Compiled once per instance: the holder/consumer pair maps,
        # flat gather/scatter index arrays and reusable buffers for
        # both exchange phases.
        self.exchange_plan = ExchangePlan(partition, self.b)
        x_pairs = self.exchange_plan.x_pairs
        symmetric = self.exchange_plan.y_pairs == x_pairs
        if backend is CommBackend.ALL_TO_ALL and not symmetric:
            raise ConfigurationError(
                "the all-to-all variant needs a symmetric exchange graph"
                " (irregular graphs have no uniform All-to-All slot);"
                " use point-to-point"
            )
        self.schedule: ExchangeSchedule = partition.exchange_schedule(x_pairs)
        self.schedule_y: ExchangeSchedule = (
            self.schedule
            if symmetric
            else partition.exchange_schedule(self.exchange_plan.y_pairs)
        )
        # Per-block kernel for dense storage; ``None`` means sparse COO
        # storage. Chosen by :meth:`load_tensor` from the tensor type.
        self._apply_block: Optional[Callable] = None

    # -- data loading -----------------------------------------------------------

    def _check_machine(self, machine: Machine) -> None:
        if machine.P != self.partition.P:
            raise MachineError(
                f"machine has {machine.P} processors, partition needs"
                f" {self.partition.P}"
            )

    def load(self, machine: Machine, tensor, x: np.ndarray) -> None:
        """Place tensor blocks and x shards in processor memories.

        Mirrors the algorithm's preconditions: processor ``p`` holds its
        owned tensor blocks and its vector shards ``x[R_p]^{(p)}`` —
        nothing else. Loading is an out-of-model setup step (the
        paper's algorithms start from this state) and records no
        communication.

        Split into :meth:`load_tensor` + :meth:`load_vector` so callers
        serving many vectors against one resident tensor (iterative
        drivers, the :mod:`repro.service` layer) pay block extraction
        once and only redistribute shards per request.
        """
        self.load_tensor(machine, tensor)
        self.load_vector(machine, x)

    def load_tensor(self, machine: Machine, tensor) -> None:
        """Place each processor's share of the padded tensor (the
        expensive, ``x``-independent half of :meth:`load`): dense
        blocks under ``tensor_blocks``, or for a sparse tensor the
        canonical COO entries of its owned blocks under
        ``sparse_entries``."""
        self._check_machine(machine)
        order = tensor.d if isinstance(tensor, NdPackedSymmetricTensor) else 3
        if order != self.partition.order:
            raise ConfigurationError(
                f"order-{order} tensor on an order-{self.partition.order}"
                f" partition"
            )
        if tensor.n != self.n:
            raise ConfigurationError(
                f"tensor dimension {tensor.n} != configured {self.n}"
            )
        if isinstance(tensor, SparseSymmetricTensor):
            self._apply_block = None
            owner = self.partition.owner_of_block()
            blocks = map(tuple, (tensor.indices // self.b).tolist())
            owners = np.array([owner[blk] for blk in blocks], dtype=np.int64)
            for p in range(machine.P):
                mine = owners == p
                machine[p].store(
                    "sparse_entries", (tensor.indices[mine], tensor.values[mine])
                )
            return
        if isinstance(tensor, NdPackedSymmetricTensor):
            self._apply_block = apply_block_ndim
            padded = pad_ndpacked(tensor, self.n_padded)
            block_at = BCSSTensor.from_ndpacked(padded, self.b).block
        else:
            self._apply_block = apply_block
            block_at = partial(
                extract_block, pad_tensor(tensor, self.n_padded), b=self.b
            )
        for p in range(machine.P):
            blocks = {
                index: block_at(index)
                for index in self.partition.owned_blocks(p)
            }
            machine[p].store("tensor_blocks", blocks)

    def load_vector(self, machine: Machine, x: np.ndarray) -> None:
        """Distribute the vector shards ``x[R_p]^{(p)}`` (the cheap,
        per-request half of :meth:`load`; tensor blocks stay resident)."""
        self._check_machine(machine)
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ConfigurationError(
                f"vector must have shape ({self.n},), got {x.shape}"
            )
        x_padded = dist.pad_vector(x, self.n_padded)
        shards = dist.initial_shards(self.partition, x_padded, self.b)
        for p in range(machine.P):
            machine[p].store("x_shards", shards[p])

    # -- exchange phases ---------------------------------------------------------------

    def _pad_uniform(self, payload: Optional[np.ndarray]) -> np.ndarray:
        """Pad a payload to the uniform 2-shard slot of the All-to-All
        model (pairs share at most two row blocks)."""
        slot = 2 * self.shard
        out = np.zeros(slot)
        if payload is not None:
            out[: payload.size] = payload
        return out

    def _exchange(
        self,
        machine: Machine,
        schedule: ExchangeSchedule,
        payload_for: Callable[[int, int], Optional[np.ndarray]],
        tag: str,
    ) -> List[Dict[int, np.ndarray]]:
        """Move one phase's payloads; returns ``received[dst][src]``.

        Point-to-point labels the phase's rounds once and runs them as
        :data:`FUSED_BATCHES` contiguous
        :func:`~repro.machine.collectives.execute_rounds_fused` batches
        (plain per-round execution when the machine has fusion off).
        Deliveries land in schedule-round order, the order
        :meth:`ExchangePlan.reduce_y` sums them in.
        """
        P = machine.P
        if self.backend is CommBackend.ALL_TO_ALL:
            sendbufs = [
                {
                    dst: self._pad_uniform(payload_for(src, dst))
                    for dst in range(P)
                    if dst != src
                }
                for src in range(P)
            ]
            return all_to_all(machine, sendbufs, tag=tag)
        labeled = schedule_point_to_point(schedule.rounds, payload_for, tag=tag)
        received: List[Dict[int, np.ndarray]] = [{} for _ in range(P)]
        for lo, hi in fused_batch_bounds(len(labeled)):
            batch = labeled[lo:hi]
            for (_, transfers), delivered in zip(
                batch, execute_rounds_fused(machine, batch, tag)
            ):
                for transfer, payload in zip(transfers, delivered):
                    received[transfer.dest][transfer.source] = payload
        return received

    def _exchange_x(self, machine: Machine) -> None:
        """Phase 1: gather the full row blocks ``x[need_p]`` everywhere."""
        plan = self.exchange_plan
        for p in range(machine.P):
            plan.stage_x(p, machine[p].load("x_shards"))
        received = self._exchange(
            machine, self.schedule, plan.x_payload, "x-exchange"
        )
        for p in range(machine.P):
            machine[p].store("x_full", plan.unpack_x(p, received[p]))

    def _exchange_y(self, machine: Machine) -> None:
        """Phase 3: scatter-reduce the partial ``ŷ[need_p]`` into shards."""
        plan = self.exchange_plan
        for p in range(machine.P):
            plan.stage_y(p, machine[p].load("y_partial"))
        received = self._exchange(
            machine, self.schedule_y, plan.y_payload, "y-exchange"
        )
        for p in range(machine.P):
            machine[p].store("y_shards", plan.reduce_y(p, received[p]))

    # -- phase 2: local compute ----------------------------------------------------------

    def _compute_processor(self, machine: Machine, p: int) -> None:
        """Phase-2 work of one simulated processor (touches only
        processor ``p``'s memory)."""
        proc = machine[p]
        x_full = proc.load("x_full")
        b = self.b
        if self._apply_block is None:
            # O(local-nnz) scatter over a padded-length view of x whose
            # only populated rows are need_p — exactly what the
            # exchange delivered (ownership puts every entry there).
            local_x = np.zeros(self.n_padded)
            for i, row in x_full.items():
                local_x[i * b : (i + 1) * b] = row
            local_y = sparse_scatter(*proc.load("sparse_entries"), local_x)
            y_partial = {
                i: local_y[i * b : (i + 1) * b].copy()
                for i in self.partition.need[p]
            }
        else:
            y_partial = {i: np.zeros(b) for i in self.partition.need[p]}
            for index, block in proc.load("tensor_blocks").items():
                self._apply_block(index, block, x_full, y_partial)
        proc.store("y_partial", y_partial)

    def _local_compute(self, machine: Machine) -> None:
        for p in range(machine.P):
            self._compute_processor(machine, p)

    # -- driver --------------------------------------------------------------------------------

    def run(self, machine: Machine) -> None:
        """Execute all three phases, in order, on the calling thread;
        results stay distributed as ``y_shards`` in each processor's
        memory.

        Each phase is wrapped in an instrumentation span (nested under
        one ``sttsv:run`` parent), so traces and the backend benchmarks
        can attribute wall-clock time to gather / compute / reduce
        regardless of which transport moves the bytes — and, when the
        process-wide tracer is enabled, each phase and every
        communication round it executes is stamped with the trace ids
        of the request (or CLI run) that caused it.
        """
        with machine.instrument.span("sttsv:run"):
            with machine.instrument.span("sttsv:exchange-x"):
                self._exchange_x(machine)
            with machine.instrument.span("sttsv:local-compute"):
                self._local_compute(machine)
            with machine.instrument.span("sttsv:exchange-y"):
                self._exchange_y(machine)

    def gather_result(self, machine: Machine) -> np.ndarray:
        """Reassemble the distributed ``y`` (verification step, outside
        the communication model — the algorithm's contract ends with
        ``y`` distributed exactly like ``x`` was)."""
        shards = [machine[p].load("y_shards") for p in range(machine.P)]
        return dist.assemble_vector(
            self.partition, shards, self.b, original_length=self.n
        )

    # -- accounting ---------------------------------------------------------------------------

    def words_per_processor(self) -> List[int]:
        """Exact per-processor send volume over both phases (the
        ledger's ``words_sent``) for any partition: the pair maps'
        message sizes, or the uniform All-to-All slots."""
        P = self.partition.P
        if self.backend is CommBackend.ALL_TO_ALL:
            return [self.expected_words_per_processor()] * P
        words = [0] * P
        plan = self.exchange_plan
        for pairs in (plan.x_pairs, plan.y_pairs):
            for (src, _), blocks in pairs.items():
                words[src] += len(blocks) * self.shard
        return words

    def expected_words_per_processor(self) -> int:
        """The paper's order-3 closed-form per-processor send volume
        over both phases (use :meth:`words_per_processor` at order 4).

        Point-to-point: ``2 · r · (λ₁ − 1) · shard`` — equals
        ``2 (n(q+1)/(q²+1) − n/P)`` for the spherical family (§7.2.2).
        All-to-All: ``2 · (P − 1) · 2 · shard`` — equals
        ``4n/(q+1) (1 − 1/P)``.
        """
        if self.backend is CommBackend.POINT_TO_POINT:
            lambda_point = self.partition.steiner.point_replication()
            per_phase = self.partition.r * (lambda_point - 1) * self.shard
        else:
            per_phase = (self.partition.P - 1) * 2 * self.shard
        return 2 * per_phase

    def flops_per_processor(self, p: int) -> int:
        """Ternary multiplications processor ``p`` performs (§7.1)."""
        return self.partition.ternary_multiplications(p, self.b)

    def load_balance(self, machine: Machine) -> Dict[str, float]:
        """Realized nonzero distribution across processors (sparse
        storage; the paper's balance analysis assumes dense blocks)."""
        counts = [
            machine[p].load("sparse_entries")[1].size for p in range(machine.P)
        ]
        total = sum(counts)
        return {
            "total_nnz": float(total),
            "max_nnz": float(max(counts)),
            "mean_nnz": total / machine.P,
            "imbalance": (max(counts) / (total / machine.P)) if total else 1.0,
        }
