"""Parallel STTSV — the paper's Algorithm 5, for every partition and
tensor storage in the repo.

Phases (function ``STTSV`` of the paper):

1. **Gather x** (lines 10–21): the shards of row block ``i`` live on
   its holders ``Q_i``; every holder sends its shard to every other
   consumer of ``i``, so each processor ``p`` ends with the complete
   row blocks ``x[i]`` for ``i ∈ need_p``.
2. **Local compute** (lines 23–36): the stacked block kernel (or the
   sparse kernel) accumulates partial row blocks ``ŷ[i]``.
3. **Scatter-reduce y** (lines 38–50): the x pairs in reverse — each
   consumer of ``i`` sends every other holder ``p' ∈ Q_i`` the slice
   of its partial ``ŷ[i]`` covering ``p'``'s shard; holders sum what
   they receive, in delivery order, into their final shards
   ``y[i]^{(p)}``.

None of this depends on the tensor's order or on how its blocks are
stored, so one engine serves every partition and storage. A partition
is anything with this one protocol:

* ``m``, ``P`` — row blocks and processors; ``order`` — the tensor
  order it partitions; ``steiner``, ``r`` — the generating design and
  its block size;
* ``R[p]`` / ``Q[i]`` — the row blocks whose shards ``p`` holds, and
  the holders of row block ``i``; ``need[p]`` / ``consumers[i]`` — the
  row blocks ``p`` computes on, and the processors computing on ``i``
  (``R`` and ``Q`` again wherever no extra row block is fetched);
* ``shard_size(b)``, ``shard_owner_position(i, p)`` — the vector
  sharding;
* ``owned_blocks(p)`` — the block assignment, and its inverse
  ``owner_of_block()``, which only sparse (order-3) storage reads;
* ``exchange_schedule(pairs)`` — the rounds of one phase's pair map
  (:class:`~repro.core.plans.ExchangePlan` builds the pair maps from
  ``Q`` and ``consumers``).

Three partitions implement it: the order-2
:class:`~repro.matrix.partition.TriangleBlockPartition` (SYMV;
permutation rounds of the regular 2-design exchange graph), the
order-3 :class:`~repro.core.partition.TetrahedralPartition` (the
§7.2.2 permutation schedule) and the irregular order-4
:class:`~repro.core.partition_ndim.QuadruplePartition` (greedy
partial-permutation rounds).

Storage comes from the tensor type (:meth:`load_tensor`), and the
kernel from what the machine's processors hold (:meth:`storage`):

* :class:`~repro.tensor.ndpacked.NdPackedSymmetricTensor` (and its
  order-3 case :class:`~repro.tensor.packed.PackedSymmetricTensor`) —
  the zero-padded tensor's dense ``(b,)*order`` blocks in one
  allocation ordered by (block case, owner) (:class:`BlockStack`),
  each processor holding a view of its own blocks per case; local
  compute is one :func:`~repro.core.block_kernels.apply_case` pass per
  case over every processor's blocks (:meth:`ParallelSTTSV.block_products`);
* :class:`~repro.tensor.sparse.SparseSymmetricTensor` — each
  processor's share as canonical COO entries (O(nnz/P) memory) and an
  O(local-nnz) bincount kernel. Only vector shards cross the network,
  so communication is identical to the dense run; a skewed hypergraph
  can concentrate nonzeros (:meth:`ParallelSTTSV.load_balance`).

``x`` is a vector ``(n,)`` or ``c`` columns ``(n, c)`` (SYMM is SYMV
with ``B`` as ``x``, symmetric MTTKRP is STTSV with the factor matrix):
every shard, row block and message then carries ``(rows, c)`` values
through the same rounds, so a ``c``-column run moves ``c`` times the
words in the same rounds and physical messages.

Everything about the exchanges that does not depend on ``x`` is built
once: the validated rounds and staging and shard maps once per engine
(:class:`ExchangePhase`); each phase's send buffer, its one fused
batch's :class:`~repro.machine.transport.fusion.FusionPlan` and the
priced ledger records once per trailing shape of ``x``, on first use
(:class:`Batch`; the vector's are kept, and one column shape at a
time). A run only stages payloads, executes each phase as one fused
exchange and unpacks.

All data movement goes through the machine's pluggable transport
(:mod:`repro.machine.transport`): construct the :class:`Machine` with a
:class:`~repro.machine.transport.shm.SharedMemoryTransport` to execute
both exchange phases across ``multiprocessing`` workers over shared
memory. Ledger accounting is schedule-derived and therefore identical
under every transport.

Two communication backends (word counts per vector; ``c`` columns
move ``c`` times as many):

* ``CommBackend.POINT_TO_POINT`` — messages only between processors
  with overlapping row blocks, packed one message per neighbor. At
  order 3 this is the §7.2.2 schedule in ``q³/2 + 3q²/2 − 1``
  permutation steps, and per-processor bandwidth is exactly
  ``n(q+1)/(q²+1) − n/P`` per vector — the lower bound's leading term.
* ``CommBackend.ALL_TO_ALL`` — the paper's All-to-All formulation
  (lines 16/44): a uniform personalized collective in which every
  processor ships one slot to *every* other processor, as wide as the
  largest pair message (two shards at order 3, one at order 2), padding
  with zeros where less is needed — exactly the uniform-buffer model the
  paper prices. At order 3 per-processor bandwidth is
  ``2n/(q+1) · (1 − 1/P)`` per vector — twice the lower bound's leading
  term (§7.2.2). Only symmetric exchange graphs (x pairs == y pairs)
  have that uniform slot, so the order-4 partitions reject it.

Between runs ``x_shards``/``y_shards`` stay distributed; iterative
drivers (:mod:`repro.apps`) use them only through ``reduce_shards``,
``update_x`` and ``gather_x``, so one driver serves every engine.
"""

from __future__ import annotations

import enum
import math
import operator
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.block_kernels import BlockCase, apply_stacks, case_stacks
from repro.core.plans import ExchangePlan, Staging
from repro.core.schedule import ExchangeSchedule
from repro.errors import ConfigurationError, MachineError
from repro.machine.collectives import (
    LabeledRound,
    all_reduce_scalar,
    execute_rounds_fused,
    schedule_point_to_point,
)
from repro.machine.cost import CostModel
from repro.machine.ledger import CommunicationLedger
from repro.machine.machine import Machine
from repro.machine.transport import FusionPlan, Transfer
from repro.tensor.bcss import gather_blocks
from repro.tensor.ndpacked import pad_ndpacked
from repro.tensor.sparse import SparseSymmetricTensor, sparse_scatter

#: One processor's vector shards, ``{row block i: its shard of v[i]}``.
Shards = Dict[int, np.ndarray]

class CommBackend(enum.Enum):
    """Communication realization of Algorithm 5's two exchange phases."""

    POINT_TO_POINT = "point-to-point"
    ALL_TO_ALL = "all-to-all"

    @classmethod
    def _missing_(cls, value):
        raise ConfigurationError(
            f"variant must be one of {tuple(b.value for b in cls)},"
            f" got {value!r}"
        )


class Batch(NamedTuple):
    """One phase bound to values of one trailing shape: the phase's
    rounds with every transfer's payload a fixed 1-D slice of ``send``
    (``(len(gather), *shape)``, the members' rows back to back), run
    as one fused batch through ``fusion``."""

    rounds: List[LabeledRound]
    fusion: FusionPlan
    send: np.ndarray


class ExchangePhase(NamedTuple):
    """One exchange phase, built once per engine.

    ``rounds`` are the phase's validated rounds as ``(label, [(src,
    dst), ...])``; ``words`` is each transfer's payload length in rows.
    A run fills its shape's :class:`Batch` send buffer with one
    ``np.take`` through ``gather``, executes the batch, and unpacks the
    delivered stream through ``take``/``put`` (see
    :meth:`~repro.core.plans.ExchangePlan.phase_maps`). ``batches``
    holds the phase bound to the vector shape ``()`` and to the latest
    column shape run.
    """

    tag: str
    rounds: List[Tuple[str, List[Tuple[int, int]]]]
    words: List[int]
    gather: np.ndarray
    take: np.ndarray
    put: np.ndarray
    batches: Dict[Tuple[int, ...], Batch]

    def bind(self, shape: Tuple[int, ...]) -> Batch:
        """The phase bound to values of trailing shape ``shape``: its
        send buffer, each transfer's payload a 1-D view of its rows
        there, and the batch's fusion plan — built on the shape's first
        use, then reused. A new column shape replaces the previous one;
        the vector binding stays."""
        batch = self.batches.get(shape)
        if batch is None:
            if shape:
                for old in [key for key in self.batches if key]:
                    del self.batches[old]
            send = np.zeros((self.gather.size, *shape))
            bounds = np.cumsum(self.words)[:-1] * math.prod(shape)
            payloads = iter(np.split(send.reshape(-1), bounds))
            rounds: List[LabeledRound] = [
                (label, [Transfer(src, dst, next(payloads)) for src, dst in pairs])
                for label, pairs in self.rounds
            ]
            fusion = FusionPlan([t for _, transfers in rounds for t in transfers])
            batch = self.batches[shape] = Batch(rounds, fusion, send)
        return batch


class BlockStack(NamedTuple):
    """Every processor's dense blocks of one case, built once per engine.

    ``indices``: the block tuples in allocation order, owner by owner;
    processor ``p``'s are ``indices[bounds[p]:bounds[p + 1]]``, at rows
    ``lo + bounds[p]`` on of the block allocation. ``rows[r, s]``: the
    full-layout positions (in the exchange plan's ``xf`` and ``yp``) of
    block ``s``'s run-``r`` row block on its owner.
    """

    case: BlockCase
    indices: List[Tuple[int, ...]]
    lo: int
    bounds: List[int]
    rows: np.ndarray


class ParallelSTTSV:
    """Executable Algorithm 5 on a simulated machine, for a vector
    ``x`` or ``c`` columns of it at once (:meth:`load_vector`): SYMM on
    an order-2 partition, symmetric MTTKRP at order 3.

    Parameters
    ----------
    partition:
        The block partition, one Steiner block per processor: any
        implementation of the partition protocol in the module
        docstring (orders 2, 3 and 4).
    n:
        Original tensor dimension. The instance computes the padded
        dimension ``n' = m · b`` with ``b`` the smallest multiple of
        the shard replication that makes ``n' >= n``.
    backend:
        Communication realization (see :class:`CommBackend`).

    Examples
    --------
    >>> from repro.core.partition import TetrahedralPartition
    >>> from repro.steiner import spherical_steiner_system
    >>> part = TetrahedralPartition(spherical_steiner_system(2))
    >>> algo = ParallelSTTSV(part, n=30)
    >>> (algo.b, algo.n_padded)
    (6, 30)
    """

    def __init__(
        self,
        partition,
        n: int,
        backend: CommBackend = CommBackend.POINT_TO_POINT,
    ):
        self.partition = partition
        self.backend = CommBackend(backend)
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
        if self.backend is CommBackend.ALL_TO_ALL and not symmetric:
            raise ConfigurationError(
                "the all-to-all variant needs a symmetric exchange graph"
                " (irregular graphs have no uniform All-to-All slot);"
                " use point-to-point"
            )
        # The All-to-All's uniform slot: the largest pair message.
        self._slot = self.shard * max(map(len, x_pairs.values()), default=0)
        self.schedule: ExchangeSchedule = partition.exchange_schedule(x_pairs)
        self.schedule_y: ExchangeSchedule = (
            self.schedule
            if symmetric
            else partition.exchange_schedule(self.exchange_plan.y_pairs)
        )
        self.phase_x = self._build_phase("x", "x-exchange", self.schedule)
        self.phase_y = self._build_phase("y", "y-exchange", self.schedule_y)
        self.block_stacks = self._build_stacks()
        self._allocated = sum(stack.bounds[-1] for stack in self.block_stacks)

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

    def check_tensor(self, tensor) -> None:
        """Raise unless ``tensor`` has this engine's order and ``n``
        (what :meth:`load_tensor` checks before placing anything)."""
        if tensor.d != self.partition.order:
            raise ConfigurationError(
                f"order-{tensor.d} tensor on an order-{self.partition.order}"
                f" partition"
            )
        if tensor.n != self.n:
            raise ConfigurationError(
                f"tensor dimension {tensor.n} != configured {self.n}"
            )

    def load_tensor(self, machine: Machine, tensor) -> None:
        """Place each processor's share of the padded tensor (the
        expensive, ``x``-independent half of :meth:`load`): views of
        its dense blocks under ``tensor_blocks`` (``{case: view}``
        into one allocation ordered by :attr:`block_stacks`), or for a
        sparse tensor the canonical COO entries of its owned blocks
        under ``sparse_entries``. The other key is dropped, so a
        processor only ever holds the last tensor loaded."""
        self._check_machine(machine)
        self.check_tensor(tensor)
        if isinstance(tensor, SparseSymmetricTensor):
            owner = self.partition.owner_of_block()
            blocks = map(tuple, (tensor.indices // self.b).tolist())
            owners = np.array([owner[blk] for blk in blocks], dtype=np.int64)
            for p in range(machine.P):
                mine = owners == p
                machine[p].discard("tensor_blocks")
                machine[p].store(
                    "sparse_entries", (tensor.indices[mine], tensor.values[mine])
                )
            return
        blocks = gather_blocks(
            pad_ndpacked(tensor, self.n_padded),
            [index for stack in self.block_stacks for index in stack.indices],
            self.b,
        )
        for p in range(machine.P):
            machine[p].discard("sparse_entries")
            machine[p].store(
                "tensor_blocks",
                {
                    stack.case: blocks[
                        stack.lo + stack.bounds[p] : stack.lo + stack.bounds[p + 1]
                    ]
                    for stack in self.block_stacks
                },
            )

    def tensor_nbytes(self) -> int:
        """Bytes of the one block allocation a dense :meth:`load_tensor`
        makes: every owned block, ``b^m`` words each."""
        return 8 * self._allocated * self.b**self.partition.order

    def storage(self, machine: Machine) -> str:
        """What the machine's processors hold, and so which kernel
        :meth:`run` uses: ``"dense"`` blocks or ``"sparse"`` entries."""
        return "dense" if "tensor_blocks" in machine[0].memory else "sparse"

    def load_vector(self, machine: Machine, x: np.ndarray) -> None:
        """Distribute the vector shards ``x[R_p]^{(p)}`` (the cheap,
        per-request half of :meth:`load`; tensor blocks stay resident).
        ``x`` is a vector ``(n,)`` or ``c ≥ 1`` columns ``(n, c)``;
        :meth:`run` and :meth:`gather_result` keep its shape."""
        self._check_machine(machine)
        x = np.asarray(x, dtype=np.float64)
        if x.ndim not in (1, 2) or x.shape[0] != self.n or 0 in x.shape:
            raise ConfigurationError(
                f"x must have shape ({self.n},) or ({self.n}, c) with"
                f" c >= 1, got {x.shape}"
            )
        plan = self.exchange_plan
        x_padded = np.zeros((self.n_padded, *x.shape[1:]))
        x_padded[: self.n] = x
        shards = plan.split_shards(x_padded[plan.load_index])
        for p in range(machine.P):
            machine[p].store("x_shards", shards[p])

    # -- exchange phases ---------------------------------------------------------------

    def _build_phase(
        self, phase: str, tag: str, schedule: ExchangeSchedule
    ) -> ExchangePhase:
        """Lay out one phase's transfers, batches and fusion plans.

        Point-to-point is the schedule's validated permutation rounds
        (labels ``{tag}:round{i}``); All-to-All is the ``P − 1`` shift
        rounds (labels ``{tag}:shift{s}``) of one uniform slot per
        ordered pair. Either way the phase runs as one fused batch:
        Algorithm 5's two exchanges are two fused physical exchanges.
        Deliveries land in round order, the order the y reduction sums
        them in. Send buffers and fusion plans wait for a trailing
        shape (:meth:`ExchangePhase.bind`).
        """
        plan = self.exchange_plan
        P = self.partition.P
        if self.backend is CommBackend.ALL_TO_ALL:
            width: Optional[int] = self._slot
            rounds = [
                (f"{tag}:shift{shift}", [(src, (src + shift) % P) for src in range(P)])
                for shift in range(1, P)
            ]
        else:
            width = None
            payload_of = plan.x_payload if phase == "x" else plan.y_payload
            rounds = [
                (label, [(t.source, t.dest) for t in transfers])
                for label, transfers in schedule_point_to_point(
                    schedule.rounds, payload_of, tag=tag
                )
            ]
        members = [pair for _, pairs in rounds for pair in pairs]
        gather, take, put, words = plan.phase_maps(phase, members, width)
        return ExchangePhase(tag, rounds, words, gather, take, put, {})

    def _build_stacks(self) -> List[BlockStack]:
        """Group every owned block by case, then owner (the allocation
        order of :meth:`load_tensor`), with each block's row positions
        in its owner's full layout."""
        plan, b, P = self.exchange_plan, self.b, self.partition.P
        owned = [
            [tuple(int(v) for v in index) for index in self.partition.owned_blocks(p)]
            for p in range(P)
        ]
        owners = np.repeat(np.arange(P), [len(blocks) for blocks in owned])
        indices = [index for blocks in owned for index in blocks]
        offsets = np.array(
            [
                [plan.full_offset[p] + plan.order[p].index(v) * b for v in index]
                for p, index in zip(owners, indices)
            ],
            dtype=np.intp,
        )
        stacks, lo = [], 0
        for case, members, rows in case_stacks(indices, offsets, b):
            bounds = np.cumsum([0, *np.bincount(owners[members], minlength=P)]).tolist()
            stacks.append(BlockStack(case, [indices[s] for s in members], lo, bounds, rows))
            lo += bounds[-1]
        return stacks

    def _exchange(
        self, machine: Machine, phase: ExchangePhase, source: np.ndarray
    ) -> np.ndarray:
        """Stage one phase's payloads from ``source`` into the send
        buffer of its trailing shape, move them as one batch through
        :func:`~repro.machine.collectives.execute_rounds_fused` (plain
        per-round execution when the machine has fusion off), and
        return the delivered payloads' rows in delivery order."""
        shape = source.shape[1:]
        batch = phase.bind(shape)
        np.take(source, phase.gather, axis=0, out=batch.send)
        delivered = [
            payload
            for payloads in execute_rounds_fused(
                machine, batch.rounds, phase.tag, plan=batch.fusion
            )
            for payload in payloads
        ]
        stream = np.concatenate(delivered) if delivered else np.empty(0)
        return stream.reshape(-1, *shape)

    def _exchange_x(self, machine: Machine) -> Staging:
        """Phase 1: gather the full row blocks ``x[need_p]`` everywhere;
        returns the staging of ``x``'s trailing shape."""
        plan = self.exchange_plan
        staging = plan.stage_x([proc.load("x_shards") for proc in machine])
        stream = self._exchange(machine, self.phase_x, staging.xs)
        x_full = plan.unpack_x(staging, stream, self.phase_x.take, self.phase_x.put)
        for p in range(machine.P):
            machine[p].store("x_full", x_full[p])
        return staging

    def _exchange_y(self, machine: Machine, staging: Staging) -> None:
        """Phase 3: scatter-reduce the partial ``ŷ[need_p]`` (staged in
        ``yp`` by local compute) into shards."""
        plan = self.exchange_plan
        stream = self._exchange(machine, self.phase_y, staging.yp)
        y_shards = plan.reduce_y(staging, stream, self.phase_y.take, self.phase_y.put)
        for p in range(machine.P):
            machine[p].store("y_shards", y_shards[p])

    # -- phase 2: local compute ----------------------------------------------------------

    def _local_compute(self, machine: Machine, staging: Staging) -> None:
        """Phase 2 on every processor: fill each one's partial row
        blocks ``ŷ[need_p]`` (views into the staging buffer ``yp``)."""
        if self.storage(machine) == "dense":
            staging.yp[:-1] = self.block_products(machine, staging.xf)
        else:
            self._compute_sparse(machine, staging)
        for p, proc in enumerate(machine):
            proc.store("y_partial", staging.y_partial[p])

    def block_products(self, machine: Machine, x_full: np.ndarray) -> np.ndarray:
        """Local compute over the dense blocks the machine's processors
        hold, for a vector ``(N,)`` or ``c`` columns ``(N, c)`` in the
        full layout of :attr:`exchange_plan` (laid out like a staging's
        ``xf``):
        the partial ``ŷ`` in that layout.
        :func:`~repro.core.block_kernels.apply_stacks` runs one pass per
        case over every processor's blocks: the contiguous slice of the
        machine's block allocation (:meth:`load_tensor`) that each
        processor's views point into."""
        views = [proc.load("tensor_blocks") for proc in machine]
        root = views[0][self.block_stacks[0].case].base
        if root is None or len(root) != self._allocated or any(
            view.base is not root for held in views for view in held.values()
        ):
            raise MachineError(
                "tensor_blocks are not views of one load_tensor allocation"
            )
        return apply_stacks(
            (
                (stack.case, root[stack.lo : stack.lo + stack.bounds[-1]], stack.rows)
                for stack in self.block_stacks
            ),
            x_full,
        )

    def _compute_sparse(self, machine: Machine, staging: Staging) -> None:
        """O(local-nnz) scatter per processor over a padded-length view
        of x whose only populated rows are need_p — exactly what the
        exchange delivered (ownership puts every entry there)."""
        b = self.b
        for p, proc in enumerate(machine):
            local_x = np.zeros((self.n_padded, *staging.xf.shape[1:]))
            for i, row in proc.load("x_full").items():
                local_x[i * b : (i + 1) * b] = row
            local_y = sparse_scatter(*proc.load("sparse_entries"), local_x)
            for i, partial in staging.y_partial[p].items():
                partial[:] = local_y[i * b : (i + 1) * b]

    # -- driver --------------------------------------------------------------------------------

    def run(self, machine: Machine) -> None:
        """Execute all three phases, in order, on the calling thread;
        results stay distributed as ``y_shards`` (shaped like the
        ``x_shards`` loaded) in each processor's memory.

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
                staging = self._exchange_x(machine)
            with machine.instrument.span("sttsv:local-compute"):
                self._local_compute(machine, staging)
            with machine.instrument.span("sttsv:exchange-y"):
                self._exchange_y(machine, staging)

    def gather_result(self, machine: Machine) -> np.ndarray:
        """Reassemble the distributed ``y``, ``(n,)`` or ``(n, c)`` like
        the ``x`` loaded (verification step, outside the communication
        model — the algorithm's contract ends with ``y`` distributed
        exactly like ``x`` was)."""
        return self._gather(machine, "y_shards")

    def gather_x(self, machine: Machine) -> np.ndarray:
        """Reassemble the distributed ``x`` (outside the communication
        model, like :meth:`gather_result`)."""
        return self._gather(machine, "x_shards")

    def _gather(self, machine: Machine, key: str) -> np.ndarray:
        shards = [machine[p].load(key) for p in range(machine.P)]
        return self.exchange_plan.assemble(shards)[: self.n]

    # -- distributed vectors between runs --------------------------------------

    def reduce_shards(
        self,
        machine: Machine,
        local: Callable[[Shards, Shards], float],
        op: Callable[[float, float], float] = operator.add,
    ) -> float:
        """Allreduce ``local(x_shards, y_shards)`` of every processor
        with ``op`` (:func:`~repro.machine.collectives.all_reduce_scalar`,
        recorded in the ledger). Every shard has one holder, so per-
        processor sums over the shards partition a global sum: a norm,
        a dot product, a distance."""
        values = [
            local(proc.load("x_shards"), proc.load("y_shards"))
            for proc in machine
        ]
        return all_reduce_scalar(machine, values, op=op)[0]

    def update_x(
        self,
        machine: Machine,
        step: Callable[[Shards, Shards], Shards],
    ) -> None:
        """Replace every processor's ``x_shards`` with
        ``step(x_shards, y_shards)`` — a shard-local update (no
        communication), e.g. the next iterate of a power method."""
        for proc in machine:
            proc.store("x_shards", step(proc.load("x_shards"), proc.load("y_shards")))

    # -- accounting ---------------------------------------------------------------------------

    def words_per_processor(self) -> List[int]:
        """Exact per-processor send volume of a vector run over both
        phases (the ledger's ``words_sent``) for any partition: the
        pair maps' message sizes, or the uniform All-to-All slots."""
        P = self.partition.P
        if self.backend is CommBackend.ALL_TO_ALL:
            return [self.expected_words_per_processor()] * P
        words = [0] * P
        plan = self.exchange_plan
        for pairs in (plan.x_pairs, plan.y_pairs):
            for (src, _), blocks in pairs.items():
                words[src] += len(blocks) * self.shard
        return words

    def predicted_ledger(self, columns: int = 1) -> CommunicationLedger:
        """The exact ledger one :meth:`run` on ``columns`` columns of
        ``x`` records (``1``: a vector), without moving a byte.

        Prices the batch of both phases for that shape through the same
        :class:`~repro.machine.cost.CostModel` calls execution makes: a
        batch :func:`~repro.machine.collectives.execute_rounds_fused`
        fuses goes through ``price_fused_batch``, any other round
        through ``price_round``. Labels, per-round words, ``fused``
        tags and the ``fused_*`` side-channel all match the run's.
        """
        if columns < 1:
            raise ConfigurationError(f"need columns >= 1, got {columns}")
        shape = () if columns == 1 else (columns,)
        cost = CostModel()
        ledger = CommunicationLedger(self.partition.P)
        for phase in (self.phase_x, self.phase_y):
            batch = phase.bind(shape)
            if batch.fusion.fuses(True):
                cost.price_fused_batch(ledger, batch.rounds, phase.tag, batch.fusion)
                continue
            for label, transfers in batch.rounds:
                cost.price_round(ledger, label, transfers, phase.tag)
        return ledger

    def expected_words_per_processor(self) -> int:
        """The closed-form per-processor send volume over both phases,
        for the regular exchange graphs of orders 2 and 3; raises at
        order 4 (its pair maps are irregular —
        :meth:`words_per_processor` is exact there).

        Point-to-point: ``2 · r · (λ₁ − 1) · shard`` — equals
        ``2 (n(q+1)/(q²+1) − n/P)`` for the spherical family (§7.2.2)
        and ``2qn/(q²+q+1)`` for a projective plane's SYMV.
        All-to-All: ``2 · (P − 1) · slot``, the slot being the largest
        pair message (two shards at order 3, one at order 2) — equals
        ``4n/(q+1) (1 − 1/P)`` for the spherical family.
        """
        if self.partition.order not in (2, 3):
            raise ConfigurationError(
                f"expected_words_per_processor has no closed form at"
                f" order {self.partition.order} — words_per_processor()"
                f" is exact"
            )
        if self.backend is CommBackend.POINT_TO_POINT:
            lambda_point = self.partition.steiner.point_replication()
            per_phase = self.partition.r * (lambda_point - 1) * self.shard
        else:
            per_phase = (self.partition.P - 1) * self._slot
        return 2 * per_phase

    def flops_per_processor(self, p: int) -> int:
        """Ternary multiplications processor ``p`` performs (§7.1);
        order 3 only."""
        order = self.partition.order
        if order != 3:
            raise ConfigurationError(
                f"flops_per_processor is an order-3 count; the order-{order}"
                f" block cases are uncounted"
            )
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
