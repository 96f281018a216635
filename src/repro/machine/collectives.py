"""Collective communication operations with exact word accounting.

Each collective is implemented as a sequence of synchronous rounds in
which every processor sends at most one message and receives at most
one message (the single-port model of paper §3.1); the ledger verifies
this invariant in tests. Word counts follow the standard
bandwidth-optimal algorithms referenced by the paper (Thakur et al.):

* **All-to-All** — ``P - 1`` rounds; in round ``r`` processor ``p``
  sends its buffer for processor ``(p + r) mod P``. Per-processor cost
  is the sum of its outgoing buffer sizes (paper §7.2.2 "All-to-All
  collectives" analysis).
* **Allgather** — ring algorithm, ``P - 1`` rounds; per-processor cost
  ``(P - 1) / P`` of the gathered total.
* **Scalar allreduce / broadcast** — binomial trees,
  ``O(log P)`` rounds of one word each.
* **Scheduled point-to-point** — caller-provided permutation rounds
  (the paper's Theorem 7.2 schedule).

Every round follows the same four-step discipline:

1. build the round's transfer *schedule* (a list of
   :class:`~repro.machine.transport.base.Transfer` records);
2. price the schedule into the ledger through ``machine.cost`` — so
   word / message / round counts depend only on the schedule;
3. hand the same schedule to ``machine.transport`` to move the bytes
   (in-process copies, shared-memory workers, or any future backend);
4. verify every delivered payload against a checksum computed from the
   schedule *before* the bytes moved, re-executing only the failed
   transfers under the machine's :class:`~repro.machine.recovery.
   RecoveryPolicy` (retry cost lands in the ledger's ``retry_*``
   side-channel, never in the algorithmic counts).

If the transport itself dies mid-round — e.g. the shared-memory worker
pool loses a process — and the machine allows failover, the round is
re-executed on a fresh in-process transport (DESIGN.md §8).

When ``machine.fusion`` is on (the default), batchable schedules —
the point-to-point permutation rounds and the All-to-All shifts — are
executed through :func:`execute_rounds_fused`: the whole batch's
transfers are packed into one buffer per destination
(:mod:`repro.machine.transport.fusion`) so the transport moves
O(active destinations) physical messages, while the ledger is still
priced round-by-round from the unfused schedule (fusion savings land
in the ``fused_*`` side-channel, DESIGN.md §11). Ring and tree
collectives have cross-round data dependencies and always run
unfused.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import MachineError
from repro.machine.ledger import CommunicationLedger
from repro.machine.machine import Machine
from repro.machine.message import word_count
from repro.machine.transport import Transfer, payload_checksum
from repro.machine.transport.fusion import FusionPlan
from repro.obs.tracing import get_tracer


SendBuffers = Sequence[Dict[int, np.ndarray]]

#: One logical round: its ledger label plus its transfer schedule.
LabeledRound = Tuple[str, List[Transfer]]

#: Reusable no-op context for untraced rounds (yields ``None``).
_NULL_SPAN = nullcontext(None)


def _exchange_with_failover(
    machine: Machine, transfers: Sequence[Transfer]
) -> List[np.ndarray]:
    """One transport exchange, failing over to the in-process transport
    when an unrecoverable transport error allows it."""
    try:
        return machine.transport.exchange(transfers)
    except MachineError as error:
        replacement = machine.fail_over(str(error))
        if replacement is None:
            raise
        return replacement.exchange(transfers)


def _recover_failed(
    machine: Machine,
    label: str,
    tag: str,
    transfers: Sequence[Transfer],
    expected: List[Optional[int]],
    delivered: List[Optional[np.ndarray]],
    failed: List[int],
    tracer,
) -> int:
    """Redeliver ``failed`` transfer indices until all verify or the
    retry budget is exhausted.

    Shared by the unfused and fused execution paths: retries always go
    through the transport *individually unfused* (a failed fused group
    degrades to plain per-transfer redelivery). ``expected`` entries of
    ``None`` are computed lazily from the schedule payload — the
    checksum fast path skips them up front, but a redelivery must still
    be verified against the schedule. Returns the number of retry
    attempts; mutates ``delivered`` and ``expected`` in place.
    """
    attempt = 0
    recovery = machine.recovery
    while failed:
        attempt += 1
        if attempt > recovery.max_retries:
            raise MachineError(
                f"round {label!r}: {len(failed)} transfer(s) failed"
                f" integrity verification after {recovery.max_retries}"
                " retries — unrecoverable transport faults"
            )
        backoff = recovery.backoff_seconds(attempt)
        if backoff > 0:
            time.sleep(backoff)
        subset = [transfers[index] for index in failed]
        retry_words = sum(word_count(t.payload) for t in subset)
        machine.ledger.record_retry(words=retry_words, messages=len(subset))
        if tracer.enabled:
            tracer.event(
                f"retry:{label}",
                kind="retry",
                attrs={
                    "tag": tag,
                    "attempt": attempt,
                    "messages": len(subset),
                    "words": retry_words,
                },
            )
        redelivered = _exchange_with_failover(machine, subset)
        still_failed: List[int] = []
        for index, array in zip(failed, redelivered):
            if expected[index] is None:
                expected[index] = payload_checksum(transfers[index].payload)
            if payload_checksum(array) == expected[index]:
                delivered[index] = array
            else:
                still_failed.append(index)
        failed = still_failed
    return attempt


def execute_round(
    machine: Machine,
    label: str,
    tag: str,
    transfers: Sequence[Transfer],
    record_empty: bool = False,
) -> List[np.ndarray]:
    """Price one round's schedule into the ledger, move the bytes, and
    verify the deliveries.

    Returns the delivered arrays in transfer order. This is the single
    funnel every collective's rounds go through — the separation that
    keeps ledger counts transport-independent, and the place where
    end-of-round integrity verification happens: each payload's
    checksum is computed from the schedule before the transport runs,
    and any delivery that fails the check is re-executed (failed
    transfers only) under ``machine.recovery``. A round that still
    fails after the retry budget raises
    :class:`~repro.errors.MachineError` — a faulty transport can cost
    retry rounds but can never corrupt a result.

    Fast path: when ``machine.verification_required`` is false (no
    fault layer in the transport stack and recovery explicitly
    disabled) the per-transfer checksum computation is skipped —
    delivered arrays are returned as-is.
    """
    transfers = list(transfers)
    tracer = get_tracer()
    if tracer.enabled:
        # Trace spans *read* the schedule the ledger is priced from;
        # they never touch the ledger itself, so the algorithmic counts
        # the paper's closed forms are asserted against cannot move.
        span_cm = tracer.span(
            f"round:{label}",
            kind="round",
            attrs={
                "tag": tag,
                "messages": len(transfers),
                "words": sum(word_count(t.payload) for t in transfers),
            },
        )
    else:
        span_cm = None
    with span_cm if span_cm is not None else _NULL_SPAN as round_span:
        machine.cost.price_round(
            machine.ledger, label, transfers, tag, record_empty=record_empty
        )
        verify = machine.verification_required
        expected: List[Optional[int]] = [
            payload_checksum(t.payload)
            if verify and isinstance(t.payload, np.ndarray)
            else None
            for t in transfers
        ]
        delivered = _exchange_with_failover(machine, transfers)
        failed = [
            index
            for index, (array, digest) in enumerate(zip(delivered, expected))
            if digest is not None and payload_checksum(array) != digest
        ]
        attempt = _recover_failed(
            machine, label, tag, transfers, expected, delivered, failed, tracer
        )
        if round_span is not None and attempt:
            round_span.attrs["retries"] = attempt
    return delivered


def execute_rounds_fused(
    machine: Machine,
    rounds: Sequence[LabeledRound],
    tag: str,
    record_empty: bool = False,
    plan: Optional[FusionPlan] = None,
) -> List[List[np.ndarray]]:
    """Execute a batch of logical rounds as one fused physical exchange.

    The batch's transfers are grouped by destination into one
    header-framed buffer each (:class:`FusionPlan`), so the transport
    moves O(active destinations) messages instead of O(transfers). The
    algorithmic ledger is priced from the *unfused* schedule — every
    round individually, in order, under its own label — and the
    physical counts land in the ledger's ``fused_*`` side-channel, so
    fused and unfused runs have byte-for-byte identical algorithmic
    fingerprints.

    ``plan`` is an optional prebuilt :class:`FusionPlan` over exactly
    this batch's transfers, flattened in round order. Without one, a
    plan is built for this call. A caller that runs the same batch
    many times — same labels, ranks and word counts, payload contents
    restaged in the same arrays — builds the plan once and passes it
    every time. The plan's pricing is then done once per cost model:
    ``machine.cost`` prices the batch into a template ledger kept in
    ``plan.priced``, and every call merges that template into
    ``machine.ledger`` (the merged round records are shared, and
    nothing writes to them).

    Deliveries are returned per round, in transfer order, as views
    into the fused buffers (bitwise identical to unfused delivery). A
    group that fails structural validation or any member that fails
    its checksum degrades to individual unfused redelivery through the
    shared recovery path. Batches containing non-1-D/non-float64
    payloads, and machines with fusion disabled, fall back to plain
    per-round :func:`execute_round` execution (same pricing, no fusion
    side-channel).

    Note: all payloads are collected before any byte moves, so
    ``payload_for``-style callers must hand over buffers that stay
    valid (not reused) for the whole batch.
    """
    rounds = [(label, list(transfers)) for label, transfers in rounds]
    if plan is None:
        plan = FusionPlan([t for _, transfers in rounds for t in transfers])
    elif len(plan.transfers) != sum(len(transfers) for _, transfers in rounds):
        raise MachineError(
            f"{tag}: the prebuilt fusion plan has {len(plan.transfers)}"
            " transfers, not this batch's"
        )
    flat = plan.transfers
    if not machine.fusion or not plan.fusible or not flat:
        return [
            execute_round(machine, label, tag, transfers, record_empty)
            for label, transfers in rounds
        ]
    stats = plan.stats()
    tracer = get_tracer()
    if tracer.enabled:
        span_cm = tracer.span(
            f"round:{tag}:fused{len(rounds)}",
            kind="round",
            attrs={
                "tag": tag,
                "rounds": len(rounds),
                "messages_fused": stats.messages_fused,
                "messages_logical": stats.messages_logical,
                "words_fused": stats.words_fused,
                "words_logical": stats.words_logical,
            },
        )
    else:
        span_cm = None
    with span_cm if span_cm is not None else _NULL_SPAN as round_span:
        key = (machine.cost, tag, record_empty)
        priced = plan.priced.get(key)
        if priced is None:
            priced = CommunicationLedger(machine.P)
            machine.cost.price_fused_batch(
                priced, rounds, tag, plan, record_empty=record_empty
            )
            plan.priced[key] = priced
        machine.ledger.merge(priced)
        verify = machine.verification_required
        expected: List[Optional[int]] = [
            payload_checksum(t.payload) if verify else None for t in flat
        ]
        physical = plan.pack()
        delivered_fused = _exchange_with_failover(machine, physical)
        payloads, failed = plan.unpack(delivered_fused)
        if verify:
            failed_set = set(failed)
            for index, payload in enumerate(payloads):
                if index in failed_set or payload is None:
                    continue
                if payload_checksum(payload) != expected[index]:
                    failed.append(index)
        failed = sorted(set(failed))
        label = f"{tag}:fused{len(rounds)}"
        attempt = _recover_failed(
            machine, label, tag, flat, expected, payloads, failed, tracer
        )
        if round_span is not None and attempt:
            round_span.attrs["retries"] = attempt
    per_round: List[List[np.ndarray]] = []
    cursor = 0
    for _, transfers in rounds:
        per_round.append(payloads[cursor : cursor + len(transfers)])
        cursor += len(transfers)
    return per_round


def _validate_sendbufs(machine: Machine, sendbufs: SendBuffers) -> None:
    if len(sendbufs) != machine.P:
        raise MachineError(
            f"need one send-buffer dict per processor ({machine.P}),"
            f" got {len(sendbufs)}"
        )
    for src, buffers in enumerate(sendbufs):
        for dst in buffers:
            if not 0 <= dst < machine.P:
                raise MachineError(f"processor {src} addressing unknown rank {dst}")


def all_to_all(
    machine: Machine, sendbufs: SendBuffers, tag: str = "all-to-all"
) -> List[Dict[int, np.ndarray]]:
    """Personalized All-to-All exchange.

    Parameters
    ----------
    sendbufs:
        ``sendbufs[src][dst]`` is the array ``src`` sends to ``dst``.
        Missing keys mean "nothing to send"; a self-entry
        (``dst == src``) is delivered locally at zero cost.

    Returns
    -------
    list of dict
        ``recv[dst][src]`` — arrays received (copies, so later mutation
        on the sender side cannot leak across processors).
    """
    _validate_sendbufs(machine, sendbufs)
    P = machine.P
    recv: List[Dict[int, np.ndarray]] = [{} for _ in range(P)]
    # Local deliveries are free.
    for src in range(P):
        if src in sendbufs[src]:
            recv[src][src] = np.array(sendbufs[src][src], copy=True)
    labeled: List[LabeledRound] = []
    for shift in range(1, P):
        transfers: List[Transfer] = []
        for src in range(P):
            dst = (src + shift) % P
            payload = sendbufs[src].get(dst)
            if payload is None or word_count(payload) == 0:
                continue
            transfers.append(Transfer(src, dst, payload))
        labeled.append((f"{tag}:shift{shift}", transfers))
    if machine.fusion:
        delivered_rounds = execute_rounds_fused(machine, labeled, tag)
    else:
        delivered_rounds = [
            execute_round(machine, label, tag, transfers)
            for label, transfers in labeled
        ]
    for (_, transfers), delivered in zip(labeled, delivered_rounds):
        for transfer, array in zip(transfers, delivered):
            recv[transfer.dest][transfer.source] = array
    return recv


def all_to_all_words(sendbufs: SendBuffers) -> List[int]:
    """Per-processor outgoing word counts of an All-to-All, excluding
    self-deliveries (useful for asserting costs without running one)."""
    totals = []
    for src, buffers in enumerate(sendbufs):
        totals.append(
            sum(word_count(v) for d, v in buffers.items() if d != src)
        )
    return totals


def point_to_point_rounds(
    machine: Machine,
    rounds: Sequence[Dict[int, int]],
    payload_for: Callable[[int, int], Optional[np.ndarray]],
    tag: str = "p2p",
) -> List[Dict[int, np.ndarray]]:
    """Execute a precomputed permutation-round schedule.

    Parameters
    ----------
    rounds:
        Each round maps sender -> receiver and must be (a partial
        function of) a permutation: no sender twice, no receiver twice.
    payload_for:
        Callback giving the array ``src`` sends to ``dst``; returning
        ``None`` or an empty array suppresses the message.

    Returns
    -------
    list of dict
        ``recv[dst][src]`` — arrays received over the whole schedule.
    """
    P = machine.P
    recv: List[Dict[int, np.ndarray]] = [{} for _ in range(P)]
    labeled = schedule_point_to_point(rounds, payload_for, tag=tag)
    if machine.fusion:
        delivered_rounds = execute_rounds_fused(machine, labeled, tag)
    else:
        delivered_rounds = [
            execute_round(machine, label, tag, transfers)
            for label, transfers in labeled
        ]
    for (_, transfers), delivered in zip(labeled, delivered_rounds):
        for transfer, array in zip(transfers, delivered):
            recv[transfer.dest][transfer.source] = array
    return recv


def schedule_point_to_point(
    rounds: Sequence[Dict[int, int]],
    payload_for: Callable[[int, int], Optional[np.ndarray]],
    tag: str = "p2p",
) -> List[LabeledRound]:
    """Validate and materialize a permutation-round schedule.

    Shared front half of :func:`point_to_point_rounds`, exposed so
    callers (Algorithm 5's exchange phases) can build the full labeled
    schedule once, then execute it in several contiguous
    :func:`execute_rounds_fused` batches. Labels are
    exactly the ones unfused execution would use (``{tag}:round{i}``),
    so the ledger fingerprint is identical either way.
    """
    labeled: List[LabeledRound] = []
    for index, round_map in enumerate(rounds):
        senders = list(round_map.keys())
        receivers = list(round_map.values())
        if len(set(senders)) != len(senders) or len(set(receivers)) != len(receivers):
            raise MachineError(f"round {index} is not a permutation")
        transfers: List[Transfer] = []
        for src, dst in round_map.items():
            if src == dst:
                raise MachineError(f"round {index}: self-send at {src}")
            payload = payload_for(src, dst)
            if word_count(payload) == 0:
                continue
            transfers.append(Transfer(src, dst, payload))
        labeled.append((f"{tag}:round{index}", transfers))
    return labeled


def all_gather(
    machine: Machine, contributions: Sequence[np.ndarray], tag: str = "allgather"
) -> List[List[np.ndarray]]:
    """Ring allgather: everyone ends with every contribution.

    Returns ``gathered[p][src]`` (copies). Per-processor send volume is
    ``Σ_{src != p-ring-position} |contribution[src]|`` — the
    bandwidth-optimal ``(P-1)/P`` fraction when contributions are
    uniform.
    """
    P = machine.P
    if len(contributions) != P:
        raise MachineError("need one contribution per processor")
    gathered: List[List[Optional[np.ndarray]]] = [
        [None] * P for _ in range(P)
    ]
    for p in range(P):
        gathered[p][p] = np.array(contributions[p], copy=True)
    for step in range(P - 1):
        transfers: List[Transfer] = []
        origins: List[int] = []
        for p in range(P):
            dst = (p + 1) % P
            origin = (p - step) % P
            payload = gathered[p][origin]
            if payload is None:
                raise MachineError("ring allgather lost a piece (internal)")
            transfers.append(Transfer(p, dst, payload))
            origins.append(origin)
        # Price the full round from the schedule, then apply deliveries
        # (synchronous step); empty pieces travel but cost nothing.
        delivered = execute_round(machine, f"{tag}:step{step}", tag, transfers)
        for transfer, origin, array in zip(transfers, origins, delivered):
            gathered[transfer.dest][origin] = array
    return [list(row) for row in gathered]


def _binomial_tree_rounds(P: int) -> List[int]:
    """Distances used by binomial broadcast/reduce: 1, 2, 4, ... < P."""
    distances = []
    d = 1
    while d < P:
        distances.append(d)
        d *= 2
    return distances


def broadcast(
    machine: Machine, root: int, value: np.ndarray, tag: str = "bcast"
) -> List[np.ndarray]:
    """Binomial-tree broadcast of ``value`` from ``root`` to everyone.

    Returns the per-processor copies. ``ceil(log2 P)`` rounds; in each
    round every processor that already holds the value forwards it one
    "distance" further (ranks taken relative to the root).
    """
    P = machine.P
    payload = np.atleast_1d(np.asarray(value, dtype=np.float64))
    holders = {root}
    results: List[Optional[np.ndarray]] = [None] * P
    results[root] = payload.copy()
    for distance in reversed(_binomial_tree_rounds(P)):
        transfers: List[Transfer] = []
        for src in holders:
            relative = (src - root) % P
            if relative % (2 * distance) == 0:
                dst_rel = relative + distance
                if dst_rel < P:
                    transfers.append(
                        Transfer(src, (root + dst_rel) % P, payload)
                    )
        delivered = execute_round(
            machine, f"{tag}:d{distance}", tag, transfers, record_empty=True
        )
        for transfer, array in zip(transfers, delivered):
            results[transfer.dest] = array
            holders.add(transfer.dest)
    if any(r is None for r in results):
        raise MachineError("broadcast failed to reach every processor")
    return [r for r in results]


def reduce_scatter(
    machine: Machine,
    contributions: Sequence[np.ndarray],
    tag: str = "reduce-scatter",
) -> List[np.ndarray]:
    """Ring reduce-scatter: elementwise-sum ``P`` equal-length arrays and
    leave slice ``p`` (of ``P`` equal slices) on processor ``p``.

    Bandwidth-optimal ring: ``P - 1`` rounds, each processor sends one
    slice-sized partial per round — ``(P-1)/P`` of the array total.
    Array length must be divisible by ``P``.
    """
    P = machine.P
    if len(contributions) != P:
        raise MachineError("need one contribution per processor")
    arrays = [np.asarray(c, dtype=np.float64) for c in contributions]
    length = arrays[0].size
    if any(a.shape != (length,) for a in arrays):
        raise MachineError("contributions must be equal-length vectors")
    if length % P != 0:
        raise MachineError(f"length {length} not divisible by P={P}")
    slice_size = length // P
    # running[p] holds the partial sums currently resident on p, keyed
    # by slice index.
    running: List[Dict[int, np.ndarray]] = [
        {s: arrays[p][s * slice_size : (s + 1) * slice_size].copy() for s in range(P)}
        for p in range(P)
    ]
    for step in range(P - 1):
        transfers: List[Transfer] = []
        slice_indices: List[int] = []
        for p in range(P):
            dst = (p + 1) % P
            slice_index = (p - step) % P
            transfers.append(Transfer(p, dst, running[p].pop(slice_index)))
            slice_indices.append(slice_index)
        delivered = execute_round(machine, f"{tag}:step{step}", tag, transfers)
        for transfer, slice_index, array in zip(
            transfers, slice_indices, delivered
        ):
            dst = transfer.dest
            running[dst][slice_index] = running[dst][slice_index] + array
    results = []
    for p in range(P):
        # After P-1 steps processor p holds exactly slice (p+1) mod P.
        ((slice_index, value),) = running[p].items()
        results.append((slice_index, value))
    # Re-key so result[p] is slice p (deliver locally, zero cost).
    by_slice = {slice_index: value for slice_index, value in results}
    return [by_slice[s] for s in range(P)]


def all_reduce_vector(
    machine: Machine,
    contributions: Sequence[np.ndarray],
    tag: str = "allreduce-vec",
) -> List[np.ndarray]:
    """Bandwidth-optimal vector allreduce: reduce-scatter + allgather.

    Per-processor cost ``2 (P-1)/P · length`` words — the classic
    Rabenseifner composition. Length must be divisible by ``P``.
    """
    P = machine.P
    slices = reduce_scatter(machine, contributions, tag=f"{tag}:rs")
    gathered = all_gather(machine, slices, tag=f"{tag}:ag")
    return [np.concatenate(gathered[p]) for p in range(P)]


def _check_reduction_op(op: Callable[[float, float], float]) -> None:
    """Spot-check that ``op`` is associative and commutative.

    The binomial tree applies ``op`` in a fixed, implementation-chosen
    order (``op(partial[dest], incoming)`` at each merge), so any
    order-sensitive operator would make the result depend on the tree
    shape. The probe uses small integers whose float arithmetic is
    exact, so well-behaved operators (``+``, ``*``, ``min``, ``max``)
    always pass; it cannot prove the properties for every input — the
    contract is documented on :func:`all_reduce_scalar`.
    """
    a, b, c = 2.0, 3.0, 5.0
    try:
        commutes = op(a, b) == op(b, a)
        associates = op(op(a, b), c) == op(a, op(b, c))
    except Exception as error:
        raise MachineError(
            f"allreduce op failed on float probes: {error}"
        ) from error
    if not (commutes and associates):
        raise MachineError(
            "allreduce op must be associative and commutative (the"
            " binomial tree fixes the application order); probe"
            f" op(2,3)={op(a, b)!r} op(3,2)={op(b, a)!r}"
            f" op(op(2,3),5)={op(op(a, b), c)!r}"
            f" op(2,op(3,5))={op(a, op(b, c))!r}"
        )


def all_reduce_scalar(
    machine: Machine,
    values: Sequence[float],
    op: Callable[[float, float], float] = lambda a, b: a + b,
    tag: str = "allreduce",
) -> List[float]:
    """Allreduce of one scalar per processor (binomial reduce + broadcast).

    Used by the parallel HOPM for norm computation; costs
    ``2 ceil(log2 P)`` rounds of one word each.

    ``op`` **must be associative and commutative** (``+``, ``*``,
    ``min``, ``max``): the binomial tree merges partials in a fixed
    order determined only by ``P`` — rank pairs ``(p, p - distance)``
    for distances 1, 2, 4, … — so for a conforming ``op`` the result is
    deterministic and identical across transports (bitwise, even for
    float summation, since every backend executes the same tree in the
    same order). A cheap probe rejects obviously order-sensitive
    operators like subtraction; true floating-point non-associativity
    of ``+`` is harmless here precisely because the reduction order is
    fixed.
    """
    P = machine.P
    if len(values) != P:
        raise MachineError("need one value per processor")
    _check_reduction_op(op)
    partial = list(values)
    # Reduce to rank 0 along a binomial tree.
    for distance in _binomial_tree_rounds(P):
        transfers: List[Transfer] = []
        for p in range(P):
            if p % (2 * distance) == distance:
                transfers.append(
                    Transfer(p, p - distance, np.array([partial[p]]))
                )
        delivered = execute_round(
            machine, f"{tag}:reduce-d{distance}", tag, transfers
        )
        for transfer, array in zip(transfers, delivered):
            partial[transfer.dest] = op(partial[transfer.dest], float(array[0]))
    total = partial[0]
    results = broadcast(machine, 0, np.array([total]), tag=f"{tag}:bcast")
    return [float(r[0]) for r in results]
