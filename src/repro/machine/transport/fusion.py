"""Message fusion: pack many scheduled transfers into few physical buffers.

The cost model charges α per message, and the repo's schedules already
prove the β (bandwidth) term optimal — so the remaining physical cost
is message *count*: the §7.2.2 point-to-point schedule moves one
message per ordered neighbor pair per round, and every one of those
messages pays per-transfer dispatch overhead in the shared-memory
backend (queue round-trips, per-buffer packing).

:class:`FusionPlan` is the packing layer the fused collectives funnel
(:func:`repro.machine.collectives.execute_rounds_fused`) builds over a
*batch* of logical rounds: all transfers bound for the same destination
— including multiple transfers of the same ``(src, dst)`` pair when a
batch contains several — are packed into one contiguous ``float64``
buffer behind a self-describing header, moved as a single physical
transfer, and unpacked into bitwise-identical member payloads on
delivery. This is the same-destination group-buffer pattern of
production gradient-communication stacks (the kfac ``TensorGroup``
exemplar): message count drops from O(transfers) to O(active
destinations) per batch.

Wire format (one fused buffer, all ``float64`` words)::

    [ MAGIC, k,
      src_0, words_0, ..., src_{k-1}, words_{k-1},
      payload_0 words..., ..., payload_{k-1} words... ]

The header is validated structurally on unpack — total length, then
magic word, member count, per-member sources and word counts bit for
bit — against the *plan*, which builds every group's header once from
the schedule before any bytes move, so a dropped (zeroed) or
duplicated (doubled) fused buffer, or one with a corrupted header, is
detected before any checksum runs, and every member of a failed group
is handed back to the caller for individual unfused redelivery through
the normal recovery path. The caller then checksums each structurally
valid buffer as a whole against its checksum at :meth:`FusionPlan.pack`
time; a corrupted member changes its buffer's checksum, and only then
are that buffer's members checksummed one by one, so exactly the
corrupted members are redelivered.

Fusion is an execution detail of the *physical* layer: the algorithmic
ledger is priced from the unfused logical schedule (labels, counts,
and round order unchanged — the paper's closed-form assertions never
move), and fusion savings are recorded in the ledger's ``fused_*``
side-channel, mirroring the ``retry_*`` recovery pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.machine.transport.base import Transfer

#: Sentinel first word of every fused buffer (8 ASCII bytes as float64).
_MAGIC_BYTES = b"FUSEDv1\x00"
MAGIC = float(np.frombuffer(_MAGIC_BYTES, dtype=np.float64)[0])

#: Header words before the member table: [MAGIC, member_count].
_PREAMBLE_WORDS = 2

#: Header words per member: [source, words].
_MEMBER_HEADER_WORDS = 2


def fusible_payload(payload: np.ndarray) -> bool:
    """True iff ``payload`` can ride in a fused buffer losslessly.

    Fused buffers are flat ``float64`` arrays, so only one-dimensional
    ``float64`` payloads round-trip with their shape and dtype intact
    (anything else would come back reshaped and break the bitwise
    contract). Callers fall back to unfused per-round execution for
    batches containing anything fancier.
    """
    return (
        isinstance(payload, np.ndarray)
        and payload.dtype == np.float64
        and payload.ndim == 1
    )


@dataclass
class FusedGroup:
    """One physical buffer: every batched transfer bound for ``dest``."""

    dest: int
    #: Rank stamped on the physical :class:`Transfer` (the first
    #: member's source; true per-member sources live in the header).
    source: int
    #: Indices into the flat member list, in batch order.
    members: List[int] = field(default_factory=list)
    #: Header words (preamble + member table), built once by the plan:
    #: :meth:`FusionPlan.pack` stamps them, :meth:`FusionPlan.unpack`
    #: requires them bit for bit.
    header: Optional[np.ndarray] = None
    #: ``(lo, hi)`` word range of each member's payload in the buffer.
    bounds: List[Tuple[int, int]] = field(default_factory=list)
    #: Total buffer length, header included.
    words: int = 0


@dataclass
class FusionStats:
    """Logical-vs-physical accounting of one fused batch."""

    messages_logical: int = 0
    messages_fused: int = 0
    words_logical: int = 0
    words_fused: int = 0

    @property
    def header_words(self) -> int:
        """Framing overhead the fused schedule adds on the wire."""
        return self.words_fused - self.words_logical


class FusionPlan:
    """Destination-grouped packing of one batch of logical transfers.

    Parameters
    ----------
    transfers:
        The flattened logical schedule (a batch of rounds' transfers,
        in round order). Group membership, each group's header and
        member offsets, and the batch's :class:`FusionStats` are all
        derived here — before any bytes move — so unpack can verify
        deliveries against the schedule.

    A plan depends only on the transfers' ranks and word counts, never
    on payload contents: each :meth:`pack` copies the payloads' current
    contents into the plan's fused buffers. A caller that restages the
    *same* payload arrays for every execution (Algorithm 5's reusable
    send buffers) therefore builds its plans once and hands them to
    every :func:`~repro.machine.collectives.execute_rounds_fused` call,
    which also keeps the batch's priced ledger records in
    :attr:`priced`.
    """

    def __init__(self, transfers: Sequence[Transfer]):
        self.transfers: List[Transfer] = list(transfers)
        self.fusible = all(fusible_payload(t.payload) for t in self.transfers)
        self.groups: List[FusedGroup] = []
        #: Ledger records of this batch priced once per
        #: ``(cost model, tag, record_empty)`` and replayed on every
        #: execution (filled by ``execute_rounds_fused``).
        self.priced: Dict[Tuple, Any] = {}
        self._stats: Optional[FusionStats] = None
        # Per group: the arrays its buffer concatenates (header, then
        # member payloads), and the physical transfer carrying it.
        self._parts: List[List[np.ndarray]] = []
        self._physical: List[Transfer] = []
        if not self.fusible:
            return
        group_of_dest: Dict[int, FusedGroup] = {}
        for index, transfer in enumerate(self.transfers):
            group = group_of_dest.get(transfer.dest)
            if group is None:
                group = FusedGroup(dest=transfer.dest, source=transfer.source)
                group_of_dest[transfer.dest] = group
                self.groups.append(group)
            group.members.append(index)
        for group in self.groups:
            members = [self.transfers[m] for m in group.members]
            header = np.empty(_PREAMBLE_WORDS + _MEMBER_HEADER_WORDS * len(members))
            header[0] = MAGIC
            header[1] = float(len(members))
            header[_PREAMBLE_WORDS::2] = [t.source for t in members]
            header[_PREAMBLE_WORDS + 1 :: 2] = [t.payload.size for t in members]
            cursor = header.size
            for transfer in members:
                group.bounds.append((cursor, cursor + transfer.payload.size))
                cursor += transfer.payload.size
            group.header = header
            group.words = cursor
            self._parts.append([header] + [t.payload for t in members])
            self._physical.append(
                Transfer(group.source, group.dest, np.empty(cursor))
            )

    # -- accounting ------------------------------------------------------------

    def fuses(self, enabled: bool) -> bool:
        """Whether executing this batch on a machine with fusion
        ``enabled`` packs it: only a non-empty batch of fusible
        payloads is fused; any other runs round by round."""
        return enabled and self.fusible and bool(self.transfers)

    def stats(self) -> FusionStats:
        """Logical vs physical message/word counts of this batch
        (computed on first use, then kept)."""
        if self._stats is None:
            self._stats = FusionStats(
                messages_logical=len(self.transfers),
                messages_fused=len(self.groups),
                words_logical=sum(t.payload.size for t in self.transfers),
                words_fused=sum(g.words for g in self.groups),
            )
        return self._stats

    # -- packing ---------------------------------------------------------------

    def pack(self) -> List[Transfer]:
        """Build the physical schedule: one header-framed buffer per
        group, refilled with the members' current payload contents
        (the buffers are the plan's own, reused by every pack)."""
        for parts, physical in zip(self._parts, self._physical):
            np.concatenate(parts, out=physical.payload)
        return list(self._physical)

    # -- unpacking -------------------------------------------------------------

    def unpack(
        self, delivered: Sequence[np.ndarray]
    ) -> Tuple[List[Optional[np.ndarray]], List[int]]:
        """Split delivered fused buffers back into member payloads.

        Returns ``(payloads, failed)``: one array per logical transfer
        (views into the delivered buffers — bitwise identical to the
        packed payloads), and the indices of every member whose group
        buffer failed structural validation (wrong length, or a header
        that differs from the plan's in any bit). Failed members get
        ``None`` payloads; the caller redelivers them individually
        through the recovery path.
        """
        payloads: List[Optional[np.ndarray]] = [None] * len(self.transfers)
        failed: List[int] = []
        for group, buf in zip(self.groups, delivered):
            if not self._validate(group, buf):
                failed.extend(group.members)
                continue
            for m, (lo, hi) in zip(group.members, group.bounds):
                payloads[m] = buf[lo:hi]
        return payloads, failed

    @staticmethod
    def _validate(group: FusedGroup, buf: np.ndarray) -> bool:
        """Structural check of one delivered buffer against the plan."""
        return (
            isinstance(buf, np.ndarray)
            and buf.dtype == np.float64
            and buf.ndim == 1
            and buf.size == group.words
            and buf[: group.header.size].tobytes() == group.header.tobytes()
        )


__all__ = ["MAGIC", "FusedGroup", "FusionPlan", "FusionStats", "fusible_payload"]
