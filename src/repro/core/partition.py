"""Tetrahedral block partitioning (paper §6).

Given a Steiner ``(m, r, 3)`` system with ``P`` blocks, the partition
assigns every lower-tetrahedral block index ``(I, J, K)``,
``I >= J >= K``, of an ``m``-row-block symmetric tensor to exactly one
of ``P`` processors:

* **off-diagonal** blocks (``I > J > K``): processor ``p`` owns
  ``TB₃(R_p) = {(I,J,K) : I,J,K ∈ R_p, I > J > K}`` where ``R_p`` is
  the ``p``-th Steiner block — the Steiner axiom makes this a partition
  (§6.1.1);
* **non-central diagonal** blocks (two equal indices): distributed
  ``d = r(r-1)(r-2)/(m-2)`` per processor by a capacitated bipartite
  matching whose existence Corollary 6.7 guarantees, constrained so a
  processor only receives blocks whose indices already lie in its
  ``R_p`` (§6.1.3) — no extra vector data is ever needed;
* **central diagonal** blocks (``I = J = K``): at most one per
  processor by a Hall matching, again index-compatible with ``R_p``.

Vectors: row block ``i`` is needed by the ``|Q_i|`` processors whose
``R_p`` contains ``i`` (``|Q_i| = q(q+1)`` for the spherical family,
Lemma 6.4) and is split evenly among them (§6.1.2), so every processor
starts with exactly ``n/P`` elements of ``x`` and ends with ``n/P``
elements of ``y``.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, List, Tuple

from repro.errors import PartitionError
from repro.matching.bmatching import bipartite_b_matching
from repro.steiner.system import SteinerSystem
from repro.tensor.blocks import (
    classify_block,
    canonical_entry_count,
    ternary_multiplications,
)

BlockIndex = Tuple[int, int, int]


class TetrahedralPartition:
    """Assignment of tensor blocks and vector shards to processors.

    Parameters
    ----------
    steiner:
        The generating Steiner ``(m, r, 3)`` system; its block count is
        the processor count ``P`` and its ground-set size is the number
        of row blocks ``m``.

    Attributes
    ----------
    P, m, r:
        Processor count, row-block count, Steiner block size.
    R:
        ``R[p]`` — sorted tuple of row-block indices of processor ``p``.
    N:
        ``N[p]`` — sorted tuple of non-central diagonal block indices.
    D:
        ``D[p]`` — tuple with zero or one central diagonal index.
    Q:
        ``Q[i]`` — sorted tuple of processors requiring row block ``i``.
    need, consumers:
        ``R`` and ``Q`` again, under the names Algorithm 5's exchange
        pairs are built from (:class:`~repro.core.plans.ExchangePlan`).

    Examples
    --------
    >>> from repro.steiner import spherical_steiner_system
    >>> part = TetrahedralPartition(spherical_steiner_system(3))
    >>> (part.P, part.m, part.non_central_per_processor)
    (30, 10, 3)
    """

    order = 3

    def __init__(self, steiner: SteinerSystem):
        self.steiner = steiner
        self.P = len(steiner)
        self.m = steiner.m
        self.r = steiner.r
        self.R: Tuple[Tuple[int, ...], ...] = steiner.blocks

        if self.m > self.P:
            raise PartitionError(
                f"central-diagonal assignment needs m <= P (one distinct"
                f" processor per central block); got m={self.m} > P={self.P}"
            )
        numerator = self.r * (self.r - 1) * (self.r - 2)
        if numerator % (self.m - 2) != 0:
            raise PartitionError(
                f"non-central per-processor count r(r-1)(r-2)/(m-2) ="
                f" {numerator}/{self.m - 2} is not an integer"
            )
        #: Non-central diagonal blocks per processor (q for spherical).
        self.non_central_per_processor = numerator // (self.m - 2)

        self.N = self._assign_non_central()
        self.D = self._assign_central()
        self.Q = self._row_block_sets()

    # -- assignments -------------------------------------------------------------

    def _non_central_blocks(self) -> List[BlockIndex]:
        """All ``m(m-1)`` non-central diagonal block indices, canonical."""
        out: List[BlockIndex] = []
        for a in range(self.m):
            for bb in range(a):
                out.append((a, a, bb))
                out.append((a, bb, bb))
        return out

    def _assign_non_central(self) -> Tuple[Tuple[BlockIndex, ...], ...]:
        """Solve the §6.1.3 b-matching: exactly ``d`` blocks per processor."""
        blocks = self._non_central_blocks()
        block_position = {block: idx for idx, block in enumerate(blocks)}
        members = [frozenset(row) for row in self.R]
        adjacency: List[List[int]] = []
        for p in range(self.P):
            eligible = []
            for block in blocks:
                a, bb = block[0], block[2]
                if a in members[p] and bb in members[p]:
                    eligible.append(block_position[block])
            adjacency.append(eligible)
        assignment = bipartite_b_matching(
            self.P,
            len(blocks),
            adjacency,
            self.non_central_per_processor,
        )
        result = []
        for p in range(self.P):
            owned = sorted(blocks[idx] for idx in assignment[p])
            result.append(tuple(owned))
        # Every non-central block must be assigned exactly once:
        # total demand P*d equals the number of blocks by construction.
        total = sum(len(owned) for owned in result)
        if total != len(blocks):
            raise PartitionError("non-central assignment did not cover all blocks")
        return tuple(result)

    def _assign_central(self) -> Tuple[Tuple[BlockIndex, ...], ...]:
        """Hall matching: each central block ``(a,a,a)`` to a ``p`` with
        ``a ∈ R_p``; each processor receives at most one."""
        members = [frozenset(row) for row in self.R]
        adjacency = [
            [p for p in range(self.P) if a in members[p]] for a in range(self.m)
        ]
        assignment = bipartite_b_matching(self.m, self.P, adjacency, 1)
        per_processor: List[List[BlockIndex]] = [[] for _ in range(self.P)]
        for a in range(self.m):
            (p,) = assignment[a]
            per_processor[p].append((a, a, a))
        return tuple(tuple(owned) for owned in per_processor)

    def _row_block_sets(self) -> Tuple[Tuple[int, ...], ...]:
        mapping = self.steiner.point_to_blocks()
        return tuple(tuple(mapping[i]) for i in range(self.m))

    # -- inventory ------------------------------------------------------------------

    def off_diagonal_blocks(self, p: int) -> List[BlockIndex]:
        """``TB₃(R_p)``: the ``C(r, 3)`` off-diagonal blocks of ``p``."""
        return [
            (i, j, k)
            for i, j, k in (
                tuple(sorted(c, reverse=True)) for c in combinations(self.R[p], 3)
            )
        ]

    def owned_blocks(self, p: int) -> List[BlockIndex]:
        """Every tensor block processor ``p`` owns (the paper's
        ``TB₃(R_p) ∪ N_p ∪ D_p``), canonical order."""
        return sorted(
            self.off_diagonal_blocks(p) + list(self.N[p]) + list(self.D[p]),
            reverse=True,
        )

    def owner_of_block(self) -> Dict[BlockIndex, int]:
        """Map every lower-tetrahedral block index to its owner."""
        owner: Dict[BlockIndex, int] = {}
        for p in range(self.P):
            for block in self.owned_blocks(p):
                if block in owner:
                    raise PartitionError(
                        f"block {block} owned by both {owner[block]} and {p}"
                    )
                owner[block] = p
        return owner

    @property
    def need(self) -> Tuple[Tuple[int, ...], ...]:
        """Row blocks each processor computes on: ``R`` (every owned
        block lies inside its owner's ``R_p``)."""
        return self.R

    @property
    def consumers(self) -> Tuple[Tuple[int, ...], ...]:
        """Processors consuming each row block: its holders ``Q``."""
        return self.Q

    def exchange_schedule(self, pairs):
        """The §7.2.2 :class:`~repro.core.schedule.ExchangeSchedule`
        (Lemma 7.1 permutation rounds of the regular exchange digraph).

        Both phases of Algorithm 5 run it: the exchange graph is
        symmetric, so either phase's pair map must have exactly the
        schedule's ``shared`` pairs.
        """
        from repro.core.schedule import build_exchange_schedule

        schedule = build_exchange_schedule(self)
        if set(pairs) != set(schedule.shared):
            raise PartitionError(
                "exchange pairs differ from the §7.2.2 schedule's"
            )
        return schedule

    # -- validation -----------------------------------------------------------------

    def validate(self) -> None:
        """Exhaustively verify the partition invariants (§6).

        * every lower-tetrahedral block index owned exactly once;
        * ``N_p`` and ``D_p`` indices lie inside ``R_p`` (compatibility:
          no extra vector rows needed);
        * ``|N_p| = r(r-1)(r-2)/(m-2)`` for every processor;
        * ``|D_p| <= 1``; all ``m`` central blocks assigned;
        * ``Q_i`` sizes equal the Steiner point replication.
        """
        owner = self.owner_of_block()
        expected = {
            (i, j, k)
            for i in range(self.m)
            for j in range(i + 1)
            for k in range(j + 1)
        }
        missing = expected - set(owner)
        if missing:
            raise PartitionError(f"{len(missing)} blocks unowned, e.g. {sorted(missing)[:3]}")
        extra = set(owner) - expected
        if extra:
            raise PartitionError(f"unexpected blocks owned: {sorted(extra)[:3]}")
        for p in range(self.P):
            members = set(self.R[p])
            for block in list(self.N[p]) + list(self.D[p]):
                if not set(block) <= members:
                    raise PartitionError(
                        f"processor {p}: diagonal block {block} uses indices"
                        f" outside R_p = {sorted(members)}"
                    )
            if len(self.N[p]) != self.non_central_per_processor:
                raise PartitionError(
                    f"processor {p}: |N_p| = {len(self.N[p])}"
                    f" != {self.non_central_per_processor}"
                )
            if len(self.D[p]) > 1:
                raise PartitionError(f"processor {p}: more than one central block")
        replication = self.steiner.point_replication()
        for i, procs in enumerate(self.Q):
            if len(procs) != replication:
                raise PartitionError(
                    f"row block {i}: |Q_i| = {len(procs)} != {replication}"
                )

    # -- vector distribution -------------------------------------------------------------

    def shard_size(self, b: int) -> int:
        """Per-processor shard length of one row block of size ``b``.

        Requires ``|Q_i|`` (= point replication) to divide ``b``; the
        paper assumes ``b >= q(q+1)`` and padding handles the rest.
        """
        replication = self.steiner.point_replication()
        if b % replication != 0:
            raise PartitionError(
                f"row-block size {b} not divisible by |Q_i| = {replication};"
                f" pad n to a multiple of {self.m * replication}"
            )
        return b // replication

    def shard_owner_position(self, i: int, p: int) -> int:
        """Position of processor ``p`` within ``Q_i`` (its shard slot)."""
        try:
            return self.Q[i].index(p)
        except ValueError:
            raise PartitionError(
                f"processor {p} does not require row block {i}"
            ) from None

    def vector_elements_per_processor(self, b: int) -> int:
        """Elements of ``x`` (equivalently ``y``) each processor owns:
        ``(q+1) · b / (q(q+1)) = n/P`` in the paper's notation."""
        return self.r * self.shard_size(b)

    # -- accounting ------------------------------------------------------------------------

    def storage_words(self, p: int, b: int) -> int:
        """Canonical tensor words stored by processor ``p`` (§6.1.3):
        ``C(r,3)·b³ + d·b²(b+1)/2 + |D_p|·b(b+1)(b+2)/6 ≈ n³/(6P)``."""
        return sum(
            canonical_entry_count(classify_block(block), b)
            for block in self.owned_blocks(p)
        )

    def ternary_multiplications(self, p: int, b: int) -> int:
        """Ternary multiplications processor ``p`` performs (§7.1)."""
        return sum(
            ternary_multiplications(classify_block(block), b)
            for block in self.owned_blocks(p)
        )

    def shared_row_blocks(self, p: int, p_other: int) -> FrozenSet[int]:
        """Row blocks both processors require (``R_p ∩ R_{p'}``).

        By the Steiner property two distinct processors share at most
        2 row blocks — two distinct points determine
        ``(m-2)/(r-2)`` blocks but three points determine one, so two
        ``R`` sets can intersect in at most 2 indices (an intersection
        of 3 would violate uniqueness of the covering block).
        """
        return frozenset(self.R[p]) & frozenset(self.R[p_other])

    def __repr__(self) -> str:
        return (
            f"TetrahedralPartition(P={self.P}, m={self.m}, r={self.r},"
            f" d={self.non_central_per_processor})"
        )
