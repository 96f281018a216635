"""Triangle block partitioning of symmetric matrices.

The 2-D scheme the paper's §6 generalizes (Beaumont et al. 2022;
Al Daas et al. 2023/2025): given a Steiner ``(m, r, 2)`` system with
``P`` blocks,

* off-diagonal matrix block ``(I, J)``, ``I > J``, goes to the *unique*
  processor whose index set contains the pair (the 2-design axiom makes
  this a partition — no matching needed, unlike the 3-D non-central
  diagonal case);
* the ``m`` diagonal blocks ``(i, i)`` go to distinct processors with
  ``i ∈ R_p`` via a Hall matching (requires ``m <= P``; projective
  planes give exactly ``m == P``);
* row block ``i`` of each vector is shared by the ``λ₁ = (m-1)/(r-1)``
  processors of ``Q_i`` and split evenly among them, so each processor
  owns exactly ``n/P`` vector elements.

SYMV is Algorithm 5 at order 2: the partition exposes the surface
:class:`~repro.core.parallel_sttsv.ParallelSTTSV` reads, so
``ParallelSTTSV(partition, n)`` on an order-2
:class:`~repro.tensor.ndpacked.NdPackedSymmetricTensor` is the parallel
SYMV.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, List, Tuple

from repro.core.schedule import ExchangeSchedule
from repro.errors import PartitionError
from repro.matching.bmatching import bipartite_b_matching
from repro.matching.edge_coloring import permutation_rounds
from repro.steiner.pairwise import PairwiseSteinerSystem

MatrixBlockIndex = Tuple[int, int]


class TriangleBlockPartition:
    """Assignment of matrix blocks and vector shards to processors.

    Attributes
    ----------
    need, consumers:
        ``R`` and ``Q`` again, under the names Algorithm 5's exchange
        pairs are built from (:class:`~repro.core.plans.ExchangePlan`).

    Examples
    --------
    >>> from repro.steiner.pairwise import projective_plane_system
    >>> part = TriangleBlockPartition(projective_plane_system(2))
    >>> (part.P, part.m, part.steiner.point_replication())
    (7, 7, 3)
    """

    order = 2

    def __init__(self, steiner: PairwiseSteinerSystem):
        self.steiner = steiner
        self.P = len(steiner)
        self.m = steiner.m
        self.r = steiner.r
        if self.m > self.P:
            raise PartitionError(
                f"diagonal assignment needs m <= P; got m={self.m} > P={self.P}"
            )
        self.R: Tuple[Tuple[int, ...], ...] = steiner.blocks
        self.D = self._assign_diagonal()
        self.Q = tuple(
            tuple(steiner.point_to_blocks()[i]) for i in range(self.m)
        )
        self.need = self.R
        self.consumers = self.Q

    def _assign_diagonal(self) -> Tuple[Tuple[MatrixBlockIndex, ...], ...]:
        members = [frozenset(row) for row in self.R]
        adjacency = [
            [p for p in range(self.P) if i in members[p]] for i in range(self.m)
        ]
        assignment = bipartite_b_matching(self.m, self.P, adjacency, 1)
        per_processor: List[List[MatrixBlockIndex]] = [[] for _ in range(self.P)]
        for i in range(self.m):
            (p,) = assignment[i]
            per_processor[p].append((i, i))
        return tuple(tuple(owned) for owned in per_processor)

    # -- inventory -------------------------------------------------------------

    def off_diagonal_blocks(self, p: int) -> List[MatrixBlockIndex]:
        """``TB₂(R_p)``: the ``C(r, 2)`` strictly-lower blocks of ``p``."""
        return [
            (b, a) if b > a else (a, b)
            for a, b in combinations(self.R[p], 2)
        ]

    def owned_blocks(self, p: int) -> List[MatrixBlockIndex]:
        """All matrix blocks of processor ``p`` (off-diagonal + diagonal)."""
        return sorted(self.off_diagonal_blocks(p) + list(self.D[p]), reverse=True)

    def owner_of_block(self) -> Dict[MatrixBlockIndex, int]:
        """Map every lower-triangular block index to its owner."""
        owner: Dict[MatrixBlockIndex, int] = {}
        for p in range(self.P):
            for block in self.owned_blocks(p):
                if block in owner:
                    raise PartitionError(
                        f"block {block} owned by both {owner[block]} and {p}"
                    )
                owner[block] = p
        return owner

    def validate(self) -> None:
        """Verify full single coverage and R-compatibility."""
        owner = self.owner_of_block()
        expected = {(i, j) for i in range(self.m) for j in range(i + 1)}
        if set(owner) != expected:
            raise PartitionError(
                f"coverage mismatch: {len(owner)} owned vs"
                f" {len(expected)} expected"
            )
        for p in range(self.P):
            members = set(self.R[p])
            for block in self.D[p]:
                if not set(block) <= members:
                    raise PartitionError(
                        f"processor {p}: diagonal {block} outside R_p"
                    )
            if len(self.D[p]) > 1:
                raise PartitionError(f"processor {p}: multiple diagonal blocks")
        replication = self.steiner.point_replication()
        for i, processors in enumerate(self.Q):
            if len(processors) != replication:
                raise PartitionError(
                    f"row block {i}: |Q_i| = {len(processors)} != {replication}"
                )

    # -- sharding ------------------------------------------------------------------

    def shard_size(self, b: int) -> int:
        """Per-processor shard of one row block; needs ``λ₁ | b``."""
        replication = self.steiner.point_replication()
        if b % replication != 0:
            raise PartitionError(
                f"row-block size {b} not divisible by |Q_i| = {replication}"
            )
        return b // replication

    def shard_owner_position(self, i: int, p: int) -> int:
        """Position of ``p`` within ``Q_i``."""
        try:
            return self.Q[i].index(p)
        except ValueError:
            raise PartitionError(
                f"processor {p} does not require row block {i}"
            ) from None

    def shared_row_blocks(self, p: int, p_other: int) -> FrozenSet[int]:
        """``R_p ∩ R_{p'}`` — at most one index (2-design axiom)."""
        return frozenset(self.R[p]) & frozenset(self.R[p_other])

    def exchange_schedule(
        self, pairs: Dict[Tuple[int, int], List[int]]
    ) -> ExchangeSchedule:
        """Permutation rounds (Lemma 7.1) of one phase's pair map.

        The exchange graph of a 2-design is regular and symmetric, and
        every neighbor pair shares exactly one row block, so both
        phases run the same rounds of one-shard messages.
        """
        shared: Dict[Tuple[int, int], FrozenSet[int]] = {}
        for pair, blocks in pairs.items():
            if len(blocks) > 1:
                raise PartitionError(
                    "two blocks of a 2-design share more than one point"
                )
            shared[pair] = frozenset(blocks)
        return ExchangeSchedule(
            shared=shared, rounds=permutation_rounds(self.P, sorted(pairs))
        )

    # -- accounting -----------------------------------------------------------------

    def storage_words(self, p: int, b: int) -> int:
        """Canonical matrix words stored by ``p``:
        ``C(r,2)·b² + |D_p|·b(b+1)/2 ≈ n²/(2P)``."""
        off = self.r * (self.r - 1) // 2 * b * b
        diagonal = len(self.D[p]) * b * (b + 1) // 2
        return off + diagonal

    def multiplications(self, p: int, b: int) -> int:
        """Scalar multiplications of ``p``'s SYMV share:
        ``2·C(r,2)·b² + |D_p|·b²`` — leading term ``n²/P``."""
        return self.r * (self.r - 1) * b * b + len(self.D[p]) * b * b

    def __repr__(self) -> str:
        return f"TriangleBlockPartition(P={self.P}, m={self.m}, r={self.r})"
