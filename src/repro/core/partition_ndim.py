"""Order-4 BCSS block partitioning over Steiner quadruple systems.

The paper's order-3 partition assigns each canonical tetrahedral block
to the unique Steiner triple containing its distinct row blocks; exact
optimal partitions for ``s > 3`` are open (no known infinite
``(n, r, s)`` families), so this module takes the pragmatic route the
paper's §8 suggests: use the SQS ``S(2^k, 4, 3)`` family
(:mod:`repro.steiner.boolean`) — every *triple* of row blocks lies in
exactly one quadruple — and assign each canonical order-4 block to a
least-loaded candidate among the quadruples covering its distinct row
blocks:

* 4 distinct row blocks → the four quadruples covering its four
  triples (one extra row block must be fetched unless the fourth point
  closes the quadruple);
* 3 distinct → the unique covering quadruple (no extra fetch);
* ≤ 2 distinct → every quadruple through the pair/point.

The resulting processor needs ``need_p ⊇ R_p`` are irregular, so the
exchange graph is scheduled greedily into *partial permutation* rounds
(distinct senders and distinct receivers per round) — exactly what
:func:`repro.machine.collectives.point_to_point_rounds` accepts; the
regular-graph edge coloring of :mod:`repro.matching.edge_coloring`
does not apply here.

Duck-type compatible with :class:`~repro.core.partition.
TetrahedralPartition` where the distribution helpers need it
(``m / P / R / Q / shard_size / shard_owner_position``): shards of row
block ``i`` live on the ``λ₁`` Steiner holders ``Q_i``; consumers
beyond the holders receive whole row blocks during the x-exchange.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.core.schedule import ExchangeSchedule
from repro.errors import PartitionError
from repro.steiner.system import SteinerSystem
from repro.tensor.ndpacked import nd_index_arrays


class QuadruplePartition:
    """Assign canonical order-4 block tuples to SQS quadruples.

    Parameters
    ----------
    steiner:
        An ``S(m, 4, 3)`` system; block order is the processor
        numbering (``P = len(steiner)``).
    """

    def __init__(self, steiner: SteinerSystem):
        if steiner.r != 4:
            raise PartitionError(
                f"order-4 partitioning needs an S(m, 4, 3) system,"
                f" got block size r={steiner.r}"
            )
        self.steiner = steiner
        self.m = steiner.m
        self.r = steiner.r
        self.P = len(steiner.blocks)
        self.order = 4
        self.R: List[Tuple[int, ...]] = [
            tuple(sorted(block)) for block in steiner.blocks
        ]
        point_map = steiner.point_to_blocks()
        # Q_i: the λ₁ Steiner holders of row block i — these carry the
        # shards, mirroring the order-3 convention.
        self.Q: List[Tuple[int, ...]] = [
            tuple(sorted(point_map[i])) for i in range(self.m)
        ]
        self.replication = steiner.point_replication()

        triple_to_block: Dict[Tuple[int, ...], int] = {}
        for index, block in enumerate(self.R):
            from itertools import combinations

            for triple in combinations(block, 3):
                triple_to_block[triple] = index

        # Greedy least-loaded assignment of every canonical 4-tuple.
        self.owned: List[List[Tuple[int, ...]]] = [[] for _ in range(self.P)]
        loads = [0] * self.P
        block_table = nd_index_arrays(self.m, 4)
        for row in block_table:
            tuple4 = tuple(int(v) for v in row)
            candidates = self._candidates(tuple4, triple_to_block, point_map)
            owner = min(candidates, key=lambda p: (loads[p], p))
            loads[owner] += 1
            self.owned[owner].append(tuple4)

        # Row blocks each processor touches: its Steiner quadruple plus
        # any extra fetched by 4-distinct assignments.
        self.need: List[Tuple[int, ...]] = []
        for p in range(self.P):
            needed: Set[int] = set(self.R[p])
            for block in self.owned[p]:
                needed.update(block)
            self.need.append(tuple(sorted(needed)))
        self.consumers: List[Tuple[int, ...]] = [
            tuple(
                sorted(p for p in range(self.P) if i in set(self.need[p]))
            )
            for i in range(self.m)
        ]

    def _candidates(
        self,
        tuple4: Tuple[int, ...],
        triple_to_block: Dict[Tuple[int, ...], int],
        point_map: Dict[int, List[int]],
    ) -> Sequence[int]:
        from itertools import combinations

        distinct = sorted(set(tuple4))
        if len(distinct) >= 3:
            found = {
                triple_to_block[triple]
                for triple in combinations(distinct, 3)
            }
            return sorted(found)
        if len(distinct) == 2:
            a, b = distinct
            return [
                p for p in point_map[a] if b in set(self.R[p])
            ]
        return list(point_map[distinct[0]])

    # -- duck-typed distribution interface --------------------------------------

    def shard_size(self, b: int) -> int:
        if b % self.replication != 0:
            raise PartitionError(
                f"row block size {b} not divisible by replication"
                f" {self.replication}"
            )
        return b // self.replication

    def shard_owner_position(self, i: int, p: int) -> int:
        try:
            return self.Q[i].index(p)
        except ValueError:
            raise PartitionError(
                f"processor {p} holds no shard of row block {i}"
            ) from None

    def exchange_schedule(
        self, pairs: Dict[Tuple[int, int], List[int]]
    ) -> ExchangeSchedule:
        """Greedy partial-permutation rounds for one phase's pair map
        (the graph is irregular, so the two phases schedule apart)."""
        return ExchangeSchedule(
            shared={pair: frozenset(blocks) for pair, blocks in pairs.items()},
            rounds=greedy_partial_permutation_rounds(sorted(pairs)),
        )

    # -- structure queries -------------------------------------------------------

    def owned_blocks(self, p: int) -> List[Tuple[int, ...]]:
        return list(self.owned[p])

    def extra_row_blocks(self, p: int) -> Tuple[int, ...]:
        """Row blocks ``p`` must fetch beyond its Steiner quadruple."""
        return tuple(sorted(set(self.need[p]) - set(self.R[p])))

    def validate(self) -> None:
        """Every canonical block tuple owned exactly once; every owner
        needs only row blocks it declared; every row block sharded."""
        seen: Dict[Tuple[int, ...], int] = {}
        for p, blocks in enumerate(self.owned):
            declared = set(self.need[p])
            for block in blocks:
                if block in seen:
                    raise PartitionError(
                        f"block {block} owned by {seen[block]} and {p}"
                    )
                seen[block] = p
                if not set(block) <= declared:
                    raise PartitionError(
                        f"owner {p} missing row blocks for {block}"
                    )
        from math import comb

        expected = comb(self.m + 3, 4)
        if len(seen) != expected:
            raise PartitionError(
                f"assigned {len(seen)} blocks, expected {expected}"
            )
        for i in range(self.m):
            if not self.Q[i]:
                raise PartitionError(f"row block {i} has no shard holders")

    def storage_words(self, b: int) -> List[int]:
        """Dense words of tensor storage per processor."""
        return [len(blocks) * b**4 for blocks in self.owned]

    def __repr__(self) -> str:
        return (
            f"QuadruplePartition(m={self.m}, P={self.P},"
            f" replication={self.replication})"
        )


def greedy_partial_permutation_rounds(
    edges: Sequence[Tuple[int, int]],
) -> List[Dict[int, int]]:
    """Decompose directed edges into partial-permutation rounds.

    Each round uses every sender and every receiver at most once — the
    exact contract of :func:`repro.machine.collectives.
    point_to_point_rounds`. Greedy maximal matching per round, edges
    taken in sorted order for determinism; round count is at most
    ``2·Δ − 1`` for maximum degree ``Δ`` (Shannon bound for
    multigraph edge coloring), close enough to optimal for irregular
    order-4 exchange graphs.
    """
    remaining = sorted(set(edges))
    for src, dst in remaining:
        if src == dst:
            raise PartitionError(f"self-edge at processor {src}")
    rounds: List[Dict[int, int]] = []
    while remaining:
        round_map: Dict[int, int] = {}
        used_dst: Set[int] = set()
        leftover: List[Tuple[int, int]] = []
        for src, dst in remaining:
            if src not in round_map and dst not in used_dst:
                round_map[src] = dst
                used_dst.add(dst)
            else:
                leftover.append((src, dst))
        rounds.append(round_map)
        remaining = leftover
    return rounds
