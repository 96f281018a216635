"""Point-to-point exchange schedules (paper §7.2.2, Appendix A, Figure 1).

Two processors must exchange data iff their index sets overlap:
``R_p ∩ R_{p'} ≠ ∅``. By the Steiner property an intersection has size
at most 2 (three shared indices would mean two distinct blocks covering
one triple). The exchange graph is regular — its degree depends only on
the design's replication numbers:

* neighbors sharing 2 row blocks: ``C(r,2) · (λ₂ - 1)`` where
  ``λ₂ = (m-2)/(r-2)`` (Lemma 6.3);
* incidences: ``r · (λ₁ - 1)`` with ``λ₁ = (m-1)(m-2)/((r-1)(r-2))``
  (Lemma 6.4); neighbors sharing exactly 1 block make up the rest.

For the spherical family this gives ``q²(q+1)/2`` two-block neighbors
and ``q² - 1`` one-block neighbors — ``q³/2 + 3q²/2 - 1`` steps total
(§7.2.2). For the paper's SQS(8) example every processor has exactly 12
two-block neighbors and the schedule has 12 < P - 1 = 13 steps
(Figure 1).

Each step is a permutation: every processor sends one message and
receives one message (Theorem 7.2), obtained by decomposing the
d-regular exchange digraph into ``d`` permutations (Lemma 7.1 /
:func:`repro.matching.edge_coloring.permutation_rounds`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.partition import TetrahedralPartition
from repro.errors import PartitionError
from repro.matching.edge_coloring import permutation_rounds


@dataclass(frozen=True)
class ExchangeDegrees:
    """Analytic neighbor counts of the exchange graph."""

    two_block: int
    one_block: int

    @property
    def total(self) -> int:
        """Schedule length ``d`` — one synchronous step per neighbor."""
        return self.two_block + self.one_block


def exchange_degrees(partition: TetrahedralPartition) -> ExchangeDegrees:
    """Closed-form neighbor counts from the design's replication numbers."""
    r = partition.r
    lambda_pair = partition.steiner.pair_replication()
    lambda_point = partition.steiner.point_replication()
    two_block = r * (r - 1) // 2 * (lambda_pair - 1)
    incidences = r * (lambda_point - 1)
    one_block = incidences - 2 * two_block
    if one_block < 0:
        raise PartitionError("negative one-block neighbor count (internal)")
    return ExchangeDegrees(two_block=two_block, one_block=one_block)


@dataclass
class ExchangeSchedule:
    """A complete point-to-point schedule for one exchange phase.

    Attributes
    ----------
    shared:
        ``shared[(p, p')]`` — the row blocks the ordered pair exchanges
        (symmetric at orders 2 and 3: same set for both orders).
    rounds:
        Permutation rounds (sender -> receiver; partial permutations at
        order 4); executing all rounds delivers exactly one message per
        ordered neighbor pair.
    degrees:
        The analytic :class:`ExchangeDegrees` (verified against the
        realized graph at construction); ``None`` at order 2, whose
        one-shared-block neighbor count ``r(λ₁ − 1)`` is not split into
        these cases, and for the irregular order-4 graphs, which have
        no closed form.
    """

    shared: Dict[Tuple[int, int], FrozenSet[int]]
    rounds: List[Dict[int, int]]
    degrees: Optional[ExchangeDegrees] = None

    @property
    def step_count(self) -> int:
        """Number of synchronous steps (== exchange-graph degree)."""
        return len(self.rounds)

    def neighbors_of(self, p: int) -> List[int]:
        """Sorted neighbor list of processor ``p``."""
        return sorted(dst for (src, dst) in self.shared if src == p)


def build_exchange_schedule(partition: TetrahedralPartition) -> ExchangeSchedule:
    """Construct the §7.2.2 schedule for ``partition``.

    Builds the exchange digraph (one directed edge per ordered neighbor
    pair), verifies its regularity against the closed-form degree, and
    decomposes it into permutation rounds.
    """
    P = partition.P
    shared: Dict[Tuple[int, int], FrozenSet[int]] = {}
    exchanges: List[Tuple[int, int]] = []
    members = [frozenset(row) for row in partition.R]
    for p in range(P):
        for p_other in range(P):
            if p_other == p:
                continue
            common = members[p] & members[p_other]
            if common:
                if len(common) > 2:
                    raise PartitionError(
                        f"processors {p}, {p_other} share {len(common)} row"
                        f" blocks; Steiner property violated"
                    )
                shared[(p, p_other)] = common
                exchanges.append((p, p_other))

    degrees = exchange_degrees(partition)
    realized = [0] * P
    for src, _ in exchanges:
        realized[src] += 1
    if any(deg != degrees.total for deg in realized):
        raise PartitionError(
            f"exchange graph degrees {sorted(set(realized))} do not match"
            f" analytic degree {degrees.total}"
        )

    rounds = permutation_rounds(P, exchanges)
    return ExchangeSchedule(shared=shared, rounds=rounds, degrees=degrees)
