"""Communication-efficient parallel SYRK on the triangle partition.

``C = A Aᵀ`` with ``A ∈ R^{n×k}``: the output is symmetric, so only its
lower triangle is computed — the kernel of Al Daas et al. (SPAA 2023),
whose triangle block partition the paper's §6 generalizes to tensors.

Structure under the triangle partition (one Steiner ``(m, r, 2)`` block
per processor):

* output block ``C[I, J]`` (``I >= J``) lives permanently on the
  processor owning ``(I, J)`` — the owner-computes rule means **no
  output communication at all**;
* computing ``C[I, J] = A[I] A[J]ᵀ`` needs the two input row panels
  ``A[I], A[J] ∈ R^{b×k}``; a processor's ``C(r,2)`` off-diagonal
  blocks plus one diagonal block need exactly the ``r`` panels of
  ``R_p``, gathered from the ``λ₁`` co-owners of each panel — a single
  exchange phase of ``r (λ₁ − 1) · (b/λ₁) · k`` words per processor,
  ``≈ k n / √P`` for projective planes.

This mirrors the memory-independent ``Θ(k n / P^{1/2})`` bandwidth of
the cited work at leading order (each element of ``A`` is replicated to
the λ₁ processors whose blocks touch its row).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core.plans import ExchangePlan
from repro.errors import ConfigurationError, MachineError
from repro.machine.collectives import point_to_point_rounds
from repro.machine.machine import Machine
from repro.matrix.partition import TriangleBlockPartition


def syrk_reference(A: np.ndarray) -> np.ndarray:
    """Oracle: dense ``A Aᵀ``."""
    A = np.asarray(A, dtype=np.float64)
    return A @ A.T


def syrk_bandwidth(partition: TriangleBlockPartition, b: int, k: int) -> int:
    """Per-processor words of the single gather phase:
    ``r (λ₁ − 1) (b/λ₁) k``."""
    replication = partition.steiner.point_replication()
    return partition.r * (replication - 1) * (b // replication) * k


class ParallelSYRK:
    """Triangle-partitioned ``C = A Aᵀ`` on the simulated machine.

    Examples
    --------
    >>> from repro.steiner.pairwise import projective_plane_system
    >>> part = TriangleBlockPartition(projective_plane_system(2))
    >>> algo = ParallelSYRK(part, n=21, k=4)
    >>> (algo.b, algo.shard)
    (3, 1)
    """

    def __init__(self, partition: TriangleBlockPartition, n: int, k: int):
        self.partition = partition
        self.n = n
        self.k = k
        replication = partition.steiner.point_replication()
        per_row = -(-n // partition.m)
        self.b = replication * (-(-per_row // replication))
        self.n_padded = partition.m * self.b
        self.shard = partition.shard_size(self.b)
        schedule = partition.exchange_schedule(
            ExchangePlan(partition, self.b).x_pairs
        )
        self.shared, self.rounds = schedule.shared, schedule.rounds

    def _shard_rows(self, i: int, p: int):
        position = self.partition.shard_owner_position(i, p)
        return position * self.shard, (position + 1) * self.shard

    def load(self, machine: Machine, A: np.ndarray) -> None:
        """Distribute ``A`` row-panel shards (each panel split over its
        λ₁ co-owners, like the vectors in SYMV)."""
        if machine.P != self.partition.P:
            raise MachineError(
                f"machine P={machine.P} != partition P={self.partition.P}"
            )
        A = np.asarray(A, dtype=np.float64)
        if A.shape != (self.n, self.k):
            raise ConfigurationError(
                f"A must have shape ({self.n}, {self.k}), got {A.shape}"
            )
        padded = np.zeros((self.n_padded, self.k))
        padded[: self.n] = A
        for p in range(machine.P):
            shards: Dict[int, np.ndarray] = {}
            for i in self.partition.R[p]:
                lo, hi = self._shard_rows(i, p)
                shards[i] = padded[i * self.b + lo : i * self.b + hi].copy()
            machine[p].store("A_shards", shards)

    def run(self, machine: Machine) -> None:
        """Gather panels, multiply blocks; ``C`` blocks stay in place."""
        partition = self.partition

        def payload(src: int, dst: int) -> Optional[np.ndarray]:
            common = self.shared.get((src, dst))
            if not common:
                return None
            shards = machine[src].load("A_shards")
            return np.concatenate([shards[i] for i in sorted(common)], axis=0)

        received = point_to_point_rounds(
            machine, self.rounds, payload, tag="syrk-gather"
        )
        for p in range(machine.P):
            proc = machine[p]
            panels = {i: np.zeros((self.b, self.k)) for i in partition.R[p]}
            for i, shard in proc.load("A_shards").items():
                lo, hi = self._shard_rows(i, p)
                panels[i][lo:hi] = shard
            for src, data in received[p].items():
                common = self.shared.get((src, p))
                if not common:
                    continue
                offset = 0
                for i in sorted(common):
                    lo, hi = self._shard_rows(i, src)
                    panels[i][lo:hi] = data[offset : offset + (hi - lo)]
                    offset += hi - lo
            blocks = {}
            for I, J in partition.owned_blocks(p):
                blocks[(I, J)] = panels[I] @ panels[J].T
            proc.store("C_blocks", blocks)

    def gather_result(self, machine: Machine) -> np.ndarray:
        """Assemble the full symmetric ``C`` (verification step)."""
        C = np.full((self.n_padded, self.n_padded), np.nan)
        for p in range(machine.P):
            for (I, J), block in machine[p].load("C_blocks").items():
                C[I * self.b : (I + 1) * self.b, J * self.b : (J + 1) * self.b] = block
                C[J * self.b : (J + 1) * self.b, I * self.b : (I + 1) * self.b] = (
                    block.T
                )
        if np.any(np.isnan(C)):
            raise MachineError("missing C blocks in SYRK result")
        return C[: self.n, : self.n]

    def expected_words_per_processor(self) -> int:
        """Single gather phase: ``r (λ₁ − 1) · shard · k``."""
        replication = self.partition.steiner.point_replication()
        return self.partition.r * (replication - 1) * self.shard * self.k
