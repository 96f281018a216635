"""SYMM and SYR2K on the triangle partition.

Completes the symmetric-matrix kernel family of the works the paper
builds on (Al Daas et al. 2025 give communication-optimal SYRK, SYR2K
and SYMM from triangle partitions; Agullo et al. 2023 demonstrate the
SYMM arithmetic-intensity gain):

* **SYMM** — ``C = A B`` with symmetric ``A`` (an order-2
  :class:`~repro.tensor.ndpacked.NdPackedSymmetricTensor`, triangle
  blocks) and dense ``B`` (n×k) is SYMV with ``k`` columns, so it has
  no class of its own: Algorithm 5 at order 2
  (:class:`~repro.core.parallel_sttsv.ParallelSTTSV` on a
  :class:`~repro.matrix.partition.TriangleBlockPartition`) loaded with
  ``B`` as its ``(n, k)`` x. Two exchange phases (gather B panels,
  reduce C partials) in SYMV's rounds, ``2 r (λ₁ − 1) · shard · k``
  words per processor; :func:`symm_reference` is the oracle.
* **SYR2K** — ``C = A Bᵀ + B Aᵀ`` (symmetric output, dense n×k
  inputs): like SYRK but gathering *two* panel families; single
  exchange phase, ``2 r (λ₁ − 1) · shard · k`` words, no output
  communication.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError, MachineError
from repro.machine.collectives import point_to_point_rounds
from repro.machine.machine import Machine
from repro.matrix.partition import TriangleBlockPartition
from repro.matrix.syrk import ParallelSYRK
from repro.tensor.ndpacked import NdPackedSymmetricTensor


def symm_reference(matrix: NdPackedSymmetricTensor, B: np.ndarray) -> np.ndarray:
    """Oracle: dense ``A B``."""
    return matrix.to_dense() @ np.asarray(B, dtype=np.float64)


def syr2k_reference(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Oracle: dense ``A Bᵀ + B Aᵀ``."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    return A @ B.T + B @ A.T


class ParallelSYR2K:
    """Triangle-partitioned ``C = A Bᵀ + B Aᵀ`` (single gather phase).

    Like :class:`~repro.matrix.syrk.ParallelSYRK` but gathering the two
    panel families; each owned block computes
    ``C[I,J] = A[I] B[J]ᵀ + B[I] A[J]ᵀ``.
    """

    def __init__(self, partition: TriangleBlockPartition, n: int, k: int):
        self._geometry = ParallelSYRK(partition, n, k)
        self.partition = partition
        self.n, self.k = n, k
        self.b = self._geometry.b
        self.n_padded = self._geometry.n_padded
        self.shard = self._geometry.shard
        self.shared = self._geometry.shared
        self.rounds = self._geometry.rounds

    def load(self, machine: Machine, A: np.ndarray, B: np.ndarray) -> None:
        """Distribute both panel families in shards."""
        for name, M in (("A", A), ("B", B)):
            M = np.asarray(M, dtype=np.float64)
            if M.shape != (self.n, self.k):
                raise ConfigurationError(
                    f"{name} must have shape ({self.n}, {self.k}), got {M.shape}"
                )
        if machine.P != self.partition.P:
            raise MachineError("machine size mismatch")
        padded = {
            "A": np.zeros((self.n_padded, self.k)),
            "B": np.zeros((self.n_padded, self.k)),
        }
        padded["A"][: self.n] = A
        padded["B"][: self.n] = B
        for p in range(machine.P):
            shards = {}
            for i in self.partition.R[p]:
                lo, hi = self._geometry._shard_rows(i, p)
                shards[i] = np.concatenate(
                    [
                        padded["A"][i * self.b + lo : i * self.b + hi],
                        padded["B"][i * self.b + lo : i * self.b + hi],
                    ],
                    axis=1,
                )  # (rows, 2k): both families in one message
            machine[p].store("AB_shards", shards)

    def run(self, machine: Machine) -> None:
        """One gather of the fused (A|B) panels, then local block GEMMs."""
        partition = self.partition

        def payload(src, dst) -> Optional[np.ndarray]:
            common = self.shared.get((src, dst))
            if not common:
                return None
            shards = machine[src].load("AB_shards")
            return np.concatenate([shards[i] for i in sorted(common)], axis=0)

        received = point_to_point_rounds(
            machine, self.rounds, payload, tag="syr2k-gather"
        )
        k = self.k
        for p in range(machine.P):
            proc = machine[p]
            panels = {i: np.zeros((self.b, 2 * k)) for i in partition.R[p]}
            for i, shard in proc.load("AB_shards").items():
                lo, hi = self._geometry._shard_rows(i, p)
                panels[i][lo:hi] = shard
            for src, data in received[p].items():
                common = self.shared.get((src, p))
                if not common:
                    continue
                offset = 0
                for i in sorted(common):
                    lo, hi = self._geometry._shard_rows(i, src)
                    panels[i][lo:hi] = data[offset : offset + (hi - lo)]
                    offset += hi - lo
            blocks = {}
            for I, J in partition.owned_blocks(p):
                A_I, B_I = panels[I][:, :k], panels[I][:, k:]
                A_J, B_J = panels[J][:, :k], panels[J][:, k:]
                blocks[(I, J)] = A_I @ B_J.T + B_I @ A_J.T
            proc.store("C_blocks", blocks)

    def gather_result(self, machine: Machine) -> np.ndarray:
        """Assemble the full symmetric ``C`` (verification step)."""
        return ParallelSYRK.gather_result(self, machine)  # same layout

    def expected_words_per_processor(self) -> int:
        """Single phase, doubled panels: ``r (λ₁ − 1) · shard · 2k``."""
        replication = self.partition.steiner.point_replication()
        return self.partition.r * (replication - 1) * self.shard * 2 * self.k
