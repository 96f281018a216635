"""Parallel STTSV for sparse symmetric tensors.

The tetrahedral partition's owner-compute rule is storage-agnostic:
entry ``(i, j, k)`` belongs to block ``(i//b, j//b, k//b)`` and that
block's owner, regardless of how entries are stored. For hypergraph
adjacency tensors (the Shivakumar et al. workload the paper cites) the
per-processor blocks are sparse, so this variant keeps each processor's
share as canonical COO entries and computes locally with the
O(local-nnz) scatter kernel. **Communication is identical to the dense
Algorithm 5** — only vector shards ever cross the network — so the
optimal word counts carry over unchanged; what changes is local memory
(O(nnz/P) instead of O(n³/6P)) and local work. The exchange phases are
inherited from :class:`~repro.core.parallel_sttsv.ParallelSTTSV`, so
they run over whatever transport the :class:`Machine` was built with
(in-process simulation or shared-memory workers) with identical ledger
counts.

Load balance caveat: the paper's load-balance analysis assumes dense
blocks (uniform entry counts); a skewed hypergraph can concentrate
nonzeros on few processors. :meth:`SparseParallelSTTSV.load_balance`
reports the realized distribution.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core import distribution as dist
from repro.core.parallel_sttsv import ParallelSTTSV
from repro.errors import ConfigurationError, MachineError
from repro.machine.machine import Machine
from repro.tensor.multiplicity import contribution_weights
from repro.tensor.sparse import SparseSymmetricTensor


class SparseParallelSTTSV(ParallelSTTSV):
    """Algorithm 5 with sparse per-processor tensor storage.

    Same constructor, schedule, exchange phases, and cost accounting as
    :class:`~repro.core.parallel_sttsv.ParallelSTTSV`; only data loading
    and the local kernel differ.
    """

    def load(
        self, machine: Machine, tensor: SparseSymmetricTensor, x: np.ndarray
    ) -> None:
        """Distribute canonical nonzeros by block ownership + x shards."""
        if machine.P != self.partition.P:
            raise MachineError(
                f"machine has {machine.P} processors, partition needs"
                f" {self.partition.P}"
            )
        if tensor.n != self.n:
            raise ConfigurationError(
                f"tensor dimension {tensor.n} != configured {self.n}"
            )
        x_padded = dist.pad_vector(np.asarray(x, dtype=np.float64), self.n_padded)
        shards = dist.initial_shards(self.partition, x_padded, self.b)
        owner = self.partition.owner_of_block()
        b = self.b
        per_processor: List[List[int]] = [[] for _ in range(machine.P)]
        block_rows = tensor.indices // b  # canonical entry -> canonical block
        for position in range(tensor.nnz):
            block = tuple(int(v) for v in block_rows[position])
            per_processor[owner[block]].append(position)
        for p in range(machine.P):
            positions = np.asarray(per_processor[p], dtype=np.int64)
            machine[p].store(
                "sparse_entries",
                (
                    tensor.indices[positions].copy()
                    if positions.size
                    else np.empty((0, 3), dtype=np.int64),
                    tensor.values[positions].copy()
                    if positions.size
                    else np.empty(0),
                ),
            )
            machine[p].store("x_shards", shards[p])

    def _compute_processor(self, machine: Machine, p: int) -> None:
        """Sparse phase-2 work of one simulated processor."""
        proc = machine[p]
        x_full: Dict[int, np.ndarray] = proc.load("x_full")
        indices, values = proc.load("sparse_entries")
        # Assemble a local view of x over the padded index space;
        # only rows in R_p are populated — exactly the data the
        # exchange phase delivered (ownership guarantees every
        # local entry's indices fall inside R_p's row blocks).
        local_x = np.zeros(self.n_padded)
        for i, row in x_full.items():
            local_x[i * self.b : (i + 1) * self.b] = row
        local_y = np.zeros(self.n_padded)
        if values.size:
            I, J, K = indices[:, 0], indices[:, 1], indices[:, 2]
            w_i, w_j, w_k = contribution_weights(I, J, K)
            local_y += np.bincount(
                I,
                weights=w_i * values * local_x[J] * local_x[K],
                minlength=self.n_padded,
            )
            local_y += np.bincount(
                J,
                weights=w_j * values * local_x[I] * local_x[K],
                minlength=self.n_padded,
            )
            local_y += np.bincount(
                K,
                weights=w_k * values * local_x[I] * local_x[J],
                minlength=self.n_padded,
            )
        y_partial = {
            i: local_y[i * self.b : (i + 1) * self.b].copy()
            for i in self.partition.R[p]
        }
        proc.store("y_partial", y_partial)

    def load_balance(self, machine: Machine) -> Dict[str, float]:
        """Realized nonzero distribution across processors."""
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
