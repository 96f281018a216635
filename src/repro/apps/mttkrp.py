"""Symmetric MTTKRP (paper §8): ``Y_{iℓ} = Σ_{j,k} a_ijk X_jℓ X_kℓ``.

The matricized-tensor-times-Khatri-Rao product for a symmetric 3-D
tensor is, column by column, an STTSV with the corresponding factor
column (the paper's closing observation). This module exposes it as a
first-class operation with a sequential kernel, a batched vectorized
kernel, and a parallel variant whose communication is exactly ``r``
optimal STTSV exchanges.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.distribution import shard_bounds
from repro.core.parallel_sttsv import CommBackend, ParallelSTTSV
from repro.core.plans import sequential_plan
from repro.core.sttsv_sequential import sttsv
from repro.errors import ConfigurationError
from repro.machine.collectives import point_to_point_rounds
from repro.machine.ledger import CommunicationLedger
from repro.machine.machine import Machine
from repro.tensor.packed import PackedSymmetricTensor


def _check_factor(n: int, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != n:
        raise ConfigurationError(
            f"factor matrix must have shape ({n}, r), got {X.shape}"
        )
    return X


def symmetric_mttkrp(
    tensor: PackedSymmetricTensor, X: np.ndarray
) -> np.ndarray:
    """Column-by-column reference: ``Y[:, ℓ] = A ×₂ x_ℓ ×₃ x_ℓ``."""
    X = _check_factor(tensor.n, X)
    return np.column_stack(
        [sttsv(tensor, X[:, col]) for col in range(X.shape[1])]
    )


def symmetric_mttkrp_batched(
    tensor: PackedSymmetricTensor, X: np.ndarray
) -> np.ndarray:
    """All columns through the compiled plan's batched engine.

    Processes the whole factor matrix at once: the plan's ``gemm``
    strategy reduces the batch with a single multi-column GEMM over the
    precompiled symmetry-reduced unfolding — one pass over the tensor
    operator regardless of ``r``, which is how a production MTTKRP
    amortizes tensor traffic. See :mod:`repro.core.plans`.
    """
    X = _check_factor(tensor.n, X)
    return sequential_plan(tensor).apply_batch(X)


def parallel_symmetric_mttkrp(
    engine: ParallelSTTSV, machine: Machine, X: np.ndarray
) -> Tuple[np.ndarray, CommunicationLedger]:
    """Parallel MTTKRP: ``r`` Algorithm-5 executions on an engine
    holding the tensor (``engine.load_tensor(machine, tensor)`` has run;
    the caller owns ``machine``). Any engine works.

    Returns ``(Y, ledger)``; the ledger holds this call's rounds only —
    exactly ``r`` times the single-STTSV optimal cost in ``r`` times the
    steps. See :func:`parallel_symmetric_mttkrp_batched` for the variant
    that ships all columns per message.
    """
    X = _check_factor(engine.n, X)
    machine.reset_ledger()
    total = CommunicationLedger(machine.P)
    columns = []
    for col in range(X.shape[1]):
        engine.load_vector(machine, X[:, col])
        engine.run(machine)
        columns.append(engine.gather_result(machine))
        total.merge(machine.reset_ledger())
    return np.column_stack(columns), total


def parallel_symmetric_mttkrp_batched(
    engine: ParallelSTTSV, machine: Machine, X: np.ndarray
) -> Tuple[np.ndarray, CommunicationLedger]:
    """Column-batched parallel MTTKRP: one exchange for all ``r`` columns.

    Same total words as :func:`parallel_symmetric_mttkrp` (``r`` shards
    per neighbor message instead of a shard per message per column) but
    the *latency* term drops from ``2r(q³/2+3q²/2−1)`` steps to
    ``2(q³/2+3q²/2−1)`` — the standard amortization CP-ALS implementations
    rely on. Each processor runs the Algorithm-5 block kernels on
    ``(b, r)`` row-block *matrices*: the engine's stacked kernel
    (:meth:`ParallelSTTSV.block_products`) takes all ``r`` columns in
    one pass over the dense order-3 blocks the engine holds, along its
    point-to-point schedule; any other engine raises :class:`ConfigurationError`.
    Returns ``(Y, ledger)`` with this call's rounds only.
    """
    X = _check_factor(engine.n, X)
    if (
        engine.backend is not CommBackend.POINT_TO_POINT
        or engine.partition.order != 3
        or engine.storage(machine) != "dense"
    ):
        raise ConfigurationError(
            "column-batched MTTKRP needs a point-to-point engine holding a"
            " dense order-3 tensor; use parallel_symmetric_mttkrp"
        )
    n, r = X.shape
    partition, b, shard = engine.partition, engine.b, engine.shard
    plan = engine.exchange_plan
    machine.reset_ledger()

    # Factor shards as (shard, r) row slices, laid out like x's.
    X_padded = np.zeros((engine.n_padded, r))
    X_padded[:n] = X
    for p, shards in enumerate(plan.split_shards(X_padded[plan.load_index])):
        machine[p].store("X_shards", shards)

    schedule = engine.schedule

    def x_payload(src, dst):
        common = schedule.shared.get((src, dst))
        if not common:
            return None
        shards = machine[src].load("X_shards")
        return np.concatenate([shards[i] for i in sorted(common)], axis=0)

    received = point_to_point_rounds(
        machine, schedule.rounds, x_payload, tag="mttkrp-x"
    )
    # Factor row blocks in the exchange plan's full layout, each
    # processor's as views.
    X_full = np.zeros((plan.full_offset[-1], r))
    for p, full in enumerate(plan.row_blocks(X_full)):
        for i, shard_block in machine[p].load("X_shards").items():
            lo, hi = shard_bounds(partition, i, p, b)
            full[i][lo:hi] = shard_block
        for src, payload in received[p].items():
            offset = 0
            for i in sorted(schedule.shared.get((src, p)) or ()):
                lo, hi = shard_bounds(partition, i, src, b)
                full[i][lo:hi] = payload[offset : offset + (hi - lo)]
                offset += hi - lo
        machine[p].store("X_full", full)

    # Local compute: the engine's stacked block kernel on all r columns.
    Y_full = engine.block_products(machine, X_full)
    for p, partial in enumerate(plan.row_blocks(Y_full)):
        machine[p].store("Y_partial", partial)

    def y_payload(src, dst):
        common = schedule.shared.get((src, dst))
        if not common:
            return None
        partial = machine[src].load("Y_partial")
        pieces = []
        for i in sorted(common):
            lo, hi = shard_bounds(partition, i, dst, b)
            pieces.append(partial[i][lo:hi])
        return np.concatenate(pieces, axis=0)

    received = point_to_point_rounds(
        machine, schedule.rounds, y_payload, tag="mttkrp-y"
    )
    Y = np.full((engine.n_padded, r), np.nan)
    for p in range(machine.P):
        proc = machine[p]
        partial = proc.load("Y_partial")
        for i in partition.R[p]:
            lo, hi = shard_bounds(partition, i, p, b)
            final = partial[i][lo:hi].copy()
            for src, payload in received[p].items():
                common = sorted(schedule.shared.get((src, p)) or ())
                if i in common:
                    at = common.index(i) * shard
                    final += payload[at : at + shard]
            Y[i * b + lo : i * b + hi] = final
    return Y[:n], machine.reset_ledger()
