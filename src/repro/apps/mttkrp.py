"""Symmetric MTTKRP (paper §8): ``Y_{iℓ} = Σ_{j,k} a_ijk X_jℓ X_kℓ``.

The matricized-tensor-times-Khatri-Rao product for a symmetric 3-D
tensor is, column by column, an STTSV with the corresponding factor
column (the paper's closing observation). This module exposes it as a
first-class operation with a sequential kernel, a batched vectorized
kernel, and two parallel variants whose communication is exactly ``r``
optimal STTSV exchanges: ``r`` runs of the Algorithm-5 engine, or one
run of it on the ``(n, r)`` factor matrix.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.parallel_sttsv import ParallelSTTSV
from repro.core.plans import sequential_plan
from repro.core.sttsv_sequential import sttsv
from repro.errors import ConfigurationError
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
    """Column-batched parallel MTTKRP: one Algorithm-5 run on all ``r``
    columns (``X`` loaded as the engine's ``(n, r)`` x), on any engine
    holding the tensor.

    Same total words as :func:`parallel_symmetric_mttkrp` (each message
    carries ``r`` columns instead of one per run) but the *latency*
    term drops from ``2r(q³/2+3q²/2−1)`` steps to ``2(q³/2+3q²/2−1)`` —
    the standard amortization CP-ALS implementations rely on; the
    ledger is ``engine.predicted_ledger(r)``. Returns ``(Y, ledger)``
    with this call's rounds only.
    """
    X = _check_factor(engine.n, X)
    machine.reset_ledger()
    engine.load_vector(machine, X)
    engine.run(machine)
    return engine.gather_result(machine), machine.reset_ledger()
