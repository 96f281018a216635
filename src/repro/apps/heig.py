"""H-eigenvalues of nonnegative symmetric tensors via the NQZ method.

The paper (§1) notes that algorithms for other tensor eigenproblems,
including H-eigenvalues, "also rely on STTSV". An H-eigenpair of an
order-3 tensor satisfies ``A ×₂ x ×₃ x = λ x^{[2]}`` where
``x^{[2]}`` squares elementwise. For an *irreducible nonnegative*
tensor the Ng–Qi–Zhou (NQZ) power iteration

    y = A ×₂ x ×₃ x,   x ← y^{1/2} / ||y^{1/2}||

converges to the unique positive Perron H-eigenpair, with the
Collatz–Wielandt bounds ``min_i y_i/x_i² <= λ <= max_i y_i/x_i²``
sandwiching the eigenvalue at every step. Each iteration is exactly one
STTSV — the same communication profile as HOPM.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.parallel_sttsv import CommBackend, ParallelSTTSV
from repro.core.partition import TetrahedralPartition
from repro.core.sttsv_sequential import sttsv
from repro.errors import ConfigurationError, ConvergenceError
from repro.machine.collectives import all_reduce_scalar
from repro.machine.recovery import RecoveryPolicy
from repro.machine.ledger import CommunicationLedger
from repro.machine.machine import Machine
from repro.machine.transport import Transport
from repro.tensor.packed import PackedSymmetricTensor
from repro.util.seeding import SeedLike, as_generator


@dataclass
class HEigenResult:
    """Outcome of an NQZ run."""

    eigenvalue: float
    eigenvector: np.ndarray
    iterations: int
    converged: bool
    collatz_lower: float
    collatz_upper: float
    history: List[float] = field(default_factory=list)
    ledger: Optional[CommunicationLedger] = None


def _check_nonnegative(tensor: PackedSymmetricTensor) -> None:
    if np.any(tensor.data < 0):
        raise ConfigurationError(
            "NQZ requires a nonnegative tensor (Perron–Frobenius setting)"
        )


def nqz_h_eigenpair(
    tensor: PackedSymmetricTensor,
    *,
    tolerance: float = 1e-12,
    max_iterations: int = 1000,
    seed: SeedLike = 0,
) -> HEigenResult:
    """Sequential NQZ: the positive H-eigenpair of a nonnegative tensor.

    Convergence criterion: the Collatz–Wielandt gap
    ``max_i y_i/x_i² − min_i y_i/x_i²`` falls below ``tolerance`` times
    the eigenvalue estimate.
    """
    _check_nonnegative(tensor)
    n = tensor.n
    rng = as_generator(seed)
    x = np.abs(rng.uniform(0.5, 1.5, size=n))
    x /= np.linalg.norm(x)
    history: List[float] = []
    converged = False
    lower = upper = float("nan")
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        y = sttsv(tensor, x)
        if np.any(y <= 0):
            raise ConvergenceError(
                "NQZ iterate left the positive cone; tensor is likely"
                " reducible — no unique positive H-eigenpair"
            )
        ratios = y / (x * x)
        lower, upper = float(ratios.min()), float(ratios.max())
        estimate = float(np.sqrt(lower * upper))
        history.append(estimate)
        if upper - lower <= tolerance * max(upper, 1e-300):
            converged = True
            break
        x = np.sqrt(y)
        x /= np.linalg.norm(x)
    eigenvalue = (lower + upper) / 2.0
    return HEigenResult(
        eigenvalue=eigenvalue,
        eigenvector=x,
        iterations=iterations,
        converged=converged,
        collatz_lower=lower,
        collatz_upper=upper,
        history=history,
    )


def h_eigen_residual(
    tensor: PackedSymmetricTensor, x: np.ndarray, eigenvalue: float
) -> float:
    """``||A ×₂ x ×₃ x − λ x^{[2]}||`` — the H-eigen equation residual."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.linalg.norm(sttsv(tensor, x) - eigenvalue * x * x))


def parallel_nqz_h_eigenpair(
    partition: TetrahedralPartition,
    tensor: PackedSymmetricTensor,
    *,
    backend: CommBackend = CommBackend.POINT_TO_POINT,
    tolerance: float = 1e-12,
    max_iterations: int = 500,
    seed: SeedLike = 0,
    transport: Optional[Transport] = None,
    recovery: Optional[RecoveryPolicy] = None,
) -> HEigenResult:
    """Parallel NQZ: one Algorithm-5 exchange plus two scalar
    allreduces (Collatz bounds) and one (norm) per iteration.

    The iterate stays distributed as shards; Collatz–Wielandt min/max
    ratios reduce with max/min allreduces over per-processor partials.
    ``transport`` selects who moves the bytes (caller-owned lifecycle).
    """
    _check_nonnegative(tensor)
    n = tensor.n
    algo_probe = ParallelSTTSV(partition, n, backend)
    if algo_probe.n_padded != n:
        raise ConfigurationError(
            f"parallel NQZ needs n divisible by m·q(q+1) (no padding):"
            f" padded entries are zero, making the padded tensor reducible"
            f" and the Perron iteration undefined; n={n} pads to"
            f" {algo_probe.n_padded}"
        )
    rng = as_generator(seed)
    x = np.abs(rng.uniform(0.5, 1.5, size=n))
    x /= np.linalg.norm(x)
    machine = Machine(partition.P, transport=transport, recovery=recovery)
    algo = algo_probe
    algo.load(machine, tensor, x)
    total = CommunicationLedger(partition.P)
    history: List[float] = []
    converged = False
    lower = upper = float("nan")
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        algo.run(machine)
        local_min: List[float] = []
        local_max: List[float] = []
        local_norm: List[float] = []
        for p in range(partition.P):
            proc = machine[p]
            y_shards = proc.load("y_shards")
            x_shards = proc.load("x_shards")
            ratios = np.concatenate(
                [y_shards[i] / (x_shards[i] ** 2) for i in sorted(y_shards)]
            )
            local_min.append(float(ratios.min()))
            local_max.append(float(ratios.max()))
            local_norm.append(
                sum(float(np.sum(np.abs(v))) for v in y_shards.values())
            )
        lower = all_reduce_scalar(machine, local_min, op=min)[0]
        upper = all_reduce_scalar(machine, local_max, op=max)[0]
        # ||sqrt(y)||² = Σ y_i for nonnegative y.
        norm = float(np.sqrt(all_reduce_scalar(machine, local_norm)[0]))
        history.append(float(np.sqrt(max(lower, 0.0) * max(upper, 0.0))))
        if upper - lower <= tolerance * max(upper, 1e-300):
            converged = True
            total.merge(machine.reset_ledger())
            break
        for p in range(partition.P):
            proc = machine[p]
            y_shards = proc.load("y_shards")
            proc.store(
                "x_shards",
                {i: np.sqrt(np.maximum(v, 0.0)) / norm for i, v in y_shards.items()},
            )
        total.merge(machine.reset_ledger())

    from repro.core.distribution import assemble_vector

    shards = [machine[p].load("x_shards") for p in range(partition.P)]
    x = assemble_vector(partition, shards, algo.b, original_length=n)
    norm = np.linalg.norm(x)
    if norm > 0:
        x = x / norm
    eigenvalue = (lower + upper) / 2.0
    return HEigenResult(
        eigenvalue=eigenvalue,
        eigenvector=x,
        iterations=iterations,
        converged=converged,
        collatz_lower=lower,
        collatz_upper=upper,
        history=history,
        ledger=total,
    )
