"""Higher-Order Power Method (paper Algorithm 1) — sequential and parallel.

Each iteration performs one STTSV (the bottleneck the paper analyzes),
normalizes, and repeats until the iterate stabilizes; λ is then
``A ×₁ x ×₂ x ×₃ x``. The optional shift implements SS-HOPM
(Kolda & Mayo): iterating ``y = A ×₂ x ×₃ x + α x`` with sufficiently
large ``α`` makes the map convex on the sphere and guarantees monotone
convergence to a Z-eigenpair even for indefinite tensors — the
paper's Algorithm 1 is the ``α = 0`` special case, which converges for
the odeco/positive-weight workloads used in our examples.

The parallel variant runs every STTSV through
:class:`~repro.core.parallel_sttsv.ParallelSTTSV` on a simulated
machine; between STTSVs it needs only a scalar allreduce (norm and λ),
so its per-iteration bandwidth is the paper's optimal STTSV cost plus
``O(log P)`` words.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.parallel_sttsv import CommBackend, ParallelSTTSV
from repro.core.partition import TetrahedralPartition
from repro.core.sttsv_ndim import sttsv_ndim
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
class HOPMResult:
    """Outcome of a (parallel) HOPM run.

    Attributes
    ----------
    eigenvalue, eigenvector:
        The computed Z-eigenpair (unit-norm vector).
    iterations:
        Iterations executed.
    converged:
        Whether the iterate-change criterion was met.
    residual:
        Final ``||A ×₂ x ×₃ x − λ x||``.
    lambda_history:
        Rayleigh-quotient trajectory (monotone for shifted runs).
    ledger:
        Total communication of the run (parallel variant only).
    words_per_iteration:
        Max per-processor words sent in one iteration (parallel only).
    """

    eigenvalue: float
    eigenvector: np.ndarray
    iterations: int
    converged: bool
    residual: float
    lambda_history: List[float] = field(default_factory=list)
    ledger: Optional[CommunicationLedger] = None
    words_per_iteration: Optional[int] = None


def _initial_vector(n: int, x0, seed: SeedLike) -> np.ndarray:
    if x0 is not None:
        x = np.asarray(x0, dtype=np.float64).copy()
        if x.shape != (n,):
            raise ConfigurationError(f"x0 must have shape ({n},)")
    else:
        x = as_generator(seed).normal(size=n)
    norm = np.linalg.norm(x)
    if norm == 0:
        raise ConfigurationError("initial vector is zero")
    return x / norm


def suggested_shift(tensor: PackedSymmetricTensor) -> float:
    """A sufficient SS-HOPM shift for guaranteed monotone convergence.

    Kolda & Mayo: any ``α > (d−1)·ρ(A)`` (with ``ρ`` the spectral
    radius of the quadratic form's Hessian bound) makes the shifted map
    convex on the sphere. We bound ``ρ(A) <= max_i Σ_{j,k} |a_ijk|``
    (the ∞-norm of the flattening), computable in one pass over packed
    storage with permutation multiplicities.
    """
    # Row sums of the mode-1 flattening of |A|: each canonical entry
    # contributes to rows i, j, k with the count of ordered (j,k) pairs
    # — exactly |A| ×₂ 1 ×₃ 1, so the shared scatter kernel (with its
    # cached index/weight arrays) computes it directly.
    magnitude = PackedSymmetricTensor(tensor.n, np.abs(tensor.data))
    rows = sttsv_ndim(magnitude, np.ones(tensor.n))
    return 2.0 * float(rows.max())


def hopm(
    tensor: PackedSymmetricTensor,
    x0: Optional[np.ndarray] = None,
    *,
    shift: float = 0.0,
    tolerance: float = 1e-10,
    max_iterations: int = 500,
    seed: SeedLike = 0,
    raise_on_failure: bool = False,
) -> HOPMResult:
    """Sequential Algorithm 1 (with optional SS-HOPM shift).

    Parameters
    ----------
    shift:
        SS-HOPM shift α; 0 reproduces the paper's Algorithm 1 exactly.
    tolerance:
        Convergence threshold on ``||x_{t+1} − x_t||``.
    raise_on_failure:
        Raise :class:`ConvergenceError` instead of returning a
        non-converged result.
    """
    n = tensor.n
    x = _initial_vector(n, x0, seed)
    history: List[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        raw = sttsv(tensor, x)
        # λ-history records the Rayleigh quotient of the *pre-update*
        # (unit) iterate — the quantity SS-HOPM proves monotone.
        history.append(float(x @ raw))
        y = raw + shift * x
        norm = np.linalg.norm(y)
        if norm == 0:
            raise ConvergenceError("HOPM iterate collapsed to zero")
        new_x = y / norm
        # Sign fix: for negative-λ fixed points the unshifted iteration
        # alternates sign; align to the previous iterate.
        if float(new_x @ x) < 0:
            new_x = -new_x
        delta = np.linalg.norm(new_x - x)
        x = new_x
        if delta <= tolerance:
            converged = True
            break
    if not converged and raise_on_failure:
        raise ConvergenceError(
            f"HOPM did not converge in {max_iterations} iterations"
        )
    y = sttsv(tensor, x)
    eigenvalue = float(x @ y)
    residual = float(np.linalg.norm(y - eigenvalue * x))
    return HOPMResult(
        eigenvalue=eigenvalue,
        eigenvector=x,
        iterations=iterations,
        converged=converged,
        residual=residual,
        lambda_history=history,
    )


def parallel_hopm(
    partition: TetrahedralPartition,
    tensor: PackedSymmetricTensor,
    x0: Optional[np.ndarray] = None,
    *,
    backend: CommBackend = CommBackend.POINT_TO_POINT,
    tolerance: float = 1e-10,
    max_iterations: int = 200,
    seed: SeedLike = 0,
    transport: Optional["Transport"] = None,
    recovery: Optional[RecoveryPolicy] = None,
    fusion: bool = True,
) -> HOPMResult:
    """Parallel Algorithm 1 on the simulated machine.

    The iterate stays distributed as vector shards between iterations;
    each iteration costs one full Algorithm-5 exchange (measured in the
    returned ledger) plus two scalar allreduces. ``transport`` selects
    who moves the bytes (default in-process; pass a
    :class:`~repro.machine.transport.shm.SharedMemoryTransport` to run
    exchanges across worker processes — the caller closes it);
    ``recovery`` bounds the retry loop for transfers that fail
    end-of-round integrity verification (DESIGN.md §8).
    """
    n = tensor.n
    machine = Machine(
        partition.P, transport=transport, recovery=recovery, fusion=fusion
    )
    algo = ParallelSTTSV(partition, n, backend)
    x = _initial_vector(n, x0, seed)
    algo.load(machine, tensor, x)

    total_ledger = CommunicationLedger(partition.P)
    history: List[float] = []
    converged = False
    iterations = 0
    words_first_iteration: Optional[int] = None
    for iterations in range(1, max_iterations + 1):
        algo.run(machine)
        # Distributed norm and Rayleigh quotient: every shard is owned by
        # exactly one processor, so local sums partition the global sums.
        local_norm_sq = []
        local_dot = []
        local_delta_sq = []
        for p in range(partition.P):
            y_shards = machine[p].load("y_shards")
            x_shards = machine[p].load("x_shards")
            local_norm_sq.append(
                sum(float(v @ v) for v in y_shards.values())
            )
            local_dot.append(
                sum(
                    float(x_shards[i] @ y_shards[i])
                    for i in x_shards
                )
            )
        norm = float(np.sqrt(all_reduce_scalar(machine, local_norm_sq)[0]))
        dot_xy = all_reduce_scalar(machine, local_dot)[0]
        if norm == 0:
            raise ConvergenceError("parallel HOPM iterate collapsed to zero")
        sign = -1.0 if dot_xy < 0 else 1.0
        # Local update: x <- sign * y / norm, tracking the change.
        for p in range(partition.P):
            proc = machine[p]
            y_shards = proc.load("y_shards")
            x_shards = proc.load("x_shards")
            delta_sq = 0.0
            new_shards = {}
            for i, y_shard in y_shards.items():
                new = sign * y_shard / norm
                delta_sq += float(np.sum((new - x_shards[i]) ** 2))
                new_shards[i] = new
            local_delta_sq.append(delta_sq)
            proc.store("x_shards", new_shards)
        delta = float(np.sqrt(all_reduce_scalar(machine, local_delta_sq)[0]))
        # dot_xy = x_tᵀ (A ×₂ x_t ×₃ x_t): the Rayleigh quotient of the
        # pre-update unit iterate — matching the sequential history.
        history.append(dot_xy)
        if words_first_iteration is None:
            words_first_iteration = machine.ledger.max_words_sent()
        total_ledger.merge(machine.reset_ledger())
        if delta <= tolerance:
            converged = True
            break

    # Assemble the final iterate for reporting (out of model).
    shards = [machine[p].load("x_shards") for p in range(partition.P)]
    from repro.core.distribution import assemble_vector

    x = assemble_vector(partition, shards, algo.b, original_length=n)
    x = x / np.linalg.norm(x)
    y = sttsv(tensor, x)
    eigenvalue = float(x @ y)
    residual = float(np.linalg.norm(y - eigenvalue * x))
    return HOPMResult(
        eigenvalue=eigenvalue,
        eigenvector=x,
        iterations=iterations,
        converged=converged,
        residual=residual,
        lambda_history=history,
        ledger=total_ledger,
        words_per_iteration=words_first_iteration,
    )
