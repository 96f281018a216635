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

from repro.core.parallel_sttsv import ParallelSTTSV
from repro.core.sttsv_sequential import sttsv
from repro.errors import ConfigurationError, ConvergenceError
from repro.machine.ledger import CommunicationLedger
from repro.machine.machine import Machine
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
    engine: ParallelSTTSV,
    machine: Machine,
    tensor: PackedSymmetricTensor,
    *,
    tolerance: float = 1e-12,
    max_iterations: int = 500,
    seed: SeedLike = 0,
) -> HEigenResult:
    """Parallel NQZ on an engine holding ``tensor``: one Algorithm-5
    exchange plus two scalar allreduces (Collatz bounds) and one (norm)
    per iteration.

    ``engine.load_tensor(machine, tensor)`` must have run on an order-3
    engine (dense or sparse); the caller owns ``machine``. ``tensor`` is
    read only for the nonnegativity check, so it must be packed (pass a
    sparse tensor's ``to_packed()``). The iterate stays distributed as shards;
    Collatz–Wielandt min/max ratios reduce with min/max allreduces over
    per-processor partials. The returned ledger holds only this run's
    rounds (the machine's ledger is reset on entry).
    """
    _check_nonnegative(tensor)
    if engine.partition.order != 3:
        raise ConfigurationError(
            f"NQZ's x ← y^(1/2) is the order-3 H-eigen iteration; the"
            f" engine is order {engine.partition.order}"
        )
    if engine.n_padded != engine.n:
        raise ConfigurationError(
            f"parallel NQZ needs n divisible by m·q(q+1) (no padding):"
            f" padded entries are zero, making the padded tensor reducible"
            f" and the Perron iteration undefined; n={engine.n} pads to"
            f" {engine.n_padded}"
        )
    rng = as_generator(seed)
    x = np.abs(rng.uniform(0.5, 1.5, size=engine.n))
    x /= np.linalg.norm(x)
    machine.reset_ledger()
    engine.load_vector(machine, x)
    total = CommunicationLedger(machine.P)
    history: List[float] = []
    converged = False
    lower = upper = float("nan")
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        engine.run(machine)
        lower = engine.reduce_shards(machine, _min_ratio, op=min)
        upper = engine.reduce_shards(machine, _max_ratio, op=max)
        # ||sqrt(y)||² = Σ y_i for nonnegative y.
        norm = float(np.sqrt(engine.reduce_shards(machine, _abs_sum)))
        history.append(float(np.sqrt(max(lower, 0.0) * max(upper, 0.0))))
        converged = upper - lower <= tolerance * max(upper, 1e-300)
        if not converged:
            engine.update_x(
                machine,
                lambda x_shards, y_shards: {
                    i: np.sqrt(np.maximum(v, 0.0)) / norm
                    for i, v in y_shards.items()
                },
            )
        total.merge(machine.reset_ledger())
        if converged:
            break

    x = engine.gather_x(machine)
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


def _ratios(x_shards, y_shards) -> np.ndarray:
    return np.concatenate(
        [y_shards[i] / (x_shards[i] ** 2) for i in sorted(y_shards)]
    )


def _min_ratio(x_shards, y_shards) -> float:
    return float(_ratios(x_shards, y_shards).min())


def _max_ratio(x_shards, y_shards) -> float:
    return float(_ratios(x_shards, y_shards).max())


def _abs_sum(x_shards, y_shards) -> float:
    return sum(float(np.sum(np.abs(v))) for v in y_shards.values())
