"""Symmetric CP gradient (paper Algorithm 2) and gradient-descent CP.

For factor matrix ``X ∈ R^{n×r}`` and objective
``f(X) = 1/6 ||A − Σ_ℓ x_ℓ ∘ x_ℓ ∘ x_ℓ||²`` the gradient is

    ∇f(X) = X G − Y_sttsv,   G = (XᵀX) ∗ (XᵀX),

where column ``ℓ`` of ``Y_sttsv`` is ``A ×₂ x_ℓ ×₃ x_ℓ`` — ``r``
independent STTSV calls, the bottleneck Algorithm 2 highlights.

``symmetric_cp_decompose`` wraps the gradient in projected gradient
descent with backtracking line search — enough to recover exact
low-rank symmetric factorizations in tests and examples.

The derivative convention: with the 1/6 scaling,
``∂f/∂X = (XᵀX ∗ XᵀX)-weighted X minus the STTSV stack``, matching the
paper's ``Y = X G − Y`` update (line 7 of Algorithm 2). The factor
1/2 ambiguity common in CP-gradient derivations is fixed by the finite-
difference test in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.apps.mttkrp import _check_factor, parallel_symmetric_mttkrp_batched
from repro.core.parallel_sttsv import ParallelSTTSV
from repro.core.plans import sequential_plan
from repro.errors import ConfigurationError, ConvergenceError
from repro.machine.ledger import CommunicationLedger
from repro.machine.machine import Machine
from repro.tensor.packed import PackedSymmetricTensor
from repro.util.seeding import SeedLike, as_generator


def cp_gradient(tensor: PackedSymmetricTensor, X: np.ndarray) -> np.ndarray:
    """Algorithm 2: ``∇f(X) = X ((XᵀX) ∗ (XᵀX)) − [A ×₂ x_ℓ ×₃ x_ℓ]_ℓ``.

    The ``r`` STTSV columns are evaluated through the compiled plan's
    batched ``apply_batch`` — one pass over the tensor operator instead
    of ``r`` independent scatter passes.
    """
    X = _check_factor(tensor.n, X)
    gram = X.T @ X
    G = gram * gram
    Y = sequential_plan(tensor).apply_batch(X)
    return X @ G - Y


def cp_objective(tensor: PackedSymmetricTensor, X: np.ndarray) -> float:
    """``f(X) = 1/6 ||A − Σ_ℓ x_ℓ∘x_ℓ∘x_ℓ||²`` without forming the cube.

    Expansion: ``||A||² − 2⟨A, Σ⟩ + ||Σ||²`` with
    ``⟨A, Σ⟩ = Σ_ℓ A ×₁x_ℓ ×₂x_ℓ ×₃x_ℓ`` and
    ``||Σ||² = Σ_{ℓ,ℓ'} (x_ℓᵀ x_{ℓ'})³``. ``||A||²`` uses the packed
    entries with permutation multiplicities (the cached scatter plan's
    weights sum to exactly the multiplicity of each entry).

    The inner product deliberately uses the ``np.add.at`` scatter
    kernel column by column: its summation order makes the three terms
    cancel bitwise at an exact factorization (pinned by the test
    suite), which the faster batched paths do not guarantee.
    """
    X = _check_factor(tensor.n, X)
    from repro.core.sttsv_ndim import _ndim_scatter_plan
    from repro.core.sttsv_sequential import sttsv_packed

    weights = _ndim_scatter_plan(tensor.n, 3)[1]
    norm_a_sq = float(np.sum(weights.sum(axis=1) * tensor.data**2))
    inner = sum(
        float(X[:, col] @ sttsv_packed(tensor, X[:, col]))
        for col in range(X.shape[1])
    )
    gram = X.T @ X
    norm_model_sq = float(np.sum(gram**3))
    return (norm_a_sq - 2.0 * inner + norm_model_sq) / 6.0


def parallel_cp_gradient(
    engine: ParallelSTTSV, machine: Machine, X: np.ndarray
) -> Tuple[np.ndarray, CommunicationLedger]:
    """Algorithm 2 with the r STTSVs executed in parallel, on any
    order-3 engine holding the tensor (``engine.load_tensor(machine,
    tensor)`` has run; the caller owns ``machine``).

    Returns ``(gradient, ledger)``. The communication is exactly ``r``
    Algorithm-5 exchanges' worth of words (the paper's claim that STTSV
    dominates CP gradient communication), shipped as one engine run on
    the ``(n, r)`` factor matrix
    (:func:`~repro.apps.mttkrp.parallel_symmetric_mttkrp_batched`), so
    the step count stays that of a *single* exchange; the small
    ``r × r`` Gram algebra is replicated, as in practice ``r << n``.
    """
    X = _check_factor(engine.n, X)
    Y, ledger = parallel_symmetric_mttkrp_batched(engine, machine, X)
    gram = X.T @ X
    return X @ (gram * gram) - Y, ledger


@dataclass
class CPDecompositionResult:
    """Outcome of gradient-descent symmetric CP."""

    factors: np.ndarray
    objective: float
    iterations: int
    converged: bool
    objective_history: List[float] = field(default_factory=list)


def symmetric_cp_decompose(
    tensor: PackedSymmetricTensor,
    rank: int,
    *,
    max_iterations: int = 500,
    tolerance: float = 1e-10,
    initial_step: float = 1.0,
    seed: SeedLike = 0,
    X0: Optional[np.ndarray] = None,
    raise_on_failure: bool = False,
) -> CPDecompositionResult:
    """Gradient descent with backtracking on the symmetric CP objective.

    Converges to a stationary point; for exactly low-rank inputs with a
    good initialization it recovers the factorization to near machine
    precision (tested).
    """
    n = tensor.n
    if X0 is not None:
        X = np.asarray(X0, dtype=np.float64).copy()
        if X.shape != (n, rank):
            raise ConfigurationError(f"X0 must have shape ({n}, {rank})")
    else:
        X = as_generator(seed).normal(scale=1.0 / np.sqrt(n), size=(n, rank))
    objective = cp_objective(tensor, X)
    history = [objective]
    step = initial_step
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        gradient = cp_gradient(tensor, X)
        gradient_norm_sq = float(np.sum(gradient**2))
        if np.sqrt(gradient_norm_sq) <= tolerance:
            converged = True
            break
        # Backtracking line search (Armijo).
        step = min(step * 2.0, 1e6)
        while step > 1e-18:
            candidate = X - step * gradient
            candidate_objective = cp_objective(tensor, candidate)
            if candidate_objective <= objective - 0.5 * step * gradient_norm_sq:
                break
            step *= 0.5
        else:
            break  # line search failed: stationary within precision
        X = X - step * gradient
        objective = cp_objective(tensor, X)
        history.append(objective)
    if not converged and raise_on_failure:
        raise ConvergenceError(
            f"CP gradient descent did not converge in {max_iterations} iterations"
        )
    return CPDecompositionResult(
        factors=X,
        objective=objective,
        iterations=iterations,
        converged=converged,
        objective_history=history,
    )
