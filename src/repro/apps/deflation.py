"""Deflation: compute several Z-eigenpairs with repeated (parallel) HOPM.

For odeco tensors ``A = Σ λ_t v_t ∘ v_t ∘ v_t`` the robust eigenpairs
are exactly the components; subtracting a found component
(``A ← A − λ v∘v∘v``) and re-running HOPM recovers them all. This is
the standard workflow built on the paper's Algorithm 1 and exercises
repeated STTSV exchanges end to end.

Deflation is numerically reliable only in the orthogonally decomposable
setting; for general symmetric tensors the residual tensor's eigenpairs
drift — callers get the per-stage residuals to judge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.apps.hopm import HOPMResult, hopm, parallel_hopm
from repro.core.partition import TetrahedralPartition
from repro.errors import ConfigurationError
from repro.machine.recovery import RecoveryPolicy
from repro.machine.transport import Transport
from repro.tensor.packed import PackedSymmetricTensor
from repro.util.seeding import SeedLike, as_generator


@dataclass
class DeflationResult:
    """Eigenpairs found by successive deflation."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # (n, found) columns
    residuals: List[float] = field(default_factory=list)
    stages: List[HOPMResult] = field(default_factory=list)


def _subtract_rank_one(
    tensor: PackedSymmetricTensor, weight: float, vector: np.ndarray
) -> PackedSymmetricTensor:
    """Packed ``A − weight · v∘v∘v`` without densifying.

    Index arrays come from the shared cached scatter plan, so repeated
    deflation stages skip rebuilding them.
    """
    from repro.core.sttsv_ndim import _ndim_scatter_plan

    I, J, K = _ndim_scatter_plan(tensor.n, 3)[0].T
    update = weight * vector[I] * vector[J] * vector[K]
    return PackedSymmetricTensor(tensor.n, tensor.data - update)


def deflated_eigenpairs(
    tensor: PackedSymmetricTensor,
    count: int,
    *,
    partition: Optional[TetrahedralPartition] = None,
    restarts: int = 5,
    tolerance: float = 1e-10,
    max_iterations: int = 300,
    seed: SeedLike = 0,
    transport: Optional[Transport] = None,
    recovery: Optional[RecoveryPolicy] = None,
    fusion: bool = True,
) -> DeflationResult:
    """Find ``count`` Z-eigenpairs by HOPM + deflation.

    Parameters
    ----------
    partition:
        When given, each HOPM stage runs in parallel on the simulated
        machine (Algorithm 5 communication per iteration); otherwise
        the sequential Algorithm 1 is used.
    restarts:
        Random restarts per stage; the run with the largest |λ| wins,
        biasing stages toward the dominant remaining component.
    transport:
        Passed through to every parallel HOPM stage (default in-process
        simulation; the caller owns the transport's lifecycle).

    Examples
    --------
    >>> from repro.tensor.dense import odeco_tensor
    >>> tensor, weights, factors = odeco_tensor(12, 3, seed=0)
    >>> result = deflated_eigenpairs(tensor, 3, seed=1)
    >>> bool(np.allclose(sorted(np.abs(result.eigenvalues))[::-1], weights,
    ...                  atol=1e-6))
    True
    """
    if count < 1:
        raise ConfigurationError("count must be >= 1")
    rng = as_generator(seed)
    current = tensor.copy()
    eigenvalues: List[float] = []
    vectors: List[np.ndarray] = []
    residuals: List[float] = []
    stages: List[HOPMResult] = []
    for _ in range(count):
        best: Optional[HOPMResult] = None
        for _ in range(restarts):
            start = rng.normal(size=tensor.n)
            if partition is None:
                candidate = hopm(
                    current,
                    x0=start,
                    tolerance=tolerance,
                    max_iterations=max_iterations,
                )
            else:
                candidate = parallel_hopm(
                    partition,
                    current,
                    x0=start,
                    tolerance=tolerance,
                    max_iterations=max_iterations,
                    transport=transport,
                    recovery=recovery,
                    fusion=fusion,
                )
            if best is None or abs(candidate.eigenvalue) > abs(best.eigenvalue):
                best = candidate
        assert best is not None
        # Canonicalize to positive λ (Z-pairs come as ±(λ, x)).
        eigenvalue, vector = best.eigenvalue, best.eigenvector
        if eigenvalue < 0:
            eigenvalue, vector = -eigenvalue, -vector
        eigenvalues.append(eigenvalue)
        vectors.append(vector)
        residuals.append(best.residual)
        stages.append(best)
        current = _subtract_rank_one(current, eigenvalue, vector)
    return DeflationResult(
        eigenvalues=np.array(eigenvalues),
        eigenvectors=np.column_stack(vectors),
        residuals=residuals,
        stages=stages,
    )
