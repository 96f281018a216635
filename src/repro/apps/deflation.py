"""Deflation: compute several Z-eigenpairs with repeated (parallel) HOPM.

For odeco tensors ``A = Σ λ_t v_t^{⊗d}`` the robust eigenpairs are
exactly the components; subtracting a found component
(``A ← A − λ v^{⊗d}``) and re-running HOPM recovers them all. This is
the standard workflow built on the paper's Algorithm 1 and exercises
repeated STTSV exchanges end to end, at any order the engine serves
(dense order 3, BCSS order 4).

Deflation is numerically reliable only in the orthogonally decomposable
setting; for general symmetric tensors the residual tensor's eigenpairs
drift — callers get the per-stage residuals to judge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.apps.hopm import HOPMResult, hopm, parallel_hopm
from repro.core.parallel_sttsv import ParallelSTTSV
from repro.errors import ConfigurationError
from repro.machine.machine import Machine
from repro.tensor.ndpacked import NdPackedSymmetricTensor
from repro.util.seeding import SeedLike, as_generator


@dataclass
class DeflationResult:
    """Eigenpairs found by successive deflation."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # (n, found) columns
    residuals: List[float] = field(default_factory=list)
    stages: List[HOPMResult] = field(default_factory=list)


def _subtract_rank_one(
    tensor: NdPackedSymmetricTensor, weight: float, vector: np.ndarray
) -> NdPackedSymmetricTensor:
    """Packed ``A − weight · v^{⊗d}`` without densifying, of
    ``tensor``'s type and order.

    Index arrays come from the shared cached scatter plan, so repeated
    deflation stages skip rebuilding them.
    """
    from repro.core.sttsv_ndim import _ndim_scatter_plan

    update = np.full(tensor.data.size, weight)
    for column in _ndim_scatter_plan(tensor.n, tensor.d)[0].T:
        update *= vector[column]
    result = tensor.copy()
    result.data -= update
    return result


def deflated_eigenpairs(
    tensor: NdPackedSymmetricTensor,
    count: int,
    *,
    engine: Optional[ParallelSTTSV] = None,
    machine: Optional[Machine] = None,
    restarts: int = 5,
    tolerance: float = 1e-10,
    max_iterations: int = 300,
    seed: SeedLike = 0,
) -> DeflationResult:
    """Find ``count`` Z-eigenpairs by HOPM + deflation.

    Parameters
    ----------
    engine, machine:
        When given, each HOPM stage runs in parallel on them (Algorithm
        5 communication per iteration); otherwise the sequential
        Algorithm 1 is used. ``engine.load_tensor(machine, tensor)``
        must have run; each later stage loads its deflated tensor onto
        the same engine once. The caller owns ``machine``.
    restarts:
        Random restarts per stage; the run with the largest |λ| wins,
        biasing stages toward the dominant remaining component.

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
    if (engine is None) != (machine is None):
        raise ConfigurationError("engine and machine come together")
    rng = as_generator(seed)
    current = tensor.copy()
    eigenvalues: List[float] = []
    vectors: List[np.ndarray] = []
    residuals: List[float] = []
    stages: List[HOPMResult] = []
    for stage in range(count):
        if engine is not None and stage:
            engine.load_tensor(machine, current)
        best: Optional[HOPMResult] = None
        for _ in range(restarts):
            start = rng.normal(size=tensor.n)
            if engine is None:
                candidate = hopm(
                    current,
                    x0=start,
                    tolerance=tolerance,
                    max_iterations=max_iterations,
                )
            else:
                candidate = parallel_hopm(
                    engine,
                    machine,
                    current,
                    x0=start,
                    tolerance=tolerance,
                    max_iterations=max_iterations,
                )
            if best is None or abs(candidate.eigenvalue) > abs(best.eigenvalue):
                best = candidate
        assert best is not None
        # At odd order Z-pairs come as ±(λ, x): canonicalize to
        # positive λ. At even order (λ, −x) is the pair and λ keeps
        # its sign — flipping it would double the component.
        eigenvalue, vector = best.eigenvalue, best.eigenvector
        if eigenvalue < 0 and tensor.d % 2:
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
