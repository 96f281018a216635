"""Motivating applications (paper §1): tensor Z-eigenpairs via the
higher-order power method (Algorithm 1) and the symmetric CP gradient
(Algorithm 2), each with a sequential reference and a parallel variant
whose per-iteration communication is exactly one (or r) STTSV
exchange(s).

Every parallel driver takes ``(engine, machine, ...)``: a
:class:`~repro.core.parallel_sttsv.ParallelSTTSV` on which
``engine.load_tensor(machine, tensor)`` has run, and the machine it was
loaded on — dense order 3, sparse, or BCSS order 4 (NQZ needs order 3;
the column-batched MTTKRP and so the parallel CP gradient need dense
order 3). The
caller owns the machine: it chooses how the machine moves bytes and
closes it (``with`` block). A driver resets the machine's ledger on
entry and returns the rounds it recorded.
"""

from repro._lazy import lazy_exports

# Functions named after their own submodules, so bound eagerly (see
# repro._lazy).
from repro.apps.hopm import hopm
from repro.apps.cp_gradient import cp_gradient

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.apps.hopm": ("HOPMResult", "parallel_hopm"),
    "repro.apps.cp_gradient": (
        "cp_objective",
        "parallel_cp_gradient",
        "symmetric_cp_decompose",
        "CPDecompositionResult",
    ),
    "repro.apps.eigen": ("z_eigen_residual", "rayleigh_quotient", "is_z_eigenpair"),
    "repro.apps.mttkrp": (
        "symmetric_mttkrp",
        "symmetric_mttkrp_batched",
        "parallel_symmetric_mttkrp",
    ),
    "repro.apps.deflation": ("DeflationResult", "deflated_eigenpairs"),
})

__all__ = [
    "symmetric_mttkrp",
    "symmetric_mttkrp_batched",
    "parallel_symmetric_mttkrp",
    "DeflationResult",
    "deflated_eigenpairs",
    "HOPMResult",
    "hopm",
    "parallel_hopm",
    "cp_gradient",
    "cp_objective",
    "parallel_cp_gradient",
    "symmetric_cp_decompose",
    "CPDecompositionResult",
    "z_eigen_residual",
    "rayleigh_quotient",
    "is_z_eigenpair",
]
