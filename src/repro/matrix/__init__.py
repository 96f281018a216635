"""Symmetric *matrix* computations — the 2-D substrate the paper extends.

The tetrahedral block partition of §6 generalizes the *triangle block
partition* of symmetric matrices introduced by Beaumont et al. (2022)
and developed for the parallel memory-independent setting by Al Daas et
al. (2023, 2025). This package reproduces that foundation for the
symmetric matrix-vector product ``y = A x`` (SYMV — the 2-D analogue of
STTSV, sharing the "same vector on the remaining modes" structure):

* :class:`TriangleBlockPartition` from a Steiner ``(m, r, 2)`` system;
  SYMV is Algorithm 5 at order 2 —
  :class:`~repro.core.parallel_sttsv.ParallelSTTSV` on this partition
  and an order-2 :class:`~repro.tensor.ndpacked.NdPackedSymmetricTensor`
  — and its per-processor bandwidth matches the 2-D
  memory-independent lower bound's leading term ``2 n / P^{1/2}``,
* the 2-D lower bound, derived exactly like the paper's §5 with the
  symmetrized Loomis–Whitney inequality one dimension down,
* SYRK, SYR2K and SYMM on the same partition.

Having both dimensions in one library lets the benchmarks show the
pattern the paper's introduction sketches: symmetry saves a factor
``d!`` in storage and the partitioned algorithms hit ``2n/P^{1/d}``
communication in both cases.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.matrix.partition": ("TriangleBlockPartition",),
    "repro.matrix.syrk": ("ParallelSYRK", "syrk_bandwidth", "syrk_reference"),
    "repro.matrix.bounds": ("symv_lower_bound", "symv_optimal_bandwidth_projective"),
})

__all__ = [
    "ParallelSYRK",
    "syrk_bandwidth",
    "syrk_reference",
    "TriangleBlockPartition",
    "symv_lower_bound",
    "symv_optimal_bandwidth_projective",
]
