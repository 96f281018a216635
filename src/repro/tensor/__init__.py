"""Symmetric 3-dimensional tensor storage and block structure.

A fully symmetric tensor ``A`` of dimension ``n × n × n`` satisfies
``a_ijk = a_ikj = a_jik = a_jki = a_kij = a_kji`` (paper §3), so only
the lower tetrahedron (``i >= j >= k``) — ``n(n+1)(n+2)/6`` entries —
needs storage. This package provides:

* :class:`~repro.tensor.ndpacked.NdPackedSymmetricTensor` — canonical
  packed storage at any order with an O(1) bijective index map, and
  its order-3 case :class:`~repro.tensor.packed.PackedSymmetricTensor`,
* :class:`~repro.tensor.bcss.BCSSTensor` — the dense blocks Algorithm 5
  holds, cut from packed storage,
* dense converters and random generators (:mod:`repro.tensor.dense`),
* block classification used by the tetrahedral partition
  (:mod:`repro.tensor.blocks`),
* permutation multiplicity weights (:mod:`repro.tensor.multiplicity`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.tensor.packed": ("PackedSymmetricTensor", "packed_index", "packed_size"),
    "repro.tensor.dense": (
        "symmetrize",
        "is_symmetric",
        "random_symmetric",
        "dense_from_packed",
        "packed_from_dense",
        "rank_one_symmetric",
        "odeco_tensor",
    ),
    "repro.tensor.blocks": (
        "BlockKind",
        "classify_block",
        "block_slice",
        "lower_tetrahedral_blocks",
    ),
    "repro.tensor.multiplicity": (
        "nd_contribution_weights",
        "permutation_multiplicity",
        "remaining_pair_multiplicity",
    ),
    "repro.tensor.ndpacked": (
        "NdPackedSymmetricTensor",
        "nd_index_arrays",
        "nd_packed_size",
        "nd_random_symmetric",
        "pad_ndpacked",
    ),
    "repro.tensor.bcss": ("BCSSTensor", "bcss_block_count"),
    "repro.tensor.sparse": ("SparseSymmetricTensor", "sttsv_sparse"),
    "repro.tensor.hypergraph": (
        "adjacency_tensor",
        "random_hypergraph",
        "vertex_degrees",
    ),
})

__all__ = [
    "BCSSTensor",
    "bcss_block_count",
    "NdPackedSymmetricTensor",
    "nd_contribution_weights",
    "nd_index_arrays",
    "nd_packed_size",
    "nd_random_symmetric",
    "pad_ndpacked",
    "SparseSymmetricTensor",
    "sttsv_sparse",
    "adjacency_tensor",
    "random_hypergraph",
    "vertex_degrees",
    "PackedSymmetricTensor",
    "packed_index",
    "packed_size",
    "symmetrize",
    "is_symmetric",
    "random_symmetric",
    "dense_from_packed",
    "packed_from_dense",
    "rank_one_symmetric",
    "odeco_tensor",
    "BlockKind",
    "classify_block",
    "block_slice",
    "lower_tetrahedral_blocks",
    "permutation_multiplicity",
    "remaining_pair_multiplicity",
]
