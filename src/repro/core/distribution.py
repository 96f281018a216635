"""Initial and final data distributions for Algorithm 5 (paper §6.1).

Conventions (all 0-based):

* the input vector ``x`` of (padded) length ``n = m · b`` is split into
  ``m`` row blocks ``x[i]`` of length ``b``;
* row block ``i`` is needed by the processors ``Q_i``; it is split into
  ``|Q_i|`` contiguous shards of length ``b / |Q_i|``; the shard of
  processor ``p ∈ Q_i`` is the one at ``p``'s position within the
  sorted ``Q_i`` (the paper's ``x[i]^{(p)}``);
* each processor therefore starts with ``r · b/|Q_i| = n/P`` elements
  of ``x`` and ends with the same count of ``y`` — exactly one copy of
  each vector exists across the machine, as Theorem 5.2 assumes.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.partition import TetrahedralPartition
from repro.errors import PartitionError


def pad_vector(x: np.ndarray, padded_length: int) -> np.ndarray:
    """Zero-pad ``x`` to ``padded_length`` (identity if already there)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size > padded_length:
        raise PartitionError(
            f"cannot pad shape {x.shape} to length {padded_length}"
        )
    if x.size == padded_length:
        return x
    out = np.zeros(padded_length)
    out[: x.size] = x
    return out


def shard_bounds(
    partition: TetrahedralPartition, i: int, p: int, b: int
) -> Tuple[int, int]:
    """Within-row-block index range ``[lo, hi)`` of ``p``'s shard of
    row block ``i``."""
    size = partition.shard_size(b)
    position = partition.shard_owner_position(i, p)
    return position * size, (position + 1) * size


def initial_shards(
    partition: TetrahedralPartition, x: np.ndarray, b: int
) -> List[Dict[int, np.ndarray]]:
    """Split ``x`` into per-processor shard dictionaries.

    Returns ``shards[p][i]`` — the shard of row block ``i`` owned by
    processor ``p`` — for every ``p`` and every ``i ∈ R_p``. The input
    must already have padded length ``m · b``.
    """
    m, P = partition.m, partition.P
    if x.shape != (m * b,):
        raise PartitionError(f"expected padded vector of length {m * b}")
    shards: List[Dict[int, np.ndarray]] = [{} for _ in range(P)]
    for i in range(m):
        row = x[i * b : (i + 1) * b]
        for p in partition.Q[i]:
            lo, hi = shard_bounds(partition, i, p, b)
            shards[p][i] = row[lo:hi].copy()
    return shards


def assemble_vector(
    partition: TetrahedralPartition,
    shards: List[Dict[int, np.ndarray]],
    b: int,
    original_length: int = None,
) -> np.ndarray:
    """Reassemble a full vector from per-processor shards (verification).

    Inverse of :func:`initial_shards`; checks that every shard slot is
    populated exactly once. Filled slots are tracked in a mask, so
    shards holding NaN or infinities assemble like any other value.
    """
    m = partition.m
    out = np.zeros(m * b)
    filled = np.zeros(m * b, dtype=bool)
    for p, owned in enumerate(shards):
        for i, shard in owned.items():
            lo, hi = shard_bounds(partition, i, p, b)
            if filled[i * b + lo : i * b + hi].any():
                raise PartitionError(
                    f"shard ({i}, {p}) overlaps an already-filled slot"
                )
            out[i * b + lo : i * b + hi] = shard
            filled[i * b + lo : i * b + hi] = True
    if not filled.all():
        raise PartitionError("missing shards: assembled vector incomplete")
    if original_length is not None:
        out = out[:original_length]
    return out


def owned_element_count(partition: TetrahedralPartition, p: int, b: int) -> int:
    """Elements of each vector initially owned by processor ``p``
    (``n/P`` for the spherical family)."""
    return sum(
        shard_bounds(partition, i, p, b)[1] - shard_bounds(partition, i, p, b)[0]
        for i in partition.R[p]
    )
