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

:class:`~repro.core.plans.ExchangePlan` lays the shards out
(``split_shards``) and reassembles them (``assemble``) from
:func:`shard_bounds`.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.partition import TetrahedralPartition


def shard_bounds(
    partition: TetrahedralPartition, i: int, p: int, b: int
) -> Tuple[int, int]:
    """Within-row-block index range ``[lo, hi)`` of ``p``'s shard of
    row block ``i``."""
    size = partition.shard_size(b)
    position = partition.shard_owner_position(i, p)
    return position * size, (position + 1) * size
