"""Blocked views of symmetric tensors and block classification.

With indices split into ``m`` contiguous row blocks of size ``b``
(paper §6.1), the lower tetrahedron of block indices ``I >= J >= K``
contains three kinds of blocks (§6 definitions):

* **off-diagonal** — ``I > J > K``: holds ``b³`` distinct canonical
  entries (a full dense cube of the tensor);
* **non-central diagonal** — exactly two block indices equal: holds
  ``b²(b+1)/2`` canonical entries;
* **central diagonal** — ``I = J = K``: holds ``b(b+1)(b+2)/6``.

Every block is held as the *dense* ``b × b × b`` sub-cube
``A[Ib:Ib+b, Jb:Jb+b, Kb:Kb+b]`` of the (virtual) full symmetric
tensor — the order-3 blocks of
:class:`~repro.tensor.bcss.BCSSTensor`; Algorithm 5's per-block
kernels are expressed on dense blocks with the multiplicity weights
folded into the kernel (see :mod:`repro.core.block_kernels`).
"""

from __future__ import annotations

import enum
from typing import Iterator, List, Tuple

from repro.errors import ConfigurationError
from repro.util.combinatorics import tetrahedral_number


class BlockKind(enum.Enum):
    """Classification of a lower-tetrahedral block (paper §6)."""

    OFF_DIAGONAL = "off-diagonal"
    NON_CENTRAL_DIAGONAL = "non-central-diagonal"
    CENTRAL_DIAGONAL = "central-diagonal"


def classify_block(block_index: Tuple[int, int, int]) -> BlockKind:
    """Classify block index ``(I, J, K)`` with ``I >= J >= K``."""
    I, J, K = block_index
    if not I >= J >= K:
        raise ConfigurationError(
            f"block index {block_index} not in canonical descending order"
        )
    if I > J > K:
        return BlockKind.OFF_DIAGONAL
    if I == J == K:
        return BlockKind.CENTRAL_DIAGONAL
    return BlockKind.NON_CENTRAL_DIAGONAL


def canonical_entry_count(kind: BlockKind, b: int) -> int:
    """Stored (canonical) entries inside one block of size ``b`` (§6.1.3)."""
    if kind is BlockKind.OFF_DIAGONAL:
        return b**3
    if kind is BlockKind.NON_CENTRAL_DIAGONAL:
        return b * b * (b + 1) // 2
    return tetrahedral_number(b)


def ternary_multiplications(kind: BlockKind, b: int) -> int:
    """Ternary multiplications Algorithm 5 performs for one block (§7.1)."""
    if kind is BlockKind.OFF_DIAGONAL:
        return 3 * b**3
    if kind is BlockKind.NON_CENTRAL_DIAGONAL:
        return 3 * b * b * (b - 1) // 2 + 2 * b * b
    return 3 * b * (b - 1) * (b - 2) // 6 + 2 * b * (b - 1) + b


def block_slice(block: int, b: int) -> slice:
    """Global index slice covered by row block ``block`` of size ``b``."""
    return slice(block * b, (block + 1) * b)


def lower_tetrahedral_blocks(m: int) -> Iterator[Tuple[int, int, int]]:
    """All block indices ``I >= J >= K`` over ``m`` row blocks.

    Yields ``m(m+1)(m+2)/6`` triples; of these ``C(m, 3)`` are
    off-diagonal, ``m(m-1)`` non-central diagonal, ``m`` central.
    """
    for I in range(m):
        for J in range(I + 1):
            for K in range(J + 1):
                yield (I, J, K)


def block_counts(m: int) -> dict:
    """Counts per block kind for ``m`` row blocks (paper §6.1)."""
    return {
        BlockKind.OFF_DIAGONAL: m * (m - 1) * (m - 2) // 6,
        BlockKind.NON_CENTRAL_DIAGONAL: m * (m - 1),
        BlockKind.CENTRAL_DIAGONAL: m,
    }


def blocked_storage_words(
    owned: List[Tuple[int, int, int]], b: int
) -> int:
    """Canonical words a processor stores for its block inventory (§6.1.3).

    This counts *packed* entries (the algorithm could store diagonal
    blocks packed); the dense in-memory representation used by the
    simulator is larger but communication accounting never touches it.
    """
    total = 0
    for index in owned:
        total += canonical_entry_count(classify_block(index), b)
    return total
