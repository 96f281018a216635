"""Stacked block kernels (Algorithm 5, lines 24–36), at every order.

A dense ``(b,)*d`` block at canonical tuple ``B = (I₁ ≥ ... ≥ I_d)``
adds, for each *distinct* row block ``t ∈ B``, ``w_t`` times the block
contracted on every mode but one position of ``t`` (against the x row
blocks of the other modes) into ``y[t]``; ``w_t`` counts the ordered
arrangements of the other ``d − 1`` indices. At ``d = 3`` this is the
paper's case split: ``I > J > K`` adds ``2·A ×₂ x[J] ×₃ x[K]`` to
``y[I]`` (and likewise to ``y[J]``, ``y[K]``); ``I == J > K`` adds
``2·A ×₂ x[I] ×₃ x[K]`` to ``y[I]`` and ``A ×₁ x[I] ×₂ x[I]`` to
``y[K]``; ``I > J == K`` mirrors it; ``I == J == K`` adds
``A ×₂ x[I] ×₃ x[I]``. Summed over every stored block these updates
are the exact symmetric STTSV.

The contractions depend only on the block's *case*, the run lengths of
the equal values of ``B`` (:func:`block_case`): ``(1, 1, 1)``,
``(2, 1)``, ``(1, 2)`` and ``(3,)`` at order 3. :func:`apply_case` runs
a stack of same-case blocks at once, each contraction step one batched
``np.matmul`` over the stack: local compute is one pass per case, not
one Python call per block.

Each step contracts an end mode of the reshaped stack, from the right
(``R.reshape(k, -1, b) @ x``) or the left (``x @ L.reshape(k, b, -1)``),
and outputs share partials. A case whose first run repeats keeps each
run at its last position and walks one left chain (``N = x[I] ×₁ A``
feeds both outputs of ``I == J > K``); otherwise each run is kept at
its first position on one right chain (``M = A ×₃ x[K]`` feeds both
outputs of ``I > J == K``), and a case ending in a single value reads
the stack once more for it (``I > J > K``: ``M`` for ``y[I]``,
``y[J]``; ``N`` for ``y[K]``). So a stack is read once, or twice when
its first and last runs are single values. With ``c`` columns of x
the first step of a chain is one ``c``-column product per block and
the partials carry a column axis, so the read counts stay the same.

:func:`case_stacks` groups block tuples by case with their row
positions in a vector layout; :func:`apply_stacks` runs the stacks
and scatter-adds every contribution into that layout.

Keeping a run anywhere but its first position uses the block's symmetry
in the modes a repeated value spans. That symmetry is exact for blocks
cut from packed storage (:func:`repro.tensor.bcss.gather_blocks`),
where mirrored entries are one stored word; a diagonal block that is
not symmetric in its repeated modes gets a wrong answer.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import factorial, prod
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: Run lengths of a canonical block tuple's equal values.
BlockCase = Tuple[int, ...]


def block_case(block_index: Sequence[int]) -> BlockCase:
    """The case of a canonical (non-increasing) block tuple: the run
    lengths of its equal values, e.g. ``(3, 3, 1) → (2, 1)``."""
    index = [int(v) for v in block_index]
    if any(a < b for a, b in zip(index, index[1:])):
        raise ConfigurationError(f"block index {tuple(index)} not canonical")
    runs = [1]
    for a, b in zip(index, index[1:]):
        if a == b:
            runs[-1] += 1
        else:
            runs.append(1)
    return tuple(runs)


@lru_cache(maxsize=None)
def case_weights(case: BlockCase) -> Tuple[int, ...]:
    """Each run's multiplicity weight: the ordered arrangements of the
    other ``d − 1`` indices, ``(d−1)! · c / Π cᵢ!`` for a run of ``c``."""
    d = sum(case)
    denominator = prod(factorial(c) for c in case)
    return tuple(factorial(d - 1) * c // denominator for c in case)


def apply_case(case: BlockCase, stack: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Weighted contributions of a stack of same-case blocks.

    Parameters
    ----------
    case:
        The blocks' :func:`block_case`.
    stack:
        ``(k,) + (b,)*d`` dense blocks, each symmetric in the modes a
        repeated value spans.
    x:
        ``(len(case), k, b)``: ``x[r, s]`` is block ``s``'s x row block
        of run ``r``; or ``(len(case), k, b, c)`` for ``c`` columns at
        once (the stack is still read once or twice, by ``c``-column
        products).

    Returns
    -------
    ``(len(case), k, b)`` (``(len(case), k, b, c)`` for columns):
    ``[r, s]`` is block ``s``'s weighted contribution to the y row
    block of run ``r``.
    """
    k, b, d = stack.shape[0], stack.shape[-1], stack.ndim - 1
    if sum(case) != d or x.shape[:3] != (len(case), k, b) or x.ndim > 4:
        raise ConfigurationError(
            f"case {case} with x of shape {x.shape} does not fit a stack"
            f" of shape {stack.shape}"
        )
    columns = x.reshape(x.shape[:3] + (-1,))
    c = columns.shape[-1]
    # Contiguous (k, b, c) and (k, c, b) operands per run: matmul hands
    # them to BLAS without a copy. Partials are (k, c, ...).
    cols = np.ascontiguousarray(columns)
    rows = np.ascontiguousarray(columns.transpose(0, 1, 3, 2))
    run_of = [run for run, size in enumerate(case) for _ in range(size)]
    starts = [0, *accumulate(case[:-1])]
    out = np.empty((len(case), k, c, b))

    def left(partial: np.ndarray, mode: int) -> np.ndarray:
        row = rows[run_of[mode]]
        if partial is stack:  # first step: one c-column product per block
            return row @ stack.reshape(k, b, -1)
        return (row[:, :, None] @ partial.reshape(k, c, b, -1)).reshape(k, c, -1)

    def right(partial: np.ndarray, mode: int) -> np.ndarray:
        if partial is stack:
            return (stack.reshape(k, -1, b) @ cols[run_of[mode]]).transpose(0, 2, 1)
        column = rows[run_of[mode]][..., None]
        return (partial.reshape(k, c, -1, b) @ column).reshape(k, c, -1)

    if case[0] > 1:
        # One left chain: level t has modes 0..t-1 contracted.
        chain, level = stack, 0
        for run, (start, size) in enumerate(zip(starts, case)):
            keep = start + size - 1
            while level < keep:
                chain = left(chain, level)
                level += 1
            partial = chain
            for mode in range(d - 1, keep, -1):
                partial = right(partial, mode)
            out[run] = partial
    else:
        # One right chain: level t has modes t..d-1 contracted.
        chain, level = stack, d
        for run in reversed(range(len(case))):
            keep = starts[run]
            while level > keep + 1:
                level -= 1
                chain = right(chain, level)
            partial = chain
            for mode in range(keep):
                partial = left(partial, mode)
            out[run] = partial
    out *= np.array(case_weights(case), dtype=np.float64)[:, None, None, None]
    return out.transpose(0, 1, 3, 2).reshape(x.shape)


def case_stacks(
    indices: np.ndarray, offsets: np.ndarray, b: int
) -> List[Tuple[BlockCase, np.ndarray, np.ndarray]]:
    """Group canonical block tuples by case, for :func:`apply_stacks`.

    ``indices`` is ``(N, d)``; ``offsets[s, t]`` is where the row block
    of ``indices[s, t]`` starts in the vector layout the stacks will
    run on. Returns ``(case, members, rows)`` per case, cases sorted:
    ``members`` the case's positions in ``indices`` (in input order),
    ``rows[r, s]`` the ``b`` layout positions of member ``s``'s run-``r``
    row block.
    """
    cases = [block_case(index) for index in np.asarray(indices).tolist()]
    grouped = []
    for case in sorted(set(cases)):
        members = np.flatnonzero([other == case for other in cases])
        starts = np.cumsum((0,) + case[:-1])
        rows = (offsets[members][:, starts].T)[:, :, None] + np.arange(b)
        grouped.append((case, members, rows.astype(np.intp)))
    return grouped


def apply_stacks(
    stacks: Iterable[Tuple[BlockCase, np.ndarray, np.ndarray]], x: np.ndarray
) -> np.ndarray:
    """Sum every stack's contributions in ``x``'s layout.

    ``stacks`` yields ``(case, blocks, rows)``, with ``rows`` as in
    :func:`case_stacks`; ``x`` is a vector ``(N,)`` or ``(N, c)``
    columns. One :func:`apply_case` pass per stack, then one
    scatter-add of every contribution in stack order, so the sum's
    order is fixed.
    """
    x = np.asarray(x, dtype=np.float64)
    width = x.reshape(len(x), -1).shape[1]
    targets, contributions = [], []
    for case, blocks, rows in stacks:
        targets.append(rows.ravel())
        contributions.append(apply_case(case, blocks, x[rows]).ravel())
    target = np.concatenate(targets)
    if width > 1:
        target = (target[:, None] * width + np.arange(width)).ravel()
    return np.bincount(
        target, np.concatenate(contributions), minlength=x.size
    ).reshape(x.shape)


def block_flop_count(block_index: Tuple[int, int, int], b: int) -> int:
    """Ternary multiplications Algorithm 5 performs for this block (§7.1).

    Off-diagonal blocks do ``3 b³``; non-central diagonal blocks
    ``3 b²(b-1)/2 + 2 b²``; central ``3 b(b-1)(b-2)/6 + 2 b(b-1) + b``.
    (:func:`apply_case` performs a different number of *elementary*
    multiplications: it multiplies every stored entry of a dense
    block, mirrored ones included. The paper's cost metric counts the
    canonical ternary multiplications, which is what this function
    returns.)
    """
    from repro.tensor.blocks import classify_block, ternary_multiplications

    return ternary_multiplications(classify_block(block_index), b)
