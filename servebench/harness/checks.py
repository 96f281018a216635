"""Output checks of served replies against locally computed references."""

from __future__ import annotations

import numpy as np

#: Relative tolerance where the served path may round differently from
#: the reference (a coalesced GEMM against a local GEMV).
RTOL = 1e-12


def close_enough(y: np.ndarray, reference: np.ndarray) -> bool:
    """``allclose`` at :data:`RTOL`, with the absolute floor scaled to the
    reference's largest entry so near-zero outputs are not held to a
    relative bound."""
    y = np.asarray(y)
    reference = np.asarray(reference)
    if y.shape != reference.shape:
        return False
    scale = float(np.max(np.abs(reference))) if reference.size else 0.0
    return bool(np.allclose(y, reference, rtol=RTOL, atol=RTOL * scale))


def bitwise_equal(y: np.ndarray, reference: np.ndarray) -> bool:
    """Same shape, dtype and bytes."""
    y = np.asarray(y)
    reference = np.asarray(reference)
    return (
        y.shape == reference.shape
        and y.dtype == reference.dtype
        and y.tobytes() == reference.tobytes()
    )


def words_match(comm_words: int, parallel_runs: int, expected: int) -> bool:
    """Every served Algorithm-5 run sent exactly ``expected`` words from
    its busiest processor (the session sums ``max_words_sent`` per run)."""
    return parallel_runs > 0 and comm_words == expected * parallel_runs


def final_rank_matches(final_rank: int, initial_rank: int, writes: int) -> bool:
    """Each acknowledged rank-1 update added exactly one column."""
    return final_rank == initial_rank + writes
