"""Shared benchmark fixtures.

Benchmarks double as experiment regenerators: each one both times its
workload (pytest-benchmark) and asserts the paper-facing numbers, and
prints the regenerated rows (visible with ``pytest -s``).
``--benchmark-json=FILE`` writes pytest-benchmark's report (commit,
machine and per-test stats), the one machine-readable schema for these
in-process numbers.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.partition import TetrahedralPartition
from repro.steiner import boolean_steiner_system, spherical_steiner_system


@pytest.fixture(scope="session")
def partition_q2():
    return TetrahedralPartition(spherical_steiner_system(2))


@pytest.fixture(scope="session")
def partition_q3():
    return TetrahedralPartition(spherical_steiner_system(3))


@pytest.fixture(scope="session")
def partition_sqs8():
    return TetrahedralPartition(boolean_steiner_system(3))


@pytest.fixture()
def rng():
    return np.random.default_rng(7)


@pytest.fixture(scope="session")
def median_seconds():
    """``median_seconds(fn, repeats)``: the median wall time of
    ``repeats`` calls of ``fn`` after one warm-up call. Speed ratios a
    benchmark asserts are timed with it, so they hold under
    ``--benchmark-disable`` too."""

    def median(fn, repeats: int) -> float:
        fn()
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
        return float(np.median(samples))

    return median
