"""Shared fixtures: small Steiner systems and partitions are expensive
enough to build once per session."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.parallel_sttsv import CommBackend, ParallelSTTSV
from repro.core.partition import TetrahedralPartition
from repro.machine.machine import Machine
from repro.steiner import boolean_steiner_system, spherical_steiner_system


@pytest.fixture(scope="session")
def steiner_q2():
    """Spherical S(5, 3, 3) — q = 2, P = 10."""
    return spherical_steiner_system(2)


@pytest.fixture(scope="session")
def steiner_q3():
    """Spherical S(10, 4, 3) — q = 3, P = 30 (the paper's Table 1 system)."""
    return spherical_steiner_system(3)


@pytest.fixture(scope="session")
def steiner_q4():
    """Spherical S(17, 5, 3) — q = 4, P = 68."""
    return spherical_steiner_system(4)


@pytest.fixture(scope="session")
def sqs8():
    """Boolean SQS(8) = S(8, 4, 3) — the paper's Table 3 system, P = 14."""
    return boolean_steiner_system(3)


@pytest.fixture(scope="session")
def partition_q2(steiner_q2):
    part = TetrahedralPartition(steiner_q2)
    part.validate()
    return part


@pytest.fixture(scope="session")
def partition_q3(steiner_q3):
    part = TetrahedralPartition(steiner_q3)
    part.validate()
    return part


@pytest.fixture(scope="session")
def partition_sqs8(sqs8):
    part = TetrahedralPartition(sqs8)
    part.validate()
    return part


@pytest.fixture()
def rng():
    return np.random.default_rng(20250705)


@pytest.fixture()
def loaded_engine():
    """``loaded_engine(partition, tensor)`` returns an ``(engine,
    machine)`` pair holding ``tensor`` — what the parallel apps take.
    Every machine it made is closed at teardown."""
    machines = []

    def load(partition, tensor, backend=CommBackend.POINT_TO_POINT):
        engine = ParallelSTTSV(partition, tensor.n, backend)
        machine = Machine(partition.P)
        machines.append(machine)
        engine.load_tensor(machine, tensor)
        return engine, machine

    yield load
    for machine in machines:
        machine.close()
