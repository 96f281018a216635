"""Failure injection: corrupted inputs must be rejected loudly at the
right layer, never silently produce wrong answers — and a faulty
*transport* must be survived: deterministic retry recovers bitwise-exact
results at a cost visible only in the ledger's ``retry_*`` side-channel,
never in the algorithmic counts."""

import os
import signal

import numpy as np
import pytest

from repro.core.parallel_sttsv import CommBackend, ParallelSTTSV
from repro.core.partition import TetrahedralPartition
from repro.errors import (
    ConfigurationError,
    MachineError,
    PartitionError,
    ReproError,
    SteinerError,
)
from repro.machine.collectives import all_to_all
from repro.machine.machine import Machine
from repro.machine.message import Message
from repro.machine.recovery import RecoveryPolicy
from repro.machine.transport import (
    FaultInjectingTransport,
    FaultPolicy,
    SharedMemoryTransport,
    SimulatedTransport,
)
from repro.steiner.system import SteinerSystem
from repro.tensor.dense import random_symmetric


class TestCorruptedSteinerSystem:
    def test_missing_block_detected(self, sqs8):
        blocks = list(sqs8.blocks)[:-1]
        with pytest.raises(SteinerError):
            SteinerSystem(8, 4, blocks)

    def test_duplicated_block_detected(self, sqs8):
        blocks = list(sqs8.blocks)
        blocks[0] = blocks[1]
        with pytest.raises(SteinerError):
            SteinerSystem(8, 4, blocks)

    def test_swapped_element_detected(self, sqs8):
        blocks = [list(b) for b in sqs8.blocks]
        # Replace one element with another index — breaks coverage.
        replacement = next(v for v in range(8) if v not in blocks[0])
        blocks[0][0] = replacement
        with pytest.raises(SteinerError):
            SteinerSystem(8, 4, blocks)


class TestCorruptedPartition:
    def test_stolen_block_detected(self, steiner_q2):
        part = TetrahedralPartition(steiner_q2)
        # Processor 0 also claims processor 1's first non-central block.
        bad = list(part.N)
        stolen = bad[1][0]
        if set(stolen) <= set(part.R[0]):
            pytest.skip("random layout made the steal compatible")
        bad[0] = bad[0] + (stolen,)
        part.N = tuple(bad)
        with pytest.raises(PartitionError):
            part.validate()

    def test_duplicate_ownership_detected(self, steiner_q2):
        part = TetrahedralPartition(steiner_q2)
        bad = list(part.N)
        bad[0] = bad[0] + (bad[0][0],)
        part.N = tuple(bad)
        with pytest.raises(PartitionError):
            part.owner_of_block()


class TestMachineMisuse:
    def test_wrong_processor_count(self, partition_q2):
        algo = ParallelSTTSV(partition_q2, 30)
        with pytest.raises(MachineError):
            algo.load(Machine(9), random_symmetric(30, seed=0), np.ones(30))

    def test_run_without_load(self, partition_q2):
        algo = ParallelSTTSV(partition_q2, 30)
        with pytest.raises(MachineError):
            algo.run(Machine(10))

    def test_gather_before_run(self, partition_q2):
        machine = Machine(10)
        algo = ParallelSTTSV(partition_q2, 30)
        algo.load(machine, random_symmetric(30, seed=0), np.ones(30))
        with pytest.raises(MachineError):
            algo.gather_result(machine)

    def test_ledger_misuse(self):
        machine = Machine(2)
        with pytest.raises(MachineError):
            machine.ledger.record(Message(0, 1, 1))


def _ledger_fingerprint(ledger):
    """The algorithmic counters — everything a faulty transport must
    NOT be able to change."""
    return {
        "words_sent": list(ledger.words_sent),
        "words_received": list(ledger.words_received),
        "messages_sent": list(ledger.messages_sent),
        "messages_received": list(ledger.messages_received),
        "rounds": ledger.round_count(),
        "labels": [record.label for record in ledger.rounds],
    }


def _run_sttsv(partition, n, seed, transport, backend=CommBackend.POINT_TO_POINT):
    tensor = random_symmetric(n, seed=seed)
    x = np.random.default_rng(seed + 1).normal(size=n)
    machine = Machine(partition.P, transport=transport)
    algo = ParallelSTTSV(partition, n, backend)
    algo.load(machine, tensor, x)
    algo.run(machine)
    return algo.gather_result(machine), machine.ledger


#: One policy per fault kind plus a mixed workload; rates high enough
#: that every run injects, seeds fixed so every run injects identically.
FAULT_MODES = {
    "drop": FaultPolicy(drop=0.2, seed=3),
    "corrupt": FaultPolicy(corrupt=0.2, seed=4),
    "duplicate": FaultPolicy(duplicate=0.2, seed=5),
    "delay": FaultPolicy(delay=0.3, delay_seconds=1e-5, seed=6),
    "mixed": FaultPolicy(drop=0.1, corrupt=0.08, duplicate=0.07, seed=7),
}


@pytest.fixture(scope="module")
def shm_p10():
    with SharedMemoryTransport(10, n_workers=2) as transport:
        yield transport


class TestTransportFaultRecovery:
    """Every fault mode, both backends: recovery is exact and its cost
    is segregated from the algorithmic ledger."""

    @pytest.mark.parametrize("mode", sorted(FAULT_MODES))
    @pytest.mark.parametrize("backend_name", ["simulated", "shm"])
    def test_q2_recovers_bitwise_identical(
        self, partition_q2, shm_p10, mode, backend_name
    ):
        n = 30
        y_clean, ledger_clean = _run_sttsv(
            partition_q2, n, 0, SimulatedTransport(partition_q2.P)
        )
        inner = (
            shm_p10
            if backend_name == "shm"
            else SimulatedTransport(partition_q2.P)
        )
        faulty = FaultInjectingTransport(inner, FAULT_MODES[mode])
        y, ledger = _run_sttsv(partition_q2, n, 0, faulty)

        assert np.array_equal(y.view(np.uint64), y_clean.view(np.uint64)), (
            f"{mode} faults changed the result under {backend_name}"
        )
        assert _ledger_fingerprint(ledger) == _ledger_fingerprint(
            ledger_clean
        ), "faults leaked into the algorithmic counts"
        assert faulty.stats.injected > 0 or mode == "delay"
        if mode == "delay":
            # Delayed deliveries are correct deliveries: no retries.
            assert ledger.retry_rounds == 0
        else:
            assert ledger.retry_rounds > 0
            assert ledger.retry_words > 0
        assert ledger_clean.retry_rounds == 0

    def test_q3_recovers_bitwise_identical(self, partition_q3):
        n = 60
        y_clean, ledger_clean = _run_sttsv(
            partition_q3, n, 3, SimulatedTransport(partition_q3.P)
        )
        faulty = FaultInjectingTransport(
            SimulatedTransport(partition_q3.P), FAULT_MODES["mixed"]
        )
        y, ledger = _run_sttsv(partition_q3, n, 3, faulty)
        assert np.array_equal(y.view(np.uint64), y_clean.view(np.uint64))
        assert _ledger_fingerprint(ledger) == _ledger_fingerprint(ledger_clean)
        assert faulty.stats.injected > 0
        assert ledger.retry_words > 0

    def test_fano_symv_recovers_bitwise_identical(self):
        from repro.matrix.partition import TriangleBlockPartition
        from repro.steiner.pairwise import projective_plane_system
        from repro.tensor.ndpacked import nd_random_symmetric

        partition = TriangleBlockPartition(projective_plane_system(2))
        partition.validate()
        n = partition.m * partition.steiner.point_replication()
        matrix = nd_random_symmetric(n, 2, seed=5)
        x = np.random.default_rng(6).normal(size=n)

        def run(transport):
            machine = Machine(partition.P, transport=transport)
            algo = ParallelSTTSV(partition, n)
            algo.load(machine, matrix, x)
            algo.run(machine)
            return algo.gather_result(machine), machine.ledger

        y_clean, ledger_clean = run(SimulatedTransport(partition.P))
        faulty = FaultInjectingTransport(
            SimulatedTransport(partition.P), FAULT_MODES["mixed"]
        )
        y, ledger = run(faulty)
        assert np.array_equal(y.view(np.uint64), y_clean.view(np.uint64))
        assert _ledger_fingerprint(ledger) == _ledger_fingerprint(ledger_clean)
        assert faulty.stats.injected > 0

    def test_fault_sequence_is_replayable(self, partition_q2):
        """Same (policy, algorithm, inputs) triple → identical injection
        counts and identical retry accounting, run after run."""

        def run():
            faulty = FaultInjectingTransport(
                SimulatedTransport(partition_q2.P), FAULT_MODES["mixed"]
            )
            _, ledger = _run_sttsv(partition_q2, 30, 0, faulty)
            return faulty.stats.as_dict(), ledger.retry_words

        assert run() == run()

    def test_unrecoverable_faults_raise_not_corrupt(self, partition_q2):
        """A network that drops everything exhausts the retry budget and
        raises — it can never deliver a wrong answer."""
        faulty = FaultInjectingTransport(
            SimulatedTransport(partition_q2.P), FaultPolicy(drop=1.0)
        )
        with pytest.raises(MachineError, match="integrity verification"):
            _run_sttsv(partition_q2, 30, 0, faulty)

    def test_zero_retry_budget_fails_fast(self, partition_q2):
        faulty = FaultInjectingTransport(
            SimulatedTransport(partition_q2.P), FaultPolicy(drop=0.5, seed=1)
        )
        machine = Machine(
            partition_q2.P,
            transport=faulty,
            recovery=RecoveryPolicy(max_retries=0),
        )
        algo = ParallelSTTSV(partition_q2, 30)
        algo.load(
            machine,
            random_symmetric(30, seed=0),
            np.random.default_rng(1).normal(size=30),
        )
        with pytest.raises(MachineError, match="after 0 retries"):
            algo.run(machine)


class TestTransportFailover:
    def test_shm_worker_death_fails_over_to_simulated(self):
        """An unrecoverable shm pool (dead worker, respawn disabled)
        triggers graceful degradation: the round re-executes on the
        in-process transport, correctly, with a recorded warning."""
        transport = SharedMemoryTransport(
            4, n_workers=1, respawn_workers=False
        )
        machine = Machine(4, transport=transport)
        send = [
            {dst: np.full(2, float(10 * src + dst)) for dst in range(4)}
            for src in range(4)
        ]
        all_to_all(machine, send)  # spins the pool up
        worker = transport._workers[0]
        os.kill(worker.pid, signal.SIGKILL)
        worker.join(timeout=5.0)

        recv = all_to_all(machine, send)
        for dst in range(4):
            for src in range(4):
                assert np.all(recv[dst][src] == 10 * src + dst)
        assert machine.failed_over
        assert machine.transport.name == "simulated"
        assert any("failing over" in w for w in machine.instrument.warnings)

    def test_failover_can_be_disabled(self):
        transport = SharedMemoryTransport(
            4, n_workers=1, respawn_workers=False
        )
        machine = Machine(4, transport=transport, failover=False)
        send = [{(src + 1) % 4: np.ones(2)} for src in range(4)]
        all_to_all(machine, send)
        worker = transport._workers[0]
        os.kill(worker.pid, signal.SIGKILL)
        worker.join(timeout=5.0)
        with pytest.raises(MachineError, match="died before dispatch"):
            all_to_all(machine, send)
        assert not machine.failed_over


class TestErrorHierarchy:
    def test_all_errors_are_repro_errors(self):
        from repro import errors

        for name in (
            "ConfigurationError",
            "FieldError",
            "SteinerError",
            "MatchingError",
            "PartitionError",
            "MachineError",
            "ConvergenceError",
        ):
            assert issubclass(getattr(errors, name), ReproError)

    def test_configuration_errors_are_value_errors(self):
        assert issubclass(ConfigurationError, ValueError)

    def test_catch_all_from_public_api(self):
        with pytest.raises(ReproError):
            random_symmetric(-3)
