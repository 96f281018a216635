"""Cross-backend equivalence: shm and simulated transports agree exactly.

The refactoring contract (three-step round discipline): ledger counts
are derived from the transfer *schedule*, so they cannot depend on the
transport; and the shared-memory backend moves raw little-endian bytes,
so every delivered array — and hence every float accumulation in the
reduce phases — is bit-for-bit the same as in-process copying. These
tests pin both halves of that contract on real admissible systems.
"""

import numpy as np
import pytest

from repro.core.parallel_sttsv import CommBackend, ParallelSTTSV
from repro.machine.machine import Machine
from repro.machine.transport import SharedMemoryTransport, SimulatedTransport
from repro.tensor.dense import random_symmetric


def _ledger_fingerprint(ledger):
    return {
        "words_sent": list(ledger.words_sent),
        "words_received": list(ledger.words_received),
        "messages_sent": list(ledger.messages_sent),
        "messages_received": list(ledger.messages_received),
        "rounds": ledger.round_count(),
        "labels": [record.label for record in ledger.rounds],
    }


def _run_sttsv(partition, n, seed, backend, transport, fusion=True, columns=None):
    tensor = random_symmetric(n, seed=seed)
    shape = n if columns is None else (n, columns)
    x = np.random.default_rng(seed + 1).normal(size=shape)
    machine = Machine(partition.P, transport=transport, fusion=fusion)
    algo = ParallelSTTSV(partition, n, backend)
    algo.load(machine, tensor, x)
    algo.run(machine)
    return (
        algo.gather_result(machine),
        _ledger_fingerprint(machine.ledger),
        machine.ledger.fusion_summary(),
    )


@pytest.fixture(scope="module")
def shm_q2():
    transport = SharedMemoryTransport(10, n_workers=2)
    yield transport
    transport.close()


@pytest.fixture(scope="module")
def shm_q3():
    transport = SharedMemoryTransport(30, n_workers=2)
    yield transport
    transport.close()


class TestSTTSVEquivalence:
    @pytest.mark.parametrize("backend", list(CommBackend))
    @pytest.mark.parametrize("seed", [0, 7])
    def test_q2_bitwise_identical(self, partition_q2, shm_q2, backend, seed):
        n = 30
        y_sim, ledger_sim, _ = _run_sttsv(
            partition_q2, n, seed, backend, SimulatedTransport(partition_q2.P)
        )
        y_shm, ledger_shm, _ = _run_sttsv(partition_q2, n, seed, backend, shm_q2)
        assert np.array_equal(
            y_sim.view(np.uint64), y_shm.view(np.uint64)
        ), "y differs at the bit level between transports"
        assert ledger_sim == ledger_shm

    @pytest.mark.parametrize("backend", list(CommBackend))
    def test_q3_bitwise_identical(self, partition_q3, shm_q3, backend):
        n = 60
        y_sim, ledger_sim, _ = _run_sttsv(
            partition_q3, n, 3, backend, SimulatedTransport(partition_q3.P)
        )
        y_shm, ledger_shm, _ = _run_sttsv(partition_q3, n, 3, backend, shm_q3)
        assert np.array_equal(y_sim.view(np.uint64), y_shm.view(np.uint64))
        assert ledger_sim == ledger_shm

    def test_q2_matches_sequential(self, partition_q2, shm_q2):
        """The shm run is not just self-consistent — it is correct."""
        from repro.core.sttsv_sequential import sttsv
        from repro.tensor.packed import PackedSymmetricTensor

        n = 30
        tensor = random_symmetric(n, seed=1)
        x = np.random.default_rng(2).normal(size=n)
        machine = Machine(partition_q2.P, transport=shm_q2)
        algo = ParallelSTTSV(partition_q2, n)
        algo.load(machine, tensor, x)
        algo.run(machine)
        assert isinstance(tensor, PackedSymmetricTensor)
        assert np.allclose(
            algo.gather_result(machine), sttsv(tensor, x), atol=1e-10
        )


class TestSYMVEquivalence:
    def test_fano_plane_bitwise_identical(self):
        from repro.matrix.partition import TriangleBlockPartition
        from repro.steiner.pairwise import projective_plane_system
        from repro.tensor.ndpacked import nd_random_symmetric

        partition = TriangleBlockPartition(projective_plane_system(2))
        partition.validate()
        n = partition.m * partition.steiner.point_replication()
        matrix = nd_random_symmetric(n, 2, seed=5)
        x = np.random.default_rng(6).normal(size=n)

        results = {}
        fingerprints = {}
        with SharedMemoryTransport(partition.P, n_workers=2) as shm:
            for name, transport in (
                ("simulated", SimulatedTransport(partition.P)),
                ("shm", shm),
            ):
                machine = Machine(partition.P, transport=transport)
                algo = ParallelSTTSV(partition, n)
                algo.load(machine, matrix, x)
                algo.run(machine)
                results[name] = algo.gather_result(machine)
                fingerprints[name] = _ledger_fingerprint(machine.ledger)
        assert np.array_equal(
            results["simulated"].view(np.uint64),
            results["shm"].view(np.uint64),
        )
        assert fingerprints["simulated"] == fingerprints["shm"]


class TestInstrumentationAcrossBackends:
    def test_spans_recorded_under_both(self, partition_q2, shm_q2):
        n = 30
        for transport in (SimulatedTransport(partition_q2.P), shm_q2):
            machine = Machine(partition_q2.P, transport=transport)
            algo = ParallelSTTSV(partition_q2, n)
            algo.load(machine, random_symmetric(n, seed=0), np.ones(n))
            algo.run(machine)
            names = set(machine.instrument.timings())
            assert {
                "sttsv:exchange-x",
                "sttsv:local-compute",
                "sttsv:exchange-y",
            } <= names


class TestColumnEquivalence:
    def test_columns_bitwise_across_transports_and_fusion(
        self, partition_q2, shm_q2
    ):
        """``(n, c)`` x: simulated == shm and fused == ``fusion=False``,
        bitwise, with one algorithmic ledger."""
        n, backend = 30, CommBackend.POINT_TO_POINT
        runs = [
            _run_sttsv(partition_q2, n, 19, backend, transport, fusion, columns=4)
            for transport, fusion in (
                (SimulatedTransport(partition_q2.P), True),
                (shm_q2, True),
                (SimulatedTransport(partition_q2.P), False),
            )
        ]
        (y, ledger, fused), *others = runs
        assert y.shape == (n, 4)
        for y_other, ledger_other, _ in others:
            assert np.array_equal(y.view(np.uint64), y_other.view(np.uint64))
            assert ledger == ledger_other
        assert fused["messages_fused"] < fused["messages_logical"]


class TestFusionEquivalence:
    """Fusion is a physical-layer detail: results bitwise identical,
    algorithmic ledger fingerprints byte-for-byte equal, physical
    message count strictly lower — on both transports."""

    @pytest.mark.parametrize("q_fix", ["q2", "q3"])
    def test_fused_vs_unfused_simulated(self, request, q_fix):
        partition = request.getfixturevalue(f"partition_{q_fix}")
        n = 3 * partition.P
        backend = CommBackend.POINT_TO_POINT
        y_f, ledger_f, fused = _run_sttsv(
            partition, n, 11, backend, SimulatedTransport(partition.P)
        )
        y_u, ledger_u, unfused = _run_sttsv(
            partition,
            n,
            11,
            backend,
            SimulatedTransport(partition.P),
            fusion=False,
        )
        assert np.array_equal(y_f.view(np.uint64), y_u.view(np.uint64))
        assert ledger_f == ledger_u
        assert unfused["fused_rounds"] == 0
        assert fused["messages_fused"] < fused["messages_logical"]

    def test_fused_shm_vs_unfused_simulated(self, partition_q2, shm_q2):
        n = 30
        for backend in CommBackend:
            y_shm, ledger_shm, fused = _run_sttsv(
                partition_q2, n, 13, backend, shm_q2
            )
            y_sim, ledger_sim, _ = _run_sttsv(
                partition_q2,
                n,
                13,
                backend,
                SimulatedTransport(partition_q2.P),
                fusion=False,
            )
            assert np.array_equal(y_shm.view(np.uint64), y_sim.view(np.uint64))
            assert ledger_shm == ledger_sim
            assert fused["messages_fused"] < fused["messages_logical"]

    def test_fused_under_faults_bitwise_identical(self, partition_q2):
        from repro.machine.transport import (
            FaultInjectingTransport,
            FaultPolicy,
        )

        n = 30
        backend = CommBackend.POINT_TO_POINT
        y_clean, ledger_clean, _ = _run_sttsv(
            partition_q2,
            n,
            17,
            backend,
            SimulatedTransport(partition_q2.P),
            fusion=False,
        )
        faulty = FaultInjectingTransport(
            SimulatedTransport(partition_q2.P),
            FaultPolicy(drop=0.15, corrupt=0.05, seed=21),
        )
        y_faulty, ledger_faulty, fused = _run_sttsv(
            partition_q2, n, 17, backend, faulty
        )
        assert np.array_equal(
            y_clean.view(np.uint64), y_faulty.view(np.uint64)
        )
        # Recovery cost lives in the retry side-channel only: the
        # algorithmic fingerprint equals the clean unfused run's.
        assert ledger_clean == ledger_faulty
        assert fused["messages_fused"] < fused["messages_logical"]
