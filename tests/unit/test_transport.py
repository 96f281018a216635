"""Transport layer: Transfer validation, both backends, byte fidelity."""

import os
import signal
import sys
import time

import numpy as np
import pytest

from repro.errors import ConfigurationError, MachineError
from repro.machine.machine import Machine
from repro.machine.transport import (
    TRANSPORTS,
    SharedMemoryTransport,
    SimulatedTransport,
    Transfer,
    Transport,
    check_transfers,
    make_transport,
    payload_checksum,
)


@pytest.fixture(scope="module")
def shm_transport():
    """One worker pool for the whole module — spawning is the slow part."""
    transport = SharedMemoryTransport(4, n_workers=2)
    yield transport
    transport.close()


def _round_trip(transport, payloads):
    transfers = [
        Transfer(source=src, dest=(src + 1) % transport.P, payload=arr)
        for src, arr in enumerate(payloads)
    ]
    return transport.exchange(transfers)


class TestPayloadChecksum:
    @pytest.mark.parametrize(
        "array",
        [
            np.arange(7.0),
            np.arange(12.0).reshape(3, 4),
            np.arange(20.0)[::3],
            np.arange(12.0).reshape(3, 4).T,
            np.array(2.5),
            np.empty(0),
            np.empty((0, 3)),
            np.arange(6, dtype=np.int32),
            np.arange(6, dtype=np.float32)[::-1],
            np.array([1 + 2j, -3j]),
            np.array([True, False, True]),
        ],
        ids=[
            "1d", "2d", "strided", "fortran", "0d", "empty", "empty-2d",
            "int32", "float32-reversed", "complex", "bool",
        ],
    )
    def test_digest_is_crc_of_dtype_shape_bytes(self, array):
        import zlib

        reference = zlib.crc32(array.dtype.str.encode())
        reference = zlib.crc32(repr(array.shape).encode(), reference)
        reference = zlib.crc32(array.tobytes(), reference)
        assert payload_checksum(array) == reference
        assert payload_checksum(array) == reference  # memoised prefix

    def test_same_bytes_different_shape_or_dtype_differ(self):
        flat = np.arange(6.0)
        assert payload_checksum(flat) != payload_checksum(flat.reshape(2, 3))
        assert payload_checksum(flat) != payload_checksum(flat.view(np.int64))


class TestCheckTransfers:
    def test_self_send_rejected(self):
        with pytest.raises(MachineError):
            check_transfers(4, [Transfer(2, 2, np.ones(1))])

    @pytest.mark.parametrize("src,dst", [(-1, 0), (0, 4), (9, 1)])
    def test_unknown_rank_rejected(self, src, dst):
        with pytest.raises(MachineError):
            check_transfers(4, [Transfer(src, dst, np.ones(1))])

    def test_valid_transfers_pass(self):
        check_transfers(4, [Transfer(0, 1, np.ones(2)), Transfer(3, 2, None)])


class TestMakeTransport:
    def test_registry_names(self):
        assert set(TRANSPORTS) == {"simulated", "shm"}

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            make_transport("mpi", 4)

    @pytest.mark.parametrize("name", ["simulated", "shm"])
    def test_instances_satisfy_protocol(self, name):
        transport = make_transport(name, 3)
        try:
            assert isinstance(transport, Transport)
            assert transport.name == name
            assert transport.P == 3
        finally:
            transport.close()


class TestSimulatedTransport:
    def test_delivery_order_matches_transfer_order(self):
        transport = SimulatedTransport(4)
        out = _round_trip(transport, [np.full(2, float(p)) for p in range(4)])
        for p, arr in enumerate(out):
            assert np.array_equal(arr, np.full(2, float(p)))

    def test_delivery_is_a_copy(self):
        transport = SimulatedTransport(2)
        payload = np.ones(3)
        (delivered,) = transport.exchange([Transfer(0, 1, payload)])
        payload[:] = 99.0
        assert np.all(delivered == 1.0)

    def test_context_manager(self):
        with SimulatedTransport(2) as transport:
            transport.exchange([Transfer(0, 1, np.ones(1))])


class TestSharedMemoryTransport:
    def test_delivery_order_matches_transfer_order(self, shm_transport):
        out = _round_trip(
            shm_transport, [np.full(3, float(p)) for p in range(4)]
        )
        for p, arr in enumerate(out):
            assert np.array_equal(arr, np.full(3, float(p)))

    @pytest.mark.parametrize(
        "dtype", [np.float64, np.float32, np.int64, np.int32, np.uint8]
    )
    def test_bitwise_fidelity_across_dtypes(self, shm_transport, dtype):
        rng = np.random.default_rng(7)
        payload = rng.integers(0, 100, size=17).astype(dtype)
        (delivered,) = shm_transport.exchange([Transfer(0, 1, payload)])
        assert delivered.dtype == payload.dtype
        assert delivered.tobytes() == payload.tobytes()

    def test_float_payload_bit_exact(self, shm_transport):
        payload = np.random.default_rng(11).normal(size=64)
        (delivered,) = shm_transport.exchange([Transfer(2, 3, payload)])
        assert np.array_equal(
            delivered.view(np.uint64), payload.view(np.uint64)
        )

    def test_multidimensional_shape_preserved(self, shm_transport):
        payload = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
        (delivered,) = shm_transport.exchange([Transfer(1, 0, payload)])
        assert delivered.shape == (2, 3, 4)
        assert np.array_equal(delivered, payload)

    def test_empty_payload(self, shm_transport):
        (delivered,) = shm_transport.exchange([Transfer(0, 2, np.empty(0))])
        assert delivered.size == 0

    def test_delivery_is_a_copy(self, shm_transport):
        payload = np.ones(5)
        (delivered,) = shm_transport.exchange([Transfer(0, 1, payload)])
        payload[:] = -1.0
        assert np.all(delivered == 1.0)

    def test_buffer_growth(self, shm_transport):
        """Rounds larger than the initial segment force regrowth."""
        big = np.random.default_rng(3).normal(size=300_000)
        (delivered,) = shm_transport.exchange([Transfer(0, 1, big)])
        assert np.array_equal(delivered, big)
        assert shm_transport.rounds_executed >= 1
        assert shm_transport.bytes_moved >= big.nbytes

    def test_many_rounds_reuse_pool(self, shm_transport):
        before = shm_transport.rounds_executed
        for _ in range(10):
            _round_trip(shm_transport, [np.ones(4)] * 4)
        assert shm_transport.rounds_executed == before + 10

    def test_close_is_idempotent(self):
        transport = SharedMemoryTransport(2, n_workers=1)
        transport.exchange([Transfer(0, 1, np.ones(2))])
        transport.close()
        transport.close()

    def test_context_manager_closes(self):
        with SharedMemoryTransport(2, n_workers=1) as transport:
            (out,) = transport.exchange([Transfer(1, 0, np.arange(3.0))])
            assert np.array_equal(out, [0.0, 1.0, 2.0])


def _worker_mapped_segments(transport):
    """Names of repro shm segments currently mapped by the pool's workers.

    Reads ``/proc/<pid>/maps`` directly — the ground truth for the
    regrowth-leak regression: an unlinked segment whose name still shows
    up in a worker's maps is leaked memory for the life of the pool.
    """
    names = set()
    for process in transport._workers:
        with open(f"/proc/{process.pid}/maps") as handle:
            for line in handle:
                if "/dev/shm/repro-" in line:
                    name = line.split("/dev/shm/", 1)[1].strip()
                    names.add(name.replace(" (deleted)", ""))
    return names


@pytest.mark.skipif(
    sys.platform != "linux", reason="reads /proc/<pid>/maps"
)
class TestSegmentEvictionOnRegrowth:
    """Regression: workers must unmap segments retired by regrowth.

    Before the fix, every ``_ensure_capacity`` regrowth left the old
    outbox/inbox pair mapped in every worker (the attach cache never
    evicted, and workers forked after segment creation inherited the
    coordinator's mappings) — memory and fd leaks proportional to the
    number of regrowths.
    """

    def test_workers_map_only_the_current_pair(self):
        with SharedMemoryTransport(2, n_workers=1) as transport:
            generations = []
            # ~1 KiB, then past the 64 KiB initial capacity, then past
            # the doubled capacity: two regrowths, three segment pairs.
            for nbytes in (1 << 10, 100_000, 300_000):
                payload = np.zeros(nbytes, dtype=np.uint8)
                (delivered,) = transport.exchange([Transfer(0, 1, payload)])
                assert delivered.nbytes == nbytes
                generations.append(
                    {transport._outbox.name, transport._inbox.name}
                )
            assert len(set().union(*generations)) == 6, "expected 2 regrowths"
            # Scope to this transport's own segments: workers of *other*
            # concurrently-open pools in the test process legitimately
            # inherit unrelated mappings at fork.
            mapped = _worker_mapped_segments(transport) & set().union(
                *generations
            )
            assert mapped == generations[-1], (
                f"worker still maps retired segments:"
                f" {mapped - generations[-1]}"
            )

    def test_retired_and_closed_segments_are_unlinked(self):
        """Every generation — retired by regrowth or alive at close() —
        must be unlinked from /dev/shm."""
        names = []
        with SharedMemoryTransport(2, n_workers=1) as transport:
            for nbytes in (1 << 10, 100_000):
                transport.exchange(
                    [Transfer(0, 1, np.zeros(nbytes, dtype=np.uint8))]
                )
                names += [transport._outbox.name, transport._inbox.name]
        assert len(set(names)) == 4
        for name in names:
            assert not os.path.exists(f"/dev/shm/{name}"), name


class TestWorkerLiveness:
    """Regression: a SIGKILLed worker used to stall exchange() for the
    full 60 s acknowledgement timeout; now it is diagnosed promptly."""

    def _kill_worker(self, transport, index=0):
        process = transport._workers[index]
        os.kill(process.pid, signal.SIGKILL)
        process.join(timeout=5.0)
        assert not process.is_alive()

    def test_dead_worker_raises_promptly_when_respawn_disabled(self):
        transport = SharedMemoryTransport(
            2, n_workers=1, respawn_workers=False
        )
        try:
            transport.exchange([Transfer(0, 1, np.ones(2))])
            self._kill_worker(transport)
            start = time.monotonic()
            with pytest.raises(MachineError, match="died before dispatch"):
                transport.exchange([Transfer(0, 1, np.ones(2))])
            assert time.monotonic() - start < 5.0, "should not hit timeout"
        finally:
            transport.close()

    def test_error_names_the_dead_worker(self):
        transport = SharedMemoryTransport(
            2, n_workers=1, respawn_workers=False
        )
        try:
            transport.exchange([Transfer(0, 1, np.ones(2))])
            pid = transport._workers[0].pid
            self._kill_worker(transport)
            with pytest.raises(MachineError, match=f"pid {pid}"):
                transport.exchange([Transfer(0, 1, np.ones(2))])
        finally:
            transport.close()

    def test_dead_worker_respawned_by_default(self):
        with SharedMemoryTransport(2, n_workers=1) as transport:
            transport.exchange([Transfer(0, 1, np.ones(2))])
            self._kill_worker(transport)
            payload = np.arange(8.0)
            (delivered,) = transport.exchange([Transfer(0, 1, payload)])
            assert np.array_equal(delivered, payload)
            assert transport.workers_respawned == 1

    def test_reset_stats_clears_counters(self):
        with SharedMemoryTransport(2, n_workers=1) as transport:
            transport.exchange([Transfer(0, 1, np.ones(2))])
            transport.reset_stats()
            assert transport.rounds_executed == 0
            assert transport.bytes_moved == 0
            assert transport.workers_respawned == 0


class TestShmStress:
    def test_many_rounds_across_regrowths_stay_bit_exact(self):
        """CI smoke: a long sequence of rounds with oscillating sizes —
        forcing repeated regrowth mid-stream — delivers every payload
        bit-for-bit."""
        rng = np.random.default_rng(42)
        with SharedMemoryTransport(4, n_workers=2) as transport:
            sizes = [64, 9_000, 64, 20_000, 128, 45_000, 64] * 3
            regrowths = 0
            seen_capacity = 0
            for index, size in enumerate(sizes):
                payloads = [
                    rng.normal(size=size) for _ in range(transport.P)
                ]
                transfers = [
                    Transfer(src, (src + 1) % transport.P, arr)
                    for src, arr in enumerate(payloads)
                ]
                delivered = transport.exchange(transfers)
                for arr, out in zip(payloads, delivered):
                    assert np.array_equal(
                        out.view(np.uint64), arr.view(np.uint64)
                    ), f"round {index} corrupted a payload"
                if transport._capacity > seen_capacity:
                    regrowths += seen_capacity > 0
                    seen_capacity = transport._capacity
            assert regrowths >= 2, "stress run never exercised regrowth"
            assert transport.rounds_executed == len(sizes)


class TestMachineTransportWiring:
    def test_default_is_simulated(self):
        machine = Machine(3)
        assert machine.transport.name == "simulated"
        assert machine.transport.P == 3

    def test_processor_count_mismatch_rejected(self):
        with pytest.raises(MachineError):
            Machine(3, transport=SimulatedTransport(4))

    def test_machine_close_closes_transport(self):
        with Machine(2, transport=SimulatedTransport(2)) as machine:
            assert machine.transport.name == "simulated"
