"""Fleet tier end to end: routing fidelity, chaos, drain, overload.

The acceptance contract of the gateway PR:

* an apply routed through the gateway is **bitwise identical** to a
  direct :class:`ParallelSTTSV` run on the same tensor for q=2/P=10
  and q=3/P=30 — including when the tensor's primary shard is
  SIGKILLed and later restarted mid-sequence;
* killing a shard process under concurrent load loses **zero**
  requests: the gateway reroutes to the replica and clients see only
  successes (their own transport never broke — they talk to the
  gateway);
* graceful :meth:`~repro.service.gateway.STTSVGateway.drain` finishes
  in-flight applies and re-registers the drained shard's tensors on a
  successor, visible in the survivor's session table;
* typed ``OVERLOADED`` from a saturated shard passes through the
  gateway verbatim, and framing garbage sent *to* the gateway gets the
  same typed ``BAD_REQUEST``-then-close treatment a shard gives it.

In-process :class:`STTSVServer` shards are used where process identity
does not matter (fast); real ``python -m repro serve`` subprocesses
(via :class:`LocalFleet`) where the chaos is the point.
"""

import socket
import threading

import numpy as np
import pytest

from repro.core.parallel_sttsv import ParallelSTTSV
from repro.core.partition import TetrahedralPartition
from repro.machine.machine import Machine
from repro.machine.transport import make_transport
from repro.service.client import ServiceClient
from repro.service.gateway import LocalFleet, STTSVGateway
from repro.service.protocol import (
    ErrorCode,
    MessageType,
    ServiceError,
    encode_array,
    pack_frame,
    read_frame,
    write_frame,
)
from repro.core.plans import sequential_plan
from repro.service.ring import ring_key
from repro.service.server import STTSVServer
from repro.steiner import spherical_steiner_system
from repro.tensor.dense import random_symmetric
from repro.tensor.ndpacked import NdPackedSymmetricTensor, nd_packed_size
from repro.tensor.symk import SymKPlan, random_symk


def _direct_parallel(q, backend, tensor, x):
    """Reference result: Algorithm 5 straight on a fresh machine."""
    partition = TetrahedralPartition(spherical_steiner_system(q))
    partition.validate()
    transport = make_transport(backend, partition.P)
    try:
        machine = Machine(partition.P, transport=transport)
        algo = ParallelSTTSV(partition, tensor.n)
        algo.load(machine, tensor, x)
        algo.run(machine)
        return algo.gather_result(machine)
    finally:
        transport.close()


class _InProcessPair:
    """Two in-process shards behind a gateway (no subprocess cost)."""

    def __enter__(self):
        self.shards = [STTSVServer(), STTSVServer()]
        for shard in self.shards:
            shard.start()
        self.by_name = {
            f"{host}:{port}": shard
            for shard in self.shards
            for host, port in [shard.address]
        }
        self.gateway = STTSVGateway([s.address for s in self.shards])
        self.gateway.start()
        return self

    def __exit__(self, *exc):
        self.gateway.stop()
        for shard in self.shards:
            shard.stop()


class TestGatewayBitwiseIdentity:
    @pytest.mark.parametrize("q,n", [(2, 30), (3, 60)])
    def test_routed_equals_direct_parallel(self, q, n):
        tensor = random_symmetric(n, seed=q)
        rng = np.random.default_rng(q + 20)
        with _InProcessPair() as pair:
            with ServiceClient(*pair.gateway.address) as client:
                info = client.register("fidelity", tensor, q=q)
                assert info["P"] == q * (q * q + 1)
                assert info["shard"] in pair.by_name
                for _ in range(3):
                    x = rng.standard_normal(n)
                    routed = client.apply("fidelity", x, mode="parallel")
                    direct = _direct_parallel(q, "simulated", tensor, x)
                    assert np.array_equal(routed, direct)

    def test_identity_survives_primary_shard_loss(self):
        """Kill the tensor's primary: the reroute must land on the
        replica's warm session and stay bitwise-identical."""
        q, n = 2, 30
        tensor = random_symmetric(n, seed=4)
        x = np.random.default_rng(5).standard_normal(n)
        direct = _direct_parallel(q, "simulated", tensor, x)
        with _InProcessPair() as pair:
            with ServiceClient(*pair.gateway.address) as client:
                info = client.register("survivor", tensor, q=q)
                assert np.array_equal(
                    client.apply("survivor", x, mode="parallel"), direct
                )
                pair.by_name[info["shard"]].stop()
                assert np.array_equal(
                    client.apply("survivor", x, mode="parallel"), direct
                )
                events = client.stats()["gateway"]["events"]
                assert events["reroutes"] == 1


def _order4_tensor(n, seed):
    rng = np.random.default_rng(seed)
    data = rng.integers(-3, 4, size=nd_packed_size(n, 4)).astype(np.float64)
    return NdPackedSymmetricTensor(n, 4, data)


#: One input per representation: (tensor, register call, direct plan,
#: the shard's pinned session-label suffix, tensor order).
_REPRESENTATION_CASES = {
    "dense-3": (
        random_symmetric(30, seed=61),
        lambda client, tid, t: client.register(tid, t, q=2),
        sequential_plan, "@q=2,P=10,simulated", 3,
    ),
    "bcss-4": (
        _order4_tensor(20, seed=62),
        lambda client, tid, t: client.register(tid, t, q=3, order=4),
        sequential_plan, "@q=3,P=14,simulated,order=4", 4,
    ),
    "symk-3": (
        random_symk(12, 2, seed=63),
        lambda client, tid, t: client.register_symk(tid, t, q=2),
        SymKPlan, "@q=2,P=10,simulated,symk", 3,
    ),
    "symk-4": (
        random_symk(12, 2, order=4, seed=1),
        lambda client, tid, t: client.register_symk(tid, t, q=2),
        SymKPlan, "@q=2,P=10,simulated,order=4,symk", 4,
    ),
}


class TestGatewayShardAgreement:
    @pytest.mark.parametrize("case", sorted(_REPRESENTATION_CASES))
    def test_gateway_and_shard_agree(self, case):
        """The gateway's record (P, ring key) matches the shard's
        session for every representation, and a routed plan apply is
        bitwise the direct plan. At one time the gateway applied the
        SQS processor count to every order-4 registration, so an
        order-4 symk tensor was routed under P=1 while its shard
        session had P=10."""
        tensor, register, plan, label, order = _REPRESENTATION_CASES[case]
        tid = f"agree-{case}"
        x = np.random.default_rng(64).standard_normal(tensor.n)
        with _InProcessPair() as pair:
            with ServiceClient(*pair.gateway.address) as client:
                info = register(client, tid, tensor)
                record = client.stats()["gateway"]["tensors"][tid]
                assert record["P"] == info["P"]
                assert pair.gateway._tensors[tid].key == ring_key(
                    tid, info["q"], info["P"], order=order
                )
                shard = pair.by_name[info["shard"]].stats()
                assert tid + label in shard["sessions"]
                routed = client.apply(tid, x, mode="plan")
        assert routed.tobytes() == plan(tensor).apply(x).tobytes()


class TestGatewayKeepsOneCopy:
    def test_replay_log_holds_the_received_bodies(self):
        """The gateway's replay log keeps each REGISTER and UPDATE body
        object it received, not a copy of it."""
        tensor = random_symk(40, 3, seed=6)
        header, payload = encode_array(
            np.concatenate([tensor.lambda_, tensor.V.ravel()])
        )
        header.update(tensor_id="log", kind="symk", rank=3, n=40, q=2, order=3)
        body = bytearray(payload)
        update_header, update_payload = encode_array(np.arange(41.0))
        update_header["tensor_id"] = "log"
        update_body = bytearray(update_payload)
        with _InProcessPair() as pair:
            gateway = pair.gateway
            reply = gateway.handle_request(MessageType.REGISTER, header, body)
            assert reply.msg_type == MessageType.OK
            reply = gateway.handle_request(
                MessageType.UPDATE, update_header, update_body
            )
            assert reply.msg_type == MessageType.OK
            record = gateway._tensors["log"]
            assert record.body is body
            assert record.updates[-1][1] is update_body


@pytest.mark.slow
class TestFleetChaos:
    """Real subprocess shards; the gateway survives their death.

    Marked ``slow``: the default tier skips this class (the symk
    SIGKILL failover test in ``test_service_symk.py`` keeps one real
    subprocess chaos case in every run); CI's chaos job opts back in
    with ``-m slow``."""

    @pytest.mark.parametrize("q,n", [(2, 30), (3, 60)])
    def test_kill_and_restart_preserves_identity(self, q, n):
        """SIGKILL the primary mid-sequence, then restart it: every
        apply — before, during the outage, and after the shard
        re-joins the ring — is bitwise the direct parallel result."""
        tensor = random_symmetric(n, seed=q + 30)
        rng = np.random.default_rng(q + 40)
        inputs = [rng.standard_normal(n) for _ in range(6)]
        direct = [
            _direct_parallel(q, "simulated", tensor, x) for x in inputs
        ]
        with LocalFleet(shards=2) as fleet:
            with ServiceClient(*fleet.gateway.address) as client:
                info = client.register("chaos", tensor, q=q)
                primary_index = fleet.ports.index(
                    int(info["shard"].rsplit(":", 1)[1])
                )
                for x, expected in zip(inputs[:2], direct[:2]):
                    got = client.apply("chaos", x, mode="parallel")
                    assert np.array_equal(got, expected)
                fleet.kill_shard(primary_index)
                for x, expected in zip(inputs[2:4], direct[2:4]):
                    got = client.apply("chaos", x, mode="parallel")
                    assert np.array_equal(got, expected)
                fleet.restart_shard(primary_index)
                for x, expected in zip(inputs[4:], direct[4:]):
                    got = client.apply("chaos", x, mode="parallel")
                    assert np.array_equal(got, expected)
                gateway_stats = client.stats()["gateway"]
                assert gateway_stats["events"]["reroutes"] >= 1
                # the restarted shard is healthy and back on the ring
                name = fleet.shard_name(primary_index)
                assert gateway_stats["shards"][name]["healthy"]
                assert name in gateway_stats["ring"]["nodes"]

    def test_register_new_tensor_after_shard_death(self):
        """A registration whose primary hashes to a shard that died
        *unnoticed* (no traffic since the kill) must succeed: the
        failed forward evicts the shard and the register retries on
        the new primary instead of surfacing the transport error."""
        n = 30
        tensor = random_symmetric(n, seed=55)
        x = np.random.default_rng(56).standard_normal(n)
        with _InProcessPair() as pair:
            pair.shards[0].stop()  # gateway has not learned yet
            with ServiceClient(*pair.gateway.address) as client:
                # enough ids that at least one would hash to the dead
                # shard's arc — every single one must still register
                for index in range(8):
                    info = client.register(f"late-{index}", tensor, q=2)
                    assert info["shard"] in pair.by_name
                y = client.apply("late-0", x, mode="plan")
                stats = client.stats()["gateway"]
                assert len(stats["ring"]["nodes"]) == 1
        from repro.core.plans import sequential_plan

        assert np.array_equal(y, sequential_plan(tensor).apply(x))

    def test_kill_under_concurrent_load_loses_nothing(self):
        """The headline chaos claim: a shard dies while 8 workers
        hammer the gateway, and every single request succeeds — the
        reroute is invisible to clients."""
        n = 30
        tensor = random_symmetric(n, seed=50)
        requests_per_worker = 12
        workers = 8
        failures = []
        results = []
        lock = threading.Lock()
        with LocalFleet(shards=2) as fleet:
            host, port = fleet.gateway.address
            with ServiceClient(host, port) as client:
                info = client.register("under-fire", tensor, q=2)
            primary_index = fleet.ports.index(
                int(info["shard"].rsplit(":", 1)[1])
            )
            started = threading.Barrier(workers + 1)

            def worker(worker_id):
                rng = np.random.default_rng(worker_id)
                with ServiceClient(host, port) as c:
                    started.wait()
                    for _ in range(requests_per_worker):
                        x = rng.standard_normal(n)
                        try:
                            y = c.apply("under-fire", x, mode="plan")
                        except Exception as error:  # noqa: BLE001
                            with lock:
                                failures.append(repr(error))
                        else:
                            with lock:
                                results.append((x, y))

            threads = [
                threading.Thread(target=worker, args=(i,), daemon=True)
                for i in range(workers)
            ]
            for thread in threads:
                thread.start()
            started.wait()  # all workers connected and issuing
            fleet.kill_shard(primary_index)
            for thread in threads:
                thread.join(timeout=120)
            assert failures == []
            assert len(results) == workers * requests_per_worker
            events = fleet.gateway.stats()["gateway"]["events"]
            assert events["reroutes"] == 1
        # Spot-check correctness of rerouted traffic. Concurrent plan
        # applies coalesce into batches server-side, so compare with
        # the same tight tolerance the coalescing test uses.
        from repro.core.plans import sequential_plan

        plan = sequential_plan(tensor)
        for x, y in results[:: len(results) // 8]:
            assert np.allclose(y, plan.apply(x), rtol=1e-10, atol=1e-10)


class TestGracefulDrain:
    def test_drain_moves_tensors_and_finishes_inflight(self):
        """Drain the primary: replies in flight complete, the tensor
        re-registers on a successor, and the drained shard takes no
        further traffic."""
        n = 30
        tensor = random_symmetric(n, seed=60)
        x = np.random.default_rng(61).standard_normal(n)
        shards = [STTSVServer() for _ in range(3)]
        for shard in shards:
            shard.start()
        by_name = {
            f"{h}:{p}": s for s in shards for h, p in [s.address]
        }
        gateway = STTSVGateway([s.address for s in shards])
        gateway.start()
        try:
            with ServiceClient(*gateway.address) as client:
                info = client.register("mobile", tensor, q=2)
                primary = info["shard"]
                before = client.apply("mobile", x, mode="plan")
                assert gateway.drain(primary) is True
                after = client.apply("mobile", x, mode="plan")
                assert np.array_equal(before, after)
                stats = client.stats()["gateway"]
                assert primary not in stats["ring"]["nodes"]
                assert stats["shards"][primary]["state"] == "drained"
                owners = stats["tensors"]["mobile"]["owners"]
                assert primary not in owners and owners
                assert stats["events"]["drains"] == 1
                # the re-registration is visible on the successor: its
                # session table holds the tensor, warm and serving
                successor = by_name[owners[0]]
                assert any(
                    "mobile" in label for label in successor.stats()["sessions"]
                )
        finally:
            gateway.stop()
            for shard in shards:
                shard.stop()

    def test_drain_timeout_reports_false(self):
        """A shard whose in-flight work never finishes bounds the
        drain wait instead of hanging it."""
        with _InProcessPair() as pair:
            name = next(iter(pair.by_name))
            with pair.gateway._state:
                pair.gateway._inflight_by_shard[name] = 1  # simulated stuck
            assert pair.gateway.drain(name, timeout=0.2) is False


class TestTypedErrorsThroughGateway:
    def test_overloaded_passes_through_verbatim(self):
        """Saturate one shard's admission queue: the typed OVERLOADED
        a shard emits must reach the client unchanged."""
        n = 30
        tensor = random_symmetric(n, seed=70)
        shard = STTSVServer(max_batch=1, admission_capacity=1)
        shard.start()
        gateway = STTSVGateway([shard.address], replication=1)
        gateway.start()
        try:
            host, port = gateway.address
            with ServiceClient(host, port) as client:
                client.register("jammed", tensor, q=2)
            shard.batcher.hold()
            try:
                saw_overload = threading.Event()

                def spam(worker_id):
                    rng = np.random.default_rng(worker_id)
                    with ServiceClient(host, port) as c:
                        for _ in range(4):
                            try:
                                c.apply(
                                    "jammed", rng.standard_normal(n),
                                    deadline_ms=200.0,
                                )
                            except ServiceError as error:
                                if error.code == ErrorCode.OVERLOADED:
                                    saw_overload.set()

                threads = [
                    threading.Thread(target=spam, args=(i,), daemon=True)
                    for i in range(6)
                ]
                for thread in threads:
                    thread.start()
                assert saw_overload.wait(timeout=30)
            finally:
                shard.batcher.release()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            gateway.stop()
            shard.stop()

    def test_unknown_tensor_is_typed_at_the_gateway(self):
        with _InProcessPair() as pair:
            with ServiceClient(*pair.gateway.address) as client:
                with pytest.raises(ServiceError) as info:
                    client.apply("ghost", np.ones(10))
                assert info.value.code == ErrorCode.UNKNOWN_TENSOR

    def test_framing_garbage_gets_typed_reply_and_close(self):
        """Garbage sent to the gateway: same typed BAD_REQUEST + close
        contract as a shard (the incremental reader is shared)."""
        with _InProcessPair() as pair:
            host, port = pair.gateway.address
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(b"GET / HTTP/1.1\r\n\r\n")
                msg_type, header, _ = read_frame(sock)
                assert msg_type == MessageType.ERROR
                assert header["code"] == ErrorCode.BAD_REQUEST.value
                assert sock.recv(1) == b""  # connection closed after reply

    def test_pipelined_frames_both_answered(self):
        """Two requests in one TCP segment: the event loop must answer
        both, in order — through the gateway and on to a shard."""
        n = 30
        tensor = random_symmetric(n, seed=80)
        with _InProcessPair() as pair:
            host, port = pair.gateway.address
            with ServiceClient(host, port) as client:
                client.register("pipe", tensor, q=2)
            with socket.create_connection((host, port), timeout=30) as sock:
                payload = pack_frame(MessageType.STATS, {}) + pack_frame(
                    MessageType.STATS, {"format": "prometheus"}
                )
                sock.sendall(payload)
                first_type, first_header, _ = read_frame(sock)
                second_type, second_header, second_body = read_frame(sock)
                assert first_type == MessageType.OK
                assert "gateway" in first_header
                assert second_type == MessageType.OK
                assert b"sttsv_ring_backends" in second_body


class TestClientReconnect:
    def test_client_survives_server_restart(self):
        """The satellite: a client whose server went away redials and
        replays instead of surfacing ECONNRESET/EPIPE."""
        n = 30
        tensor = random_symmetric(n, seed=90)
        x = np.random.default_rng(91).standard_normal(n)
        first = STTSVServer()
        host, port = first.start()
        client = ServiceClient(host, port, retries=3, retry_backoff_s=0.2)
        try:
            client.register("phoenix", tensor, q=2)
            expected = client.apply("phoenix", x)
            first.stop()
            second = STTSVServer(host=host, port=port)
            # the port lingers in TIME_WAIT-adjacent states briefly;
            # SO_REUSEADDR in the server makes the rebind immediate
            second.start()
            try:
                with ServiceClient(host, port) as warmer:
                    warmer.register("phoenix", tensor, q=2)
                got = client.apply("phoenix", x)
                assert np.array_equal(got, expected)
                assert client.reconnects >= 1
            finally:
                second.stop()
        finally:
            client.close()

    def test_retries_exhausted_raises_oserror(self):
        server = STTSVServer()
        host, port = server.start()
        client = ServiceClient(host, port, retries=1, retry_backoff_s=0.01)
        server.stop()
        with pytest.raises(OSError):
            client.stats()
        client.close()

    def test_shutdown_via_gateway_stops_it(self):
        shard = STTSVServer()
        shard.start()
        gateway = STTSVGateway([shard.address], replication=1)
        gateway.start()
        try:
            with ServiceClient(*gateway.address, retries=0) as client:
                client.shutdown()
            assert gateway.wait(timeout=10)
        finally:
            gateway.stop()
            shard.stop()
