"""Low-rank symk serving end to end: register, apply, streamed
updates with epoch fencing, and exact failover through the gateway.

The acceptance contract of the symk PR:

* a served symk apply (``plan`` or ``parallel`` mode) is bitwise the
  resident tensor's fast path / distributed replay;
* ``UPDATE`` advances a monotone epoch echoed on every reply, and a
  ``min_epoch`` fence turns a stale replica into a typed
  ``STALE_READ`` instead of stale data;
* a SIGKILLed primary loses nothing: the gateway's replica applied
  every streamed update live, and a restarted shard is rebuilt by
  replaying the registration plus the retained update log in epoch
  order — reads after failover are **bitwise** the rebuilt oracle.

In-process shards are used where process identity does not matter;
a real :class:`LocalFleet` subprocess fleet where SIGKILL is the
point.
"""

import numpy as np
import pytest

from repro.core.parallel_sttsv import CommBackend
from repro.core.parallel_symk import ParallelSymKTTSV
from repro.machine.machine import Machine
from repro.machine.transport import make_transport
from repro.service.client import ServiceClient
from repro.service.gateway import LocalFleet, STTSVGateway
from repro.service.protocol import ErrorCode, ServiceError
from repro.service.server import STTSVServer
from repro.tensor.symk import SymKTensor, random_symk


def _rebuild(base, stream):
    """The oracle tensor after applying ``stream`` rank-1 updates."""
    if not stream:
        return SymKTensor(base.lambda_, base.V, base.m)
    return SymKTensor(
        np.concatenate([base.lambda_, [w for w, _ in stream]]),
        np.concatenate([base.V] + [v[:, None] for _, v in stream], axis=1),
        base.m,
    )


class TestServedSymk:
    def test_register_reply_carries_lowrank_identity(self):
        tensor = random_symk(20, 3, seed=0)
        with STTSVServer(port=0) as server:
            with ServiceClient(*server.address) as client:
                info = client.register_symk("lr", tensor, q=2)
                assert info["kind"] == "symk"
                assert (info["n"], info["rank"]) == (20, 3)
                assert info["P"] == 10  # defaults to q(q²+1)
                assert info["update_epoch"] == 0
                assert info["plan_strategy"] == "symk"

    def test_plan_mode_is_bitwise_the_fast_path(self):
        tensor = random_symk(24, 4, seed=1)
        x = np.random.default_rng(2).standard_normal(24)
        with STTSVServer(port=0) as server:
            with ServiceClient(*server.address) as client:
                client.register_symk("lr", tensor, q=2)
                y = client.apply("lr", x, mode="plan")
                assert np.array_equal(y, tensor.ttsv(x))

    @pytest.mark.parametrize(
        "variant", ["point-to-point", "all-to-all"]
    )
    def test_parallel_mode_is_bitwise_the_distributed_replay(
        self, variant
    ):
        tensor = random_symk(24, 4, seed=3)
        x = np.random.default_rng(4).standard_normal(24)
        algo = ParallelSymKTTSV(
            10, 24, backend=CommBackend(variant)
        )
        with Machine(10, transport=make_transport("simulated", 10)) as m:
            algo.load_tensor(m, tensor)
        expected = algo.serial_reference(x)
        with STTSVServer(port=0) as server:
            with ServiceClient(*server.address) as client:
                client.register_symk("lr", tensor, q=2, variant=variant)
                y = client.apply("lr", x, mode="parallel")
                assert np.array_equal(y, expected)

    def test_batch_reply_echoes_epoch_and_matches_columns(self):
        tensor = random_symk(16, 2, seed=5)
        rng = np.random.default_rng(6)
        X = rng.standard_normal((16, 3))
        with STTSVServer(port=0) as server:
            with ServiceClient(*server.address) as client:
                client.register_symk("lr", tensor, q=2)
                epoch = client.update(
                    "lr", 0.5, rng.standard_normal(16)
                )
                Y = client.apply_batch("lr", X, min_epoch=epoch)
                assert client.last_update_epoch == epoch == 1
                for col in range(3):
                    y = client.apply("lr", X[:, col], min_epoch=epoch)
                    assert np.array_equal(Y[:, col], y)

    def test_update_on_dense_session_is_typed_bad_request(self):
        from repro.tensor.dense import random_symmetric

        with STTSVServer(port=0) as server:
            with ServiceClient(*server.address) as client:
                client.register("dense", random_symmetric(30, seed=0), q=2)
                with pytest.raises(ServiceError) as excinfo:
                    client.update("dense", 1.0, np.ones(30))
                assert excinfo.value.code == ErrorCode.BAD_REQUEST

    def test_stale_fence_is_typed(self):
        tensor = random_symk(12, 2, seed=7)
        x = np.random.default_rng(8).standard_normal(12)
        with STTSVServer(port=0) as server:
            with ServiceClient(*server.address) as client:
                client.register_symk("lr", tensor, q=2)
                with pytest.raises(ServiceError) as excinfo:
                    client.apply("lr", x, min_epoch=3)
                assert excinfo.value.code == ErrorCode.STALE_READ

    def test_auto_variant_resolves_via_planner(self):
        tensor = random_symk(40, 4, seed=9)
        with STTSVServer(port=0) as server:
            with ServiceClient(*server.address) as client:
                info = client.register_symk(
                    "lr", tensor, q=2, backend="auto", variant="auto"
                )
                assert info["planned"] is True
                assert info["variant"] in (
                    "point-to-point", "all-to-all"
                )

    def test_session_snapshot_reports_kind_rank_epoch(self):
        tensor = random_symk(14, 3, seed=10)
        with STTSVServer(port=0) as server:
            with ServiceClient(*server.address) as client:
                client.register_symk("lr", tensor, q=2)
                client.update(
                    "lr", 1.0,
                    np.random.default_rng(11).standard_normal(14),
                )
                stats = client.stats()
                session = next(iter(stats["sessions"].values()))
                assert session["kind"] == "symk"
                assert session["rank"] == 4
                assert session["update_epoch"] == 1
                assert session["updates"] == 1


class TestSymkThroughGateway:
    def test_updates_replicate_and_failover_is_bitwise(self):
        """Stream updates through an in-process gateway, stop the
        primary, and require the replica's fenced read to be bitwise
        the rebuilt oracle."""
        base = random_symk(20, 3, seed=12)
        rng = np.random.default_rng(13)
        stream = [
            (float(rng.standard_normal()), rng.standard_normal(20))
            for _ in range(6)
        ]
        x = rng.standard_normal(20)
        shards = [STTSVServer(), STTSVServer()]
        for shard in shards:
            shard.start()
        by_name = {
            f"{host}:{port}": shard
            for shard in shards
            for host, port in [shard.address]
        }
        gateway = STTSVGateway(
            [s.address for s in shards], replication=2
        )
        gateway.start()
        try:
            with ServiceClient(*gateway.address) as client:
                info = client.register_symk("lr", base, q=2)
                for index, (weight, vector) in enumerate(stream):
                    assert client.update("lr", weight, vector) == index + 1
                y_before = client.apply(
                    "lr", x, mode="plan", min_epoch=len(stream)
                )
                by_name[info["shard"]].stop()
                y_after = client.apply(
                    "lr", x, mode="plan", min_epoch=len(stream)
                )
            oracle = _rebuild(base, stream).ttsv(x)
            assert np.array_equal(y_before, oracle)
            assert np.array_equal(y_after, oracle)
        finally:
            gateway.stop()
            for shard in shards:
                shard.stop()

    def test_sigkill_failover_replays_update_log_in_epoch_order(self):
        """The acceptance chaos case, on real subprocess shards: 8
        streamed updates, SIGKILL the primary, read through failover,
        restart the shard (forcing a registration + update-log replay
        onto it), and require every read bitwise equal to the rebuilt
        oracle at epoch 8."""
        base = random_symk(24, 3, seed=14)
        rng = np.random.default_rng(15)
        stream = [
            (float(rng.standard_normal()), rng.standard_normal(24))
            for _ in range(8)
        ]
        x = rng.standard_normal(24)
        oracle = _rebuild(base, stream).ttsv(x)
        with LocalFleet(shards=2) as fleet:
            host, port = fleet.gateway.address
            with ServiceClient(host, port) as client:
                info = client.register_symk("lr", base, q=2)
                for weight, vector in stream:
                    client.update("lr", weight, vector)
                assert client.last_update_epoch == 8
                y_live = client.apply(
                    "lr", x, mode="plan", min_epoch=8
                )
                assert np.array_equal(y_live, oracle)

                primary_index = fleet.ports.index(
                    int(info["shard"].rsplit(":", 1)[1])
                )
                fleet.kill_shard(primary_index)  # SIGKILL
                y_failover = client.apply(
                    "lr", x, mode="plan", min_epoch=8
                )
                assert np.array_equal(y_failover, oracle)

                # Respawn the dead shard: rejoining hands the tensor
                # back to it, and the gateway must rebuild it by
                # replaying REGISTER + the 8 updates in epoch order.
                fleet.restart_shard(primary_index)
                y_rebuilt = client.apply(
                    "lr", x, mode="plan", min_epoch=8
                )
                assert np.array_equal(y_rebuilt, oracle)
                events = client.stats()["gateway"]["events"]
                assert events["replayed_updates"] >= 8
