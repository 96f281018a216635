"""Serving-layer planner integration: auto mode, calibration files,
session variants, and the lazy-dial client."""

import socket

import numpy as np
import pytest

from repro.core.sttsv_sequential import sttsv_packed
from repro.planner import Calibration, TransportConstants, plan_sttsv
from repro.service.client import ServiceClient
from repro.service.protocol import ErrorCode, ServiceError
from repro.service.server import STTSVServer
from repro.tensor.dense import random_symmetric


def _write_calibration(tmp_path, alpha, beta):
    calibration = Calibration(
        backends={
            "simulated": TransportConstants(alpha=alpha, beta=beta),
            "shm": TransportConstants(alpha=alpha, beta=beta),
        },
        measured=True,
    )
    path = tmp_path / "cal.json"
    calibration.save(str(path))
    return str(path)


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestAutoMode:
    def test_auto_serves_bitwise_identical_to_explicit(self):
        """The acceptance property: a planner-resolved session's served
        results are bitwise identical to an explicitly configured
        session with the same resolved fields."""
        n = 30
        tensor = random_symmetric(n, seed=3)
        rng = np.random.default_rng(4)
        with STTSVServer() as server:
            host, port = server.address
            with ServiceClient(host, port) as client:
                auto = client.register(
                    "auto", tensor, q=2, backend="auto", variant="auto"
                )
                assert auto["planned"] is True
                assert auto["variant"] in ("point-to-point", "all-to-all")
                explicit = client.register(
                    "explicit",
                    tensor,
                    q=2,
                    backend=auto["backend"],
                    variant=auto["variant"],
                    strategy=auto["plan_strategy"],
                )
                assert explicit["planned"] is False
                assert explicit["variant"] == auto["variant"]
                for _ in range(3):
                    x = rng.standard_normal(n)
                    for mode in ("plan", "parallel"):
                        y_auto = client.apply("auto", x, mode=mode)
                        y_explicit = client.apply("explicit", x, mode=mode)
                        assert np.array_equal(y_auto, y_explicit)
                        assert np.allclose(
                            y_auto,
                            sttsv_packed(tensor, x),
                            rtol=1e-10,
                            atol=1e-10,
                        )

    def test_calibration_file_steers_variant(self, tmp_path):
        """The server's auto resolution prices the calibration file's
        constants, and under α-heavy and β-heavy constants alike the
        model picks point-to-point: each variant runs both phases as 2
        fused exchanges, so the α terms tie and point-to-point's fewer
        words decide. (α-heavy constants picked All-to-All only while
        point-to-point split each phase into 4 fused batches.)

        q=3 deliberately: that is where the paper's bandwidth
        asymmetry shows (at q=2 with small n, fusion headers dominate
        the tiny payloads and All-to-All moves fewer physical words)."""
        n = 30
        tensor = random_symmetric(n, seed=5)
        for alpha, beta, expected in (
            (1e-2, 1e-9, "point-to-point"),
            (1e-9, 1e-3, "point-to-point"),
        ):
            path = _write_calibration(tmp_path, alpha, beta)
            decision = plan_sttsv(n, qs=(3,), calibration=Calibration.load(path))
            priced = {
                c.candidate.variant: c
                for c in decision.candidates
                if c.candidate.mode == "parallel"
            }
            p2p, a2a = priced["point-to-point"], priced["all-to-all"]
            assert p2p.physical_rounds == a2a.physical_rounds == 2
            assert p2p.words_per_processor < a2a.words_per_processor
            with STTSVServer(calibration_path=path) as server:
                host, port = server.address
                with ServiceClient(host, port) as client:
                    reply = client.register(
                        "steered", tensor, q=3, variant="auto"
                    )
                    assert reply["variant"] == expected
                    x = np.random.default_rng(6).normal(size=n)
                    y = client.apply("steered", x, mode="parallel")
                    assert np.allclose(
                        y, sttsv_packed(tensor, x), rtol=1e-10, atol=1e-10
                    )

    def test_explicit_variant_is_kept_and_reported(self):
        n = 20
        tensor = random_symmetric(n, seed=7)
        with STTSVServer() as server:
            host, port = server.address
            with ServiceClient(host, port) as client:
                reply = client.register(
                    "a2a", tensor, q=2, variant="all-to-all"
                )
                assert reply["variant"] == "all-to-all"
                assert reply["planned"] is False
                x = np.random.default_rng(8).normal(size=n)
                y = client.apply("a2a", x, mode="parallel")
                assert np.allclose(
                    y, sttsv_packed(tensor, x), rtol=1e-10, atol=1e-10
                )
                stats = client.stats()
        snapshot = stats["sessions"]["a2a@q=2,P=10,simulated"]
        assert snapshot["variant"] == "all-to-all"

    def test_unknown_variant_is_bad_request(self):
        tensor = random_symmetric(20, seed=9)
        with STTSVServer() as server:
            host, port = server.address
            with ServiceClient(host, port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.register(
                        "bad", tensor, q=2, variant="carrier-pigeon"
                    )
                assert excinfo.value.code == ErrorCode.BAD_REQUEST


class TestLazyClient:
    def test_construction_never_dials(self):
        # No server is listening: constructing must not raise — the
        # first roundtrip dials inside the bounded retry loop.
        client = ServiceClient(
            "127.0.0.1", _free_port(), retries=1, retry_backoff_s=0.01
        )
        client.close()

    def test_failed_dial_counts_retries_then_raises(self):
        client = ServiceClient(
            "127.0.0.1", _free_port(), retries=2, retry_backoff_s=0.01
        )
        with pytest.raises(OSError):
            client.stats()
        # Both extra attempts redialed and were counted.
        assert client.reconnects == 2

    def test_client_built_before_server_starts_works(self):
        # The lazy dial means construction order no longer matters:
        # build the client first, start the server, then talk.
        port = _free_port()
        client = ServiceClient("127.0.0.1", port)
        server = STTSVServer(port=port)
        try:
            server.start()
            assert client.stats()["server"]["bad_requests"] >= 0
            assert client.reconnects == 0
        finally:
            client.close()
            server.stop()
