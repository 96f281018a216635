"""Order-4 tensors through the full serving stack: registration,
both execution modes, typed rejections, and CLI gates."""

import re

import numpy as np
import pytest

from repro.cli import main
from repro.core.sttsv_ndim import sttsv_ndim_dense_reference
from repro.service.client import ServiceClient
from repro.service.protocol import ErrorCode, ServiceError
from repro.service.ring import ring_key
from repro.service.server import STTSVServer
from repro.service.sessions import SessionKey
from repro.tensor.ndpacked import NdPackedSymmetricTensor, nd_packed_size


def _integer_tensor(n, seed=0):
    """Small-integer-valued order-4 tensor: every float64 op in the
    engine is exact, so served results must match the dense oracle
    bitwise."""
    rng = np.random.default_rng(seed)
    data = rng.integers(-3, 4, size=nd_packed_size(n, 4)).astype(np.float64)
    return NdPackedSymmetricTensor(n, 4, data)


@pytest.fixture(scope="module")
def server():
    with STTSVServer(max_wait_ms=0.0) as srv:
        yield srv


@pytest.fixture(scope="module")
def client(server):
    host, port = server.address
    with ServiceClient(host, port) as cli:
        yield cli


class TestOrder4Serving:
    def test_register_echoes_order_and_sqs_processor_count(self, client):
        tensor = _integer_tensor(20)
        info = client.register("o4", tensor, q=3, order=4)
        assert info["order"] == 4
        assert info["P"] == 14  # SQS(8): 8·7·6/24
        assert info["plan_strategy"] == "gemm"

    def test_both_modes_bitwise_match_dense_oracle(self, client):
        tensor = _integer_tensor(20, seed=1)
        client.register("o4-exact", tensor, q=3, order=4)
        rng = np.random.default_rng(2)
        x = rng.integers(-2, 3, size=20).astype(np.float64)
        oracle = sttsv_ndim_dense_reference(tensor.to_dense(), x)
        for mode in ("plan", "parallel"):
            y = client.apply("o4-exact", x, mode=mode)
            assert y.tobytes() == oracle.tobytes(), mode

    @pytest.mark.parametrize("strategy", ["gemm", "bincount"])
    def test_plan_strategy_bitwise_matches_dense_oracle(
        self, client, strategy
    ):
        tensor = _integer_tensor(14, seed=6)
        tid = f"o4-{strategy}"
        info = client.register(tid, tensor, q=3, order=4, strategy=strategy)
        assert info["plan_strategy"] == strategy
        x = np.random.default_rng(7).integers(-2, 3, size=14).astype(float)
        oracle = sttsv_ndim_dense_reference(tensor.to_dense(), x)
        y = client.apply(tid, x, mode="plan")
        assert y.tobytes() == oracle.tobytes()

    def test_batched_applies_agree_with_single(self, client):
        tensor = _integer_tensor(16, seed=3)
        client.register("o4-batch", tensor, q=3, order=4)
        rng = np.random.default_rng(4)
        X = rng.standard_normal((16, 3))
        Y = client.apply_batch("o4-batch", X, mode="plan")
        for s in range(3):
            single = client.apply("o4-batch", X[:, s], mode="plan")
            assert np.allclose(Y[:, s], single)

    def test_stats_carry_order_labelled_session(self, client):
        tensor = _integer_tensor(12, seed=5)
        client.register("o4-stats", tensor, q=3, order=4)
        stats = client.stats()
        label = "o4-stats@q=3,P=14,simulated,order=4"
        assert label in stats["sessions"]
        assert stats["sessions"][label]["order"] == 4


class TestTypedRejections:
    def test_unsupported_order(self, client):
        tensor = _integer_tensor(8)
        with pytest.raises(ServiceError) as err:
            client.register("bad", tensor, q=3, order=5)
        assert err.value.code == ErrorCode.BAD_REQUEST

    def test_order4_rejects_auto_backend(self, client):
        tensor = _integer_tensor(8)
        with pytest.raises(ServiceError) as err:
            client.register("bad", tensor, q=3, order=4, backend="auto")
        assert err.value.code == ErrorCode.BAD_REQUEST

    def test_order4_rejects_auto_variant(self, client):
        tensor = _integer_tensor(8)
        with pytest.raises(ServiceError) as err:
            client.register("bad", tensor, q=3, order=4, variant="auto")
        assert err.value.code == ErrorCode.BAD_REQUEST

    def test_order4_rejects_all_to_all(self, client):
        tensor = _integer_tensor(8)
        with pytest.raises(ServiceError) as err:
            client.register(
                "bad", tensor, q=3, order=4, variant="all-to-all"
            )
        assert err.value.code == ErrorCode.BAD_REQUEST

    def test_order4_rejects_removed_blocked_gemm_strategy(self, client):
        tensor = _integer_tensor(8)
        with pytest.raises(ServiceError) as err:
            client.register(
                "bad", tensor, q=3, order=4, strategy="blocked-gemm"
            )
        assert err.value.code == ErrorCode.BAD_REQUEST
        for name in ("auto", "gemm", "bincount"):
            assert name in err.value.detail

    def test_order4_body_size_validated(self, client):
        wrong = NdPackedSymmetricTensor(9, 4, np.zeros(nd_packed_size(9, 4)))
        wrong = type("T", (), {"n": 8, "data": wrong.data})()
        with pytest.raises(ServiceError) as err:
            client.register("bad", wrong, q=3, order=4)
        assert err.value.code == ErrorCode.BAD_REQUEST

    def test_bad_q_is_named_in_the_error(self, client):
        from repro.tensor.dense import random_symmetric

        with pytest.raises(ServiceError) as err:
            client.register("bad", random_symmetric(4, seed=0), q=0)
        assert err.value.code == ErrorCode.BAD_REQUEST
        assert re.search(r"\bq\b", err.value.detail), err.value.detail

    def test_accepted_orders_gate(self):
        with STTSVServer(accepted_orders=(3,)) as srv:
            host, port = srv.address
            with ServiceClient(host, port) as cli:
                with pytest.raises(ServiceError) as err:
                    cli.register("bad", _integer_tensor(8), q=3, order=4)
                assert err.value.code == ErrorCode.BAD_REQUEST


class TestRoutingIdentity:
    def test_order3_keys_keep_historical_form(self):
        assert ring_key("t", 3, 30) == "t|q=3|P=30"
        assert ring_key("t", 3, 30, order=3) == "t|q=3|P=30"

    def test_order4_keys_are_distinct(self):
        assert ring_key("t", 3, 14, order=4) == "t|q=3|P=14|order=4"
        assert ring_key("t", 3, 14, order=4) != ring_key("t", 3, 14)

    def test_session_label_suffix(self):
        assert SessionKey("t", 3, 30, "simulated").label() == (
            "t@q=3,P=30,simulated"
        )
        assert SessionKey("t", 3, 14, "simulated", order=4).label() == (
            "t@q=3,P=14,simulated,order=4"
        )


class TestCLIGates:
    def test_plan_rejects_nondefault_order(self, capsys):
        assert main(["plan", "--order", "4"]) == 2
        assert "order" in capsys.readouterr().err

    def test_analyze_order4_runs_on_sqs(self, capsys):
        assert main(
            ["analyze", "--order", "4", "--sqs", "2", "--n", "6"]
        ) == 0
        out = capsys.readouterr().out
        assert "order-4 blocked STTSV" in out
        assert "lower bound" in out

    def test_analyze_order4_requires_sqs(self, capsys):
        assert main(["analyze", "--order", "4"]) == 2
        assert "--sqs" in capsys.readouterr().err

    def test_load_order4_drives_a_server(self, server, capsys):
        host, port = server.address
        rc = main(
            [
                "load", "--host", host, "--port", str(port),
                "--tensor-id", "cli-o4", "--order", "4", "--q", "3",
                "--n", "10", "--clients", "2", "--requests", "2",
                "--mode", "parallel",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "order=4" in out
