"""The representation registry: CLI selection, defaults, engines,
exact ledgers and the REGISTER encoding, for every representation."""

import numpy as np
import pytest

from repro.core.parallel_sttsv import CommBackend
from repro.core.representations import (
    REPRESENTATIONS,
    BCSS4,
    Dense3,
    SymK,
    priced_representations,
    representation_of,
    select,
)
from repro.errors import ConfigurationError
from repro.machine.machine import Machine
from repro.service.client import ServiceClient
from repro.service.protocol import MessageType
from repro.service.representations import parse_registration

#: (representation, q, order, rank) — one small case each.
_CASES = [(Dense3, 2, 3, None), (BCSS4, 3, 4, None), (SymK, 2, 3, 4)]


def _ledger_fields(ledger):
    return (
        list(ledger.words_sent),
        [(r.label, r.fused, r.max_words()) for r in ledger.rounds],
        ledger.fusion_summary(),
    )


class TestSelection:
    def test_order_and_rank_pick_one_representation(self):
        assert isinstance(select(3), Dense3)
        assert isinstance(select(4), BCSS4)
        assert isinstance(select(3, rank=4), SymK)
        assert isinstance(select(4, rank=4), SymK)

    def test_sqs_family(self):
        on_sqs = select(3, sqs=True)
        assert isinstance(on_sqs, Dense3) and on_sqs.processor_count(3) == 14
        assert isinstance(select(4, sqs=True), BCSS4)
        with pytest.raises(ConfigurationError, match="--sqs"):
            select(4, sqs=False)
        with pytest.raises(ConfigurationError, match="--sqs"):
            select(3, rank=4, sqs=True)

    def test_unknown_order(self):
        with pytest.raises(ConfigurationError):
            select(5)

    def test_priced_representations(self):
        assert [r.name for r in priced_representations(3)] == ["dense-3"]
        assert [r.name for r in priced_representations(3, 4)] == [
            "dense-3", "symk",
        ]


class TestDefaults:
    def test_default_n(self):
        assert Dense3().default_n(2) == 30
        assert BCSS4().default_n(3) == 56
        assert SymK().default_n(2) == 40

    def test_variants(self):
        assert BCSS4.variants == (CommBackend.POINT_TO_POINT,)
        assert Dense3.variants == SymK.variants == tuple(CommBackend)


@pytest.mark.parametrize(
    "representation, q, order, rank", _CASES, ids=["dense3", "bcss4", "symk"]
)
class TestEveryRepresentation:
    def test_engine_runs_exact(self, representation, q, order, rank):
        rep = representation()
        P = rep.processor_count(q)
        n = rep.default_n(q)
        tensor = rep.random_tensor(n, order, rank, seed=1)
        x = np.random.default_rng(2).normal(size=n)
        for variant in rep.variants:
            engine = rep.engine(q, P, n, order, variant)
            with Machine(P) as machine:
                engine.load(machine, tensor, x)
                engine.run(machine)
                y = engine.gather_result(machine)
            assert np.allclose(y, rep.oracle(tensor, x), rtol=1e-9, atol=1e-9)
            assert machine.ledger.words_sent == rep.expected_words(engine, rank)
            assert _ledger_fields(
                rep.ledger(engine, rank)
            ) == _ledger_fields(machine.ledger)

    def test_encode_decode_round_trip(self, representation, q, order, rank):
        rep = representation()
        n = 8
        tensor = rep.random_tensor(n, order, rank, seed=3)
        payload, fields = representation_of(tensor).encode(tensor, order)
        assert fields == ({} if rank is None else {"kind": "symk", "rank": rank})
        registration = parse_registration(
            {"tensor_id": "t", "n": n, "q": q, "order": order, **fields}
        )
        assert type(registration.representation) is representation
        decoded = rep.decode(registration, payload)
        x = np.random.default_rng(4).normal(size=n)
        assert np.array_equal(rep.oracle(decoded, x), rep.oracle(tensor, x))


class TestAutoResolution:
    """Auto-mode registration resolves dense-3 and symk headers to the
    fields the α-β model prices best. Dense-3 resolves to
    point-to-point: both variants run each phase as one fused exchange,
    so their α terms tie and point-to-point sends fewer words. (It
    resolved to All-to-All while point-to-point split each phase into
    4 fused batches.) The symk engine has one variant."""

    @pytest.mark.parametrize(
        "header,expected",
        [
            ({"n": 30}, ("shm", "point-to-point", "gemm")),
            ({"n": 120}, ("shm", "point-to-point", "gemm")),
            ({"n": 60, "kind": "symk", "rank": 4}, ("shm", "all-to-all", "symk")),
            ({"n": 200, "kind": "symk", "rank": 8}, ("shm", "all-to-all", "symk")),
        ],
        ids=["dense3-n30", "dense3-n120", "symk-r4", "symk-r8"],
    )
    def test_resolved_fields(self, header, expected, tmp_path):
        registration = parse_registration(
            {"tensor_id": "t", "q": 2, "backend": "auto", "variant": "auto",
             **header}
        ).resolved(str(tmp_path / "absent.json"))
        assert (
            registration.backend, registration.variant, registration.strategy
        ) == expected
        assert registration.P == 10


class TestRegisterFrames:
    def _header(self, monkeypatch, register):
        sent = {}

        def roundtrip(self, msg_type, header, body=b""):
            sent.update(type=msg_type, header=header)
            return MessageType.OK, {}, b""

        monkeypatch.setattr(ServiceClient, "_roundtrip", roundtrip)
        register(ServiceClient("127.0.0.1", 1))
        assert sent["type"] == MessageType.REGISTER
        return sent["header"]

    def test_order3_header_fields_keep_their_order(self, monkeypatch):
        tensor = Dense3().random_tensor(6, 3, None, seed=0)
        header = self._header(
            monkeypatch, lambda c: c.register("t", tensor, q=2)
        )
        assert list(header) == [
            "shape", "dtype", "tensor_id", "n", "q", "backend", "strategy",
            "variant", "order",
        ]

    def test_symk_register_carries_kind_rank_and_order(self, monkeypatch):
        tensor = SymK().random_tensor(6, 4, 2, seed=0)
        header = self._header(
            monkeypatch, lambda c: c.register_symk("t", tensor, P=3)
        )
        assert (header["kind"], header["rank"], header["order"]) == (
            "symk", 2, 4,
        )
        assert header["P"] == 3

    def test_symk_order_is_checked_against_the_tensor(self):
        tensor = SymK().random_tensor(6, 4, 2, seed=0)
        with pytest.raises(ConfigurationError, match="order"):
            ServiceClient("127.0.0.1", 1).register("t", tensor, q=2, order=3)


def test_registry_names_are_unique():
    names = [rep.name for rep in REPRESENTATIONS]
    assert len(set(names)) == len(names) == 3
