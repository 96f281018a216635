"""Fusing scheduler unit tests: packing, structural validation, the
verification fast path, prebuilt plans reused across executions, and
the deprecation shim.

The contract under test (DESIGN.md §11): fusion is an execution detail
of the *physical* layer — packed buffers unpack to bitwise-identical
member payloads, the algorithmic ledger is priced from the unfused
schedule, and every failure mode (bad magic, wrong member table, wrong
length) degrades to individual unfused redelivery, never to a wrong
answer.
"""

import importlib

import numpy as np
import pytest

from repro.core.parallel_sttsv import CommBackend, ParallelSTTSV
from repro.errors import MachineError
from repro.machine.collectives import execute_round, execute_rounds_fused
from repro.machine.machine import Machine
from repro.machine.recovery import RecoveryPolicy
from repro.machine.transport import (
    FaultInjectingTransport,
    FaultPolicy,
    SimulatedTransport,
    Transfer,
)
from repro.machine.transport.fusion import (
    _MAGIC_BYTES,
    _MEMBER_HEADER_WORDS,
    _PREAMBLE_WORDS,
    MAGIC,
    FusionPlan,
    fusible_payload,
)
from repro.tensor.dense import random_symmetric


def _payload(seed, words=5):
    return np.random.default_rng(seed).normal(size=words)


class TestFusionPlan:
    def test_roundtrip_bitwise_identical(self):
        transfers = [
            Transfer(0, 2, _payload(0, 4)),
            Transfer(1, 2, _payload(1, 7)),
            Transfer(3, 2, _payload(2, 1)),
            Transfer(0, 1, _payload(3, 6)),
        ]
        plan = FusionPlan(transfers)
        assert plan.fusible
        physical = plan.pack()
        payloads, failed = plan.unpack([t.payload for t in physical])
        assert failed == []
        for original, unpacked in zip(transfers, payloads):
            assert np.array_equal(
                original.payload.view(np.uint64), unpacked.view(np.uint64)
            )

    def test_groups_by_destination(self):
        transfers = [
            Transfer(0, 2, _payload(0)),
            Transfer(1, 2, _payload(1)),
            Transfer(2, 0, _payload(2)),
            Transfer(1, 0, _payload(3)),
            Transfer(0, 1, _payload(4)),
        ]
        plan = FusionPlan(transfers)
        stats = plan.stats()
        assert stats.messages_logical == 5
        # Three active destinations {2, 0, 1} -> three physical buffers.
        assert stats.messages_fused == 3
        assert stats.messages_fused < stats.messages_logical
        assert len(plan.pack()) == 3

    def test_stats_header_accounting(self):
        transfers = [
            Transfer(0, 2, _payload(0, 4)),
            Transfer(1, 2, _payload(1, 7)),
        ]
        stats = FusionPlan(transfers).stats()
        assert stats.words_logical == 11
        # One group of two members: preamble + 2 member headers.
        assert (
            stats.header_words == _PREAMBLE_WORDS + 2 * _MEMBER_HEADER_WORDS
        )
        assert stats.words_fused == stats.words_logical + stats.header_words

    def test_magic_word_is_stable(self):
        buf = np.array([MAGIC])
        assert buf[:1].tobytes() == _MAGIC_BYTES

    def test_non_1d_payload_not_fusible(self):
        plan = FusionPlan([Transfer(0, 1, np.ones((2, 2)))])
        assert not plan.fusible
        assert plan.groups == []

    def test_non_float64_payload_not_fusible(self):
        assert not fusible_payload(np.ones(3, dtype=np.float32))
        assert not fusible_payload([1.0, 2.0])
        assert fusible_payload(np.ones(3))

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda buf: buf.fill(0.0),  # dropped (zeroed) -> magic fails
            lambda buf: buf.__setitem__(1, buf[1] + 1),  # member count
            lambda buf: buf.__setitem__(2, buf[2] + 1),  # member source
            lambda buf: buf.__setitem__(3, buf[3] + 1),  # member words
        ],
    )
    def test_structural_validation_fails_group(self, mutate):
        transfers = [
            Transfer(0, 2, _payload(0, 4)),
            Transfer(1, 2, _payload(1, 7)),
            Transfer(0, 1, _payload(2, 3)),
        ]
        plan = FusionPlan(transfers)
        physical = plan.pack()
        mutate(physical[0].payload)
        payloads, failed = plan.unpack([t.payload for t in physical])
        # Both members of the dest-2 group fail; the dest-1 group is fine.
        assert failed == [0, 1]
        assert payloads[0] is None and payloads[1] is None
        assert np.array_equal(payloads[2], transfers[2].payload)

    def test_wrong_length_fails_group(self):
        transfers = [Transfer(0, 2, _payload(0, 4))]
        plan = FusionPlan(transfers)
        buf = plan.pack()[0].payload
        doubled = np.concatenate([buf, buf])  # duplicated delivery
        payloads, failed = plan.unpack([doubled])
        assert failed == [0]
        assert payloads == [None]


class TestVerificationRequired:
    def test_default_policy_requires_verification(self):
        machine = Machine(4)
        assert machine.verification_required

    def test_disabled_policy_clean_transport_skips(self):
        machine = Machine(4, recovery=RecoveryPolicy(enabled=False))
        assert not machine.verification_required

    def test_fault_layer_forces_verification(self):
        transport = FaultInjectingTransport(
            SimulatedTransport(4), FaultPolicy(drop=0.5, seed=0)
        )
        machine = Machine(
            4, transport=transport, recovery=RecoveryPolicy(enabled=False)
        )
        assert machine.verification_required

    def test_disabled_fault_policy_does_not_force(self):
        transport = FaultInjectingTransport(
            SimulatedTransport(4), FaultPolicy(seed=0)
        )
        machine = Machine(
            4, transport=transport, recovery=RecoveryPolicy(enabled=False)
        )
        assert not machine.verification_required

    def test_faulted_run_still_verifies_with_fast_path_policy(self):
        """Regression for the checksum fast path: disabling recovery's
        verification must NOT let a faulty transport slip through —
        the fault layer in the stack forces checksums back on."""
        transport = FaultInjectingTransport(
            SimulatedTransport(4), FaultPolicy(corrupt=0.5, seed=2)
        )
        machine = Machine(
            4, transport=transport, recovery=RecoveryPolicy(enabled=False)
        )
        payloads = [_payload(i, 16) for i in range(3)]
        transfers = [
            Transfer(0, 1, payloads[0]),
            Transfer(1, 2, payloads[1]),
            Transfer(2, 3, payloads[2]),
        ]
        for _ in range(20):
            delivered = execute_round(machine, "r", "test", transfers)
            for sent, got in zip(payloads, delivered):
                assert np.array_equal(
                    sent.view(np.uint64), got.view(np.uint64)
                )
        # Corruption at 50% over 20 rounds is certain to have fired.
        assert machine.ledger.retry_rounds > 0

    def test_fatal_when_verification_disabled_budget_zero_faulty(self):
        """max_retries=0 + fault layer: verification still runs, and
        the first detected fault is fatal (not silently returned)."""
        transport = FaultInjectingTransport(
            SimulatedTransport(4), FaultPolicy(corrupt=1.0, seed=3)
        )
        machine = Machine(
            4,
            transport=transport,
            recovery=RecoveryPolicy(max_retries=0, enabled=False),
        )
        with pytest.raises(MachineError, match="integrity verification"):
            execute_round(
                machine, "r", "test", [Transfer(0, 1, _payload(0, 16))]
            )


class TestExecuteRoundsFused:
    def _machine(self, **kwargs):
        return Machine(6, **kwargs)

    def _rounds(self):
        return [
            (
                "t:round0",
                [Transfer(0, 1, _payload(0)), Transfer(2, 3, _payload(1))],
            ),
            (
                "t:round1",
                [Transfer(2, 1, _payload(2)), Transfer(0, 3, _payload(3))],
            ),
        ]

    def test_fused_messages_strictly_lower(self):
        machine = self._machine()
        rounds = self._rounds()
        delivered = execute_rounds_fused(machine, rounds, "t")
        summary = machine.ledger.fusion_summary()
        # Four logical transfers to two destinations -> two buffers.
        assert summary["messages_logical"] == 4
        assert summary["messages_fused"] == 2
        assert summary["fused_rounds"] == 1
        assert summary["logical_rounds_fused"] == 2
        # Per-round deliveries bitwise match the schedule payloads.
        for (_, transfers), got in zip(rounds, delivered):
            for sent, arr in zip(transfers, got):
                assert np.array_equal(
                    sent.payload.view(np.uint64), arr.view(np.uint64)
                )

    def test_algorithmic_ledger_identical_to_unfused(self):
        fused, unfused = self._machine(), self._machine(fusion=False)
        execute_rounds_fused(fused, self._rounds(), "t")
        execute_rounds_fused(unfused, self._rounds(), "t")
        for ledger in (fused.ledger, unfused.ledger):
            assert [r.label for r in ledger.rounds] == [
                "t:round0",
                "t:round1",
            ]
        assert fused.ledger.words_sent == unfused.ledger.words_sent
        assert fused.ledger.messages_sent == unfused.ledger.messages_sent
        assert unfused.ledger.fused_rounds == 0

    def test_non_fusible_batch_falls_back(self):
        machine = self._machine()
        rounds = [("t:round0", [Transfer(0, 1, np.ones((2, 2)))])]
        delivered = execute_rounds_fused(machine, rounds, "t")
        assert np.array_equal(delivered[0][0], np.ones((2, 2)))
        assert machine.ledger.fused_rounds == 0
        assert machine.ledger.round_count() == 1

    def test_faulty_fused_batch_recovers_bitwise(self):
        transport = FaultInjectingTransport(
            SimulatedTransport(6), FaultPolicy(drop=0.4, corrupt=0.2, seed=9)
        )
        machine = Machine(6, transport=transport)
        rounds = self._rounds()
        for _ in range(10):
            delivered = execute_rounds_fused(machine, rounds, "t")
            for (_, transfers), got in zip(rounds, delivered):
                for sent, arr in zip(transfers, got):
                    assert np.array_equal(
                        sent.payload.view(np.uint64), arr.view(np.uint64)
                    )
        assert machine.ledger.retry_rounds > 0
        # Retries never leak into the algorithmic counters.
        assert machine.ledger.round_count() == 20

    def test_prebuilt_plan_carries_restaged_payloads(self):
        """A reused plan packs the payload arrays' current contents, and
        its replayed pricing equals pricing a one-shot plan."""
        rounds = self._rounds()
        plan = FusionPlan([t for _, transfers in rounds for t in transfers])
        reused, one_shot = self._machine(), self._machine()
        for seed in range(3):
            for index, (_, transfers) in enumerate(rounds):
                for slot, transfer in enumerate(transfers):
                    transfer.payload[:] = _payload(10 * seed + 2 * index + slot)
            delivered = execute_rounds_fused(reused, rounds, "t", plan=plan)
            execute_rounds_fused(one_shot, rounds, "t")
            for (_, transfers), got in zip(rounds, delivered):
                for sent, arr in zip(transfers, got):
                    assert np.array_equal(
                        sent.payload.view(np.uint64), arr.view(np.uint64)
                    )
        assert len(plan.priced) == 1
        for field in ("words_sent", "messages_sent", "messages_received"):
            assert getattr(reused.ledger, field) == getattr(one_shot.ledger, field)
        assert [(r.label, r.fused) for r in reused.ledger.rounds] == [
            (r.label, r.fused) for r in one_shot.ledger.rounds
        ]
        assert reused.ledger.fusion_summary() == one_shot.ledger.fusion_summary()

    def test_another_cost_model_reprices(self):
        from dataclasses import dataclass

        from repro.machine.cost import CostModel

        @dataclass(frozen=True)
        class MarkedCost(CostModel):
            def price_round(self, ledger, label, transfers, tag, record_empty=False):
                super().price_round(ledger, f"{label}!", transfers, tag, record_empty)

        rounds = self._rounds()
        plan = FusionPlan([t for _, transfers in rounds for t in transfers])
        machine = self._machine()
        execute_rounds_fused(machine, rounds, "t", plan=plan)
        machine.cost = MarkedCost()
        execute_rounds_fused(machine, rounds, "t", plan=plan)
        assert [r.label for r in machine.ledger.rounds] == [
            "t:round0", "t:round1", "t:round0!", "t:round1!",
        ]
        assert len(plan.priced) == 2

    def test_plan_for_another_batch_is_rejected(self):
        rounds = self._rounds()
        plan = FusionPlan(rounds[0][1])
        with pytest.raises(MachineError, match="prebuilt fusion plan"):
            execute_rounds_fused(self._machine(), rounds, "t", plan=plan)


class TestMachineFusionToggle:
    def test_fusion_off_leaves_side_channel_empty(self, partition_q2):
        n = 30
        tensor = random_symmetric(n, seed=0)
        x = np.random.default_rng(1).normal(size=n)
        machine = Machine(partition_q2.P, fusion=False)
        algo = ParallelSTTSV(partition_q2, n, CommBackend.POINT_TO_POINT)
        algo.load(machine, tensor, x)
        algo.run(machine)
        summary = machine.ledger.fusion_summary()
        assert summary["fused_rounds"] == 0
        assert summary["messages_fused"] == 0

    def test_fusion_on_records_savings(self, partition_q2):
        n = 30
        tensor = random_symmetric(n, seed=0)
        x = np.random.default_rng(1).normal(size=n)
        machine = Machine(partition_q2.P)
        algo = ParallelSTTSV(partition_q2, n, CommBackend.POINT_TO_POINT)
        algo.load(machine, tensor, x)
        algo.run(machine)
        summary = machine.ledger.fusion_summary()
        assert summary["messages_fused"] < summary["messages_logical"]
        assert summary["words_fused"] > summary["words_logical"]


class TestInstrumentShimRemoved:
    def test_shim_module_is_gone(self):
        # The PR-6 deprecation window is over: the old path no longer
        # imports, and the canonical home serves the names.
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.machine.instrument")

    def test_canonical_import_path(self):
        from repro.obs.instrument import Instrumentation

        assert Instrumentation is not None
