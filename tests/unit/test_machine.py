"""Simulated machine: messages, ledger, processors, cost model."""

import numpy as np
import pytest

from repro.errors import MachineError
from repro.machine.ledger import CommunicationLedger, RoundRecord
from repro.machine.machine import Machine
from repro.machine.message import Message, word_count
from repro.machine.processor import Processor
from repro.machine.cost import CostModel


class TestMessage:
    def test_word_count(self):
        assert word_count(np.zeros(7)) == 7
        assert word_count(np.zeros((2, 3))) == 6
        assert word_count(3.14) == 1
        assert word_count(None) == 0

    def test_word_count_rejects_unknown(self):
        with pytest.raises(TypeError):
            word_count([1, 2, 3])

    def test_self_message_rejected(self):
        with pytest.raises(ValueError):
            Message(1, 1, 10)

    def test_negative_words_rejected(self):
        with pytest.raises(ValueError):
            Message(0, 1, -1)


class TestLedger:
    def test_counters(self):
        ledger = CommunicationLedger(3)
        ledger.begin_round("r0")
        ledger.record(Message(0, 1, 5))
        ledger.record(Message(2, 0, 3))
        ledger.end_round()
        assert ledger.words_sent == [5, 0, 3]
        assert ledger.words_received == [3, 5, 0]
        assert ledger.messages_sent == [1, 0, 1]
        assert ledger.total_words() == 8
        assert ledger.max_words_sent() == 5
        assert ledger.max_words_received() == 5
        assert ledger.max_words_moved() == 8
        assert ledger.round_count() == 1

    def test_record_outside_round_rejected(self):
        ledger = CommunicationLedger(2)
        with pytest.raises(MachineError):
            ledger.record(Message(0, 1, 1))

    def test_nested_rounds_rejected(self):
        ledger = CommunicationLedger(2)
        ledger.begin_round()
        with pytest.raises(MachineError):
            ledger.begin_round()

    def test_end_without_begin_rejected(self):
        with pytest.raises(MachineError):
            CommunicationLedger(2).end_round()

    def test_unknown_processor_rejected(self):
        ledger = CommunicationLedger(2)
        ledger.begin_round()
        with pytest.raises(MachineError):
            ledger.record(Message(0, 5, 1))

    def test_permutation_round_detection(self):
        record = RoundRecord("r")
        record.messages = [Message(0, 1, 2), Message(1, 0, 2)]
        assert record.is_permutation_round()
        record.messages.append(Message(0, 2, 1))  # 0 sends twice
        assert not record.is_permutation_round()

    def test_round_max_words(self):
        record = RoundRecord("r")
        record.messages = [Message(0, 1, 2), Message(0, 2, 3), Message(1, 0, 4)]
        assert record.max_words() == 5  # processor 0 sends 2 + 3

    def test_merge(self):
        a = CommunicationLedger(2)
        a.begin_round()
        a.record(Message(0, 1, 5))
        a.end_round()
        b = CommunicationLedger(2)
        b.begin_round()
        b.record(Message(1, 0, 2))
        b.end_round()
        a.merge(b)
        assert a.words_sent == [5, 2]
        assert a.round_count() == 2

    def test_merge_size_mismatch(self):
        with pytest.raises(MachineError):
            CommunicationLedger(2).merge(CommunicationLedger(3))

    def test_per_processor_summary(self):
        ledger = CommunicationLedger(2)
        ledger.begin_round()
        ledger.record(Message(0, 1, 5))
        ledger.end_round()
        summary = ledger.per_processor_summary()
        assert summary[0]["words_sent"] == 5
        assert summary[1]["words_received"] == 5


class TestProcessor:
    def test_store_load(self):
        proc = Processor(0)
        proc.store("x", np.ones(4))
        assert np.array_equal(proc.load("x"), np.ones(4))

    def test_missing_key(self):
        with pytest.raises(MachineError):
            Processor(0).load("nope")

    def test_resident_and_peak_words(self):
        proc = Processor(1)
        proc.store("a", np.zeros(10))
        proc.store("b", {"x": np.zeros(5)})
        assert proc.resident_words() == 15
        proc.discard("a")
        assert proc.resident_words() == 5
        assert proc.peak_words() == 15

    def test_negative_rank_rejected(self):
        with pytest.raises(MachineError):
            Processor(-1)

    def test_replacing_a_value_updates_resident_words(self):
        proc = Processor(0)
        proc.store("a", np.zeros(10))
        proc.store("a", np.zeros(4))
        proc.store("b", (np.zeros(3), np.zeros(3)))  # not an array: 0 words
        proc.store("c", np.zeros(5))
        assert proc.peak_words() == 10
        proc.discard("c")
        proc.discard("missing")
        proc.store("d", {"x": np.zeros(7), "y": "label"})
        assert proc.resident_words() == 11
        assert proc.peak_words() == 11

    @pytest.mark.parametrize("q,n", [(2, 30), (3, 60)])
    def test_peak_equals_full_walk_after_every_store(self, q, n, monkeypatch):
        """The incremental peak is the high-water mark of a full walk of
        memory taken after each store, through load, run and gather."""
        from repro.core.parallel_sttsv import ParallelSTTSV
        from repro.core.partition import TetrahedralPartition
        from repro.steiner import spherical_steiner_system
        from repro.tensor.dense import random_symmetric

        walked = {}
        store = Processor.store

        def checked_store(self, key, value):
            store(self, key, value)
            walked[self.rank] = max(walked.get(self.rank, 0), self.resident_words())
            assert self.peak_words() == walked[self.rank]

        monkeypatch.setattr(Processor, "store", checked_store)
        partition = TetrahedralPartition(spherical_steiner_system(q))
        machine = Machine(partition.P)
        algo = ParallelSTTSV(partition, n)
        algo.load(machine, random_symmetric(n, seed=q), np.ones(n))
        for _ in range(2):
            algo.run(machine)
            algo.gather_result(machine)
            algo.load_vector(machine, np.arange(n, dtype=float))
        assert sorted(walked) == list(range(partition.P))


class TestMachine:
    def test_iteration_and_indexing(self):
        machine = Machine(4)
        assert len(machine) == 4
        assert [p.rank for p in machine] == [0, 1, 2, 3]
        assert machine[2].rank == 2

    def test_bad_rank(self):
        with pytest.raises(MachineError):
            Machine(2)[5]

    def test_reset_ledger(self):
        machine = Machine(2)
        machine.ledger.begin_round()
        machine.ledger.record(Message(0, 1, 7))
        machine.ledger.end_round()
        old = machine.reset_ledger()
        assert old.total_words() == 7
        assert machine.ledger.total_words() == 0


class TestCostModel:
    def test_times(self):
        ledger = CommunicationLedger(2)
        ledger.begin_round()
        ledger.record(Message(0, 1, 1000))
        ledger.end_round()
        model = CostModel(alpha=1e-6, beta=1e-9, gamma=1e-10)
        assert model.latency_time(ledger) == pytest.approx(1e-6)
        assert model.bandwidth_time(ledger) == pytest.approx(1e-6)
        assert model.communication_time(ledger) == pytest.approx(2e-6)
        assert model.computation_time(10**6) == pytest.approx(1e-4)
        assert model.total_time(ledger, 10**6) == pytest.approx(1e-4 + 2e-6)

    def test_fused_time_mixed_ledger_is_exact(self):
        # Two unfused rounds, then a fused batch covering two more:
        # the unfused remainder must be priced at its own per-round
        # critical path, not spread at a mean bandwidth.
        ledger = CommunicationLedger(4)
        for words in (100, 300):  # unfused rounds
            ledger.begin_round()
            ledger.record(Message(0, 1, words))
            ledger.end_round()
        for words in (50, 70):  # rounds covered by one fused exchange
            ledger.begin_round()
            ledger.record(Message(2, 3, words))
            ledger.end_round()
        ledger.record_fusion(
            physical_messages=1,
            physical_words=128,  # 120 payload + headers
            logical_rounds=2,
            logical_messages=2,
            logical_words=120,
        )
        assert [r.fused for r in ledger.rounds] == [
            False, False, True, True,
        ]
        model = CostModel(alpha=1e-6, beta=1e-9)
        # α: 1 fused exchange + 2 unfused rounds = 3 latencies.
        # β: fused words spread over P (128/4) + exact unfused
        #    per-round maxima (100 + 300).
        expected = 1e-6 * 3 + 1e-9 * (128 / 4) + 1e-9 * (100 + 300)
        assert model.fused_communication_time(ledger) == pytest.approx(
            expected, rel=1e-12
        )

    def test_fused_time_empty_ledger_is_zero(self):
        model = CostModel()
        assert model.fused_communication_time(CommunicationLedger(3)) == 0.0
        # Zero-P ledgers cannot exist — the degenerate case is caught
        # at construction, before any pricing path can divide by P.
        with pytest.raises(MachineError):
            CommunicationLedger(0)

    def test_record_fusion_rejects_overclaimed_rounds(self):
        ledger = CommunicationLedger(2)
        ledger.begin_round()
        ledger.record(Message(0, 1, 10))
        ledger.end_round()
        with pytest.raises(MachineError):
            ledger.record_fusion(
                physical_messages=1,
                physical_words=12,
                logical_rounds=2,  # only 1 round priced so far
                logical_messages=1,
                logical_words=10,
            )

    def test_merge_carries_fused_tags(self):
        first = CommunicationLedger(2)
        first.begin_round()
        first.record(Message(0, 1, 5))
        first.end_round()
        first.record_fusion(
            physical_messages=1,
            physical_words=9,
            logical_rounds=1,
            logical_messages=1,
            logical_words=5,
        )
        second = CommunicationLedger(2)
        second.begin_round()
        second.record(Message(1, 0, 6))
        second.end_round()
        first.merge(second)
        assert [r.fused for r in first.rounds] == [True, False]
