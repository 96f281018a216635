"""Algorithm 5 on the simulated machine: correctness + exact costs."""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import bounds
from repro.core.parallel_sttsv import CommBackend, ParallelSTTSV, pad_tensor
from repro.core.sttsv_sequential import sttsv_packed
from repro.errors import ConfigurationError, MachineError
from repro.machine.machine import Machine
from repro.tensor.dense import random_symmetric


class TestPadTensor:
    def test_identity(self):
        t = random_symmetric(5, seed=0)
        assert pad_tensor(t, 5) is t

    def test_padded_values(self):
        t = random_symmetric(3, seed=1)
        padded = pad_tensor(t, 5)
        assert padded.n == 5
        for i in range(3):
            for j in range(i + 1):
                for k in range(j + 1):
                    assert padded[i, j, k] == t[i, j, k]
        assert padded[4, 2, 1] == 0.0
        assert padded[4, 4, 4] == 0.0

    def test_padding_preserves_sttsv(self, rng):
        t = random_symmetric(7, seed=2)
        x = rng.normal(size=7)
        padded = pad_tensor(t, 11)
        x_padded = np.concatenate([x, np.zeros(4)])
        y_padded = sttsv_packed(padded, x_padded)
        assert np.allclose(y_padded[:7], sttsv_packed(t, x))
        assert np.allclose(y_padded[7:], 0.0)

    def test_shrink_rejected(self):
        with pytest.raises(ConfigurationError):
            pad_tensor(random_symmetric(5, seed=0), 4)


class TestSizing:
    def test_exact_fit(self, partition_q2):
        algo = ParallelSTTSV(partition_q2, n=30)
        assert algo.b == 6 and algo.n_padded == 30 and algo.shard == 1

    def test_padding_applied(self, partition_q2):
        algo = ParallelSTTSV(partition_q2, n=31)
        assert algo.n_padded == 60  # next multiple of m*replication = 5*6... b=12
        assert algo.b == 12

    def test_machine_size_mismatch(self, partition_q2):
        algo = ParallelSTTSV(partition_q2, n=30)
        with pytest.raises(MachineError):
            algo.load(Machine(5), random_symmetric(30, seed=0), np.ones(30))

    def test_tensor_dim_mismatch(self, partition_q2):
        algo = ParallelSTTSV(partition_q2, n=30)
        with pytest.raises(ConfigurationError):
            algo.load(Machine(10), random_symmetric(20, seed=0), np.ones(20))


class TestCorrectness:
    @pytest.mark.parametrize("backend", list(CommBackend))
    def test_matches_sequential_q2(self, partition_q2, backend, rng):
        n = 30
        tensor = random_symmetric(n, seed=4)
        x = rng.normal(size=n)
        machine = Machine(partition_q2.P)
        algo = ParallelSTTSV(partition_q2, n, backend)
        algo.load(machine, tensor, x)
        algo.run(machine)
        assert np.allclose(algo.gather_result(machine), sttsv_packed(tensor, x))

    @pytest.mark.parametrize("backend", list(CommBackend))
    def test_matches_sequential_with_padding(self, partition_q2, backend, rng):
        n = 41  # forces padding to 60
        tensor = random_symmetric(n, seed=5)
        x = rng.normal(size=n)
        machine = Machine(partition_q2.P)
        algo = ParallelSTTSV(partition_q2, n, backend)
        algo.load(machine, tensor, x)
        algo.run(machine)
        assert np.allclose(algo.gather_result(machine), sttsv_packed(tensor, x))

    def test_matches_sequential_sqs8(self, partition_sqs8, rng):
        n = 56  # 8 row blocks of 7
        tensor = random_symmetric(n, seed=6)
        x = rng.normal(size=n)
        machine = Machine(partition_sqs8.P)
        algo = ParallelSTTSV(partition_sqs8, n)
        algo.load(machine, tensor, x)
        algo.run(machine)
        assert np.allclose(algo.gather_result(machine), sttsv_packed(tensor, x))

    def test_rerun_is_idempotent(self, partition_q2, rng):
        """Running twice from the same x gives the same y (phases do not
        corrupt the inputs)."""
        n = 30
        tensor = random_symmetric(n, seed=7)
        x = rng.normal(size=n)
        machine = Machine(partition_q2.P)
        algo = ParallelSTTSV(partition_q2, n)
        algo.load(machine, tensor, x)
        algo.run(machine)
        first = algo.gather_result(machine)
        algo.run(machine)
        assert np.allclose(algo.gather_result(machine), first)

    def test_run_starts_no_thread(self, partition_q2, rng, monkeypatch):
        """All three phases run synchronously on the calling thread: no
        executor is built and no thread is started."""
        pools, started = [], []
        init, start = ThreadPoolExecutor.__init__, threading.Thread.start

        def spy_init(self, *args, **kwargs):
            pools.append(self)
            init(self, *args, **kwargs)

        def spy_start(self):
            started.append(self)
            start(self)

        monkeypatch.setattr(ThreadPoolExecutor, "__init__", spy_init)
        monkeypatch.setattr(threading.Thread, "start", spy_start)
        n = 30
        tensor = random_symmetric(n, seed=8)
        x = rng.normal(size=n)
        machine = Machine(partition_q2.P)
        algo = ParallelSTTSV(partition_q2, n)
        algo.load(machine, tensor, x)
        before = threading.active_count()
        algo.run(machine)
        assert threading.active_count() == before
        assert pools == [] and started == []
        assert np.allclose(algo.gather_result(machine), sttsv_packed(tensor, x))


class TestCommunicationCosts:
    def test_point_to_point_exact_cost_q2(self, partition_q2):
        n = 30
        machine = Machine(partition_q2.P)
        algo = ParallelSTTSV(partition_q2, n)
        algo.load(machine, random_symmetric(n, seed=8), np.ones(n))
        algo.run(machine)
        expected = bounds.optimal_bandwidth_cost(n, 2)
        assert machine.ledger.words_sent == [int(expected)] * partition_q2.P
        assert machine.ledger.words_received == [int(expected)] * partition_q2.P

    def test_all_to_all_exact_cost_q2(self, partition_q2):
        n = 30
        machine = Machine(partition_q2.P)
        algo = ParallelSTTSV(partition_q2, n, CommBackend.ALL_TO_ALL)
        algo.load(machine, random_symmetric(n, seed=9), np.ones(n))
        algo.run(machine)
        expected = bounds.all_to_all_bandwidth_cost(n, 2)
        assert machine.ledger.words_sent == [int(round(expected))] * partition_q2.P

    def test_expected_words_helper_agrees(self, partition_q2):
        n = 60
        for backend in CommBackend:
            machine = Machine(partition_q2.P)
            algo = ParallelSTTSV(partition_q2, n, backend)
            algo.load(machine, random_symmetric(n, seed=10), np.ones(n))
            algo.run(machine)
            assert machine.ledger.max_words_sent() == (
                algo.expected_words_per_processor()
            )

    @pytest.mark.parametrize("q, n", [(2, 30), (3, 120)])
    def test_pair_map_words_match_closed_form(self, q, n, request):
        partition = request.getfixturevalue(f"partition_q{q}")
        algo = ParallelSTTSV(partition, n)
        assert algo.words_per_processor() == (
            [algo.expected_words_per_processor()] * partition.P
        )

    def test_point_to_point_round_count(self, partition_q2):
        """Two exchange phases of q³/2+3q²/2−1 steps each."""
        n = 30
        machine = Machine(partition_q2.P)
        algo = ParallelSTTSV(partition_q2, n)
        algo.load(machine, random_symmetric(n, seed=11), np.ones(n))
        algo.run(machine)
        assert machine.ledger.round_count() == 2 * bounds.schedule_step_count(2)
        assert machine.ledger.all_rounds_are_permutations()

    def test_lower_bound_respected(self, partition_q2):
        """No backend may beat Theorem 5.2 (sanity of the simulator)."""
        n = 60
        for backend in CommBackend:
            machine = Machine(partition_q2.P)
            algo = ParallelSTTSV(partition_q2, n, backend)
            algo.load(machine, random_symmetric(n, seed=12), np.ones(n))
            algo.run(machine)
            lower = bounds.sttsv_lower_bound(algo.n_padded, partition_q2.P)
            assert machine.ledger.max_words_sent() >= lower

    def test_flops_per_processor(self, partition_q2):
        algo = ParallelSTTSV(partition_q2, n=30)
        total = sum(algo.flops_per_processor(p) for p in range(partition_q2.P))
        from repro.util.combinatorics import (
            ternary_multiplication_count_symmetric,
        )

        assert total == ternary_multiplication_count_symmetric(30)
