"""Compiled execution plans: correctness, caching, and the invariance
of communication accounting under the exchange-plan rewrite."""

import numpy as np
import pytest

from repro.core import bounds
from repro.core.parallel_sttsv import CommBackend, ParallelSTTSV
from repro.core.plans import (
    DEFAULT_GEMM_BUDGET_BYTES,
    DEFAULT_PLAN_CACHE_BYTES,
    DEFAULT_PLAN_CACHE_SIZE,
    LRUByteCache,
    SequentialPlan,
    cache_clear,
    cache_info,
    configure_cache,
    invalidate_plan,
    sequential_plan,
)
from repro.core.sttsv_ndim import sttsv_ndim
from repro.core.sttsv_sequential import sttsv, sttsv_packed
from repro.errors import ConfigurationError
from repro.machine.machine import Machine
from repro.tensor.dense import random_symmetric
from repro.tensor.ndpacked import nd_random_symmetric
from repro.tensor.packed import PackedSymmetricTensor


class TestSequentialPlanCorrectness:
    @pytest.mark.parametrize("n", [1, 2, 5, 17, 30])
    @pytest.mark.parametrize("strategy", ["gemm", "bincount"])
    def test_apply_matches_reference(self, n, strategy, rng):
        tensor = random_symmetric(n, seed=n)
        x = rng.normal(size=n)
        plan = SequentialPlan(tensor, strategy=strategy)
        assert np.allclose(
            plan.apply(x), sttsv_packed(tensor, x), rtol=1e-12, atol=1e-12
        )

    def test_bincount_strategy_bitwise_matches_kernel(self, rng):
        """The bincount plan is the bincount kernel with weights hoisted
        — identical multiply grouping, so identical bits."""
        tensor = random_symmetric(23, seed=1)
        x = rng.normal(size=23)
        plan = SequentialPlan(tensor, strategy="bincount")
        assert np.array_equal(plan.apply(x), sttsv_ndim(tensor, x))

    def test_order3_operator_is_the_closed_form_unfolding(self):
        """At order 3 the unfolding is ``a[T3(hi) + T2(mid) + lo]``
        over the canonicalized ``(i, j, k)``, doubled off the pair
        diagonal ``j = k``."""
        n = 11
        tensor = random_symmetric(n, seed=4)
        Jp, Kp = np.tril_indices(n)
        gi = np.arange(n)[:, None]
        hi = np.maximum(gi, Jp)
        lo = np.minimum(gi, Kp)
        mid = gi + Jp + Kp - hi - lo
        offsets = hi * (hi + 1) * (hi + 2) // 6 + mid * (mid + 1) // 2 + lo
        want = tensor.data[offsets] * np.where(Jp == Kp, 1.0, 2.0)
        plan = SequentialPlan(tensor, strategy="gemm")
        assert np.array_equal(plan._operator, want)

    @pytest.mark.parametrize("order", [3, 4])
    @pytest.mark.parametrize("strategy", ["auto", "gemm", "bincount"])
    def test_any_order_matches_ndim_kernel(self, order, strategy, rng):
        """The plan follows the tensor's order (an order-4 tensor once
        got an order-3 plan and a silently wrong result)."""
        n = 10
        tensor = nd_random_symmetric(n, order, seed=order)
        x = rng.normal(size=n)
        X = rng.normal(size=(n, 3))
        plan = sequential_plan(tensor, strategy=strategy)
        assert plan.m == order
        assert np.allclose(plan.apply(x), sttsv_ndim(tensor, x))
        want = np.column_stack([sttsv_ndim(tensor, X[:, c]) for c in range(3)])
        assert np.allclose(plan.apply_batch(X), want)
        if strategy == "bincount":
            assert plan.apply(x).tobytes() == sttsv_ndim(tensor, x).tobytes()

    def test_order4_frobenius_norm(self):
        tensor = nd_random_symmetric(6, 4, seed=9)
        plan = SequentialPlan(tensor)
        assert np.isclose(plan.frobenius_norm_sq(), np.sum(tensor.to_dense() ** 2))

    def test_rejects_order_one(self):
        with pytest.raises(ConfigurationError):
            SequentialPlan(nd_random_symmetric(4, 1, seed=0))

    @pytest.mark.parametrize("strategy", ["gemm", "bincount"])
    def test_apply_batch_vs_column_loop(self, strategy, rng):
        """Batched result vs a column-by-column sttsv loop.

        The bincount strategy is exactly a column loop, so equality is
        exact; gemm uses a multi-column GEMM whose per-column bits may
        differ from a GEMV in the last ulp — tight allclose there.
        """
        n, s = 20, 7
        tensor = random_symmetric(n, seed=2)
        X = rng.normal(size=(n, s))
        plan = SequentialPlan(tensor, strategy=strategy)
        batched = plan.apply_batch(X)
        looped = np.column_stack([plan.apply(X[:, c]) for c in range(s)])
        if strategy == "bincount":
            assert np.array_equal(batched, looped)
        else:
            assert np.allclose(batched, looped, rtol=1e-12, atol=1e-14)

    def test_apply_batch_vs_public_sttsv_loop(self, rng):
        """Column-by-column public sttsv agrees with the batch engine."""
        n, s = 18, 5
        tensor = random_symmetric(n, seed=3)
        X = rng.normal(size=(n, s))
        batched = sequential_plan(tensor).apply_batch(X)
        looped = np.column_stack([sttsv(tensor, X[:, c]) for c in range(s)])
        assert np.allclose(batched, looped, rtol=1e-12, atol=1e-14)

    def test_apply_batch_empty(self):
        tensor = random_symmetric(6, seed=4)
        out = sequential_plan(tensor).apply_batch(np.zeros((6, 0)))
        assert out.shape == (6, 0)

    def test_frobenius_norm_matches_multiplicity_sum(self):
        tensor = random_symmetric(9, seed=5)
        I, J, K = PackedSymmetricTensor.index_arrays(9)
        multiplicity = np.where(
            (I == J) & (J == K), 1.0, np.where((I == J) | (J == K), 3.0, 6.0)
        )
        expected = float(np.sum(multiplicity * tensor.data**2))
        plan = sequential_plan(tensor)
        assert plan.frobenius_norm_sq() == expected
        dense = tensor.to_dense()
        assert np.isclose(plan.frobenius_norm_sq(), np.sum(dense**2))

    def test_shape_validation(self):
        tensor = random_symmetric(5, seed=6)
        plan = sequential_plan(tensor)
        with pytest.raises(ConfigurationError):
            plan.apply(np.ones(4))
        with pytest.raises(ConfigurationError):
            plan.apply_batch(np.ones((4, 2)))
        with pytest.raises(ConfigurationError):
            plan.apply_batch(np.ones(5))
        with pytest.raises(ConfigurationError):
            SequentialPlan(tensor, strategy="magic")


class TestStrategySelection:
    def test_auto_prefers_gemm_within_budget(self):
        plan = SequentialPlan(random_symmetric(12, seed=0))
        assert plan.strategy == "gemm"
        assert plan.nbytes() <= DEFAULT_GEMM_BUDGET_BYTES

    def test_auto_falls_back_to_bincount(self):
        plan = SequentialPlan(
            random_symmetric(12, seed=0), gemm_budget_bytes=1
        )
        assert plan.strategy == "bincount"

    def test_gemm_bytes_formula(self):
        assert SequentialPlan._gemm_bytes(200, 3) == 200 * (200 * 201 // 2) * 8
        assert SequentialPlan._gemm_bytes(40, 4) == 40 * (40 * 41 * 42 // 6) * 8


class TestPlanCache:
    def test_reuse_across_x_values(self, rng):
        """Different vectors against the same tensor share one plan."""
        tensor = random_symmetric(14, seed=7)
        first = sequential_plan(tensor)
        for _ in range(3):
            x = rng.normal(size=14)
            assert np.allclose(sttsv(tensor, x), sttsv_packed(tensor, x))
        assert sequential_plan(tensor) is first

    def test_distinct_tensors_get_distinct_plans(self):
        """Plans are per-tensor: different n (and hence block size b in
        any parallel embedding) never share compiled state."""
        small = random_symmetric(8, seed=8)
        large = random_symmetric(13, seed=9)
        plan_small = sequential_plan(small)
        plan_large = sequential_plan(large)
        assert plan_small is not plan_large
        assert plan_small.n == 8 and plan_large.n == 13

    def test_element_write_invalidates(self, rng):
        tensor = random_symmetric(10, seed=10)
        x = rng.normal(size=10)
        stale = sequential_plan(tensor)
        before = sttsv(tensor, x)
        tensor[3, 2, 1] = 99.0
        assert not stale.matches(tensor)
        after = sttsv(tensor, x)
        assert sequential_plan(tensor) is not stale
        assert not np.allclose(before, after)
        assert np.allclose(after, sttsv_packed(tensor, x))

    def test_order4_element_write_invalidates(self, rng):
        tensor = nd_random_symmetric(6, 4, seed=10)
        stale = sequential_plan(tensor)
        tensor[3, 2, 1, 0] = 99.0
        assert not stale.matches(tensor)
        fresh = sequential_plan(tensor)
        assert fresh is not stale
        x = rng.normal(size=6)
        assert np.allclose(fresh.apply(x), sttsv_ndim(tensor, x))

    def test_data_replacement_invalidates(self, rng):
        tensor = random_symmetric(10, seed=11)
        stale = sequential_plan(tensor)
        tensor.data = tensor.data * 2.0  # new array object
        assert not stale.matches(tensor)
        x = rng.normal(size=10)
        assert np.allclose(sttsv(tensor, x), sttsv_packed(tensor, x))

    def test_explicit_invalidation(self):
        tensor = random_symmetric(7, seed=12)
        first = sequential_plan(tensor)
        invalidate_plan(tensor)
        assert sequential_plan(tensor) is not first

    def test_strategy_change_recompiles(self):
        tensor = random_symmetric(7, seed=13)
        auto = sequential_plan(tensor)
        forced = sequential_plan(tensor, strategy="bincount")
        assert forced.strategy == "bincount"
        assert forced is not auto


class TestExchangePlan:
    def test_payloads_match_direct_formulation(self, partition_q2, rng):
        """The compiled gather produces exactly the payloads of the
        seed's dict-walking formulation (same contents, same sizes)."""
        from repro.core import distribution as dist

        n = 30
        tensor = random_symmetric(n, seed=15)
        x = rng.normal(size=n)
        machine = Machine(partition_q2.P)
        algo = ParallelSTTSV(partition_q2, n)
        algo.load(machine, tensor, x)
        plan = algo.exchange_plan
        for p in range(machine.P):
            plan.stage_x(p, machine[p].load("x_shards"))
        for (src, dst), common in algo.schedule.shared.items():
            shards = machine[src].load("x_shards")
            reference = np.concatenate([shards[i] for i in sorted(common)])
            assert np.array_equal(plan.x_payload(src, dst), reference)
        algo.run(machine)
        for p in range(machine.P):
            plan.stage_y(p, machine[p].load("y_partial"))
        for (src, dst), common in algo.schedule.shared.items():
            partial = machine[src].load("y_partial")
            pieces = []
            for i in sorted(common):
                lo, hi = dist.shard_bounds(partition_q2, i, dst, algo.b)
                pieces.append(partial[i][lo:hi])
            reference = np.concatenate(pieces)
            assert np.array_equal(plan.y_payload(src, dst), reference)

    def test_non_neighbor_payload_is_none(self, partition_sqs8):
        algo = ParallelSTTSV(partition_sqs8, 56)
        plan = algo.exchange_plan
        non_neighbors = [
            (src, dst)
            for src in range(partition_sqs8.P)
            for dst in range(partition_sqs8.P)
            if src != dst and (src, dst) not in algo.schedule.shared
        ]
        assert non_neighbors, "SQS(8) exchange graph should not be complete"
        src, dst = non_neighbors[0]
        assert plan.x_payload(src, dst) is None
        assert plan.y_payload(src, dst) is None

    @pytest.mark.parametrize("fixture,n", [("partition_q2", 61), ("partition_q3", 60)])
    def test_shard_map_matches_initial_shards(self, fixture, n, request, rng):
        """The prebuilt scatter of ``x`` into shards is §6.1's
        ``initial_shards``, and ``assemble`` inverts it."""
        from repro.core.distribution import initial_shards

        partition = request.getfixturevalue(fixture)
        plan = ParallelSTTSV(partition, n).exchange_plan
        x = rng.normal(size=partition.m * plan.b)
        shards = plan.split_shards(x[plan.load_index])
        reference = initial_shards(partition, x, plan.b)
        assert [sorted(s) for s in shards] == [sorted(s) for s in reference]
        for mine, theirs in zip(shards, reference):
            for i in theirs:
                assert np.array_equal(mine[i], theirs[i])
        assert np.array_equal(plan.assemble(shards), x)

    def test_plan_compiled_per_instance_dimensions(self, partition_q2):
        """Different n (hence different b) compile different plans."""
        small = ParallelSTTSV(partition_q2, 30).exchange_plan
        large = ParallelSTTSV(partition_q2, 61).exchange_plan
        assert small.b == 6 and large.b == 18
        assert small.shard == 1 and large.shard == 3
        pair = next(iter(small.x_gather))
        assert small.x_gather[pair].size < large.x_gather[pair].size


class TestCommunicationAccountingInvariance:
    """The exchange-plan rewrite must not change a single ledger count:
    words, messages, and rounds pinned to their analytic values for
    both backends (the values the direct implementation produced)."""

    N = 30

    def _run(self, partition, backend):
        machine = Machine(partition.P)
        algo = ParallelSTTSV(partition, self.N, backend)
        algo.load(machine, random_symmetric(self.N, seed=16), np.ones(self.N))
        algo.run(machine)
        return machine, algo

    def test_point_to_point_counts(self, partition_q2):
        machine, algo = self._run(partition_q2, CommBackend.POINT_TO_POINT)
        P = partition_q2.P
        lam = partition_q2.steiner.point_replication()
        words = 2 * partition_q2.r * (lam - 1) * algo.shard
        assert machine.ledger.words_sent == [words] * P
        assert machine.ledger.words_received == [words] * P
        assert int(words) == int(bounds.optimal_bandwidth_cost(self.N, 2))
        messages = 2 * algo.schedule.degrees.total
        assert machine.ledger.messages_sent == [messages] * P
        assert machine.ledger.messages_received == [messages] * P
        assert machine.ledger.round_count() == 2 * bounds.schedule_step_count(2)
        assert machine.ledger.all_rounds_are_permutations()

    def test_all_to_all_counts(self, partition_q2):
        machine, algo = self._run(partition_q2, CommBackend.ALL_TO_ALL)
        P = partition_q2.P
        words = 2 * (P - 1) * 2 * algo.shard
        assert machine.ledger.words_sent == [words] * P
        assert machine.ledger.words_received == [words] * P
        messages = 2 * (P - 1)
        assert machine.ledger.messages_sent == [messages] * P
        assert machine.ledger.messages_received == [messages] * P
        assert machine.ledger.round_count() == 2 * (P - 1)

    @pytest.mark.parametrize("backend", list(CommBackend))
    def test_results_still_correct(self, partition_q2, backend, rng):
        tensor = random_symmetric(self.N, seed=17)
        x = rng.normal(size=self.N)
        machine = Machine(partition_q2.P)
        algo = ParallelSTTSV(partition_q2, self.N, backend)
        algo.load(machine, tensor, x)
        algo.run(machine)
        assert np.allclose(
            algo.gather_result(machine), sttsv_packed(tensor, x)
        )

    def test_expected_words_helper_still_agrees(self, partition_sqs8):
        machine = Machine(partition_sqs8.P)
        algo = ParallelSTTSV(partition_sqs8, 56)
        algo.load(machine, random_symmetric(56, seed=18), np.ones(56))
        algo.run(machine)
        assert (
            machine.ledger.max_words_sent()
            == algo.expected_words_per_processor()
        )


class TestRepeatedRuns:
    def test_buffer_reuse_is_idempotent(self, partition_q2, rng):
        """Reused staging/send buffers must not leak state run-to-run."""
        n = 30
        tensor = random_symmetric(n, seed=19)
        machine = Machine(partition_q2.P)
        algo = ParallelSTTSV(partition_q2, n)
        x1 = rng.normal(size=n)
        algo.load(machine, tensor, x1)
        algo.run(machine)
        first = algo.gather_result(machine)
        # Second run with different data through the same compiled plan.
        x2 = rng.normal(size=n)
        algo.load(machine, tensor, x2)
        algo.run(machine)
        assert np.allclose(algo.gather_result(machine), sttsv_packed(tensor, x2))
        # And back: same input must reproduce the same output bitwise.
        algo.load(machine, tensor, x1)
        algo.run(machine)
        assert np.array_equal(algo.gather_result(machine), first)


class TestLRUByteCache:
    """The bounded container behind the plan cache and session pool."""

    def test_lru_eviction_order(self):
        cache = LRUByteCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a": "b" is now coldest
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_byte_budget_eviction(self):
        cache = LRUByteCache(maxsize=10, byte_budget=100)
        cache.put("a", "A", nbytes=60)
        cache.put("b", "B", nbytes=60)  # 120 > 100: "a" must go
        assert cache.get("a") is None
        assert cache.get("b") == "B"

    def test_oversized_sole_entry_is_kept(self):
        """An entry larger than the whole budget still serves (the
        cache never evicts its only entry)."""
        cache = LRUByteCache(maxsize=4, byte_budget=10)
        cache.put("big", "x", nbytes=1000)
        assert cache.get("big") == "x"
        assert cache.info().currsize == 1

    def test_on_evict_fires_with_key_and_value(self):
        evicted = []
        cache = LRUByteCache(
            maxsize=1, on_evict=lambda k, v: evicted.append((k, v))
        )
        cache.put("a", 1)
        cache.put("b", 2)
        assert evicted == [("a", 1)]
        cache.clear()
        assert evicted == [("a", 1), ("b", 2)]

    def test_discard_is_silent(self):
        evicted = []
        cache = LRUByteCache(
            maxsize=4, on_evict=lambda k, v: evicted.append(k)
        )
        cache.put("a", 1)
        assert cache.discard("a") == 1
        assert cache.discard("missing") is None
        assert evicted == []

    def test_info_counters(self):
        cache = LRUByteCache(maxsize=2, byte_budget=1000)
        cache.put("a", 1, nbytes=10)
        cache.get("a")
        cache.get("nope")
        cache.put("b", 2, nbytes=20)
        cache.put("c", 3, nbytes=30)
        info = cache.info()
        assert info.hits == 1
        assert info.misses == 1
        assert info.currsize == 2
        assert info.maxsize == 2
        assert info.nbytes == 50
        assert info.byte_budget == 1000
        assert info.evictions == 1

    def test_resize_shrinks_immediately(self):
        cache = LRUByteCache(maxsize=4)
        for key in "abcd":
            cache.put(key, key)
        cache.resize(2, None)
        assert cache.keys() == ["c", "d"]

    def test_keys_cold_to_hot(self):
        cache = LRUByteCache(maxsize=4)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")
        assert cache.keys() == ["b", "a"]

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            LRUByteCache(maxsize=0)
        with pytest.raises(ConfigurationError):
            LRUByteCache(maxsize=2, byte_budget=-1)


class TestPlanCacheLRU:
    """The module-level plan cache is bounded and introspectable."""

    def setup_method(self):
        cache_clear()

    def teardown_method(self):
        configure_cache(
            maxsize=DEFAULT_PLAN_CACHE_SIZE,
            byte_budget=DEFAULT_PLAN_CACHE_BYTES,
        )
        cache_clear()

    def test_hits_and_misses_counted(self):
        tensor = random_symmetric(8, seed=30)
        before = cache_info()
        sequential_plan(tensor)
        sequential_plan(tensor)
        after = cache_info()
        assert after.misses == before.misses + 1
        assert after.currsize == before.currsize + 1
        assert after.hits >= before.hits

    def test_eviction_drops_plan_attribute(self):
        """Past the bound, the coldest tensor loses its compiled plan
        and recompiles on next use (correctness is never affected)."""
        configure_cache(maxsize=2)
        tensors = [random_symmetric(8, seed=31 + i) for i in range(3)]
        plans = [sequential_plan(t) for t in tensors]
        assert cache_info().currsize == 2
        assert tensors[0]._plan is None  # evicted coldest
        assert tensors[1]._plan is plans[1]
        assert tensors[2]._plan is plans[2]
        recompiled = sequential_plan(tensors[0])
        assert recompiled is not plans[0]
        x = np.random.default_rng(0).normal(size=8)
        assert np.array_equal(recompiled.apply(x), plans[0].apply(x))

    def test_byte_budget_evicts_large_plans(self):
        small = random_symmetric(6, seed=34)
        small_bytes = sequential_plan(small).nbytes()
        configure_cache(byte_budget=small_bytes + 1)
        cache_clear()
        first = random_symmetric(6, seed=35)
        second = random_symmetric(6, seed=36)
        sequential_plan(first)
        sequential_plan(second)
        assert cache_info().currsize == 1
        assert first._plan is None

    def test_cache_clear_drops_all_attributes(self):
        tensors = [random_symmetric(7, seed=37 + i) for i in range(2)]
        for tensor in tensors:
            sequential_plan(tensor)
        cache_clear()
        assert cache_info().currsize == 0
        assert all(t._plan is None for t in tensors)

    def test_garbage_collected_tensor_leaves_no_entry(self):
        import gc

        tensor = random_symmetric(8, seed=39)
        sequential_plan(tensor)
        before = cache_info().currsize
        del tensor
        gc.collect()
        assert cache_info().currsize == before - 1

    def test_invalidate_plan_removes_cache_entry(self):
        tensor = random_symmetric(8, seed=40)
        sequential_plan(tensor)
        before = cache_info().currsize
        invalidate_plan(tensor)
        assert cache_info().currsize == before - 1

    def test_cache_never_keeps_tensor_alive(self):
        """The registry holds weak references: a cached plan must not
        pin its tensor in memory."""
        import gc
        import weakref

        tensor = random_symmetric(8, seed=41)
        sequential_plan(tensor)
        ref = weakref.ref(tensor)
        del tensor
        gc.collect()
        assert ref() is None


class TestApplyBatchEdgeCases:
    """Layout and dtype normalization never changes result bits."""

    def _tensor(self, n=15, seed=50):
        return random_symmetric(n, seed=seed)

    def test_single_column_matrix_bincount_bitwise(self, rng):
        tensor = self._tensor()
        plan = SequentialPlan(tensor, strategy="bincount")
        x = rng.normal(size=15)
        batched = plan.apply_batch(x[:, None])
        assert batched.shape == (15, 1)
        assert np.array_equal(batched[:, 0], plan.apply(x))

    def test_single_column_matrix_gemm_matches(self, rng):
        tensor = self._tensor()
        plan = SequentialPlan(tensor, strategy="gemm")
        x = rng.normal(size=15)
        batched = plan.apply_batch(x[:, None])
        assert batched.shape == (15, 1)
        assert np.allclose(batched[:, 0], plan.apply(x), rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("strategy", ["gemm", "bincount"])
    def test_fortran_ordered_input_bitwise(self, strategy, rng):
        tensor = self._tensor()
        plan = SequentialPlan(tensor, strategy=strategy)
        X = rng.normal(size=(15, 6))
        XF = np.asfortranarray(X)
        assert XF.flags.f_contiguous and not XF.flags.c_contiguous
        assert np.array_equal(plan.apply_batch(XF), plan.apply_batch(X))

    @pytest.mark.parametrize("strategy", ["gemm", "bincount"])
    def test_non_contiguous_view_bitwise(self, strategy, rng):
        tensor = self._tensor()
        plan = SequentialPlan(tensor, strategy=strategy)
        wide = rng.normal(size=(15, 12))
        strided = wide[:, ::2]
        assert not strided.flags.c_contiguous
        assert np.array_equal(
            plan.apply_batch(strided), plan.apply_batch(strided.copy())
        )

    @pytest.mark.parametrize("strategy", ["gemm", "bincount"])
    def test_dtype_promotion_bitwise(self, strategy, rng):
        """float32 / integer batches promote to float64 before any
        arithmetic — identical bits to pre-promoted input."""
        tensor = self._tensor()
        plan = SequentialPlan(tensor, strategy=strategy)
        X32 = rng.normal(size=(15, 4)).astype(np.float32)
        assert np.array_equal(
            plan.apply_batch(X32), plan.apply_batch(X32.astype(np.float64))
        )
        Xint = rng.integers(-3, 4, size=(15, 4))
        assert np.array_equal(
            plan.apply_batch(Xint), plan.apply_batch(Xint.astype(np.float64))
        )

    def test_bincount_batch_bitwise_equals_looped_apply_all_layouts(self, rng):
        """The headline satellite guarantee: for the batch-stable
        strategy, every layout variant equals a looped apply bitwise."""
        tensor = self._tensor()
        plan = SequentialPlan(tensor, strategy="bincount")
        X = rng.normal(size=(15, 5))
        looped = np.column_stack([plan.apply(X[:, c]) for c in range(5)])
        for variant in (X, np.asfortranarray(X), X.astype(np.float64)[:, ::1]):
            assert np.array_equal(plan.apply_batch(variant), looped)
