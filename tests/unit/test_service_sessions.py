"""Warm engine sessions and the LRU session pool."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.core.plans import sequential_plan
from repro.core.sttsv_sequential import sttsv_packed
from repro.errors import ConfigurationError
from repro.service.sessions import EngineSession, SessionKey, SessionPool
from repro.steiner.boolean import boolean_block_count
from repro.tensor.dense import random_symmetric
from repro.tensor.ndpacked import nd_random_symmetric
from repro.tensor.symk import random_symk


def _session(n=20, q=2, backend="simulated", tensor_id="T", seed=0, **kwargs):
    key = SessionKey(tensor_id=tensor_id, q=q, P=q * (q * q + 1),
                     backend=backend)
    return EngineSession(key, random_symmetric(n, seed=seed), **kwargs)


class TestSessionKey:
    def test_label_is_stable(self):
        key = SessionKey("T", 2, 10, "shm")
        assert key.label() == "T@q=2,P=10,shm"

    def test_wrong_P_rejected(self):
        key = SessionKey("T", 2, 31, "simulated")
        with pytest.raises(ConfigurationError, match="P=10"):
            EngineSession(key, random_symmetric(20, seed=0))


class TestEngineSessionExecution:
    def test_plan_mode_matches_sequential_reference(self, rng):
        tensor = random_symmetric(20, seed=0)
        session = EngineSession(SessionKey("T", 2, 10, "simulated"), tensor)
        try:
            x = rng.normal(size=20)
            assert np.allclose(
                session.apply(x, mode="plan"),
                sttsv_packed(tensor, x),
                rtol=1e-12,
                atol=1e-12,
            )
        finally:
            session.close()

    def test_parallel_mode_matches_sequential_reference(self, rng):
        tensor = random_symmetric(20, seed=0)
        session = EngineSession(SessionKey("T", 2, 10, "simulated"), tensor)
        try:
            x = rng.normal(size=20)
            assert np.allclose(
                session.apply(x, mode="parallel"),
                sttsv_packed(tensor, x),
                rtol=1e-12,
                atol=1e-12,
            )
        finally:
            session.close()

    def test_parallel_batch_is_bitwise_column_loop(self, rng):
        """Coalescing guarantee: a parallel-mode batch IS a column loop
        over the warm machine — identical bits per column."""
        session = _session()
        try:
            X = rng.normal(size=(20, 4))
            batched = session.apply_batch(X, mode="parallel")
            for col in range(4):
                assert np.array_equal(
                    batched[:, col], session.apply(X[:, col], mode="parallel")
                )
        finally:
            session.close()

    def test_parallel_runs_absorb_ledger_into_metrics(self, rng):
        session = _session()
        try:
            session.apply(rng.normal(size=20), mode="parallel")
            session.apply(rng.normal(size=20), mode="parallel")
            snapshot = session.snapshot()
            assert snapshot["parallel_runs"] == 2
            assert snapshot["comm_rounds"] > 0
            assert snapshot["comm_words"] > 0
            # The machine's live ledger was reset after each run.
            assert session.machine.ledger.round_count() == 0
        finally:
            session.close()

    def test_unknown_mode_rejected(self, rng):
        session = _session()
        try:
            with pytest.raises(ConfigurationError, match="mode"):
                session.apply(rng.normal(size=20), mode="warp")
            with pytest.raises(ConfigurationError, match="mode"):
                session.apply_batch(rng.normal(size=(20, 2)), mode="warp")
        finally:
            session.close()

    def test_bad_batch_shape_rejected(self, rng):
        session = _session()
        try:
            with pytest.raises(ConfigurationError, match="shape"):
                session.apply_batch(rng.normal(size=(7, 2)), mode="parallel")
        finally:
            session.close()

    def test_snapshot_shape(self):
        session = _session(strategy="bincount")
        try:
            snapshot = session.snapshot()
            assert snapshot["n"] == 20
            assert snapshot["q"] == 2
            assert snapshot["P"] == 10
            assert snapshot["backend"] == "simulated"
            assert snapshot["plan_strategy"] == "bincount"
            assert snapshot["session_bytes"] == session.nbytes()
            assert snapshot["failed_over"] is False
            assert "latency" in snapshot
            assert "batch_size_histogram" in snapshot
            assert "phases" in snapshot
        finally:
            session.close()

    def test_close_is_idempotent(self):
        session = _session()
        session.close()
        assert session.closed
        session.close()  # second close is a no-op

    def test_session_reuses_module_plan_cache(self):
        tensor = random_symmetric(20, seed=3)
        plan = sequential_plan(tensor)
        key = SessionKey("T", 2, 10, "simulated")
        session = EngineSession(key, tensor)
        try:
            assert session.plan is plan
        finally:
            session.close()


def _retained(key, make):
    """A session of ``make(False)`` and the bytes tracemalloc sees it
    retain. A smaller session of ``make(True)`` first warms the
    process-wide structures, with a different block size."""
    EngineSession(key, make(True)).close()
    gc.collect()
    tracemalloc.start()
    try:
        session = EngineSession(key, make(False))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return session, retained


class TestResidentMemory:
    def test_registration_retains_only_its_state(self):
        """A dense registration keeps the engine's blocks and the plan
        (as ``plan.nbytes()`` prices it), and nothing else of size: no
        per-block offset tables outlive the load, and the packed tensor
        is gone once blocks and plan exist."""
        session, retained = _retained(
            SessionKey("T", 2, 10, "simulated"),
            lambda small: random_symmetric(30 if small else 120, seed=0),
        )
        try:
            stored = session.machine[0].memory["tensor_blocks"].values()
            blocks = next(iter(stored)).base
            assert session.tensor is None
            assert retained <= blocks.nbytes + session.plan.nbytes() + 2**20
        finally:
            session.close()

    def test_packed_tensor_is_released(self):
        tensor = random_symmetric(60, seed=0)
        released = weakref.ref(tensor.data)
        session = EngineSession(SessionKey("T", 2, 10, "simulated"), tensor)
        try:
            del tensor
            gc.collect()
            assert released() is None
        finally:
            session.close()

    @pytest.mark.parametrize(
        "key,make",
        [
            (
                SessionKey("T", 2, 10, "simulated"),
                lambda small: random_symmetric(30 if small else 120, seed=0),
            ),
            (
                SessionKey("T", 3, boolean_block_count(3), "simulated", order=4),
                lambda small: nd_random_symmetric(16 if small else 48, 4, seed=0),
            ),
            (
                SessionKey("T", 2, 10, "simulated", kind="symk"),
                lambda small: random_symk(40 if small else 4000, 32, seed=0),
            ),
        ],
        ids=["dense-3", "BCSS-4", "symk"],
    )
    def test_nbytes_is_what_the_session_retains(self, key, make):
        """The pool's byte budget prices a session as it lives: the
        engine's tensor state plus the plan (for symk, the factors)."""
        session, retained = _retained(key, make)
        try:
            assert abs(retained - session.nbytes()) <= 2**20
            assert session.nbytes() >= session.algo.tensor_nbytes() > 0
        finally:
            session.close()


class TestSessionPool:
    def test_get_put_contains(self):
        pool = SessionPool(max_sessions=2)
        session = _session()
        key = session.key
        pool.put(key, session)
        assert key in pool
        assert pool.get(key) is session
        pool.clear()
        assert session.closed

    def test_lru_eviction_closes_session(self):
        pool = SessionPool(max_sessions=2)
        sessions = [
            _session(tensor_id=f"T{i}", seed=i) for i in range(3)
        ]
        for session in sessions:
            pool.put(session.key, session)
        assert len(pool) == 2
        assert sessions[0].closed  # coldest was evicted and closed
        assert not sessions[1].closed
        assert not sessions[2].closed
        assert pool.info().evictions == 1
        pool.clear()

    def test_get_refreshes_recency(self):
        pool = SessionPool(max_sessions=2)
        sessions = [
            _session(tensor_id=f"T{i}", seed=i) for i in range(3)
        ]
        pool.put(sessions[0].key, sessions[0])
        pool.put(sessions[1].key, sessions[1])
        pool.get(sessions[0].key)  # T0 hot again: T1 is now coldest
        pool.put(sessions[2].key, sessions[2])
        assert sessions[1].closed
        assert not sessions[0].closed
        pool.clear()

    def test_byte_budget_eviction(self):
        first = _session(tensor_id="A", seed=0)
        budget = first.nbytes() + 1  # room for exactly one session
        pool = SessionPool(max_sessions=8, byte_budget=budget)
        pool.put(first.key, first)
        second = _session(tensor_id="B", seed=1)
        pool.put(second.key, second)
        assert len(pool) == 1
        assert first.closed
        assert not second.closed
        pool.clear()

    def test_on_evict_callback_runs_before_close(self):
        seen = []
        pool = SessionPool(
            max_sessions=1,
            on_evict=lambda key, session: seen.append(
                (key.tensor_id, session.closed)
            ),
        )
        first = _session(tensor_id="A", seed=0)
        second = _session(tensor_id="B", seed=1)
        pool.put(first.key, first)
        pool.put(second.key, second)
        # Callback saw the session while still open (lanes can drain).
        assert seen == [("A", False)]
        assert first.closed
        pool.clear()

    def test_same_key_replacement_closes_predecessor(self):
        pool = SessionPool(max_sessions=4)
        first = _session(tensor_id="T", seed=0)
        second = _session(tensor_id="T", seed=1)
        pool.put(first.key, first)
        pool.put(second.key, second)
        assert first.closed
        assert pool.get(first.key) is second
        assert len(pool) == 1
        pool.clear()
