"""Warm engine sessions and the LRU session pool."""

import gc
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

import repro.core.parallel_sttsv as parallel_sttsv
from repro.core.plans import SequentialPlan, sequential_plan
from repro.core.plans import cache_info as plan_cache_info
from repro.core.sttsv_sequential import sttsv_packed
from repro.errors import ConfigurationError
from repro.service.batcher import DynamicBatcher
from repro.service.client import ServiceClient
from repro.service.protocol import ErrorCode, ServiceError
from repro.service.server import STTSVServer
from repro.service.sessions import EngineSession, SessionKey, SessionPool
from repro.steiner.boolean import boolean_block_count
from repro.tensor.dense import random_symmetric
from repro.tensor.ndpacked import nd_random_symmetric
from repro.tensor.symk import SymKTensor, random_symk


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
            session.apply(np.ones(20), mode="plan")
            assert session.plan is plan
        finally:
            session.close()


def _warm(session, modes):
    """One request of each of ``modes`` (builds that mode's state)."""
    x = np.linspace(-1.0, 1.0, session.n)
    for mode in modes:
        session.apply(x, mode=mode)
    return session


def _retained(key, make, modes=()):
    """A session of ``make(False)`` after one request of each of
    ``modes``, and the bytes tracemalloc sees it retain (its tensor
    included). A smaller session of ``make(True)`` that ran the same
    modes first warms the process-wide structures, with a different
    block size."""
    _warm(EngineSession(key, make(True)), modes).close()
    gc.collect()
    tracemalloc.start()
    try:
        session = _warm(EngineSession(key, make(False)), modes)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return session, retained


#: The three representations at a size whose state dwarfs 1 MiB.
RESIDENT_CASES = pytest.mark.parametrize(
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


def _packed_nbytes(tensor) -> int:
    """The registered tensor's own bytes (packed entries, or factors)."""
    return tensor.nbytes if isinstance(tensor, SymKTensor) else tensor.nbytes()


def _engine_holds_tensor(session) -> bool:
    if session.representation.versioned:
        return session.algo.tensor_nbytes() > 0
    return "tensor_blocks" in session.machine[0].memory


class TestResidentMemory:
    """What a session retains in each state: after REGISTER, after
    plan requests only, after parallel requests only, and after both
    (the state :meth:`EngineSession.nbytes` prices)."""

    @RESIDENT_CASES
    def test_registration_holds_only_the_tensor(self, key, make):
        before = plan_cache_info()
        session, retained = _retained(key, make)
        try:
            assert session.plan is None and not session.loaded
            assert not _engine_holds_tensor(session)
            assert plan_cache_info().currsize == before.currsize
            assert retained <= _packed_nbytes(session.tensor) + 2**20
        finally:
            session.close()

    @RESIDENT_CASES
    def test_plan_only_session_holds_tensor_and_plan(self, key, make):
        session, retained = _retained(key, make, ("plan",))
        try:
            assert not session.loaded and not _engine_holds_tensor(session)
            packed = _packed_nbytes(session.tensor)
            assert retained <= packed + session.plan.nbytes() + 2**20
        finally:
            session.close()

    @RESIDENT_CASES
    def test_parallel_only_session_holds_tensor_and_blocks(self, key, make):
        before = plan_cache_info()
        session, retained = _retained(key, make, ("parallel",))
        try:
            assert session.plan is None and _engine_holds_tensor(session)
            assert plan_cache_info().currsize == before.currsize
            packed = _packed_nbytes(session.tensor)
            assert retained <= packed + session.algo.tensor_nbytes() + 2**20
        finally:
            session.close()

    def test_registration_retains_only_its_state(self):
        """A dense session that ran both modes keeps the engine's
        blocks and the plan (as ``plan.nbytes()`` prices it), and
        nothing else of size: no per-block offset tables outlive the
        load, and the packed tensor is gone once blocks and plan
        exist."""
        session, retained = _retained(
            SessionKey("T", 2, 10, "simulated"),
            lambda small: random_symmetric(30 if small else 120, seed=0),
            ("plan", "parallel"),
        )
        try:
            stored = session.machine[0].memory["tensor_blocks"].values()
            blocks = next(iter(stored)).base
            assert session.tensor is None
            assert retained <= blocks.nbytes + session.plan.nbytes() + 2**20
        finally:
            session.close()

    def test_packed_tensor_is_released(self):
        """Kept until the second mode's state is built, in either order."""
        for first, second in (("plan", "parallel"), ("parallel", "plan")):
            tensor = random_symmetric(60, seed=0)
            released = weakref.ref(tensor.data)
            key = SessionKey("T", 2, 10, "simulated")
            session = EngineSession(key, tensor)
            try:
                del tensor
                _warm(session, [first])
                gc.collect()
                assert released() is not None, first
                _warm(session, [second])
                gc.collect()
                assert released() is None, first
            finally:
                session.close()

    @RESIDENT_CASES
    def test_nbytes_is_what_the_session_retains(self, key, make):
        """The pool's byte budget prices a session as it lives once
        both modes ran: the engine's tensor state plus the plan (for
        symk, the factors), and that price is fixed from REGISTER on."""
        session, retained = _retained(key, make, ("plan", "parallel"))
        try:
            assert abs(retained - session.nbytes()) <= 2**20
            assert session.nbytes() >= session.algo.tensor_nbytes() > 0
            if not session.representation.versioned:
                assert session.tensor is None
        finally:
            session.close()

    @RESIDENT_CASES
    def test_nbytes_never_builds(self, key, make):
        tensor = make(True)
        cold = EngineSession(key, tensor)
        warm = _warm(EngineSession(key, tensor), ("plan", "parallel"))
        try:
            assert cold.nbytes() == warm.nbytes()
            assert cold.snapshot()["plan_strategy"] == warm.plan.strategy
            assert cold.plan is None and not cold.loaded
        finally:
            cold.close()
            warm.close()


@pytest.fixture
def builds(monkeypatch):
    """Counts of block gathers (a dense load) and plan compilations."""
    counts = {"gather": 0, "compile": 0}
    gather = parallel_sttsv.gather_blocks
    init = SequentialPlan.__init__

    def counted_gather(*args, **kwargs):
        counts["gather"] += 1
        return gather(*args, **kwargs)

    def counted_init(self, *args, **kwargs):
        counts["compile"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(parallel_sttsv, "gather_blocks", counted_gather)
    monkeypatch.setattr(SequentialPlan, "__init__", counted_init)
    return counts


class TestLazyBuilds:
    def test_plan_only_session_never_gathers_blocks(self, builds, rng):
        session = _session(n=30)
        try:
            for _ in range(3):
                session.apply(rng.normal(size=30), mode="plan")
            session.apply_batch(rng.normal(size=(30, 2)), mode="plan")
            assert builds == {"gather": 0, "compile": 1}
            assert "tensor_blocks" not in session.machine[0].memory
            assert session.tensor is not None
        finally:
            session.close()

    def test_parallel_only_session_never_compiles_a_plan(self, builds, rng):
        session = _session(n=30)
        try:
            for _ in range(3):
                session.apply(rng.normal(size=30), mode="parallel")
            session.apply_batch(rng.normal(size=(30, 2)), mode="parallel")
            assert builds == {"gather": 1, "compile": 0}
            assert session.plan is None
            assert session.tensor is not None
        finally:
            session.close()

    @pytest.mark.parametrize(
        "key,make,strategy,match",
        [
            (SessionKey("T", 2, 10, "simulated"),
             lambda: random_symmetric(20, seed=0), "nope", "strategy"),
            (SessionKey("T", 2, 10, "simulated"),
             lambda: random_symmetric(20, seed=0), "blocked-gemm",
             "strategy"),
            (SessionKey("T", 2, 10, "simulated", kind="symk"),
             lambda: random_symk(20, 3, seed=0), "gemm", "symk"),
            (SessionKey("T", 2, 31, "simulated"),
             lambda: random_symmetric(20, seed=0), "auto", "P=10"),
            (SessionKey("T", 3, boolean_block_count(3), "simulated", order=4),
             lambda: random_symmetric(16, seed=0), "auto", "order-3"),
        ],
        ids=["unknown", "blocked-gemm", "symk-gemm", "wrong-P",
             "wrong-order"],
    )
    def test_rejected_session_built_nothing(
        self, builds, key, make, strategy, match
    ):
        before = plan_cache_info()
        with pytest.raises(ConfigurationError, match=match):
            EngineSession(key, make(), strategy=strategy)
        assert builds == {"gather": 0, "compile": 0}
        assert plan_cache_info() == before

    def test_rejected_registration_built_nothing(self, builds):
        """Each REGISTER the server refuses fails with its typed error
        before a session, blocks or a plan exist."""
        dense = random_symmetric(20, seed=0)
        with STTSVServer() as server, ServiceClient(*server.address) as client:
            before = plan_cache_info()
            attempts = [
                lambda: client.register("a", dense, q=2, strategy="nope"),
                lambda: client.register(
                    "b", dense, q=2, strategy="blocked-gemm"
                ),
                lambda: client.register_symk(
                    "c", random_symk(20, 3, seed=0), strategy="gemm"
                ),
                lambda: client._register(  # body one entry short
                    dense.data[:-1], tensor_id="d", n=20, q=2
                ),
                lambda: client._register(  # an order-3 body at order 4
                    dense.data, tensor_id="e", n=20, q=3, order=4
                ),
                lambda: client.register_symk(  # P must be positive
                    "f", random_symk(20, 3, seed=0), P=0
                ),
            ]
            for attempt in attempts:
                with pytest.raises(ServiceError) as err:
                    attempt()
                assert err.value.code == ErrorCode.BAD_REQUEST
            assert len(server.pool) == 0
            assert builds == {"gather": 0, "compile": 0}
            assert plan_cache_info() == before

    def test_racing_modes_build_each_structure_once(self, builds):
        """Plan and parallel requests from two threads race on a fresh
        session through the batcher: each structure is built once, and
        every result is bitwise a session warmed one request at a time."""
        n, count = 30, 6
        xs = np.random.default_rng(5).standard_normal((count, n))
        key = SessionKey("T", 2, 10, "simulated")
        session = EngineSession(key, random_symmetric(n, seed=0))
        batcher = DynamicBatcher(max_batch=1)
        results = {"plan": [], "parallel": []}
        start = threading.Barrier(2)

        def client(mode):
            start.wait()
            for x in xs:
                future = batcher.submit(key, mode, session, x)
                results[mode].append(future.result(timeout=30))

        try:
            threads = [
                threading.Thread(target=client, args=(mode,))
                for mode in results
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert builds == {"gather": 1, "compile": 1}
            assert session.tensor is None
        finally:
            batcher.close()
            session.close()
        reference = EngineSession(key, random_symmetric(n, seed=0))
        try:
            for x, y in zip(xs, results["plan"]):
                expected = reference.apply_batch(x[:, None], mode="plan")
                assert y.tobytes() == expected[:, 0].tobytes()
            for x, y in zip(xs, results["parallel"]):
                expected = reference.apply(x, mode="parallel")
                assert y.tobytes() == expected.tobytes()
        finally:
            reference.close()

    @pytest.mark.parametrize("variant", ["point-to-point", "all-to-all"])
    def test_symk_updates_before_first_load(self, variant, monkeypatch):
        """k UPDATEs land before the first parallel apply loads the
        factors; that apply and its ledger are bitwise those of a
        session loaded at once that took the same updates."""
        rng = np.random.default_rng(9)
        n, k = 40, 3
        weights, vectors = rng.standard_normal(k), rng.standard_normal((k, n))
        x = rng.standard_normal(n)
        key = SessionKey("S", 2, 10, "simulated", kind="symk")
        lazy = EngineSession(key, random_symk(n, 4, seed=1), variant=variant)
        eager = EngineSession(key, random_symk(n, 4, seed=1), variant=variant)
        ledgers = {}

        def recorder(name, session):
            absorb = session.metrics.absorb_ledger

            def record(ledger):
                ledgers[name] = (
                    ledger.per_processor_summary(),
                    ledger.round_count(),
                    ledger.fusion_summary(),
                )
                absorb(ledger)

            monkeypatch.setattr(session.metrics, "absorb_ledger", record)

        try:
            eager.apply(x, mode="parallel")
            assert eager.loaded
            for weight, vector in zip(weights, vectors):
                lazy.update_rank1(weight, vector)
                eager.update_rank1(weight, vector)
            assert not lazy.loaded and lazy.nbytes() == eager.nbytes()
            recorder("lazy", lazy)
            recorder("eager", eager)
            y = lazy.apply(x, mode="parallel")
            assert y.tobytes() == eager.apply(x, mode="parallel").tobytes()
            assert ledgers["lazy"] == ledgers["eager"]
            assert lazy.algo.r == 4 + k
        finally:
            lazy.close()
            eager.close()


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
