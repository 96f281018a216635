"""Warm engine sessions: resident tensors with compiled state.

A *session* is everything the serving layer keeps hot for one
registered tensor on one machine configuration, keyed by
``SessionKey(tensor_id, q, P, backend)``:

* the :class:`~repro.core.plans.SequentialPlan` (compiled through the
  bounded module cache in :mod:`repro.core.plans`) — the fast batched
  executor behind ``mode="plan"`` requests;
* a live :class:`~repro.machine.machine.Machine` on the requested
  transport with the padded tensor blocks already resident in
  processor memories (``ParallelSTTSV.load_tensor`` runs once at
  registration), so a ``mode="parallel"`` request pays only shard
  distribution + Algorithm 5 + gather — never block extraction;
* per-session :class:`~repro.service.metrics.SessionMetrics`.

:class:`SessionPool` bounds the warm set with the same
:class:`~repro.core.plans.LRUByteCache` policy the plan cache uses —
LRU order refreshed on every lookup, capped by session count and by
resident bytes — and *closes* evicted sessions (machine transports own
real resources: shared-memory segments, worker processes).
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, NamedTuple, Optional

import numpy as np

from repro.core.parallel_sttsv import CommBackend, ParallelSTTSV
from repro.core.partition import TetrahedralPartition
from repro.core.plans import LRUByteCache, SequentialPlan, sequential_plan
from repro.errors import ConfigurationError
from repro.machine.machine import Machine
from repro.machine.transport import FaultPolicy, make_transport
from repro.obs.tracing import get_tracer
from repro.service.metrics import SessionMetrics
from repro.steiner import spherical_steiner_system
from repro.tensor.packed import PackedSymmetricTensor

#: Execution modes an apply request can ask for.
MODES = ("plan", "parallel")

#: Default cap on warm sessions kept by the pool.
DEFAULT_MAX_SESSIONS = 8


class SessionKey(NamedTuple):
    """Identity of one warm engine: tensor × machine configuration.

    ``order`` defaults to 3 so existing order-3 call sites (and their
    stats labels) are unchanged; order-m sessions carry it explicitly.
    For order 4 the ``q`` field holds the SQS parameter ``k`` of
    ``S(2^k, 4, 3)`` — the family knob, exactly as ``q`` is the
    spherical knob at order 3.
    """

    tensor_id: str
    q: int
    P: int
    backend: str
    order: int = 3
    kind: str = "dense"

    def label(self) -> str:
        """Stable string form used as the stats-snapshot key."""
        suffix = f",order={self.order}" if self.order != 3 else ""
        if self.kind != "dense":
            suffix += f",{self.kind}"
        return (
            f"{self.tensor_id}@q={self.q},P={self.P},{self.backend}{suffix}"
        )


class EngineSession:
    """One resident tensor with its compiled plan and warm machine.

    ``execute`` / ``apply_batch`` are *not* re-entrant (the simulated
    machine and the plan's reusable buffers are single-stream);
    :attr:`exec_lock` serializes them. The micro-batcher owns the lock
    for batched work; direct callers must take it too.
    """

    def __init__(
        self,
        key: SessionKey,
        tensor: PackedSymmetricTensor,
        strategy: str = "auto",
        faults: Optional[FaultPolicy] = None,
        fusion: bool = True,
        variant: str = "point-to-point",
    ):
        if key.kind == "symk":
            self._init_symk(key, tensor, strategy, faults, fusion, variant)
            return
        if key.order == 3:
            partition = TetrahedralPartition(spherical_steiner_system(key.q))
            partition.validate()
        elif key.order == 4:
            from repro.core.partition_ndim import QuadruplePartition
            from repro.steiner.boolean import boolean_steiner_system

            partition = QuadruplePartition(boolean_steiner_system(key.q))
            partition.validate()
        else:
            raise ConfigurationError(
                f"sessions support order 3 and 4, got {key.order}"
            )
        if partition.P != key.P:
            raise ConfigurationError(
                f"q={key.q} builds P={partition.P} processors, key says"
                f" {key.P}"
            )
        self.key = key
        self.tensor = tensor
        self.n = tensor.n
        self.faults = faults
        self.fusion = fusion
        self.variant = CommBackend(variant)
        self.machine = Machine(
            partition.P,
            transport=make_transport(key.backend, partition.P, faults=faults),
            fusion=fusion,
        )
        if key.order == 4 and strategy not in ("auto", "blocked-gemm"):
            raise ConfigurationError(
                f"order-4 sessions support only the 'blocked-gemm'"
                f" plan strategy, got {strategy!r}"
            )
        self.algo = ParallelSTTSV(partition, tensor.n, backend=self.variant)
        self.algo.load_tensor(self.machine, tensor)
        if key.order == 3:
            self.plan: SequentialPlan = sequential_plan(
                tensor, strategy=strategy
            )
        else:
            from repro.core.plans import BlockedPlan

            self.plan = BlockedPlan(tensor)
        self.metrics = SessionMetrics()
        self.update_epoch = 0
        self.exec_lock = threading.Lock()
        self._closed = False

    def _init_symk(
        self,
        key: SessionKey,
        tensor,
        strategy: str,
        faults: Optional[FaultPolicy],
        fusion: bool,
        variant: str,
    ) -> None:
        """Low-rank session: resident factors, O(nr) plan, and a warm
        :class:`~repro.core.parallel_symk.ParallelSymKTTSV` machine.

        ``key.order`` is the tensor order ``m`` (any ``m >= 2`` — no
        Steiner structure is involved) and ``key.P`` is a free knob.
        """
        from repro.core.parallel_symk import ParallelSymKTTSV
        from repro.tensor.symk import SymKPlan, SymKTensor

        if not isinstance(tensor, SymKTensor):
            raise ConfigurationError(
                f"kind='symk' sessions need a SymKTensor, got"
                f" {type(tensor).__name__}"
            )
        if strategy not in ("auto", "symk"):
            raise ConfigurationError(
                f"symk sessions support only the 'symk' plan strategy,"
                f" got {strategy!r}"
            )
        if key.order != tensor.m:
            raise ConfigurationError(
                f"key says order {key.order}, tensor is order {tensor.m}"
            )
        self.key = key
        self.tensor = tensor
        self.n = tensor.n
        self.faults = faults
        self.fusion = fusion
        self.variant = CommBackend(variant)
        self.machine = Machine(
            key.P,
            transport=make_transport(key.backend, key.P, faults=faults),
            fusion=fusion,
        )
        self.algo = ParallelSymKTTSV(
            key.P, tensor.n, order=tensor.m, backend=self.variant
        )
        self.algo.load_factors(self.machine, tensor)
        self.plan = SymKPlan(tensor)
        self.metrics = SessionMetrics()
        self.update_epoch = 0
        self.exec_lock = threading.Lock()
        self._closed = False

    # -- execution -------------------------------------------------------------

    def apply(self, x: np.ndarray, mode: str = "plan") -> np.ndarray:
        """Serve one vector (single-request path; caller holds
        :attr:`exec_lock`)."""
        if mode == "plan":
            return self.plan.apply(x)
        if mode == "parallel":
            return self._parallel_apply(x)
        raise ConfigurationError(
            f"mode must be one of {MODES}, got {mode!r}"
        )

    def apply_batch(self, X: np.ndarray, mode: str = "plan") -> np.ndarray:
        """Serve an ``n × s`` batch (caller holds :attr:`exec_lock`).

        ``mode="parallel"`` loops Algorithm 5 column by column on the
        warm machine, so every column is bitwise identical to an
        unbatched request — coalescing never changes a result. The
        plan path inherits its strategy's guarantee (``bincount``
        batches bitwise-equal a column loop; ``gemm`` agrees to the
        last ulp — see :mod:`repro.core.plans`).
        """
        if mode == "plan":
            return self.plan.apply_batch(X)
        if mode == "parallel":
            X = np.asarray(X, dtype=np.float64)
            if X.ndim != 2 or X.shape[0] != self.n:
                raise ConfigurationError(
                    f"batch must have shape ({self.n}, s), got {X.shape}"
                )
            return np.column_stack(
                [self._parallel_apply(X[:, col]) for col in range(X.shape[1])]
            )
        raise ConfigurationError(
            f"mode must be one of {MODES}, got {mode!r}"
        )

    def update_rank1(self, weight: float, vector: np.ndarray) -> int:
        """Fold one streamed rank-1 term into the resident factors
        (caller holds :attr:`exec_lock`) and advance the update epoch.

        Both the serial plan's tensor and the warm machine's
        distributed blocks are extended, so the very next apply — on
        either path — reflects the update, bitwise identical to a
        rebuild from scratch. Returns the new epoch.
        """
        if self.key.kind != "symk":
            raise ConfigurationError(
                f"only kind='symk' sessions accept rank-1 updates,"
                f" this session is {self.key.kind!r}"
            )
        self.tensor.rank1_update(weight, vector)
        self.algo.rank1_update(weight, vector)
        self.update_epoch += 1
        self.metrics.incr("updates")
        return self.update_epoch

    def _parallel_apply(self, x: np.ndarray) -> np.ndarray:
        self.algo.load_vector(self.machine, x)
        self.algo.run(self.machine)
        y = self.algo.gather_result(self.machine)
        # Fold the run's communication counters into the metrics and
        # reset, so the ledger's per-round records stay bounded over a
        # long-lived session.
        self.metrics.absorb_ledger(self.machine.reset_ledger())
        return y

    # -- accounting ------------------------------------------------------------

    def nbytes(self) -> int:
        """Resident bytes the pool budgets for: packed tensor data (or
        low-rank factors) plus compiled plan state (machine buffers are
        proportional)."""
        if self.key.kind == "symk":
            return int(self.tensor.nbytes) + self.plan.nbytes()
        return int(self.tensor.data.nbytes) + self.plan.nbytes()

    def snapshot(self) -> Dict:
        """Stats-endpoint view: serving counters + machine-layer
        instrumentation, retry, fault, and failover state."""
        transport = self.machine.transport
        stats = getattr(transport, "stats", None)
        return {
            "n": self.n,
            "q": self.key.q,
            "P": self.key.P,
            "order": self.key.order,
            "kind": self.key.kind,
            "rank": (
                self.tensor.r if self.key.kind == "symk" else None
            ),
            "update_epoch": self.update_epoch,
            "backend": self.key.backend,
            "variant": self.variant.value,
            "plan_strategy": self.plan.strategy,
            "fusion": self.fusion,
            "session_bytes": self.nbytes(),
            **self.metrics.snapshot(),
            "phases": self.machine.instrument.as_dict(),
            "warnings": list(self.machine.instrument.warnings),
            "failed_over": self.machine.failed_over,
            "faults_injected": (
                stats.as_dict() if hasattr(stats, "as_dict") else None
            ),
        }

    def close(self) -> None:
        """Release the machine's transport (idempotent); waits for any
        in-flight execution so workers are never yanked mid-round."""
        with self.exec_lock:
            if not self._closed:
                self._closed = True
                self.machine.close()

    @property
    def closed(self) -> bool:
        return self._closed


class SessionPool:
    """LRU pool of warm sessions with count and byte bounds.

    Reuses :class:`~repro.core.plans.LRUByteCache` — the same policy
    that bounds the compiled-plan cache — with eviction closing the
    session (and notifying ``on_evict`` so the server can tear down the
    session's batch lane first).
    """

    def __init__(
        self,
        max_sessions: int = DEFAULT_MAX_SESSIONS,
        byte_budget: Optional[int] = None,
        on_evict: Optional[Callable[[SessionKey, EngineSession], None]] = None,
    ):
        self._on_evict_extra = on_evict
        self._cache = LRUByteCache(
            maxsize=max_sessions,
            byte_budget=byte_budget,
            on_evict=self._evict,
        )
        self._lock = threading.Lock()

    def _evict(self, key: SessionKey, session: EngineSession) -> None:
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                f"evict:{key.label()}",
                kind="eviction",
                attrs={
                    "session": key.label(),
                    "session_bytes": session.nbytes(),
                },
            )
        if self._on_evict_extra is not None:
            self._on_evict_extra(key, session)
        session.close()

    def get(self, key: SessionKey) -> Optional[EngineSession]:
        """Warm lookup (refreshes LRU recency)."""
        return self._cache.get(key)

    def put(self, key: SessionKey, session: EngineSession) -> None:
        """Admit a session; a same-key predecessor is closed, and cold
        sessions are evicted until the bounds hold."""
        with self._lock:
            old = self._cache.discard(key)
            if old is not None:
                self._evict(key, old)
            self._cache.put(key, session, session.nbytes())

    def keys(self) -> List[SessionKey]:
        """Session keys from coldest to hottest."""
        return self._cache.keys()

    def info(self):
        """Pool occupancy/eviction counters (``CacheInfo``)."""
        return self._cache.info()

    def clear(self) -> None:
        """Close every session (server shutdown)."""
        self._cache.clear()

    def __len__(self) -> int:
        return len(self._cache)

    def __contains__(self, key: SessionKey) -> bool:
        return key in self._cache
