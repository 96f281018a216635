"""Warm engine sessions: resident tensors with compiled state.

A *session* is everything the serving layer keeps hot for one
registered tensor on one machine configuration, keyed by
``SessionKey(tensor_id, q, P, backend, order, kind)``, as built by the
key's representation (:mod:`repro.service.representations`):

* the compiled plan (e.g. a :class:`~repro.core.plans.SequentialPlan`
  from the bounded module cache) — the fast batched executor behind
  ``mode="plan"`` requests;
* a live :class:`~repro.machine.machine.Machine` on the requested
  transport with the tensor's blocks (or factors) already resident in
  processor memories (loaded once at registration), so a
  ``mode="parallel"`` request pays only shard distribution + the
  parallel run + gather — never block extraction;
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

from repro.core.parallel_sttsv import CommBackend
from repro.core.plans import LRUByteCache
from repro.errors import ConfigurationError
from repro.machine.machine import Machine
from repro.machine.transport import FaultPolicy, make_transport
from repro.obs.tracing import get_tracer
from repro.service.metrics import SessionMetrics
from repro.service.representations import Representation, representation_for

#: Execution modes an apply request can ask for.
MODES = ("plan", "parallel")

#: Default cap on warm sessions kept by the pool.
DEFAULT_MAX_SESSIONS = 8


class SessionKey(NamedTuple):
    """Identity of one warm engine: tensor × machine configuration.

    ``kind`` and ``order`` select the tensor's representation
    (:func:`~repro.service.representations.representation_for`); they
    default to the paper's dense order 3, so order-3 call sites and
    their stats labels are unchanged. For order 4 the ``q`` field holds
    the SQS parameter ``k`` of ``S(2^k, 4, 3)`` — the family knob,
    exactly as ``q`` is the spherical knob at order 3.
    """

    tensor_id: str
    q: int
    P: int
    backend: str
    order: int = 3
    kind: str = "dense"

    @property
    def representation(self) -> Representation:
        return representation_for(self.kind, self.order)

    def label(self) -> str:
        """Stable string form used as the stats-snapshot key."""
        suffix = self.representation.label_suffix(self.order)
        return (
            f"{self.tensor_id}@q={self.q},P={self.P},{self.backend}{suffix}"
        )


class EngineSession:
    """One resident tensor with its compiled plan and warm machine.

    The key's representation builds the engine, loads the tensor and
    compiles the plan. ``execute`` / ``apply_batch`` are *not*
    re-entrant (the simulated machine and the plan's reusable buffers
    are single-stream); :attr:`exec_lock` serializes them. The
    micro-batcher owns the lock for batched work; direct callers must
    take it too.
    """

    def __init__(
        self,
        key: SessionKey,
        tensor,
        strategy: str = "auto",
        faults: Optional[FaultPolicy] = None,
        fusion: bool = True,
        variant: str = "point-to-point",
    ):
        self.representation = key.representation
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
        try:
            self.algo = self.representation.engine(
                key, tensor, self.variant, self.machine
            )
            self.plan = self.representation.plan(tensor, strategy)
        except BaseException:
            self.machine.close()
            raise
        self.metrics = SessionMetrics()
        self.update_epoch = 0
        self.exec_lock = threading.Lock()
        self._closed = False
        if self.representation.versioned:
            self._init_symk()

    def _init_symk(self) -> None:
        """Constructor hook of versioned sessions; sets nothing. The
        traced pass of ``servebench/harness/layers.py`` wraps it by name
        to time waits on these sessions' :attr:`exec_lock`."""

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
        if not self.representation.versioned:
            raise ConfigurationError(
                f"only versioned sessions accept rank-1 updates, this"
                f" session is {self.representation.name}"
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
        """Resident bytes the pool budgets for: stored tensor data plus
        compiled plan state (machine buffers are proportional)."""
        return self.representation.nbytes(self.tensor) + self.plan.nbytes()

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
            "rank": self.representation.rank(self.tensor),
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
