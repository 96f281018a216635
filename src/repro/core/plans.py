"""Compiled execution plans for repeated STTSV products.

Every iterative driver in the repo (HOPM, SS-HOPM deflation, the CP
gradient, MTTKRP) evaluates ``y = A ×₂ x ×₃ x`` in a tight loop, yet
much of each evaluation depends only on the tensor data and the
partition — not on ``x``. This module compiles that ``x``-independent
work once and reuses it:

* :class:`SequentialPlan` — bound to one
  :class:`~repro.tensor.packed.PackedSymmetricTensor`. Precomputes
  either a symmetry-reduced mode-1 unfolding (``gemm`` strategy: one
  BLAS matrix-vector / matrix-matrix product per STTSV) or the fused
  weight-times-data scatter arrays (``bincount`` strategy: the packed
  scatter kernel minus all per-call weight recomputation). Exposes
  ``apply(x)`` and the batched ``apply_batch(X)`` for ``X ∈ R^{n×s}``
  — one GEMM-shaped reduction instead of ``s`` independent passes.
* :class:`ExchangePlan` — compiled once per
  :class:`~repro.core.parallel_sttsv.ParallelSTTSV` from the
  partition's holder/consumer pair maps. Replaces the per-call dict
  lookups, ``sorted(common)`` passes, slicing, and ``np.concatenate``
  payload assembly of Algorithm 5's two exchange phases, and its
  vector scatter and gather, with precomputed flat index arrays over
  flat staging buffers: one gather stages a whole phase's payloads
  and one indexed assignment or ``np.add.at`` unpacks it.
  Communication accounting is unchanged: payload sizes, message
  counts, and round structure are identical to the direct
  implementation (asserted by tests).

Strategy semantics
------------------

``bincount`` reproduces :func:`~repro.core.sttsv_sequential.
sttsv_packed_bincount` bit for bit (same scatter order, with the
``w·a`` products hoisted to compile time), and its ``apply_batch``
columns are bitwise equal to a column-by-column ``apply`` loop.
``gemm`` evaluates the same exact sum in BLAS summation order —
results agree with the scatter kernels to machine-precision rounding
(``~1e-13`` relative) but are not bitwise identical, and individual
batch columns may differ from single-vector products in the last ulp
(BLAS kernels for GEMV and multi-column GEMM block differently).
``auto`` picks ``gemm`` when the operator fits the memory budget
(``n²(n+1)/2`` doubles; 32 MB at n = 200) and ``bincount`` otherwise.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.errors import ConfigurationError, PartitionError
from repro.tensor.packed import PackedSymmetricTensor

#: Largest gemm-strategy operator ``auto`` will materialize (bytes).
DEFAULT_GEMM_BUDGET_BYTES = 256 * 1024 * 1024

#: Default entry bound of the module-level compiled-plan cache.
DEFAULT_PLAN_CACHE_SIZE = 64

#: Default byte budget of the compiled-plan cache (1 GiB of operators).
DEFAULT_PLAN_CACHE_BYTES = 1024 * 1024 * 1024

_STRATEGIES = ("auto", "gemm", "bincount")


class CacheInfo(NamedTuple):
    """Snapshot of an :class:`LRUByteCache` (``cache_info()`` shape)."""

    hits: int
    misses: int
    currsize: int
    maxsize: Optional[int]
    nbytes: int
    byte_budget: Optional[int]
    evictions: int


class LRUByteCache:
    """Least-recently-used cache bounded by entry count *and* bytes.

    The eviction policy every long-lived cache in the repo shares (the
    compiled-plan cache here, the warm engine pool in
    :mod:`repro.service.sessions`): entries carry an explicit byte
    weight, lookups refresh recency, and inserts evict from the cold
    end until both ``maxsize`` and ``byte_budget`` hold again. A bound
    of ``None`` disables that dimension. The newest entry is never
    evicted on its own insert, so one oversized entry degrades the
    budget to best-effort rather than thrashing.

    ``on_evict(key, value)`` fires for every *capacity* eviction and
    for :meth:`clear` — the hook that lets owners release real
    resources (drop a tensor's plan attribute, close a session's
    machine). :meth:`discard` removes silently (for entries whose
    resources are already gone, e.g. a garbage-collected tensor).

    ``on_evict`` is always invoked **after** the cache lock has been
    released. Hooks routinely take their own locks (a session's
    ``exec_lock``, a server's lane registry), so firing them under the
    cache lock invites a classic ABBA deadlock: thread 1 holds the
    cache lock inside ``put`` and waits for the resource lock in the
    hook, while thread 2 holds that resource lock and waits for the
    cache lock in ``get``. Evicted entries are collected under the
    lock and the hooks run once it is dropped (regression-tested in
    ``tests/unit/test_plans_concurrency.py``).
    """

    def __init__(
        self,
        maxsize: Optional[int] = None,
        byte_budget: Optional[int] = None,
        on_evict: Optional[Callable[[Hashable, Any], None]] = None,
    ):
        if maxsize is not None and maxsize < 1:
            raise ConfigurationError(f"maxsize must be >= 1, got {maxsize}")
        if byte_budget is not None and byte_budget < 0:
            raise ConfigurationError(
                f"byte_budget must be >= 0, got {byte_budget}"
            )
        self.maxsize = maxsize
        self.byte_budget = byte_budget
        self._on_evict = on_evict
        self._entries: "OrderedDict[Hashable, Tuple[Any, int]]" = OrderedDict()
        self._nbytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._lock = threading.RLock()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable) -> Optional[Any]:
        """Return the cached value (refreshing recency) or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry[0]

    def note_miss(self) -> None:
        """Count a miss observed outside :meth:`get` — a caller that
        bypassed the lookup and went straight to rebuilding the value."""
        with self._lock:
            self._misses += 1

    def put(self, key: Hashable, value: Any, nbytes: int = 0) -> None:
        """Insert (or replace) ``key`` and evict until bounds hold."""
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._nbytes -= old[1]
            self._entries[key] = (value, nbytes)
            self._nbytes += nbytes
            evicted = self._shrink()
        self._fire_evictions(evicted)

    def keys(self) -> List[Hashable]:
        """Keys from coldest to hottest (a snapshot copy)."""
        with self._lock:
            return list(self._entries)

    def discard(self, key: Hashable) -> Optional[Any]:
        """Remove ``key`` without firing ``on_evict`` (owner-initiated)."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return None
            self._nbytes -= entry[1]
            return entry[0]

    def clear(self) -> None:
        """Evict every entry (``on_evict`` fires for each, lock-free)."""
        with self._lock:
            evicted = []
            while self._entries:
                evicted.append(self._evict_oldest())
        self._fire_evictions(evicted)

    def resize(
        self,
        maxsize: Optional[int],
        byte_budget: Optional[int],
    ) -> None:
        """Change the bounds and trim immediately."""
        with self._lock:
            if maxsize is not None and maxsize < 1:
                raise ConfigurationError(
                    f"maxsize must be >= 1, got {maxsize}"
                )
            if byte_budget is not None and byte_budget < 0:
                raise ConfigurationError(
                    f"byte_budget must be >= 0, got {byte_budget}"
                )
            self.maxsize = maxsize
            self.byte_budget = byte_budget
            evicted = self._shrink()
        self._fire_evictions(evicted)

    def info(self) -> CacheInfo:
        """Hit/size/byte counters (the ``functools`` ``cache_info`` idiom)."""
        with self._lock:
            return CacheInfo(
                hits=self._hits,
                misses=self._misses,
                currsize=len(self._entries),
                maxsize=self.maxsize,
                nbytes=self._nbytes,
                byte_budget=self.byte_budget,
                evictions=self._evictions,
            )

    def _evict_oldest(self) -> Tuple[Hashable, Any]:
        """Pop the coldest entry under the lock; the caller fires the
        ``on_evict`` hook after releasing it (see class docstring)."""
        key, (value, nbytes) = self._entries.popitem(last=False)
        self._nbytes -= nbytes
        self._evictions += 1
        return key, value

    def _shrink(self) -> List[Tuple[Hashable, Any]]:
        evicted: List[Tuple[Hashable, Any]] = []
        while len(self._entries) > 1 and (
            (self.maxsize is not None and len(self._entries) > self.maxsize)
            or (
                self.byte_budget is not None
                and self._nbytes > self.byte_budget
            )
        ):
            evicted.append(self._evict_oldest())
        return evicted

    def _fire_evictions(
        self, evicted: List[Tuple[Hashable, Any]]
    ) -> None:
        if self._on_evict is None:
            return
        for key, value in evicted:
            self._on_evict(key, value)


class SequentialPlan:
    """A compiled sequential/batched STTSV executor for one tensor.

    Parameters
    ----------
    tensor:
        The bound tensor. The plan snapshots nothing — it references
        ``tensor.data`` directly — but precomputed products bake the
        *current* values in, so the plan is only valid while the data
        is unmodified (see :func:`sequential_plan` for the cache that
        tracks this).
    strategy:
        ``"auto"`` (default), ``"gemm"``, or ``"bincount"``.
    gemm_budget_bytes:
        Memory ceiling for the ``auto`` strategy's gemm operator.

    Examples
    --------
    >>> from repro.tensor.dense import random_symmetric
    >>> tensor = random_symmetric(12, seed=0)
    >>> plan = SequentialPlan(tensor)
    >>> x = np.arange(12.0)
    >>> from repro.core.sttsv_sequential import sttsv_packed
    >>> bool(np.allclose(plan.apply(x), sttsv_packed(tensor, x)))
    True
    """

    def __init__(
        self,
        tensor: PackedSymmetricTensor,
        strategy: str = "auto",
        gemm_budget_bytes: int = DEFAULT_GEMM_BUDGET_BYTES,
    ):
        if strategy not in _STRATEGIES:
            raise ConfigurationError(
                f"strategy must be one of {_STRATEGIES}, got {strategy!r}"
            )
        self.n = tensor.n
        self._data = tensor.data
        self._mutations = getattr(tensor, "_mutations", 0)
        self.requested_strategy = strategy
        if strategy == "auto":
            strategy = (
                "gemm"
                if self._gemm_bytes(self.n) <= gemm_budget_bytes
                else "bincount"
            )
        self.strategy = strategy
        self._norm_sq: Optional[float] = None
        if strategy == "gemm":
            self._compile_gemm()
        else:
            self._compile_bincount()

    @staticmethod
    def _gemm_bytes(n: int) -> int:
        """Bytes of the symmetry-reduced unfolding for dimension ``n``."""
        return n * (n * (n + 1) // 2) * 8

    # -- compilation -----------------------------------------------------------

    def _compile_gemm(self) -> None:
        """Build the symmetry-reduced mode-1 unfolding ``B``.

        ``B[i, t] = a_{i,j_t,k_t} · (2 − [j_t = k_t])`` over canonical
        pairs ``j_t >= k_t``, so that ``y = B (x ⊙ x)|_pairs`` — a
        single ``n × n(n+1)/2`` GEMV per product, and a GEMM for a
        batch. ``n(n+1)/2 · n`` doubles ≈ half the dense cube.
        """
        n = self.n
        Jp, Kp = np.tril_indices(n)
        gi = np.arange(n)[:, None]
        # Canonicalize (i, j_t, k_t) descending; j_t >= k_t already.
        hi = np.maximum(gi, Jp)
        lo = np.minimum(gi, Kp)
        mid = gi + Jp + Kp
        mid -= hi
        mid += -lo
        offsets = hi * (hi + 1) * (hi + 2) // 6
        offsets += mid * (mid + 1) // 2
        offsets += lo
        B = self._data[offsets]
        B *= np.where(Jp == Kp, 1.0, 2.0)[None, :]
        self._pair_j = Jp
        self._pair_k = Kp
        self._operator = B

    def _compile_bincount(self) -> None:
        """Hoist the fused ``weight · a`` scatter arrays (Algorithm 4)."""
        from repro.core.sttsv_sequential import _scatter_plan

        I, J, K, w_i, w_j, w_k = _scatter_plan(self.n)
        self._idx = (I, J, K)
        self._wa = (w_i * self._data, w_j * self._data, w_k * self._data)

    # -- validation ------------------------------------------------------------

    def matches(self, tensor: PackedSymmetricTensor) -> bool:
        """True iff the plan was compiled against this tensor's current
        data (same array object, no element writes since)."""
        return self._data is tensor.data and self._mutations == getattr(
            tensor, "_mutations", 0
        )

    def _check_vector(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ConfigurationError(
                f"vector must have shape ({self.n},), got {x.shape}"
            )
        return x

    def _check_matrix(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] != self.n:
            raise ConfigurationError(
                f"batch must have shape ({self.n}, s), got {X.shape}"
            )
        return X

    # -- execution -------------------------------------------------------------

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``y = A ×₂ x ×₃ x`` through the compiled structures."""
        x = self._check_vector(x)
        if self.strategy == "gemm":
            return self._operator @ (x[self._pair_j] * x[self._pair_k])
        I, J, K = self._idx
        wa_i, wa_j, wa_k = self._wa
        n = self.n
        y = np.bincount(I, weights=wa_i * x[J] * x[K], minlength=n)
        y += np.bincount(J, weights=wa_j * x[I] * x[K], minlength=n)
        y += np.bincount(K, weights=wa_k * x[I] * x[J], minlength=n)
        return y

    def apply_batch(self, X: np.ndarray) -> np.ndarray:
        """``Y[:, ℓ] = A ×₂ X[:, ℓ] ×₃ X[:, ℓ]`` for all columns at once.

        The gemm strategy evaluates one multi-column GEMM — a single
        pass over the operator regardless of ``s`` — which is how a
        production multi-vector engine amortizes tensor traffic (cf.
        BCSS and Multi-TTM). The bincount strategy falls back to a
        column loop over :meth:`apply` (bitwise equal to it) since no
        memory-bounded batched scatter exists in pure NumPy.
        """
        X = self._check_matrix(X)
        if X.shape[1] == 0:
            return np.zeros((self.n, 0))
        if self.strategy == "gemm":
            Z = X[self._pair_j]
            Z *= X[self._pair_k]
            return self._operator @ Z
        return np.column_stack(
            [self.apply(X[:, col]) for col in range(X.shape[1])]
        )

    # -- derived quantities ----------------------------------------------------

    def frobenius_norm_sq(self) -> float:
        """``||A||²`` over the full cube, from packed storage.

        Each canonical entry counts with its permutation multiplicity,
        which equals ``w_i + w_j + w_k`` of the Algorithm-4 weights.
        """
        if self._norm_sq is None:
            from repro.core.sttsv_sequential import _scatter_plan

            I, J, K, w_i, w_j, w_k = _scatter_plan(self.n)
            self._norm_sq = float(
                np.sum((w_i + w_j + w_k) * self._data**2)
            )
        return self._norm_sq

    def nbytes(self) -> int:
        """Bytes of compiled plan state (excluding the tensor itself)."""
        if self.strategy == "gemm":
            return (
                self._operator.nbytes
                + self._pair_j.nbytes
                + self._pair_k.nbytes
            )
        return sum(a.nbytes for a in self._wa)

    def __repr__(self) -> str:
        return (
            f"SequentialPlan(n={self.n}, strategy={self.strategy!r},"
            f" nbytes={self.nbytes()})"
        )


def _drop_plan_attribute(key: Hashable, ref: "weakref.ref") -> None:
    """Capacity-eviction hook: detach the plan from its tensor."""
    tensor = ref()
    if tensor is not None:
        tensor._plan = None


#: Module-level registry bounding how many compiled plans stay live.
#: Values are weak references to the owning tensors (the cache never
#: keeps a tensor alive); the plan itself lives on ``tensor._plan`` so
#: identity semantics (`sequential_plan(t) is sequential_plan(t)`) are
#: unchanged — the registry only enforces the bound.
_PLAN_CACHE = LRUByteCache(
    maxsize=DEFAULT_PLAN_CACHE_SIZE,
    byte_budget=DEFAULT_PLAN_CACHE_BYTES,
    on_evict=_drop_plan_attribute,
)

_UNSET = object()


def _register_plan(tensor: PackedSymmetricTensor, plan: SequentialPlan) -> None:
    key = id(tensor)
    ref = weakref.ref(tensor, lambda _ref, key=key: _PLAN_CACHE.discard(key))
    _PLAN_CACHE.put(key, ref, plan.nbytes())


def sequential_plan(
    tensor: PackedSymmetricTensor,
    strategy: str = "auto",
    gemm_budget_bytes: int = DEFAULT_GEMM_BUDGET_BYTES,
) -> SequentialPlan:
    """Get (or compile and cache) the plan bound to ``tensor``.

    The plan is cached on the tensor object and invalidated when the
    data array is replaced or an element is written through
    ``tensor[i, j, k] = v``. Direct in-place mutation of
    ``tensor.data`` through NumPy bypasses the guard — call
    :func:`invalidate_plan` afterwards in that case.

    Cache occupancy is bounded: a module-level LRU registry (default
    :data:`DEFAULT_PLAN_CACHE_SIZE` plans / :data:`DEFAULT_PLAN_CACHE_BYTES`
    of compiled state) detaches the coldest plans when a long-lived
    process — the serving layer in particular — touches many tensors.
    Inspect with :func:`cache_info`, drop everything with
    :func:`cache_clear`, retune with :func:`configure_cache`.
    """
    cached: Optional[SequentialPlan] = getattr(tensor, "_plan", None)
    if (
        cached is not None
        and cached.matches(tensor)
        and cached.requested_strategy == strategy
    ):
        if _PLAN_CACHE.get(id(tensor)) is None:
            # Plan attached outside the registry (manual assignment or a
            # cleared cache racing a live reference) — re-admit it.
            _register_plan(tensor, cached)
        return cached
    _PLAN_CACHE.note_miss()
    plan = SequentialPlan(
        tensor, strategy=strategy, gemm_budget_bytes=gemm_budget_bytes
    )
    tensor._plan = plan
    _register_plan(tensor, plan)
    return plan


def invalidate_plan(tensor: PackedSymmetricTensor) -> None:
    """Drop any cached plan (after direct ``tensor.data`` mutation)."""
    tensor._plan = None
    _PLAN_CACHE.discard(id(tensor))


def cache_info() -> CacheInfo:
    """Counters of the module-level plan cache."""
    return _PLAN_CACHE.info()


def cache_clear() -> None:
    """Evict every registered plan (tensors lose their ``_plan``)."""
    _PLAN_CACHE.clear()


def configure_cache(
    maxsize: Any = _UNSET,
    byte_budget: Any = _UNSET,
) -> None:
    """Rebound the plan cache (``None`` disables a dimension); trims
    immediately so a long-lived server can shrink under pressure."""
    _PLAN_CACHE.resize(
        _PLAN_CACHE.maxsize if maxsize is _UNSET else maxsize,
        _PLAN_CACHE.byte_budget if byte_budget is _UNSET else byte_budget,
    )


class BlockedPlan:
    """Compiled order-m blocked-gemm STTSV executor over BCSS storage.

    The order-m sibling of :class:`SequentialPlan`'s gemm strategy: for
    every stored BCSS block and every *distinct* row block ``t`` of its
    canonical tuple, compilation bakes the multiplicity weight into a
    contiguous mode-``t`` unfolding matrix ``(b, b^{m-1})``; each apply
    is then one GEMV per (block, output) pair against the Kronecker
    product of the other modes' ``x`` row blocks — and
    :meth:`apply_batch` turns those GEMVs into GEMMs via the
    column-wise Khatri–Rao product, amortizing tensor traffic exactly
    like the order-3 batched path.

    Accepts an :class:`~repro.tensor.ndpacked.NdPackedSymmetricTensor`
    (padded to a block multiple internally; zero padding is exact) or a
    prebuilt :class:`~repro.tensor.bcss.BCSSTensor`.
    """

    def __init__(self, tensor, block_size: int = None):
        from repro.core.bcss_kernels import kron_vector  # noqa: F401 (API anchor)
        from repro.tensor.bcss import BCSSTensor
        from repro.tensor.multiplicity import nd_contribution_weights
        from repro.tensor.ndpacked import NdPackedSymmetricTensor, pad_ndpacked

        if isinstance(tensor, BCSSTensor):
            bcss = tensor
            self.n = bcss.n
        elif isinstance(tensor, NdPackedSymmetricTensor):
            self.n = tensor.n
            if block_size is None:
                block_size = max(1, min(tensor.n, 16))
            n_padded = -(-tensor.n // block_size) * block_size
            bcss = BCSSTensor.from_ndpacked(
                pad_ndpacked(tensor, n_padded), block_size
            )
        else:
            raise ConfigurationError(
                f"BlockedPlan needs an NdPackedSymmetricTensor or"
                f" BCSSTensor, got {type(tensor).__name__}"
            )
        self.bcss = bcss
        self.m = bcss.m
        self.n_padded = bcss.n
        self.block_size = bcss.block_size
        self.requested_strategy = "blocked-gemm"
        self.strategy = "blocked-gemm"
        # One (output row block, other-mode row blocks, weighted unfold)
        # triple per (stored block, distinct tuple value).
        self._unfolds = []
        b = self.block_size
        for offset in range(bcss.num_blocks):
            block_tuple = tuple(int(v) for v in bcss.block_indices[offset])
            weights = nd_contribution_weights(block_tuple)
            block = bcss.blocks[offset]
            seen = set()
            for position, value in enumerate(block_tuple):
                if value in seen:
                    continue
                seen.add(value)
                others = tuple(
                    block_tuple[mode]
                    for mode in range(self.m)
                    if mode != position
                )
                # The multiply must allocate: at position 0 the reshape
                # is a *view* of the stored block, and scaling it in
                # place would corrupt the block for later unfolds.
                operator = np.ascontiguousarray(
                    np.moveaxis(block, position, 0).reshape(b, -1)
                    * float(weights[value])
                )
                self._unfolds.append((value, others, operator))

    def _pad_columns(self, X: np.ndarray) -> np.ndarray:
        if self.n_padded == self.n:
            return X
        padded = np.zeros((self.n_padded,) + X.shape[1:])
        padded[: self.n] = X
        return padded

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``y = A ×₂ x ··· ×ₘ x`` through the compiled unfoldings."""
        from repro.core.bcss_kernels import kron_vector

        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ConfigurationError(
                f"vector must have shape ({self.n},), got {x.shape}"
            )
        x = self._pad_columns(x)
        b = self.block_size
        x_blocks = [
            x[i * b : (i + 1) * b] for i in range(self.bcss.nbar)
        ]
        y = np.zeros(self.n_padded)
        for target, others, operator in self._unfolds:
            v = kron_vector([x_blocks[i] for i in others])
            y[target * b : (target + 1) * b] += operator @ v
        return y[: self.n]

    def apply_batch(self, X: np.ndarray) -> np.ndarray:
        """Batched STTSV: one GEMM per (block, output) pair."""
        from repro.core.bcss_kernels import khatri_rao_columns

        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] != self.n:
            raise ConfigurationError(
                f"batch must have shape ({self.n}, s), got {X.shape}"
            )
        if X.shape[1] == 0:
            return np.zeros((self.n, 0))
        X = self._pad_columns(X)
        b = self.block_size
        X_blocks = [
            X[i * b : (i + 1) * b] for i in range(self.bcss.nbar)
        ]
        Y = np.zeros((self.n_padded, X.shape[1]))
        for target, others, operator in self._unfolds:
            V = khatri_rao_columns([X_blocks[i] for i in others])
            Y[target * b : (target + 1) * b] += operator @ V
        return Y[: self.n]

    def nbytes(self) -> int:
        """Bytes of compiled plan state (the weighted unfoldings)."""
        return sum(operator.nbytes for _, _, operator in self._unfolds)

    def __repr__(self) -> str:
        return (
            f"BlockedPlan(n={self.n}, m={self.m}, b={self.block_size},"
            f" unfolds={len(self._unfolds)}, nbytes={self.nbytes()})"
        )


class ExchangePlan:
    """Compiled gather/scatter structure for Algorithm 5's exchanges.

    The pair maps come from the partition alone: :attr:`x_pairs` sends
    each holder's (``Q_i``) shard of row block ``i`` to every other
    consumer of ``i``; :attr:`y_pairs` is the reverse, each consumer
    returning the slice of its partial ``ŷ[i]`` covering the holder's
    shard. Both map an ordered pair to the sorted row blocks its
    message carries (at order 3 both equal the §7.2.2 ``shared`` sets).
    For each pair the plan precomputes flat index arrays into
    per-processor staging buffers (:attr:`x_gather` / :attr:`x_scatter`
    and the y equivalents); :meth:`phase_maps` concatenates them over a
    whole phase, so a phase stages every payload with one ``np.take``
    and unpacks every delivery with one indexed assignment (x) or one
    in-order ``np.add.at`` (y).

    Buffer layout. *Shard layout* concatenates, over processors ``p``
    and then ``held[p] = sorted(R_p)``, each owned shard; it is the
    layout of :attr:`xs` (staged x shards), of the shards
    :meth:`split_shards` hands out, and of :attr:`load_index` (the
    padded-vector position of every shard word, checked at build time
    to cover each position exactly once). *Full layout* concatenates,
    over ``p`` and then ``order[p] = sorted(need_p)``, full row blocks;
    it is the layout of :attr:`xf` (assembled x blocks) and :attr:`yp`
    (staged partial y). :attr:`xs` and :attr:`yp` carry one trailing
    zero word, the source of the All-to-All's zero padding. Every
    :attr:`xf` slot is overwritten each run: the own shard plus one
    shard from every other holder of each row block.

    The plan is purely an execution detail: payload contents, sizes,
    message counts, and round structure are identical to the direct
    dict-walking implementation, so the communication ledger is
    unchanged (tested).
    """

    def __init__(self, partition, b: int):
        from repro.core import distribution as dist

        self.partition = partition
        self.b = b
        self.shard = partition.shard_size(b)
        P = partition.P
        shard = self.shard
        self.held: List[List[int]] = [sorted(partition.R[p]) for p in range(P)]
        self.order: List[List[int]] = [
            sorted(partition.need[p]) for p in range(P)
        ]
        held_at = [{i: t for t, i in enumerate(rows)} for rows in self.held]
        full_at = [{i: t for t, i in enumerate(rows)} for rows in self.order]
        self.shard_offset = np.cumsum(
            [0] + [len(rows) * shard for rows in self.held]
        )
        self.full_offset = np.cumsum([0] + [len(rows) * b for rows in self.order])

        pairs: Dict[Tuple[int, int], List[int]] = {}
        for i in range(partition.m):
            for src in partition.Q[i]:
                for dst in partition.consumers[i]:
                    if dst != src:
                        pairs.setdefault((src, dst), []).append(i)
        self.x_pairs: Dict[Tuple[int, int], List[int]] = pairs
        self.y_pairs: Dict[Tuple[int, int], List[int]] = {
            (dst, src): blocks for (src, dst), blocks in pairs.items()
        }

        # For every shard-layout word: its position in the full layout
        # (each processor's own shards inside its full blocks — seeds
        # x-full, extracts y-shards) and in the padded vector.
        own, load = [], []
        for p in range(P):
            for i in self.held[p]:
                lo, hi = dist.shard_bounds(partition, i, p, b)
                base = self.full_offset[p] + full_at[p][i] * b
                own.append(np.arange(base + lo, base + hi))
                load.append(np.arange(i * b + lo, i * b + hi))
        self.own_full = np.concatenate(own)
        self.load_index = np.concatenate(load)
        if not np.array_equal(
            np.bincount(self.load_index, minlength=partition.m * b),
            np.ones(partition.m * b, dtype=np.int64),
        ):
            raise PartitionError(
                "shards do not cover every vector position exactly once"
            )

        # Per-pair index arrays. x phase: the holder ships its own
        # shard of block i; the consumer places it at the holder's
        # slot inside its full block i. The y phase reverses both: the
        # consumer ships that slot of its partial block i, and the
        # holder accumulates it into its shard.
        self.x_gather: Dict[Tuple[int, int], np.ndarray] = {}
        self.x_scatter: Dict[Tuple[int, int], np.ndarray] = {}
        self.y_gather: Dict[Tuple[int, int], np.ndarray] = {}
        self.y_scatter: Dict[Tuple[int, int], np.ndarray] = {}
        for (holder, consumer), blocks in pairs.items():
            shard_slots, full_slots = [], []
            for i in blocks:
                lo, hi = dist.shard_bounds(partition, i, holder, b)
                t_held = held_at[holder][i]
                t_full = full_at[consumer][i]
                shard_slots.append(
                    np.arange(t_held * shard, (t_held + 1) * shard)
                )
                full_slots.append(np.arange(t_full * b + lo, t_full * b + hi))
            gather = np.concatenate(shard_slots)
            scatter = np.concatenate(full_slots)
            self.x_gather[(holder, consumer)] = gather
            self.x_scatter[(holder, consumer)] = scatter
            self.y_gather[(consumer, holder)] = scatter
            self.y_scatter[(consumer, holder)] = gather

        self.xs = np.zeros(self.shard_offset[-1] + 1)
        self.xf = np.zeros(self.full_offset[-1])
        self.yp = np.zeros(self.full_offset[-1] + 1)
        self._xs = self._split(self.xs, self.shard_offset)
        self._yp = self._split(self.yp, self.full_offset)
        xf = self._split(self.xf, self.full_offset)
        #: Per-processor x-full row blocks: views into :attr:`xf`.
        self.x_full: List[Dict[int, np.ndarray]] = [
            {i: xf[p][t * b : (t + 1) * b] for t, i in enumerate(rows)}
            for p, rows in enumerate(self.order)
        ]

    @staticmethod
    def _split(flat: np.ndarray, offsets: np.ndarray) -> List[np.ndarray]:
        return [flat[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])]

    # -- vector distribution ------------------------------------------------------

    def split_shards(self, flat: np.ndarray) -> List[Dict[int, np.ndarray]]:
        """Per-processor shard dicts (``shards[p][i]``) as views into a
        shard-layout array."""
        shard = self.shard
        out = []
        for p, rows in enumerate(self.held):
            base = self.shard_offset[p]
            out.append(
                {
                    i: flat[base + t * shard : base + (t + 1) * shard]
                    for t, i in enumerate(rows)
                }
            )
        return out

    def assemble(self, shards: List[Dict[int, np.ndarray]]) -> np.ndarray:
        """The padded vector whose shards are ``shards[p][i]``: the
        inverse of ``split_shards(x[load_index])``. Every processor
        must hold exactly its row blocks' shards."""
        pieces = []
        for p, (rows, owned) in enumerate(zip(self.held, shards)):
            if len(owned) != len(rows) or any(i not in owned for i in rows):
                raise PartitionError(
                    f"missing shards: processor {p} holds row blocks"
                    f" {sorted(owned)}, expected {rows}"
                )
            pieces.extend(owned[i] for i in rows)
        flat = np.concatenate(pieces)
        if flat.shape != self.load_index.shape:
            raise PartitionError(
                f"shards hold {flat.size} words, expected {self.load_index.size}"
            )
        out = np.empty(self.partition.m * self.b)
        out[self.load_index] = flat
        return out

    # -- phase maps ---------------------------------------------------------------

    def phase_maps(
        self,
        phase: str,
        members: Sequence[Tuple[int, int]],
        width: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[int]]:
        """Flat index maps of one exchange phase (``"x"`` or ``"y"``).

        The phase's transfers carry the payloads of ``members`` —
        ordered ``(src, dst)`` pairs in delivery order — back to back
        in one send buffer, each ``width`` words if given (the
        All-to-All's uniform slot: zero padding after the payload, and
        only padding for a pair with nothing to send).

        Returns ``(gather, take, put, words)``: ``np.take(source,
        gather)`` fills the send buffer from the phase's source staging
        (:attr:`xs` or :attr:`yp`); ``take`` picks every payload word
        out of the delivered stream (the delivered payloads
        concatenated in member order) and ``put`` is that word's
        position in the destination (:attr:`xf`, or the shard-layout y
        shards); ``words`` is each member's length in the send buffer.
        """
        if phase == "x":
            gathers, scatters = self.x_gather, self.x_scatter
            src_offset, dst_offset = self.shard_offset, self.full_offset
            zero = self.xs.size - 1
        else:
            gathers, scatters = self.y_gather, self.y_scatter
            src_offset, dst_offset = self.full_offset, self.shard_offset
            zero = self.yp.size - 1
        empty = np.zeros(0, dtype=np.intp)
        gather, take, put = [empty], [empty], [empty]
        words: List[int] = []
        cursor = 0
        for src, dst in members:
            idx = gathers.get((src, dst))
            size = 0 if idx is None else idx.size
            words.append(size if width is None else width)
            if idx is not None:
                gather.append(src_offset[src] + idx)
                take.append(np.arange(cursor, cursor + size))
                put.append(dst_offset[dst] + scatters[(src, dst)])
            gather.append(np.full(words[-1] - size, zero))
            cursor += words[-1]
        gather, take, put = (
            np.concatenate(maps).astype(np.intp) for maps in (gather, take, put)
        )
        return gather, take, put, words

    # -- x phase ---------------------------------------------------------------

    def stage_x(self, p: int, shards: Dict[int, np.ndarray]) -> None:
        """Flatten processor ``p``'s own shard dict into its slice of
        :attr:`xs`."""
        np.concatenate([shards[i] for i in self.held[p]], out=self._xs[p])

    def x_payload(self, src: int, dst: int) -> Optional[np.ndarray]:
        """The x payload ``src`` sends ``dst`` (a new array), or
        ``None`` for a pair with nothing to send: one pair's slice of
        the phase gather."""
        idx = self.x_gather.get((src, dst))
        if idx is None:
            return None
        return np.take(self._xs[src], idx)

    def unpack_x(
        self, stream: np.ndarray, take: np.ndarray, put: np.ndarray
    ) -> List[Dict[int, np.ndarray]]:
        """Assemble every processor's full row blocks from its own
        shards plus the delivered stream (maps from :meth:`phase_maps`);
        returns :attr:`x_full`."""
        self.xf[self.own_full] = self.xs[:-1]
        self.xf[put] = stream[take]
        return self.x_full

    # -- y phase ---------------------------------------------------------------

    def stage_y(self, p: int, partial: Dict[int, np.ndarray]) -> None:
        """Flatten processor ``p``'s partial row blocks into its slice
        of :attr:`yp`."""
        np.concatenate([partial[i] for i in self.order[p]], out=self._yp[p])

    def y_payload(self, src: int, dst: int) -> Optional[np.ndarray]:
        """The partial-y payload ``src`` sends ``dst`` (a new array),
        or ``None``."""
        idx = self.y_gather.get((src, dst))
        if idx is None:
            return None
        return np.take(self._yp[src], idx)

    def reduce_y(
        self, stream: np.ndarray, take: np.ndarray, put: np.ndarray
    ) -> List[Dict[int, np.ndarray]]:
        """Every processor's final y shards: own partial slices plus
        the delivered contributions, summed into fresh storage in
        stream order (``np.add.at`` is unbuffered and in index order,
        so each word's additions happen in delivery order, as a
        per-payload loop would do them)."""
        ys = self.yp[self.own_full]
        np.add.at(ys, put, stream[take])
        return self.split_shards(ys)
