"""Compiled execution plans for repeated STTSV products.

Every iterative driver in the repo (HOPM, SS-HOPM deflation, the CP
gradient, MTTKRP) evaluates ``y = A ×₂ x ×₃ x`` in a tight loop, yet
much of each evaluation depends only on the tensor data and the
partition — not on ``x``. This module compiles that ``x``-independent
work once and reuses it:

* :class:`SequentialPlan` — bound to one packed symmetric tensor of
  any order ``m`` (:class:`~repro.tensor.packed.PackedSymmetricTensor`
  or :class:`~repro.tensor.ndpacked.NdPackedSymmetricTensor`).
  Precomputes either the symmetric unfolding (``gemm`` strategy: one
  BLAS matrix-vector / matrix-matrix product per row block, a large
  unfolding cut so that it stores each distinct entry about once) or
  the fused weight-times-data scatter arrays (``bincount`` strategy:
  the packed scatter kernel minus all per-call weight recomputation).
  Exposes ``apply(x)`` and the batched ``apply_batch(X)`` for
  ``X ∈ R^{n×s}`` — GEMM-shaped reductions instead of ``s``
  independent passes.
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

``bincount`` reproduces :func:`~repro.core.sttsv_ndim.sttsv_ndim` bit
for bit (same scatter order, with the ``w·a`` products hoisted to
compile time), and its ``apply_batch`` columns are bitwise equal to a
column-by-column ``apply`` loop. ``gemm`` evaluates the same exact sum
in BLAS summation order — results agree with the scatter kernels to
machine-precision rounding (``~1e-13`` relative) but are not bitwise
identical, and individual batch columns may differ from single-vector
products in the last ulp (BLAS kernels for GEMV and multi-column GEMM
block differently). ``auto`` picks ``gemm`` when its compiled state
fits the memory budget and ``bincount`` otherwise. The whole unfolding
is ``n·C(n+m−2, m−1)`` doubles, 32 MB at n = 200, m = 3; above
32 MiB it is cut into row blocks (:meth:`SequentialPlan._compile_gemm`)
and takes about ``n^m / m!`` doubles: 47.5 MB at n = 300 instead of
108 MB, so ``auto`` keeps ``gemm`` at order 3 up to n = 554 under the
default 256 MiB budget.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from math import comb
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

from repro.core.sttsv_ndim import _ndim_scatter_plan, _weighted_scatter
from repro.errors import ConfigurationError, PartitionError
from repro.tensor.ndpacked import NdPackedSymmetricTensor, nd_packed_size

#: Any packed tensor (``PackedSymmetricTensor`` is its order-3 case).
Tensor = NdPackedSymmetricTensor

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


#: Largest gemm unfolding kept whole, as one row block (32 MiB: the
#: order-3 operator up to n = 200).
_GEMM_WHOLE_BYTES = 32 * 1024 * 1024

#: Row-block edge of a larger unfolding's cut.
_GEMM_BLOCK_EDGE = 32


def _multisets(j: int, d: int) -> int:
    """``d``-multisets of indices below ``j``: the packed-order prefix
    ``C(j + d − 1, d)`` they occupy."""
    return comb(j + d - 1, d)


def _width(columns: slice) -> int:
    return columns.stop - columns.start


def _gemm_layout(n: int, m: int) -> List[Tuple[int, int, slice, slice]]:
    """``(j0, j1, columns, tail_columns)`` of each row block of the
    order-``m`` gemm operator (see :meth:`SequentialPlan._compile_gemm`).

    One block while the whole unfolding fits :data:`_GEMM_WHOLE_BYTES`,
    else ``K = ⌈n / 32⌉`` near-equal ones. Block ``[j0, j1)`` owns the
    columns whose largest index it holds; its head, ``j1 − j0`` rows of
    the ``(m−2)``-multisets below ``j0``, comes first, then its tail.
    """
    whole = n * _multisets(n, m - 1) * 8
    count = 1 if whole <= _GEMM_WHOLE_BYTES else -(-n // _GEMM_BLOCK_EDGE)
    cuts = [a * n // count for a in range(count + 1)]
    layout = []
    for j0, j1 in zip(cuts, cuts[1:]):
        c0, c1 = _multisets(j0, m - 1), _multisets(j1, m - 1)
        head = (j1 - j0) * (_multisets(j0, m - 2) if m > 2 else 1)
        layout.append((j0, j1, slice(c0, c1), slice(c0 + head, c1)))
    return layout


def _product(X: np.ndarray, columns: List[np.ndarray]):
    """``Π_s X[columns[s]]``, left to right (``1.0`` for none)."""
    Z = 1.0
    for column in columns:
        Z = Z * X[column]
    return Z


def _lower_triangle(packed: np.ndarray, b: int) -> np.ndarray:
    """The ``b × b`` lower triangles (last two axes) whose rows, in
    order, are ``packed``'s last axis."""
    out = np.zeros(packed.shape[:-1] + (b, b))
    out[(...,) + np.tril_indices(b)] = packed
    return out


def gemm_multiply_adds(n: int, m: int) -> int:
    """Multiply-adds of one gemm-strategy product at order ``m``: each
    column block and tail once forward, each column block's rows below
    its row block once transposed, and ``m − 1`` per entry of the
    order-``(m−1)`` term (see :meth:`SequentialPlan._compile_gemm`)."""
    layout = _gemm_layout(n, m)
    _, _, last, _ = layout[-1]
    total = (m - 1) * last.start  # the order-(m-1) term's entries
    for j0, j1, columns, tail in layout:
        total += (2 * n - j0 - j1) * _width(columns) + j0 * _width(tail)
    return total


class _ColumnBlock(NamedTuple):
    """The gemm operator's columns whose largest index lies in row
    block ``[lo, hi)`` (see :meth:`SequentialPlan._compile_gemm`):
    ``block`` is ``B[lo:, columns]``, ``tail`` is
    ``B[:lo, tail_columns]``."""

    lo: int
    hi: int
    columns: slice
    tail_columns: slice
    block: np.ndarray
    tail: np.ndarray


def resolve_strategy(
    tensor: Tensor,
    strategy: str = "auto",
    gemm_budget_bytes: int = DEFAULT_GEMM_BUDGET_BYTES,
) -> str:
    """The strategy a :class:`SequentialPlan` of ``tensor`` compiles,
    without compiling it: ``auto`` becomes ``gemm`` while its operator
    fits ``gemm_budget_bytes``, else ``bincount``. Rejects what the
    plan rejects (an unknown strategy, a tensor that is not packed of
    order >= 2)."""
    if strategy not in _STRATEGIES:
        raise ConfigurationError(
            f"strategy must be one of {_STRATEGIES}, got {strategy!r}"
        )
    if not isinstance(tensor, NdPackedSymmetricTensor) or tensor.d < 2:
        raise ConfigurationError(
            "SequentialPlan needs a PackedSymmetricTensor or"
            f" NdPackedSymmetricTensor of order >= 2, got"
            f" {type(tensor).__name__}"
        )
    if strategy != "auto":
        return strategy
    if SequentialPlan._gemm_bytes(tensor.n, tensor.d) <= gemm_budget_bytes:
        return "gemm"
    return "bincount"


def plan_nbytes(n: int, m: int, strategy: str) -> int:
    """What :meth:`SequentialPlan.nbytes` reports for an order-``m``
    plan of the resolved ``strategy``, without compiling it: the gemm
    operator, or ``bincount``'s ``m`` weight-times-data columns and
    ``m`` int64 index columns over the packed entries."""
    if strategy == "gemm":
        return SequentialPlan._gemm_bytes(n, m)
    return 16 * m * nd_packed_size(n, m)


class SequentialPlan:
    """A compiled sequential/batched STTSV executor for one tensor.

    Parameters
    ----------
    tensor:
        The bound tensor: a :class:`PackedSymmetricTensor` or an
        :class:`~repro.tensor.ndpacked.NdPackedSymmetricTensor` of any
        order ``m >= 2``. The compiled structures are built from
        ``tensor.data`` and bake its *current* values in, so the plan
        is only valid while the data is unmodified (see
        :func:`sequential_plan` for the cache that tracks this). The
        plan keeps only a weak reference to ``tensor.data``: it never
        keeps the packed tensor alive.
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
        tensor: Tensor,
        strategy: str = "auto",
        gemm_budget_bytes: int = DEFAULT_GEMM_BUDGET_BYTES,
    ):
        self.requested_strategy = strategy
        self.strategy = resolve_strategy(tensor, strategy, gemm_budget_bytes)
        self.n = tensor.n
        self.m = tensor.d
        self._data = weakref.ref(tensor.data)
        self._mutations = tensor._mutations
        self._norm_sq: Optional[float] = None
        if self.strategy == "gemm":
            self._compile_gemm(tensor.data)
        else:
            self._compile_bincount(tensor.data)

    @staticmethod
    def _gemm_bytes(n: int, m: int) -> int:
        """Bytes of the gemm strategy's compiled state (what
        :meth:`nbytes` reports): the cut unfolding's blocks and tails
        (:meth:`_compile_gemm`) and its monomial column indices."""
        words = (m - 1) * _multisets(n, m - 1)
        for j0, _, columns, tail in _gemm_layout(n, m):
            words += (n - j0) * _width(columns) + j0 * _width(tail)
        return 8 * words

    # -- compilation -----------------------------------------------------------

    def _compile_gemm(self, data: np.ndarray) -> None:
        """Build the symmetric unfolding ``B``, cut into row blocks.

        Over the canonical ``(m−1)``-multisets ``M_t``,
        ``B[i, t] = a[canon(i ∪ M_t)] · mult(M_t)``, with ``mult(M_t)``
        the distinct arrangements of ``M_t``, so that
        ``y = B · Π_s x[M_t,s]``. At order 3 the columns are the pairs
        ``j >= k``, ``mult`` is ``2 − [j = k]``, and the whole ``B``
        holds about half the dense cube: every distinct entry up to
        three times.

        A large ``B`` is cut into row blocks ``J = [j0, j1)``
        (:func:`_gemm_layout`), and row block ``J`` keeps only the
        columns whose largest index is below ``j1``: about
        ``n^m / m!`` words, each distinct entry about once. The kept
        entries are stored by column block: :class:`_ColumnBlock`
        ``a`` holds the columns whose largest index lies in ``J_a``,
        over rows ``j0_a..n−1``. A row ``i < j0_a`` recovers the
        dropped entry ``B[i, t]`` in one of two ways:

        * ``t`` has one index in ``J_a`` (the block's *head*): the
          entry is also ``B[k, t']`` with ``k ∈ J_a`` and ``t'`` below
          ``j0_a``, a stored entry of an earlier column block. The
          transposed products ``u[t'] = Σ_{k ≥ j1} B[k, t'] x_k`` over
          each column block's rows below its own row block form an
          order-``(m−1)`` tensor (weighted by ``mult``), whose part of
          ``y`` is ``(m−1)·STTSV_{m−1}(u, x)`` (:meth:`_lower_order`):
          at order 3, ``2·U·x``.
        * ``t`` has two or more indices in ``J_a``: the block's
          *tail*, ``B[:j0_a, {t : top two of t in J_a}]``, is stored
          too (``b(b+1)/2`` columns at order 3).

        Within a column block the head comes first, ordered by largest
        index and then in packed order (a ``b × C(j0+m−3, m−2)``
        matrix), and the tail follows in packed order; with one block
        (``K = 1``) that is packed order, and the operator is ``B``
        itself, element for element. Each block is built row by row
        from packed data, never through a full ``B``: column ``c`` of
        ``canon(i ∪ M_t)`` is ``i`` clamped to ``[M_t,c, M_t,c−1]``,
        and the packed offset sums one binomial per column.
        """
        n, m = self.n, self.m
        # Uncached: the plan keeps its own permuted copy of the table.
        M, weights = _ndim_scatter_plan.__wrapped__(n, m - 1)
        layout = _gemm_layout(n, m)
        order = np.arange(len(M))
        if m > 2:
            for j0, _, columns, _ in layout:
                head = M[columns, 1] < j0
                order[columns] = np.concatenate(
                    [order[columns][head], order[columns][~head]]
                )
        self._columns = [np.ascontiguousarray(column[order]) for column in M.T]
        # Each weight row sums to the multiplicity of its multiset.
        mult = weights.sum(axis=1)[order]
        del M, weights, order  # not held while the blocks are built
        binomials = [
            np.array([comb(v + m - 1 - c, m - c) for v in range(n)])
            for c in range(m)
        ]
        bounds = [n - 1, *self._columns, 0]

        def unfolding(rows: range, columns: slice) -> np.ndarray:
            """``B[rows, columns]``."""
            window = [
                bound if isinstance(bound, int) else bound[columns]
                for bound in bounds
            ]
            out = np.empty((len(rows), _width(columns)))
            for r, i in enumerate(rows):
                offsets = sum(
                    binomials[c][np.minimum(np.maximum(window[c + 1], i), window[c])]
                    for c in range(m)
                )
                np.take(data, offsets, out=out[r])
            out *= mult[columns]
            return out

        self._blocks = [
            _ColumnBlock(
                j0,
                j1,
                columns,
                tail,
                unfolding(range(j0, n), columns),
                unfolding(range(j0), tail),
            )
            for j0, j1, columns, tail in layout
        ]

    def _compile_bincount(self, data: np.ndarray) -> None:
        """Hoist :func:`~repro.core.sttsv_ndim.sttsv_ndim`'s per-column
        ``weight · a`` products."""
        # Uncached: the plan owns its index table, so evicting the plan
        # frees it and nbytes() counts it.
        indices, weights = _ndim_scatter_plan.__wrapped__(self.n, self.m)
        self._columns = list(indices.T)
        self._wa = [w * data for w in weights.T]

    # -- validation ------------------------------------------------------------

    def matches(self, tensor: Tensor) -> bool:
        """True iff the plan was compiled against this tensor's current
        data (same array object, no element writes since)."""
        return (
            self._data() is tensor.data
            and self._mutations == tensor._mutations
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

    def _monomials(self, block: _ColumnBlock, X: np.ndarray) -> np.ndarray:
        """``Π_s X[M_t,s]`` over one column block's columns (rows of
        ``X``). The head is an outer product: its rows ``t0`` times the
        monomials of its first row's lower indices, which every row of
        the head repeats."""
        start, stop = block.columns.start, block.tail_columns.start
        rows = block.hi - block.lo
        Z = np.empty((_width(block.columns),) + X.shape[1:])
        lower = [
            column[start : start + (stop - start) // rows]
            for column in self._columns[1:]
        ]
        np.multiply(
            X[block.lo : block.hi, None],
            _product(X, lower),
            out=Z[: stop - start].reshape((rows, -1) + X.shape[1:]),
        )
        Z[stop - start :] = _product(
            X, [column[block.tail_columns] for column in self._columns]
        )
        return Z

    def _gemm(self, X: np.ndarray) -> np.ndarray:
        """The gemm strategy on a vector ``(n,)`` or columns ``(n, s)``:
        each column block's product and tail, then the order-``(m−1)``
        term of :meth:`_compile_gemm`."""
        first, *rest = self._blocks
        Y = first.block @ self._monomials(first, X)  # K = 1: all of B
        if not rest:
            return Y
        # The order-(m-1) term runs on rows of X and Y (one per column).
        Xt = np.ascontiguousarray(X.T)
        for block in self._blocks:
            if block.lo:
                Z = self._monomials(block, X)
                Y[block.lo :] += block.block @ Z
                tail = Z[block.tail_columns.start - block.columns.start :]
                Y[: block.lo] += block.tail @ tail
            if block.hi < self.n:
                below = block.block[block.hi - block.lo :]
                self._lower_order(block, Xt[..., block.hi :] @ below, Xt, Y.T)
        return Y

    def _lower_order(
        self, block: _ColumnBlock, u: np.ndarray, Xt: np.ndarray, Yt: np.ndarray
    ) -> None:
        """Add one column block's share of ``(m−1)·STTSV_{m−1}(u, x)``
        to ``Yt``, for the ``mult``-weighted ``u`` over the block's
        columns: each ``t`` adds ``u[t]·Π_{q≠p} x[t_q]`` to output
        ``t_p`` for every position ``p``.

        At order 3 that is two small matrices per vector: the head
        ``u[t0, t1]`` (``t0`` in the block, ``t1 < j0``) and the tail,
        expanded to the lower triangle of a ``b × b`` block. Other
        orders scatter every position of ``u`` with ``bincount``.
        """
        if self.m != 3:
            columns = [column[block.columns] for column in self._columns]
            for p, column in enumerate(columns):
                W = u
                for q, other in enumerate(columns):
                    if q != p:
                        W = W * Xt[..., other]
                for w, y in zip(W.reshape(-1, len(column)), Yt.reshape(-1, self.n)):
                    y += np.bincount(column, weights=w, minlength=self.n)
            return
        lo, hi = block.lo, block.hi
        split = block.tail_columns.start - block.columns.start
        x = Xt[..., lo:hi]
        for square, start in (
            (u[..., :split].reshape(u.shape[:-1] + (hi - lo, lo)), 0),
            (_lower_triangle(u[..., split:], hi - lo), lo),
        ):
            t1 = slice(start, start + square.shape[-1])
            Yt[..., lo:hi] += (square @ Xt[..., t1, None])[..., 0]
            Yt[..., t1] += (x[..., None, :] @ square)[..., 0, :]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``y = A ×₂ x ··· ×ₘ x`` through the compiled structures."""
        x = self._check_vector(x)
        if self.strategy == "gemm":
            return self._gemm(x)
        return _weighted_scatter(self._columns, self._wa, x, self.n)

    def apply_batch(self, X: np.ndarray) -> np.ndarray:
        """``Y[:, ℓ] = A ×₂ X[:, ℓ] ··· ×ₘ X[:, ℓ]`` for all columns at once.

        The gemm strategy evaluates multi-column GEMMs — the same
        passes over the operator regardless of ``s`` — which is how a production
        multi-vector engine amortizes tensor traffic (cf. BCSS and
        Multi-TTM). The bincount strategy falls back to a column loop
        over :meth:`apply` (bitwise equal to it) since no
        memory-bounded batched scatter exists in pure NumPy.
        """
        X = self._check_matrix(X)
        if X.shape[1] == 0:
            return np.zeros((self.n, 0))
        if self.strategy == "gemm":
            return self._gemm(X)
        return np.column_stack(
            [self.apply(X[:, col]) for col in range(X.shape[1])]
        )

    # -- derived quantities ----------------------------------------------------

    def frobenius_norm_sq(self) -> float:
        """``||A||²`` over the full hypercube, from packed storage.

        Each canonical entry counts with its permutation multiplicity,
        which equals the sum of its scatter weights. Needs the bound
        tensor's data alive on the first call.
        """
        if self._norm_sq is None:
            data = self._data()
            if data is None:
                raise ConfigurationError(
                    "the plan's tensor data is gone; compute the norm"
                    " while the tensor is alive"
                )
            weights = _ndim_scatter_plan.__wrapped__(self.n, self.m)[1]
            self._norm_sq = float(np.sum(weights.sum(axis=1) * data**2))
        return self._norm_sq

    def nbytes(self) -> int:
        """Bytes of compiled plan state (excluding the tensor itself)."""
        if self.strategy == "gemm":
            arrays = list(self._columns)
            for block in self._blocks:
                arrays += [block.block, block.tail]
            return sum(array.nbytes for array in arrays)
        return sum(a.nbytes for a in (*self._columns, *self._wa))

    def __repr__(self) -> str:
        return (
            f"SequentialPlan(n={self.n}, m={self.m},"
            f" strategy={self.strategy!r}, nbytes={self.nbytes()})"
        )


class BlockedPlan(SequentialPlan):
    """The name of the former order-m plan over BCSS blocks, kept for
    code that imports it. :class:`SequentialPlan`'s symmetric unfolding
    serves every order, cut into row blocks once it is large, in less
    memory, so this class adds nothing. It is a subclass rather than an
    alias so that tooling wrapping the methods of both names
    (``servebench``'s layer tracer) wraps each class once.
    """


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


def _register_plan(tensor: Tensor, plan: SequentialPlan) -> None:
    key = id(tensor)
    ref = weakref.ref(tensor, lambda _ref, key=key: _PLAN_CACHE.discard(key))
    _PLAN_CACHE.put(key, ref, plan.nbytes())


def sequential_plan(
    tensor: Tensor,
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


def invalidate_plan(tensor: Tensor) -> None:
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


class Staging(NamedTuple):
    """One trailing shape's staging buffers of an :class:`ExchangePlan`
    (layouts in its docstring).

    ``xs``: staged x shards (shard layout, plus a zero row); ``xf``:
    assembled x row blocks (full layout); ``yp``: partial y (full
    layout, plus a zero row), which local compute fills in place.
    ``shards[p]`` is processor ``p``'s slice of ``xs``; ``x_full[p]``
    and ``y_partial[p]`` are its ``{i: row block i}`` views into
    ``xf`` and ``yp``.
    """

    xs: np.ndarray
    xf: np.ndarray
    yp: np.ndarray
    shards: List[np.ndarray]
    x_full: List[Dict[int, np.ndarray]]
    y_partial: List[Dict[int, np.ndarray]]


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
    layout of a :class:`Staging`'s ``xs`` (staged x shards), of the
    shards :meth:`split_shards` hands out, and of :attr:`load_index`
    (the padded-vector position of every shard word, checked at build
    time to cover each position exactly once). *Full layout*
    concatenates, over ``p`` and then ``order[p] = sorted(need_p)``,
    full row blocks; it is the layout of ``xf`` (assembled x blocks)
    and ``yp`` (staged partial y). Every layout position is one *row*:
    a word for a vector, ``c`` words for ``c`` columns (the trailing
    shape of the staged values, :meth:`staging`). ``xs`` and ``yp``
    carry one trailing zero row, the source of the All-to-All's zero
    padding. Every ``xf`` row is overwritten each run: the own shard
    plus one shard from every other holder of each row block.

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

        self._staging: Dict[Tuple[int, ...], Staging] = {}

    @staticmethod
    def _split(flat: np.ndarray, offsets: np.ndarray) -> List[np.ndarray]:
        return [flat[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])]

    def row_blocks(self, flat: np.ndarray) -> List[Dict[int, np.ndarray]]:
        """Per-processor ``{i: row block i}`` views into a full-layout
        array (rows of a 2-D one)."""
        b = self.b
        return [
            {i: part[t * b : (t + 1) * b] for t, i in enumerate(rows)}
            for part, rows in zip(self._split(flat, self.full_offset), self.order)
        ]

    def staging(self, shape: Tuple[int, ...] = ()) -> Staging:
        """The staging buffers for values of trailing shape ``shape``
        (``()`` for a vector, ``(c,)`` for ``c`` columns), made on
        first use and reused by every later run of that shape. A new
        column shape replaces the previous one; the vector's stay."""
        staging = self._staging.get(shape)
        if staging is None:
            if shape:
                for old in [key for key in self._staging if key]:
                    del self._staging[old]
            xs = np.zeros((self.shard_offset[-1] + 1, *shape))
            xf = np.zeros((self.full_offset[-1], *shape))
            yp = np.zeros((self.full_offset[-1] + 1, *shape))
            staging = self._staging[shape] = Staging(
                xs,
                xf,
                yp,
                self._split(xs, self.shard_offset),
                self.row_blocks(xf),
                self.row_blocks(yp),
            )
        return staging

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
        """The padded vector (or ``(n', c)`` columns) whose shards are
        ``shards[p][i]``: the inverse of ``split_shards(x[load_index])``.
        Every processor must hold exactly its row blocks' shards."""
        pieces = []
        for p, (rows, owned) in enumerate(zip(self.held, shards)):
            if len(owned) != len(rows) or any(i not in owned for i in rows):
                raise PartitionError(
                    f"missing shards: processor {p} holds row blocks"
                    f" {sorted(owned)}, expected {rows}"
                )
            pieces.extend(owned[i] for i in rows)
        flat = np.concatenate(pieces)
        if len(flat) != self.load_index.size:
            raise PartitionError(
                f"shards hold {len(flat)} rows, expected {self.load_index.size}"
            )
        out = np.empty((self.partition.m * self.b, *flat.shape[1:]))
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

        Returns ``(gather, take, put, words)``, all in rows of the
        staged values: ``np.take(source, gather, axis=0)`` fills the
        send buffer from the phase's source staging (``xs`` or ``yp``);
        ``take`` picks every payload row out of the delivered stream
        (the delivered payloads concatenated in member order) and
        ``put`` is that row's position in the destination (``xf``, or
        the shard-layout y shards); ``words`` is each member's length
        in the send buffer.
        """
        if phase == "x":
            gathers, scatters = self.x_gather, self.x_scatter
            src_offset, dst_offset = self.shard_offset, self.full_offset
        else:
            gathers, scatters = self.y_gather, self.y_scatter
            src_offset, dst_offset = self.full_offset, self.shard_offset
        zero = src_offset[-1]
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

    def stage_x(self, shards: Sequence[Dict[int, np.ndarray]]) -> Staging:
        """Flatten every processor's own shard dict (``shards[p]``)
        into its slice of ``xs``, in the staging of the shards'
        trailing shape; returns that staging."""
        staging = self.staging(shards[0][self.held[0][0]].shape[1:])
        for held, own, out in zip(self.held, shards, staging.shards):
            np.concatenate([own[i] for i in held], out=out)
        return staging

    def x_payload(self, src: int, dst: int) -> Optional[np.ndarray]:
        """The x payload ``src`` sends ``dst`` from the vector staging
        (a new array), or ``None`` for a pair with nothing to send: one
        pair's slice of the phase gather."""
        idx = self.x_gather.get((src, dst))
        if idx is None:
            return None
        return np.take(self.staging().shards[src], idx)

    def unpack_x(
        self, staging: Staging, stream: np.ndarray, take: np.ndarray, put: np.ndarray
    ) -> List[Dict[int, np.ndarray]]:
        """Assemble every processor's full row blocks from its own
        shards plus the delivered stream (maps from :meth:`phase_maps`);
        returns the staging's ``x_full``."""
        staging.xf[self.own_full] = staging.xs[:-1]
        staging.xf[put] = stream[take]
        return staging.x_full

    # -- y phase ---------------------------------------------------------------

    def y_payload(self, src: int, dst: int) -> Optional[np.ndarray]:
        """The partial-y payload ``src`` sends ``dst`` from the vector
        staging (a new array), or ``None``."""
        idx = self.y_gather.get((src, dst))
        if idx is None:
            return None
        full = self.staging().yp
        return np.take(full[self.full_offset[src] : self.full_offset[src + 1]], idx)

    def reduce_y(
        self, staging: Staging, stream: np.ndarray, take: np.ndarray, put: np.ndarray
    ) -> List[Dict[int, np.ndarray]]:
        """Every processor's final y shards: own partial slices plus
        the delivered contributions, summed into fresh storage in
        stream order (``np.add.at`` is unbuffered and in index order,
        so each row's additions happen in delivery order, as a
        per-payload loop would do them)."""
        ys = staging.yp[self.own_full]
        np.add.at(ys, put, stream[take])
        return self.split_shards(ys)
