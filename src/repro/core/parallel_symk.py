"""Parallel low-rank symmetric TTSV: O(r) words per processor.

The dense Algorithm 5 moves row-block *shards* — ``Θ(n/q)`` words per
processor, the paper's ``2(n(q+1)/(q²+1) − n/P)`` closed form. A
rank-``r`` symmetric Kruskal tensor collapses the exchange to a single
``r``-vector: with ``V``'s rows 1D-block-distributed, processor ``p``
holds the row block ``V_p`` (``b × r``) and its slice ``x_p`` of the
input, computes the *partial inner products* ``z_p = V_pᵀ x_p`` —
``r`` words — and the only communication in the whole TTSV is
all-gathering those partials:

::

    z = Σ_p z_p = Vᵀx            after one r-word all-gather
    y_p = V_p (λ ⊙ z^{m−1})      local, no further exchange

**Closed-form ledger (derived here, pinned by the conformance suite).**
Both comm variants route every byte through the same
:func:`~repro.machine.collectives.execute_round` funnel as the dense
path, so the algorithmic ledger is exact and transport-independent:

* ``point-to-point`` — the ring allgather relays one ``r``-word piece
  per step for ``P − 1`` steps: every processor sends exactly ``r``
  words per step, so ``words/proc = (P − 1) · r`` in ``P − 1`` rounds.
* ``all-to-all`` — every processor sends its own ``z_p`` directly to
  each of the ``P − 1`` others: the same ``(P − 1) · r`` words, in one
  logical shift-round family, moved as one fused exchange.

:func:`symk_words_per_processor` is that closed form; fault injection
can add ``retry_*`` side-channel rounds and fusion adds ``fused_*``
framing, but — exactly as for the dense conformance tier — neither
ever moves the algorithmic count.

**Determinism contract.** The reduction ``z = Σ_p z_p`` is performed
identically on every processor, in rank order ``0, 1, …, P − 1``, on
the gathered copies (which the machine layer delivers bitwise). So the
distributed result is a pure function of the resident blocks and ``P``
— independent of transport, fusion, faults, and comm variant —
and :meth:`ParallelSymKTTSV.serial_reference` replays the identical
kernel sequence in one process to give the bitwise-equal serial
answer the property suite asserts against.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

import numpy as np

from repro.core.parallel_sttsv import CommBackend
from repro.errors import ConfigurationError
from repro.machine.collectives import (
    LabeledRound,
    all_gather,
    execute_rounds_fused,
    schedule_all_to_all,
)
from repro.machine.ledger import CommunicationLedger
from repro.machine.machine import Machine
from repro.machine.transport import FusionPlan
from repro.tensor.symk import SymKTensor

__all__ = [
    "ParallelSymKTTSV",
    "symk_parallel_flops",
    "symk_words_per_processor",
]


def symk_words_per_processor(P: int, r: int) -> int:
    """Exact per-processor send volume of one low-rank TTSV.

    One all-gather of uniform ``r``-word partial sums: ``(P − 1) · r``
    for both comm variants (see the module docstring for the
    derivation). ``P = 1`` communicates nothing.
    """
    if P < 1 or r < 1:
        raise ConfigurationError(f"need P >= 1 and r >= 1, got P={P}, r={r}")
    return (P - 1) * r


def symk_parallel_flops(P: int, n: int, rank: int) -> float:
    """Critical-path per-processor flops of one low-rank TTSV: the two
    GEMVs on one ``⌈n/P⌉``-row block plus the rank-order reduction of
    ``P`` ``r``-word partials."""
    b = -(-n // P)
    return 4.0 * b * rank + float(P * rank)


class ZExchange(NamedTuple):
    """The all-to-all exchange of ``rank``-word partials, built once
    per engine and rank: one staging array per processor, the
    ``P − 1`` shift rounds that send it to every other processor, and
    their :class:`FusionPlan`. A run copies its partials into
    ``partials`` and executes the prebuilt rounds."""

    rank: int
    partials: List[np.ndarray]
    rounds: List[LabeledRound]
    plan: FusionPlan


class ParallelSymKTTSV:
    """Distributed TTSV of a :class:`SymKTensor` over ``P`` processors.

    Rows of ``V`` (and of ``x``/``y``) are 1D-block-distributed in
    ``b = ⌈n/P⌉``-row blocks, zero-padded to ``P · b``; the weight
    vector ``λ`` (``r`` words) is replicated. Unlike the dense path,
    ``P`` is a free knob — no Steiner structure is required — so the
    serving layer can reuse the dense family's ``P`` for side-by-side
    pricing, or pick any other.
    """

    def __init__(
        self,
        P: int,
        n: int,
        order: int = 3,
        backend: CommBackend = CommBackend.POINT_TO_POINT,
    ):
        if P < 1:
            raise ConfigurationError(f"need P >= 1, got {P}")
        if n < 1:
            raise ConfigurationError(f"need n >= 1, got {n}")
        if order < 2:
            raise ConfigurationError(f"order must be >= 2, got {order}")
        self.P = P
        self.n = n
        self.m = int(order)
        self.backend = CommBackend(backend)
        self.b = -(-n // P)
        self.n_padded = self.b * P
        self._lambda: Optional[np.ndarray] = None
        self._V_blocks: Optional[List[np.ndarray]] = None
        self._x_blocks: Optional[List[np.ndarray]] = None
        self._y_blocks: Optional[List[np.ndarray]] = None
        self._z_exchange: Optional[ZExchange] = None

    # -- loading (out of the communication model) ---------------------------------

    def check_tensor(self, tensor: SymKTensor) -> None:
        """Raise unless ``tensor`` has this engine's ``n`` and order
        (what :meth:`load_tensor` checks before placing anything)."""
        if tensor.n != self.n or tensor.m != self.m:
            raise ConfigurationError(
                f"tensor is n={tensor.n}, m={tensor.m}; algorithm built for"
                f" n={self.n}, m={self.m}"
            )

    def load_tensor(self, machine: Machine, tensor: SymKTensor) -> None:
        """Distribute ``V``'s row blocks and replicate ``λ``."""
        self._check_machine(machine)
        self.check_tensor(tensor)
        padded = np.zeros((self.n_padded, tensor.r))
        padded[: self.n] = tensor.V
        self._lambda = tensor.lambda_.copy()
        self._V_blocks = [
            np.ascontiguousarray(padded[p * self.b : (p + 1) * self.b])
            for p in range(self.P)
        ]
        self._y_blocks = None

    def load_vector(self, machine: Machine, x: np.ndarray) -> None:
        self._check_machine(machine)
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ConfigurationError(
                f"x must have shape ({self.n},), got {x.shape}"
            )
        padded = np.zeros(self.n_padded)
        padded[: self.n] = x
        self._x_blocks = [
            padded[p * self.b : (p + 1) * self.b].copy()
            for p in range(self.P)
        ]

    def load(self, machine: Machine, tensor: SymKTensor, x: np.ndarray) -> None:
        self.load_tensor(machine, tensor)
        self.load_vector(machine, x)

    @property
    def r(self) -> int:
        """Current resident rank (grows under streaming updates)."""
        if self._lambda is None:
            raise ConfigurationError("no factors loaded")
        return int(self._lambda.shape[0])

    def tensor_nbytes(self) -> int:
        """Bytes of the resident factors (0 before a load)."""
        return 0 if self._lambda is None else self.factor_nbytes(self.r)

    def factor_nbytes(self, rank: int) -> int:
        """Bytes of rank-``rank`` resident factors: every processor's
        ``V`` row block (``n_padded`` rows in all) and the replicated
        ``λ``."""
        return 8 * rank * (self.n_padded + 1)

    # -- streaming updates -------------------------------------------------------

    def rank1_update(self, weight: float, vector: np.ndarray) -> int:
        """Fold ``weight · vector^{⊗m}`` into the resident blocks.

        Appends one column to every row block (and one weight), exactly
        mirroring :meth:`SymKTensor.rank1_update` — so the resident
        state after ``k`` streamed updates is byte-identical to a fresh
        :meth:`load_tensor` of the rebuilt tensor, and the next TTSV
        is bitwise the rebuild's. Returns the new rank.
        """
        if self._lambda is None or self._V_blocks is None:
            raise ConfigurationError("no factors loaded")
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.n,):
            raise ConfigurationError(
                f"update vector must have shape ({self.n},), got"
                f" {vector.shape}"
            )
        padded = np.zeros(self.n_padded)
        padded[: self.n] = vector
        self._lambda = np.concatenate(
            [self._lambda, np.asarray([float(weight)])]
        )
        self._V_blocks = [
            np.ascontiguousarray(
                np.concatenate(
                    [block, padded[p * self.b : (p + 1) * self.b, None]],
                    axis=1,
                )
            )
            for p, block in enumerate(self._V_blocks)
        ]
        return self.r

    # -- execution ---------------------------------------------------------------

    def run(self, machine: Machine) -> None:
        """One distributed TTSV on the loaded factors and vector."""
        self._check_machine(machine)
        if self._lambda is None or self._V_blocks is None:
            raise ConfigurationError("no factors loaded")
        if self._x_blocks is None:
            raise ConfigurationError("no vector loaded")
        with machine.instrument.span("symk:run"):
            with machine.instrument.span("symk:local-partials"):
                partials = [
                    self._V_blocks[p].T @ self._x_blocks[p]
                    for p in range(self.P)
                ]
            with machine.instrument.span("symk:z-exchange"):
                gathered = self._exchange(machine, partials)
            with machine.instrument.span("symk:local-output"):
                self._y_blocks = []
                for p in range(self.P):
                    z = self._reduce(gathered[p])
                    w = self._lambda * z ** (self.m - 1)
                    self._y_blocks.append(self._V_blocks[p] @ w)

    def _exchange(
        self, machine: Machine, partials: List[np.ndarray]
    ) -> List[List[np.ndarray]]:
        if self.P == 1:
            return [[partials[0].copy()]]
        if self.backend is CommBackend.POINT_TO_POINT:
            return all_gather(machine, partials, tag="symk-z")
        exchange = self._all_to_all(partials[0].size)
        for staged, partial in zip(exchange.partials, partials):
            staged[...] = partial
        delivered = execute_rounds_fused(
            machine, exchange.rounds, "symk-z", plan=exchange.plan
        )
        gathered = [list(partials) for _ in range(self.P)]
        # Shift round s carries p -> (p + s) mod P, in sender order.
        for shift, arrays in enumerate(delivered, start=1):
            for src, array in enumerate(arrays):
                gathered[(src + shift) % self.P][src] = array
        return gathered

    def _all_to_all(self, rank: int) -> ZExchange:
        """The prebuilt exchange at ``rank``, rebuilt only when the
        rank changes (a streamed update or a new tensor)."""
        exchange = self._z_exchange
        if exchange is None or exchange.rank != rank:
            partials = [np.zeros(rank) for _ in range(self.P)]
            rounds = schedule_all_to_all(
                [dict.fromkeys(range(self.P), z) for z in partials], "symk-z"
            )
            plan = FusionPlan([t for _, ts in rounds for t in ts])
            exchange = self._z_exchange = ZExchange(
                rank, partials, rounds, plan
            )
        return exchange

    @staticmethod
    def _reduce(pieces: List[np.ndarray]) -> np.ndarray:
        # Rank-order chain sum, identical on every processor: the one
        # place the P-dependent grouping of Vᵀx is decided, and the
        # reason serial_reference can replay the run bitwise.
        z = pieces[0].copy()
        for piece in pieces[1:]:
            z += piece
        return z

    def gather_result(self, machine: Machine) -> np.ndarray:
        self._check_machine(machine)
        if self._y_blocks is None:
            raise ConfigurationError("run() has not produced a result")
        return np.concatenate(self._y_blocks)[: self.n]

    # -- references and costs ----------------------------------------------------

    def serial_reference(self, x: np.ndarray) -> np.ndarray:
        """Single-process replay of the distributed kernel sequence on
        the *resident* blocks (including streamed updates): bitwise
        identical to ``run`` + ``gather_result`` on any backend, with
        or without faults and fusion."""
        if self._lambda is None or self._V_blocks is None:
            raise ConfigurationError("no factors loaded")
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ConfigurationError(
                f"x must have shape ({self.n},), got {x.shape}"
            )
        padded = np.zeros(self.n_padded)
        padded[: self.n] = x
        partials = [
            self._V_blocks[p].T @ padded[p * self.b : (p + 1) * self.b]
            for p in range(self.P)
        ]
        z = self._reduce(partials)
        w = self._lambda * z ** (self.m - 1)
        return np.concatenate(
            [self._V_blocks[p] @ w for p in range(self.P)]
        )[: self.n]

    def predicted_ledger(self, rank: int) -> CommunicationLedger:
        """The exact ledger one :meth:`run` at ``rank`` records: the
        engine's own exchange, run on a fresh simulated machine with
        zero ``rank``-word partials (the ledger depends only on their
        length)."""
        if rank < 1:
            raise ConfigurationError(f"need rank >= 1, got {rank}")
        with Machine(self.P) as machine:
            self._exchange(machine, [np.zeros(rank)] * self.P)
        return machine.ledger

    def expected_words_per_processor(self) -> int:
        """The closed form the executed ledger must match exactly:
        ``(P − 1) · r`` (see :func:`symk_words_per_processor`)."""
        if self.P == 1:
            return 0
        return symk_words_per_processor(self.P, self.r)

    def expected_rounds(self) -> int:
        """Algorithmic round count: ``P − 1`` for both variants (ring
        steps / all-to-all shifts)."""
        return max(0, self.P - 1)

    def _check_machine(self, machine: Machine) -> None:
        if machine.P != self.P:
            raise ConfigurationError(
                f"machine has {machine.P} processors, algorithm built for"
                f" {self.P}"
            )
