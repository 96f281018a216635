"""The tensor representations the repo runs, in one registry.

dense-3 (``kind="dense"``, ``order=3``: the paper's Algorithm 5 on the
spherical ``S(q²+1, q+1, 3)`` partition), BCSS-4 (``kind="dense"``,
``order=4``: blocked order-4 STTSV over SQS(2^k), ``q`` holding ``k``)
and symk (``kind="symk"``, orders 2..6: a low-rank ``(λ, V)`` tensor
with the ``(P−1)·r``-word exchange). Each one answers everything that
depends on it — the CLI's selection rule, default ``n``, oracle,
ledger words and bound lines; the planner's engine, flops, ledger and
run span; the server's REGISTER rules, body layout, plan and labels —
so ``repro analyze``/``load``/``plan``, the planner and the server each
run one code path. Engines come back unloaded and load with
``load_tensor``. DESIGN.md §9 has the tables.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.bounds import processors_for_q, sttsv_lower_bound
from repro.core.parallel_sttsv import CommBackend, ParallelSTTSV
from repro.core.parallel_symk import (
    ParallelSymKTTSV,
    symk_parallel_flops,
    symk_words_per_processor,
)
from repro.core.partition import TetrahedralPartition
from repro.core.partition_ndim import QuadruplePartition
from repro.core.plans import (
    SequentialPlan,
    plan_nbytes,
    resolve_strategy,
    sequential_plan,
)
from repro.core.sttsv_ndim import sttsv_ndim, sttsv_ndim_lower_bound
from repro.core.sttsv_sequential import sttsv_packed
from repro.errors import ConfigurationError
from repro.steiner import spherical_steiner_system
from repro.steiner.boolean import boolean_block_count, boolean_steiner_system
from repro.tensor.dense import random_symmetric
from repro.tensor.ndpacked import (
    NdPackedSymmetricTensor,
    nd_packed_size,
    nd_random_symmetric,
)
from repro.tensor.packed import PackedSymmetricTensor, packed_size
from repro.tensor.symk import MAX_DENSE_ORDER, SymKPlan, SymKTensor, random_symk

#: Flops per ternary multiplication (one multiply-accumulate).
_FLOPS_PER_TERNARY = 2


def header_int(
    header: Dict, name: str, default: Optional[int] = None,
    positive: bool = False,
) -> int:
    """One integer REGISTER field; every rejection names the field."""
    value = header.get(name, default)
    if value is None:
        raise ConfigurationError(f"register needs an integer {name}")
    try:
        value = int(value)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"{name} must be an integer, got {value!r}"
        ) from None
    if positive and value < 1:
        raise ConfigurationError(f"{name} must be >= 1, got {value}")
    return value


def _sqs_processor_count(q: int) -> int:
    if q < 2:
        raise ConfigurationError(
            f"order-4 registration needs SQS parameter q=k >= 2, got {q}"
        )
    return boolean_block_count(q)


def _line(label: str, text: str) -> str:
    return f"  {label:>16}: {text}"  # one row of ``repro analyze``


class Representation:
    """How the repo builds, runs, checks, prices and serves one tensor
    representation. Instances are stateless."""

    #: Short name used in messages, docs and planner candidates.
    name: str
    #: The REGISTER ``kind`` and ``order`` values that select it.
    kind: str
    orders: Tuple[int, ...]
    #: Comm variants its engine runs.
    variants: Tuple[CommBackend, ...] = tuple(CommBackend)
    #: Whether ``q`` is ``k`` of the Boolean SQS(2^k) family rather
    #: than the spherical prime power.
    sqs = False
    #: Instrumentation span of one engine run.
    span = "sttsv:run"
    #: Calibrated compute rate the planner prices parallel flops at.
    rate = "gemm_flop_s"
    #: Sessions accept streamed ``UPDATE``\ s; their applies bypass the
    #: batcher and run under ``exec_lock``, stamped with the epoch they
    #: reflect.
    versioned = False
    #: Whether the server's ``accepted_orders`` gates registration.
    order_gated = True
    #: Appended to session labels after the order component.
    label_tag = ""
    #: Prefix of planner candidate labels.
    label_prefix = ""
    #: Why :func:`select` cannot move it to the other ``q`` family.
    family_error = ""

    def on_other_family(self) -> "Representation":
        raise ConfigurationError(self.family_error)

    def rank(self, tensor) -> Optional[int]:
        return None

    def reply_fields(self, session) -> Dict:
        """REGISTER reply fields beyond the ones every reply carries."""
        return {}

    def replay(self, engine):
        """A bitwise serial replay of the loaded ``engine``, if any."""
        return None

    def plan_modes(self, strategies, batch_widths) -> List[Tuple[str, int]]:
        return [(s, width) for s in strategies for width in batch_widths]

    def plan_label(self, strategy: str, batch_width: int, rank) -> str:
        return f"plan {strategy} s={batch_width}"

    @staticmethod
    def _check_body(data: np.ndarray, expected: int, layout: str) -> None:
        if data.shape[0] != expected:
            raise ConfigurationError(
                f"{layout} body has {data.shape[0]} entries, needs"
                f" {expected}"
            )


class _SteinerRepresentation(Representation):
    """Dense storage on a Steiner-system partition run by
    :class:`ParallelSTTSV`."""

    def shape(self, header: Dict) -> Tuple[int, int, Optional[int]]:
        q = header_int(header, "q")
        return q, self.processor_count(q), None

    def partition(self, q: int):
        partition = self.partition_type(self.system(q))
        partition.validate()
        return partition

    def default_n(self, q: int) -> int:  # the padding-free m·λ₁
        partition = self.partition(q)
        return partition.m * partition.steiner.point_replication()

    def engine(self, q, P, n, order, variant) -> ParallelSTTSV:
        partition = self.partition(q)
        if partition.P != P:
            raise ConfigurationError(
                f"q={q} builds P={partition.P} processors, not {P}"
            )
        return ParallelSTTSV(partition, n, backend=variant)

    def expected_words(self, engine, rank) -> List[int]:
        return engine.words_per_processor()

    def bound_lines(self, n, P, q, rank) -> List[str]:
        bound = f"{self.lower_bound(n, P):>8.1f} words/proc"
        return [_line("lower bound", f"{bound} ({self.bound_note})")]

    def ledger(self, engine, rank):
        return engine.predicted_ledger()

    def flops(self, engine, rank) -> float:
        return _FLOPS_PER_TERNARY * max(
            map(engine.flops_per_processor, range(engine.partition.P))
        )

    def encode(self, tensor, order: int) -> Tuple[np.ndarray, Dict]:
        return tensor.data, {}  # the server checks the size vs ``order``

    def resolve_plan(self, engine, tensor, strategy: str) -> str:
        """The plan strategy ``tensor`` compiles to, checked against
        ``engine`` without building either's state."""
        resolved = resolve_strategy(tensor, strategy)
        engine.check_tensor(tensor)
        return resolved

    def plan(self, tensor, strategy: str) -> SequentialPlan:
        return sequential_plan(tensor, strategy=strategy)

    def session_nbytes(self, engine, tensor, strategy: str) -> int:
        """The engine's blocks plus the plan: a session with both, which
        has dropped its packed tensor. Each earlier state holds the
        packed tensor instead of one of them, and the packed entries
        fit in either."""
        return engine.tensor_nbytes() + plan_nbytes(
            engine.n, engine.partition.order, strategy
        )


class Dense3(_SteinerRepresentation):
    """``P = q(q²+1)``; body = packed upper-tetrahedral entries."""

    name = "dense-3"
    kind = "dense"
    orders = (3,)
    partition_type = TetrahedralPartition
    system = staticmethod(spherical_steiner_system)
    processor_count = staticmethod(processors_for_q)
    title = "Algorithm 5"
    oracle = staticmethod(sttsv_packed)
    lower_bound = staticmethod(sttsv_lower_bound)
    bound_note = "Theorem 5.2"

    def on_other_family(self) -> Representation:
        return _Dense3OnSQS()

    def decode(self, registration, data) -> PackedSymmetricTensor:
        n = registration.n
        self._check_body(data, packed_size(n), f"packed n={n}")
        return PackedSymmetricTensor(n, data)

    def random_tensor(self, n, order, rank, seed) -> PackedSymmetricTensor:
        return random_symmetric(n, seed=seed)

    def expected_words(self, engine, rank) -> List[int]:
        """The §7.2.2 closed form, the same on every processor."""
        return [engine.expected_words_per_processor()] * engine.partition.P


class _Dense3OnSQS(Dense3):
    """Dense-3 on the Boolean SQS(2^k) partition (the paper's Table 3):
    what ``repro analyze --sqs K`` runs at order 3."""

    sqs = True
    system = staticmethod(boolean_steiner_system)
    processor_count = staticmethod(_sqs_processor_count)


class BCSS4(_SteinerRepresentation):
    """SQS(2^k) with ``k = q``: ``P = C(2^k, 3) / 4``; body = order-4
    nd-packed entries."""

    name = "BCSS-4"
    kind = "dense"
    orders = (4,)
    # Its exchange graph is irregular: no uniform All-to-All slot.
    variants = (CommBackend.POINT_TO_POINT,)
    sqs = True
    family_error = "order-4 analysis partitions with SQS(2^k); pass --sqs K"
    partition_type = QuadruplePartition
    system = staticmethod(boolean_steiner_system)
    processor_count = staticmethod(_sqs_processor_count)
    title = "order-4 blocked STTSV"
    oracle = staticmethod(sttsv_ndim)
    lower_bound = staticmethod(partial(sttsv_ndim_lower_bound, d=4))
    bound_note = "order-4 generalization"

    def decode(self, registration, data) -> NdPackedSymmetricTensor:
        n = registration.n
        self._check_body(data, nd_packed_size(n, 4), f"nd-packed n={n}")
        return NdPackedSymmetricTensor(n, 4, data)

    def random_tensor(self, n, order, rank, seed) -> NdPackedSymmetricTensor:
        return nd_random_symmetric(n, 4, seed=seed)

    def flops(self, engine, rank) -> float:
        raise ConfigurationError(
            "the planner prices order 3 only: BCSS-4 has no order-4 flop"
            " count; use --order 3, or skip the planner and register the"
            " tensor explicitly with --backend/--variant"
            " ('repro load --order 4 --backend ...')"
        )


class SymK(Representation):
    """No Steiner structure: ``P`` is free, defaulting to ``q(q²+1)``
    so symk and dense-3 price side by side; body =
    ``[λ (r words), V row-major (n·r words)]``."""

    name = "symk"
    kind = "symk"
    orders = tuple(range(2, MAX_DENSE_ORDER + 1))
    title = "low-rank STTSV (rank {rank}, order {order})"
    oracle = staticmethod(SymKTensor.ttsv)
    span = "symk:run"
    rate = "gemv_flop_s"
    versioned = True
    order_gated = False
    label_tag = ",symk"
    label_prefix = "symk "
    family_error = (
        "--rank analyzes the low-rank symk path, which places any"
        " P = q(q²+1); it does not combine with --sqs"
    )

    def processor_count(self, q: int) -> int:
        return q * (q * q + 1)

    def shape(self, header: Dict) -> Tuple[int, int, Optional[int]]:
        rank = header_int(header, "rank", positive=True)
        q = header_int(header, "q", default=2)
        P = header_int(
            header, "P", default=self.processor_count(q), positive=True
        )
        return q, P, rank

    def default_n(self, q: int) -> int:
        return 4 * self.processor_count(q)

    def encode(self, tensor, order: int) -> Tuple[np.ndarray, Dict]:
        if order != tensor.m:  # the body does not carry the order
            raise ConfigurationError(
                f"order={order} but the symk tensor has order {tensor.m}"
            )
        payload = np.concatenate([tensor.lambda_, tensor.V.ravel()])
        return payload, {"kind": self.kind, "rank": tensor.r}

    def decode(self, registration, data) -> SymKTensor:
        n, rank = registration.n, registration.rank
        self._check_body(
            data, rank + n * rank,
            f"symk rank={rank}, n={n} (lambda then V row-major)",
        )
        return SymKTensor(
            data[:rank], data[rank:].reshape(n, rank), registration.order
        )

    def random_tensor(self, n, order, rank, seed) -> SymKTensor:
        return random_symk(n, rank, order=order, seed=seed)

    def engine(self, q, P, n, order, variant) -> ParallelSymKTTSV:
        return ParallelSymKTTSV(P, n, order=order, backend=variant)

    def replay(self, engine):
        return engine.serial_reference

    def expected_words(self, engine, rank) -> List[int]:
        return [symk_words_per_processor(engine.P, rank)] * engine.P

    # No bound: symk undercuts the dense one; its line compares instead.
    lower_bound = staticmethod(lambda n, P: None)

    def bound_lines(self, n, P, q, rank) -> List[str]:
        words = symk_words_per_processor(P, rank)
        dense = 2 * (n * (q + 1) / (q**2 + 1) - n / P)
        return [
            _line("closed form", f"{words:>8} words/proc ((P-1)*r = {P - 1}*{rank})"),
            _line("dense (order 3)", f"{dense:>8.1f} words/proc (2(n(q+1)/(q²+1) - n/P))"),
        ]

    def ledger(self, engine, rank):
        return engine.predicted_ledger(rank)

    def flops(self, engine, rank) -> float:
        return symk_parallel_flops(engine.P, engine.n, rank)

    def plan_modes(self, strategies, batch_widths) -> List[Tuple[str, int]]:
        return [("symk", 1)]

    def plan_label(self, strategy: str, batch_width: int, rank) -> str:
        return f"plan r={rank}"

    def resolve_plan(self, engine, tensor, strategy: str) -> str:
        if strategy not in ("auto", "symk"):
            raise ConfigurationError(
                f"{self.name} sessions support only the 'symk' plan"
                f" strategy, got {strategy!r}"
            )
        engine.check_tensor(tensor)
        return SymKPlan.strategy

    def plan(self, tensor, strategy: str) -> SymKPlan:
        return SymKPlan(tensor)

    def session_nbytes(self, engine, tensor, strategy: str) -> int:
        """The factors (the plan serves them in place) plus the
        engine's copy, at the current rank."""
        return tensor.nbytes + engine.factor_nbytes(tensor.r)

    def rank(self, tensor) -> Optional[int]:
        return tensor.r

    def reply_fields(self, session) -> Dict:
        return {
            "kind": self.kind,
            "rank": session.tensor.r,
            "update_epoch": session.update_epoch,
        }


#: Every representation the repo runs.
REPRESENTATIONS: Tuple[Representation, ...] = (Dense3(), BCSS4(), SymK())

_SELECTORS = {
    (rep.kind, order): rep for rep in REPRESENTATIONS for order in rep.orders
}
_BY_NAME = {rep.name: rep for rep in REPRESENTATIONS}


def representation_for(kind: str, order: int) -> Representation:
    """The representation a REGISTER ``(kind, order)`` selects."""
    try:
        return _SELECTORS[kind, order]
    except KeyError:
        raise ConfigurationError(
            f"no representation for kind={kind!r} order={order}; served"
            f" (kind, order) pairs: {sorted(_SELECTORS)}"
        ) from None


def representation_named(name: str) -> Representation:
    return _BY_NAME[name]


def representation_of(tensor) -> Representation:
    """Whose ``encode`` sends ``tensor``: symk for a
    :class:`SymKTensor`, dense storage otherwise."""
    return _BY_NAME["symk" if isinstance(tensor, SymKTensor) else "dense-3"]


def select(
    order: int, rank: Optional[int] = None, sqs: Optional[bool] = None
) -> Representation:
    """The CLI's selection rule: ``--rank`` picks symk, otherwise the
    dense representation of ``--order``. ``sqs`` says whether the ``q``
    knob names SQS(2^k) (``repro analyze --sqs K``) or the spherical
    family (``--q``); ``None`` keeps the representation's own reading
    of ``q``, as registration does."""
    representation = representation_for(
        "dense" if rank is None else "symk", order
    )
    if sqs is None or sqs == representation.sqs:
        return representation
    return representation.on_other_family()


def priced_representations(
    order: int, rank: Optional[int] = None
) -> Tuple[Representation, ...]:
    """What the planner prices: the dense representation of ``order``,
    plus symk when the tensor's rank is known."""
    dense = select(order)
    return (dense,) if rank is None else (dense, select(order, rank))
