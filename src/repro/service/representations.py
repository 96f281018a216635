"""The tensor representations the serving layer hosts, in one registry.

A REGISTER header's ``kind`` and ``order`` select one
:class:`Representation` — dense-3 (``kind="dense"``, ``order=3``: the
paper's spherical Algorithm 5), BCSS-4 (``kind="dense"``, ``order=4``:
blocked order-4 STTSV over SQS(2^k), ``q`` holding ``k``) or symk
(``kind="symk"``, orders 2..6: a low-rank ``(λ, V)`` tensor that accepts
streamed rank-1 updates). The representation owns every decision that
depends on it: field rules, the processor count ``P``, the body layout,
``auto`` resolution, engine and plan, resident bytes, extra reply fields
and the session-label suffix. The server, the sessions and the gateway
ask it and never branch on ``kind`` or ``order``. DESIGN.md §9 has the
table.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.bounds import processors_for_q
from repro.core.parallel_sttsv import ParallelSTTSV
from repro.core.parallel_symk import ParallelSymKTTSV
from repro.core.partition import TetrahedralPartition
from repro.core.partition_ndim import QuadruplePartition
from repro.core.plans import SequentialPlan, sequential_plan
from repro.errors import ConfigurationError
from repro.machine.transport import TRANSPORTS
from repro.planner import Calibration, auto_session_config, auto_symk_config
from repro.planner.pricing import VARIANTS
from repro.steiner import spherical_steiner_system
from repro.steiner.boolean import boolean_block_count, boolean_steiner_system
from repro.tensor.ndpacked import NdPackedSymmetricTensor, nd_packed_size
from repro.tensor.packed import PackedSymmetricTensor, packed_size
from repro.tensor.symk import MAX_DENSE_ORDER, SymKPlan, SymKTensor


def order_suffix(order: int, sep: str) -> str:
    """Key component naming a tensor's order. Order 3 adds nothing, so
    order-3 ring keys and session labels keep their historical form and
    shard placement stays stable across upgrades."""
    return "" if order == 3 else f"{sep}order={order}"


def _int_field(
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


def _only_strategy(strategy: str, name: str, representation: str) -> None:
    if strategy not in ("auto", name):
        raise ConfigurationError(
            f"{representation} sessions support only the {name!r} plan"
            f" strategy, got {strategy!r}"
        )


class Registration(NamedTuple):
    """One validated REGISTER header (``rank`` is ``None`` if dense)."""

    representation: "Representation"
    tensor_id: str
    n: int
    q: int
    P: int
    order: int
    rank: Optional[int]
    backend: str
    variant: str
    strategy: str

    def resolved(
        self, calibration_path: Optional[str], fusion: bool
    ) -> "Registration":
        """Fill the fields left on ``auto`` from the planner.

        Deterministic given the calibration file (or its absence): ties
        break in enumeration order, so every shard behind the gateway
        resolves a replayed registration identically. Fusion candidates
        are pinned to the server's own ``fusion`` setting.
        """
        config = self.representation.auto_config(
            self,
            backends=(
                tuple(sorted(TRANSPORTS))
                if self.backend == "auto"
                else (self.backend,)
            ),
            calibration=Calibration.load_or_default(calibration_path),
            fusion_options=(fusion,),
        )
        return self._replace(**{
            field: config[field]
            for field in ("backend", "variant", "strategy")
            if getattr(self, field) == "auto"
        })


class Representation:
    """How the serving layer parses, stores, runs and labels one tensor
    representation. Instances are stateless. Each one provides:

    * ``shape(header) -> (q, P, rank)`` — field and range rules, and
      the processor count;
    * ``decode(registration, data)`` — the tensor from the flat float64
      REGISTER body, size-checked;
    * ``auto_config(registration, **options)`` — the planner's backend,
      variant and plan strategy for fields left on ``auto``;
    * ``engine(key, tensor, variant, machine)`` — the parallel engine
      with the tensor's data resident on ``machine``;
    * ``plan(tensor, strategy)`` — the plan behind ``mode="plan"``;
    * ``nbytes(tensor)`` — resident bytes of the stored data.
    """

    #: Short name used in messages and docs.
    name: str
    #: The REGISTER ``kind`` and ``order`` values that select it.
    kind: str
    orders: Tuple[int, ...]
    #: Sessions accept streamed ``UPDATE``\ s; their applies bypass the
    #: batcher and run under ``exec_lock``, stamped with the epoch they
    #: reflect.
    versioned = False
    #: Whether the server's ``accepted_orders`` gates registration.
    order_gated = True
    #: Appended to session labels after the order component.
    label_tag = ""

    def rank(self, tensor) -> Optional[int]:
        return None

    def reply_fields(self, session) -> Dict:
        """REGISTER reply fields beyond the ones every reply carries."""
        return {}

    def label_suffix(self, order: int) -> str:
        """What :meth:`SessionKey.label` appends after the backend."""
        return order_suffix(order, ",") + self.label_tag

    @staticmethod
    def _check_body(data: np.ndarray, expected: int, layout: str) -> None:
        if data.shape[0] != expected:
            raise ConfigurationError(
                f"{layout} body has {data.shape[0]} entries, needs"
                f" {expected}"
            )


class _SteinerRepresentation(Representation):
    """Dense storage on a Steiner-system partition (subclasses give
    ``processor_count(q)`` and ``partition(q)``) run by
    :class:`ParallelSTTSV`."""

    def shape(self, header: Dict) -> Tuple[int, int, Optional[int]]:
        q = _int_field(header, "q")
        return q, self.processor_count(q), None

    def engine(self, key, tensor, variant, machine) -> ParallelSTTSV:
        partition = self.partition(key.q)
        partition.validate()
        if partition.P != key.P:
            raise ConfigurationError(
                f"q={key.q} builds P={partition.P} processors, key says"
                f" {key.P}"
            )
        engine = ParallelSTTSV(partition, tensor.n, backend=variant)
        engine.load_tensor(machine, tensor)
        return engine

    def plan(self, tensor, strategy: str) -> SequentialPlan:
        return sequential_plan(tensor, strategy=strategy)

    def nbytes(self, tensor) -> int:
        return int(tensor.data.nbytes)


class Dense3(_SteinerRepresentation):
    """``P = q(q²+1)``; body = packed upper-tetrahedral entries."""

    name = "dense-3"
    kind = "dense"
    orders = (3,)

    def processor_count(self, q: int) -> int:
        return processors_for_q(q)

    def partition(self, q: int) -> TetrahedralPartition:
        return TetrahedralPartition(spherical_steiner_system(q))

    def decode(self, registration, data) -> PackedSymmetricTensor:
        n = registration.n
        self._check_body(data, packed_size(n), f"packed n={n}")
        return PackedSymmetricTensor(n, data)

    def auto_config(self, registration, **options) -> Dict:
        return auto_session_config(registration.n, registration.q, **options)


class BCSS4(_SteinerRepresentation):
    """SQS(2^k) with ``k = q``: ``P = C(2^k, 3) / 4``; body = order-4
    nd-packed entries."""

    name = "BCSS-4"
    kind = "dense"
    orders = (4,)

    def processor_count(self, q: int) -> int:
        if q < 2:
            raise ConfigurationError(
                f"order-4 registration needs SQS parameter q=k >= 2, got {q}"
            )
        return boolean_block_count(q)

    def partition(self, q: int) -> QuadruplePartition:
        return QuadruplePartition(boolean_steiner_system(q))

    def decode(self, registration, data) -> NdPackedSymmetricTensor:
        n = registration.n
        self._check_body(data, nd_packed_size(n, 4), f"nd-packed n={n}")
        return NdPackedSymmetricTensor(n, 4, data)

    def auto_config(self, registration, **options) -> Dict:
        raise ConfigurationError(
            "order-4 registration does not support auto backend/variant"
            " (the planner prices order 3 only)"
        )


class SymK(Representation):
    """No Steiner structure: ``P`` is the header's, defaulting to
    ``q(q²+1)`` so symk and dense-3 price side by side; body =
    ``[λ (r words), V row-major (n·r words)]``."""

    name = "symk"
    kind = "symk"
    orders = tuple(range(2, MAX_DENSE_ORDER + 1))
    versioned = True
    order_gated = False
    label_tag = ",symk"

    def shape(self, header: Dict) -> Tuple[int, int, Optional[int]]:
        rank = _int_field(header, "rank", positive=True)
        q = _int_field(header, "q", default=2)
        P = _int_field(header, "P", default=q * (q * q + 1), positive=True)
        return q, P, rank

    def decode(self, registration, data) -> SymKTensor:
        n, rank = registration.n, registration.rank
        self._check_body(
            data, rank + n * rank,
            f"symk rank={rank}, n={n} (lambda then V row-major)",
        )
        return SymKTensor(
            data[:rank], data[rank:].reshape(n, rank), registration.order
        )

    def auto_config(self, registration, **options) -> Dict:
        return auto_symk_config(
            registration.n, registration.rank, registration.P, **options
        )

    def engine(self, key, tensor, variant, machine) -> ParallelSymKTTSV:
        if not isinstance(tensor, SymKTensor):
            raise ConfigurationError(
                f"symk sessions need a SymKTensor, got"
                f" {type(tensor).__name__}"
            )
        engine = ParallelSymKTTSV(
            key.P, tensor.n, order=key.order, backend=variant
        )
        engine.load_factors(machine, tensor)
        return engine

    def plan(self, tensor, strategy: str) -> SymKPlan:
        _only_strategy(strategy, "symk", self.name)
        return SymKPlan(tensor)

    def nbytes(self, tensor) -> int:
        return int(tensor.nbytes)

    def rank(self, tensor) -> Optional[int]:
        return tensor.r

    def reply_fields(self, session) -> Dict:
        return {
            "kind": self.kind,
            "rank": session.tensor.r,
            "update_epoch": session.update_epoch,
        }


#: Every representation the serving layer hosts.
REPRESENTATIONS: Tuple[Representation, ...] = (Dense3(), BCSS4(), SymK())

_SELECTORS = {
    (rep.kind, order): rep for rep in REPRESENTATIONS for order in rep.orders
}


def representation_for(kind: str, order: int) -> Representation:
    """The representation a REGISTER ``(kind, order)`` selects."""
    try:
        return _SELECTORS[kind, order]
    except KeyError:
        raise ConfigurationError(
            f"no representation for kind={kind!r} order={order}; served"
            f" (kind, order) pairs: {sorted(_SELECTORS)}"
        ) from None


def parse_registration(header: Dict) -> Registration:
    """Validate a REGISTER header and select its representation. The
    shard server and the gateway both parse through here, so they
    reject a header with the same message and agree on ``P``."""
    tensor_id = header.get("tensor_id")
    if not isinstance(tensor_id, str) or not tensor_id:
        raise ConfigurationError("register needs a tensor_id string")
    order = _int_field(header, "order", default=3)
    representation = representation_for(header.get("kind", "dense"), order)
    backend = header.get("backend", "simulated")
    if backend != "auto" and backend not in TRANSPORTS:
        raise ConfigurationError(
            f"unknown backend {backend!r}; available: auto,"
            f" {', '.join(sorted(TRANSPORTS))}"
        )
    variant = header.get("variant", "point-to-point")
    if variant != "auto" and variant not in VARIANTS:
        raise ConfigurationError(
            f"unknown variant {variant!r}; available: auto,"
            f" {', '.join(VARIANTS)}"
        )
    n = _int_field(header, "n", positive=True)
    q, P, rank = representation.shape(header)
    return Registration(
        representation, tensor_id, n, q, P, order, rank, backend, variant,
        header.get("strategy", "auto"),
    )
