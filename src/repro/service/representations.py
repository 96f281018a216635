"""REGISTER headers over the representation registry.

A REGISTER header's ``kind`` and ``order`` select one
:class:`~repro.core.representations.Representation` — dense-3, BCSS-4
or symk (:mod:`repro.core.representations`, re-exported here). The
representation owns every decision that depends on it: field rules,
the processor count ``P``, the body layout, engine and plan, resident
bytes, extra reply fields and the session-label tag; the planner
resolves ``auto`` fields for it. The server, the sessions and the
gateway ask it and never branch on ``kind`` or ``order``. DESIGN.md §9
has the table.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional

from repro.core.representations import (  # the registry, re-exported
    REPRESENTATIONS,  # noqa: F401
    Representation,
    header_int,
    representation_for,
)
from repro.errors import ConfigurationError
from repro.machine.transport import TRANSPORTS
from repro.planner.pricing import VARIANTS


def order_suffix(order: int, sep: str) -> str:
    """Key component naming a tensor's order. Order 3 adds nothing, so
    order-3 ring keys and session labels keep their historical form and
    shard placement stays stable across upgrades."""
    return "" if order == 3 else f"{sep}order={order}"


class Registration(NamedTuple):
    """One validated REGISTER header (``rank`` is ``None`` if dense)."""

    representation: Representation
    tensor_id: str
    n: int
    q: int
    P: int
    order: int
    rank: Optional[int]
    backend: str
    variant: str
    strategy: str

    def resolved(self, calibration_path: Optional[str]) -> "Registration":
        """Fill the fields left on ``auto`` from the planner.

        Deterministic given the calibration file (or its absence): ties
        break in enumeration order, so every shard behind the gateway
        resolves a replayed registration identically.
        """
        # Only an ``auto`` REGISTER needs the planner; a server that
        # never gets one never loads it.
        from repro.planner.calibration import Calibration
        from repro.planner.planner import auto_config

        config = auto_config(
            self.representation, self.n, self.q, self.P, self.rank,
            self.order,
            backends=(
                tuple(sorted(TRANSPORTS))
                if self.backend == "auto"
                else (self.backend,)
            ),
            calibration=Calibration.load_or_default(calibration_path),
        )
        return self._replace(**{
            field: config[field]
            for field in ("backend", "variant", "strategy")
            if getattr(self, field) == "auto"
        })


def parse_registration(header: Dict) -> Registration:
    """Validate a REGISTER header and select its representation. The
    shard server and the gateway both parse through here, so they
    reject a header with the same message and agree on ``P``."""
    tensor_id = header.get("tensor_id")
    if not isinstance(tensor_id, str) or not tensor_id:
        raise ConfigurationError("register needs a tensor_id string")
    order = header_int(header, "order", default=3)
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
    n = header_int(header, "n", positive=True)
    q, P, rank = representation.shape(header)
    return Registration(
        representation, tensor_id, n, q, P, order, rank, backend, variant,
        header.get("strategy", "auto"),
    )
