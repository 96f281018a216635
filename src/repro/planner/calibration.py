"""α-β-γ calibration from short microbenchmarks, persisted as JSON.

The planner prices candidate configurations with the existing
:class:`~repro.machine.cost.CostModel`, which is only as good as the
machine constants it is given. This module measures them:

* **α** (per-message latency) and **β** (per-word bandwidth) are
  measured *per transport* by timing real ``transport.exchange`` calls
  — a 1-word ping for α, a large buffer for β — so the shared-memory
  backend's genuine IPC cost (queue round-trips, buffer packing) shows
  up in its constants while the in-process simulator prices near zero.
* **γ** (per-flop compute rate) is measured once per machine with three
  probes matching the repo's actual kernels: a multi-column GEMM (the
  ``gemm`` plan strategy under batching), a GEMV (the same strategy at
  batch width 1), and a fancy-index scatter-add (the ``bincount``
  strategy's memory-bound core, priced per packed *operation* rather
  than per flop).

Results round-trip through a small versioned JSON file (the
``--calibrate`` refresh path of ``repro plan``), so serving processes
can load constants measured once on the host instead of re-benchmarking
at every registration. :meth:`Calibration.default` supplies the
documented commodity-cluster defaults when no file exists.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.machine.cost import CostModel
from repro.machine.transport import TRANSPORTS, make_transport
from repro.machine.transport.base import Transfer

#: On-disk schema version (bump when the JSON layout changes).
CALIBRATION_VERSION = 1

#: Default calibration file name (cwd-relative unless a path is given).
DEFAULT_CALIBRATION_FILE = "repro-calibration.json"

#: Words in the bandwidth probe payload (256 KiB of float64).
_BANDWIDTH_PROBE_WORDS = 1 << 15

#: Repeats per microbenchmark; the median is recorded.
_PROBE_REPEATS = 7

#: Floor applied to every measured constant: a 0.0 rate would make
#: every candidate free and ties meaningless.
_FLOOR = 1e-12


@dataclass(frozen=True)
class TransportConstants:
    """Measured α-β pair of one transport backend."""

    alpha: float
    beta: float


@dataclass(frozen=True)
class ComputeConstants:
    """Measured local-compute rates (seconds per operation)."""

    #: Seconds per flop in a multi-column GEMM (batched ``gemm`` plan).
    gemm_flop_s: float
    #: Seconds per flop in a GEMV (``gemm`` plan at batch width 1).
    gemv_flop_s: float
    #: Seconds per scatter-add op (``bincount`` plan, memory bound).
    scatter_op_s: float


#: Documented commodity-cluster defaults (match ``CostModel``'s).
DEFAULT_TRANSPORT = TransportConstants(alpha=1e-6, beta=1e-9)
DEFAULT_COMPUTE = ComputeConstants(
    gemm_flop_s=1e-10, gemv_flop_s=2e-10, scatter_op_s=5e-9
)


@dataclass(frozen=True)
class Calibration:
    """Per-transport α-β constants plus machine-wide compute rates."""

    backends: Dict[str, TransportConstants] = field(default_factory=dict)
    compute: ComputeConstants = DEFAULT_COMPUTE
    #: Unix timestamp of the measurement (0.0 for synthetic defaults).
    created_unix: float = 0.0
    #: True iff the constants were measured rather than defaulted.
    measured: bool = False

    @classmethod
    def default(cls) -> "Calibration":
        """The documented defaults for every registered transport."""
        return cls(
            backends={name: DEFAULT_TRANSPORT for name in TRANSPORTS},
            compute=DEFAULT_COMPUTE,
        )

    def constants_for(self, backend: str) -> TransportConstants:
        """α-β constants for ``backend`` (defaults when unmeasured)."""
        return self.backends.get(backend, DEFAULT_TRANSPORT)

    def cost_model(self, backend: str, gamma: float) -> CostModel:
        """A :class:`CostModel` carrying ``backend``'s α-β and the
        caller-chosen γ (the planner picks the γ matching the
        candidate's compute kernel)."""
        constants = self.constants_for(backend)
        return CostModel(
            alpha=constants.alpha, beta=constants.beta, gamma=gamma
        )

    # -- persistence -----------------------------------------------------------

    def to_json(self) -> str:
        """Serialize to the versioned on-disk form."""
        return json.dumps(
            {
                "version": CALIBRATION_VERSION,
                "created_unix": self.created_unix,
                "measured": self.measured,
                "compute": {
                    "gemm_flop_s": self.compute.gemm_flop_s,
                    "gemv_flop_s": self.compute.gemv_flop_s,
                    "scatter_op_s": self.compute.scatter_op_s,
                },
                "backends": {
                    name: {"alpha": c.alpha, "beta": c.beta}
                    for name, c in sorted(self.backends.items())
                },
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "Calibration":
        """Parse the on-disk form; raises on version mismatch."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(
                f"calibration file is not valid JSON: {error}"
            ) from None
        version = payload.get("version")
        if version != CALIBRATION_VERSION:
            raise ConfigurationError(
                f"calibration file version {version!r} unsupported"
                f" (expected {CALIBRATION_VERSION}); re-run --calibrate"
            )
        try:
            compute = ComputeConstants(**payload["compute"])
            backends = {
                name: TransportConstants(**constants)
                for name, constants in payload["backends"].items()
            }
        except (KeyError, TypeError) as error:
            raise ConfigurationError(
                f"calibration file is missing fields: {error}"
            ) from None
        return cls(
            backends=backends,
            compute=compute,
            created_unix=float(payload.get("created_unix", 0.0)),
            measured=bool(payload.get("measured", False)),
        )

    def save(self, path: str = DEFAULT_CALIBRATION_FILE) -> str:
        """Write the calibration file; returns the path written."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: str = DEFAULT_CALIBRATION_FILE) -> "Calibration":
        """Load a calibration file (raises ``OSError`` if absent)."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    @classmethod
    def load_or_default(
        cls, path: Optional[str] = None
    ) -> "Calibration":
        """Load ``path`` (or the default file) if present, else the
        documented defaults — the serving layer's no-surprises path."""
        try:
            return cls.load(path if path is not None else DEFAULT_CALIBRATION_FILE)
        except OSError:
            return cls.default()


# -- microbenchmarks -------------------------------------------------------------


def _median_seconds(fn: Callable[[], None], repeats: int) -> float:
    fn()  # warm up (allocations, worker wakeup, BLAS thread spinup)
    samples: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


def calibrate_transport(
    backend: str, repeats: int = _PROBE_REPEATS
) -> TransportConstants:
    """Measure α (1-word round) and β (per word, large round) of one
    transport by timing real ``exchange`` calls on a 2-rank instance."""
    transport = make_transport(backend, 2)
    try:
        ping = np.zeros(1)
        bulk = np.zeros(_BANDWIDTH_PROBE_WORDS)
        alpha = _median_seconds(
            lambda: transport.exchange([Transfer(0, 1, ping)]), repeats
        )
        t_bulk = _median_seconds(
            lambda: transport.exchange([Transfer(0, 1, bulk)]), repeats
        )
        beta = (t_bulk - alpha) / _BANDWIDTH_PROBE_WORDS
        return TransportConstants(
            alpha=max(alpha, _FLOOR), beta=max(beta, _FLOOR)
        )
    finally:
        transport.close()


def calibrate_compute(repeats: int = _PROBE_REPEATS) -> ComputeConstants:
    """Measure the three local-compute rates the planner prices with."""
    rng = np.random.default_rng(0)
    # gemm: one multi-column product shaped like the plan layer's
    # batched apply (operator rows × packed columns × batch width).
    rows, cols, width = 192, 2048, 16
    operator = rng.standard_normal((rows, cols))
    batch = rng.standard_normal((cols, width))
    gemm_flops = 2.0 * rows * cols * width
    gemm_s = _median_seconds(lambda: operator @ batch, repeats)
    # gemv: the same operator against a single vector.
    vector = rng.standard_normal(cols)
    gemv_flops = 2.0 * rows * cols
    gemv_s = _median_seconds(lambda: operator @ vector, repeats)
    # scatter: bincount-style weighted scatter-add, priced per element.
    ops = 1 << 18
    indices = rng.integers(0, 4096, size=ops)
    weights = rng.standard_normal(ops)
    scatter_s = _median_seconds(
        lambda: np.bincount(indices, weights=weights, minlength=4096),
        repeats,
    )
    return ComputeConstants(
        gemm_flop_s=max(gemm_s / gemm_flops, _FLOOR),
        gemv_flop_s=max(gemv_s / gemv_flops, _FLOOR),
        scatter_op_s=max(scatter_s / ops, _FLOOR),
    )


def calibrate(
    backends: Sequence[str] = ("simulated",),
    repeats: int = _PROBE_REPEATS,
) -> Calibration:
    """Run every microbenchmark and return a measured calibration."""
    unknown = sorted(set(backends) - set(TRANSPORTS))
    if unknown:
        raise ConfigurationError(
            f"unknown transport backend(s) {unknown}; available:"
            f" {', '.join(sorted(TRANSPORTS))}"
        )
    measured = {
        backend: calibrate_transport(backend, repeats=repeats)
        for backend in backends
    }
    return Calibration(
        backends=measured,
        compute=calibrate_compute(repeats=repeats),
        created_unix=time.time(),
        measured=True,
    )
