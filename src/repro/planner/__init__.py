"""Cost-model-driven autotuning planner (``repro plan`` / auto mode).

Four layers:

* :mod:`repro.planner.calibration` — measure α-β-γ constants from
  microbenchmarks, persist them as versioned JSON.
* :mod:`repro.planner.pricing` — the per-vector work counts of the
  sequential plan strategies; communication ledgers and parallel flops
  come from each representation's engine
  (:mod:`repro.core.representations`).
* :mod:`repro.planner.planner` — enumerate candidates, price them,
  return the argmin (:class:`PlanDecision`) plus measured cross-checks.
* :mod:`repro.planner.report` — render a decision as a human-readable
  table.
"""

from repro.planner.calibration import (
    DEFAULT_CALIBRATION_FILE,
    Calibration,
    ComputeConstants,
    TransportConstants,
    calibrate,
    calibrate_compute,
    calibrate_transport,
)
from repro.planner.planner import (
    Candidate,
    PlanDecision,
    PricedCandidate,
    auto_config,
    measure_candidate,
    plan_sttsv,
)
from repro.planner.pricing import STRATEGIES, VARIANTS
from repro.planner.report import render_decision_table

__all__ = [
    "Calibration",
    "Candidate",
    "ComputeConstants",
    "DEFAULT_CALIBRATION_FILE",
    "PlanDecision",
    "PricedCandidate",
    "STRATEGIES",
    "TransportConstants",
    "VARIANTS",
    "auto_config",
    "calibrate",
    "calibrate_compute",
    "calibrate_transport",
    "measure_candidate",
    "plan_sttsv",
    "render_decision_table",
]
