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

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.planner.calibration": (
        "DEFAULT_CALIBRATION_FILE",
        "Calibration",
        "ComputeConstants",
        "TransportConstants",
        "calibrate",
        "calibrate_compute",
        "calibrate_transport",
    ),
    "repro.planner.planner": (
        "Candidate",
        "PlanDecision",
        "PricedCandidate",
        "auto_config",
        "measure_candidate",
        "plan_sttsv",
    ),
    "repro.planner.pricing": ("STRATEGIES", "VARIANTS"),
    "repro.planner.report": ("render_decision_table",),
})

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
