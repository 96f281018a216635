"""Planner benchmark → machine-readable BENCH_planner.json.

Usage::

    PYTHONPATH=src python benchmarks/run_planner_bench.py [--quick]

Calibrates α-β-γ constants on this machine (transport microbenchmarks
plus compute probes), prices every candidate configuration with the
planner, then *executes* each parallel candidate and records predicted
vs measured wall time — the planner's prediction-error ledger.

Two properties are pinned in the report:

* **ranking agreement** — whether the planner's predicted ordering of
  parallel candidates matches the measured ordering (Kendall-style
  pair agreement over candidate pairs whose measured times differ by
  more than jitter);
* **decision flip** — with α artificially inflated the best
  configuration must be the sequential plan, with cheap communication
  Algorithm 5 (exercised end to end through the planner). Both parallel
  variants run each phase as one fused exchange, so the flip also pins
  that their fused-round counts (α terms) are equal and that
  point-to-point sends fewer words — the paper's bandwidth result,
  which is why the model picks it at every α.

Absolute prediction error is recorded but NOT gated: the simulated
transport's per-round Python overhead is not part of the α-β-γ model,
so predicted/measured ratios are informative (and tracked over time),
not acceptance bars.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.planner import (  # noqa: E402
    Calibration,
    TransportConstants,
    calibrate,
    measure_candidate,
    plan_sttsv,
    render_decision_table,
)


def bench_prediction(n: int, qs, repeats: int) -> dict:
    calibration = calibrate(backends=("simulated",), repeats=repeats)
    decision = plan_sttsv(n, qs=qs, calibration=calibration)
    print(render_decision_table(decision))
    rows = []
    for priced in decision.candidates:
        if priced.candidate.mode != "parallel":
            continue
        measured = measure_candidate(priced, n, repeats=repeats)
        rows.append(
            {
                "candidate": measured.candidate.label(),
                "variant": measured.candidate.variant,
                "q": measured.candidate.q,
                "predicted_s": measured.total_time,
                "measured_s": measured.measured_seconds,
                "predicted_over_measured": measured.prediction_error,
            }
        )
        print(
            f"  {measured.candidate.label():<44}"
            f" predicted {measured.total_time * 1e3:9.4f} ms"
            f"  measured {measured.measured_seconds * 1e3:9.4f} ms"
        )
    # Pair agreement between predicted and measured orderings, over
    # pairs separated by >20% measured time (below that is jitter).
    agree = total = 0
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            a, b = rows[i], rows[j]
            if min(a["measured_s"], b["measured_s"]) <= 0:
                continue
            ratio = a["measured_s"] / b["measured_s"]
            if 0.8 < ratio < 1.25:
                continue
            total += 1
            predicted_order = a["predicted_s"] < b["predicted_s"]
            measured_order = a["measured_s"] < b["measured_s"]
            agree += predicted_order == measured_order
    return {
        "n": n,
        "qs": list(qs),
        "calibration": json.loads(calibration.to_json()),
        "candidates": rows,
        "ranking_pairs": total,
        "ranking_agreement": (agree / total) if total else None,
    }


def bench_decision_flip(n: int, q: int) -> dict:
    """The plan↔parallel flip, priced end to end through the public
    planner, plus the α tie between the two parallel variants."""

    def decide(alpha: float, beta: float):
        calibration = Calibration(
            backends={"simulated": TransportConstants(alpha, beta)}
        )
        return plan_sttsv(n, qs=(q,), calibration=calibration)

    alpha_heavy = decide(1e-2, 1e-9)
    cheap = decide(1e-9, 1e-12)
    parallel = {
        c.candidate.variant: c
        for c in alpha_heavy.candidates
        if c.candidate.mode == "parallel"
    }
    rounds = {v: c.physical_rounds for v, c in parallel.items()}
    words = {v: c.words_per_processor for v, c in parallel.items()}
    print(
        f"decision flip at q={q}: alpha-heavy -> {alpha_heavy.best.candidate.mode},"
        f" cheap communication -> {cheap.best.candidate.mode};"
        f" fused rounds {rounds}, words/proc {words}"
    )
    return {
        "q": q,
        "alpha_heavy_mode": alpha_heavy.best.candidate.mode,
        "cheap_mode": cheap.best.candidate.mode,
        "fused_rounds": rounds,
        "words_per_processor": words,
        "flips_correctly": (
            alpha_heavy.best.candidate.mode == "plan"
            and cheap.best.candidate.mode == "parallel"
            and rounds["point-to-point"] == rounds["all-to-all"]
            and words["point-to-point"] < words["all-to-all"]
        ),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small sizes / few repeats (CI smoke)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_planner.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args()

    if args.quick:
        prediction = bench_prediction(n=30, qs=(2,), repeats=2)
    else:
        prediction = bench_prediction(n=90, qs=(2, 3), repeats=5)
    flip = bench_decision_flip(n=90, q=3)

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except Exception:
        commit = "unknown"

    report = {
        "benchmark": "planner",
        "quick": args.quick,
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "prediction": prediction,
        "decision_flip": flip,
        # The acceptance bar this file exists to witness.
        "flips_correctly": flip["flips_correctly"],
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report["decision_flip"], indent=2))
    print(f"\nwrote {args.output}")


if __name__ == "__main__":
    main()
