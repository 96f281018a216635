"""Human-readable decision tables for ``repro plan``."""

from __future__ import annotations

from typing import List

from repro.core.representations import representation_named
from repro.planner.planner import PlanDecision, PricedCandidate

_COLUMNS = (
    "rank",
    "mode",
    "repr",
    "q",
    "P",
    "backend",
    "variant",
    "strategy",
    "batch",
    "rounds",
    "words/proc",
    "comm (ms)",
    "compute (ms)",
    "total (ms)",
)


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.4f}"


def _row(rank: int, priced: PricedCandidate, best: bool) -> List[str]:
    c = priced.candidate
    return [
        f"{'>' if best else ' '}{rank}",
        c.mode,
        representation_named(c.representation).kind,
        str(c.q) if c.q is not None else "-",
        str(c.P) if c.P is not None else "-",
        c.backend or "-",
        c.variant or "-",
        c.strategy or "-",
        str(c.batch_width) if c.batch_width is not None else "-",
        str(priced.physical_rounds),
        str(priced.words_per_processor),
        _ms(priced.comm_time),
        _ms(priced.compute_time),
        _ms(priced.total_time),
    ]


def render_decision_table(decision: PlanDecision) -> str:
    """The full priced candidate table, cheapest first, best marked
    with ``>``; header lines state the constants that priced it."""
    calibration = decision.calibration
    source = "measured" if calibration.measured else "default"
    lines = [
        f"STTSV plan for n={decision.n} ({source} constants)",
    ]
    for name, constants in sorted(calibration.backends.items()):
        lines.append(
            f"  {name}: alpha={constants.alpha:.3e} s/msg,"
            f" beta={constants.beta:.3e} s/word"
        )
    compute = calibration.compute
    lines.append(
        f"  compute: gemm={compute.gemm_flop_s:.3e} s/flop,"
        f" gemv={compute.gemv_flop_s:.3e} s/flop,"
        f" scatter={compute.scatter_op_s:.3e} s/op"
    )
    rows = [list(_COLUMNS)]
    for rank, priced in enumerate(decision.candidates, start=1):
        rows.append(_row(rank, priced, priced is decision.best))
    widths = [
        max(len(row[i]) for row in rows) for i in range(len(_COLUMNS))
    ]
    lines.append("")
    for index, row in enumerate(rows):
        lines.append(
            "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        )
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    best = decision.best.candidate
    lines.append("")
    lines.append(f"best: {best.label()}")
    if decision.best_parallel is not None and decision.best_parallel is not decision.best:
        lines.append(
            f"best parallel: {decision.best_parallel.candidate.label()}"
        )
    return "\n".join(lines)
