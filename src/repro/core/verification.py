"""Structured end-to-end verification of a parallel STTSV run.

Bundles the checks every experiment repeats — numerical correctness
against a sequential oracle, ledger-vs-formula equality, an optional
bitwise serial replay, lower-bound consistency and a model audit —
into one :class:`RunVerdict` consumed by ``repro analyze`` and by
tests. Any engine with ``load / run / gather_result`` verifies alike;
:mod:`repro.core.representations` supplies each one's oracle, words
and bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.machine.auditing import AuditReport, audit_ledger
from repro.machine.machine import Machine
from repro.machine.recovery import RecoveryPolicy
from repro.machine.transport.base import Transport


@dataclass
class RunVerdict:
    """Everything a referee would ask about one simulated run."""

    backend: str
    n: int
    n_padded: int
    P: int
    max_error: float
    words_per_processor: int
    expected_words: int
    lower_bound: Optional[float]
    rounds: int
    audit: AuditReport
    problems: List[str] = field(default_factory=list)
    transport: str = "simulated"
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    # Recovery side-channel (DESIGN.md §8): cost of redelivering faulty
    # transfers, kept apart from the algorithmic counts above.
    retry_rounds: int = 0
    retry_words: int = 0
    retry_messages: int = 0
    failed_over: bool = False
    warnings: List[str] = field(default_factory=list)
    # Fusion side-channel (DESIGN.md §11): what the transport
    # physically moved when batches of rounds were fused — the
    # algorithmic counts above always describe the unfused schedule.
    fusion_summary: Dict[str, int] = field(default_factory=dict)
    #: Result == serial replay, bitwise (``None``: no replay given).
    bitwise: Optional[bool] = None

    @property
    def ok(self) -> bool:
        """Run is numerically correct, cost-exact, bound-consistent and
        model-clean."""
        return not self.problems and self.audit.ok

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        bound = "-" if self.lower_bound is None else f"{self.lower_bound:.1f}"
        return (
            f"[{status}] {self.backend}: n={self.n} P={self.P}"
            f" words={self.words_per_processor}"
            f" (formula {self.expected_words}, bound {bound})"
            f" rounds={self.rounds} err={self.max_error:.2e}"
        )


def verify_sttsv_run(
    engine,
    tensor,
    x: np.ndarray,
    oracle: Callable[[object, np.ndarray], np.ndarray],
    expected_words: Sequence[int],
    lower_bound: Optional[float] = None,
    *,
    replay: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    tolerance: float = 1e-9,
    transport: Optional[Transport] = None,
    recovery: Optional[RecoveryPolicy] = None,
) -> RunVerdict:
    """Run ``engine`` once on ``tensor`` and ``x`` and return the full
    verdict: the result must match ``oracle(tensor, x)`` within
    ``tolerance`` (relative) and, if given, ``replay(x)`` bitwise; the
    ledger's ``words_sent`` must equal ``expected_words`` exactly, which
    may not undercut ``lower_bound``.

    The ledger checks are transport-independent: under an
    injected-fault ``transport`` redelivery is accounted in the
    ``retry_*`` fields, never in ``words_sent``, and fused batches
    show only in the ``fusion_summary`` side-channel. ``recovery`` bounds
    the retry loop. The caller owns the transport (``close()``).
    """
    expected_words = list(expected_words)
    P = len(expected_words)
    machine = Machine(P, transport=transport, recovery=recovery)
    engine.load(machine, tensor, x)
    engine.run(machine)
    result = engine.gather_result(machine)
    reference = oracle(tensor, x)
    scale = float(np.max(np.abs(reference))) or 1.0
    max_error = float(np.max(np.abs(result - reference)))
    bitwise = None if replay is None else bool(np.array_equal(result, replay(x)))
    expected = max(expected_words)

    problems: List[str] = []
    if max_error > tolerance * scale:
        problems.append(f"numerical error {max_error:.2e} above tolerance")
    if bitwise is False:
        problems.append("result differs from the serial replay")
    if machine.ledger.words_sent != expected_words:
        problems.append(
            f"ledger {machine.ledger.max_words_sent()} != formula {expected}"
        )
    if lower_bound is not None and expected + 1e-9 < lower_bound:
        problems.append(
            f"cost {expected} below the lower bound {lower_bound:.1f}"
            " — accounting bug"
        )
    return RunVerdict(
        backend=engine.backend.value,
        n=tensor.n,
        n_padded=engine.n_padded,
        P=P,
        max_error=max_error,
        words_per_processor=machine.ledger.max_words_sent(),
        expected_words=expected,
        lower_bound=lower_bound,
        rounds=machine.ledger.round_count(),
        # Uniform volumes are an invariant only where the formula is.
        audit=audit_ledger(
            machine.ledger, expect_uniform=len(set(expected_words)) == 1
        ),
        problems=problems,
        transport=machine.transport.name,
        phase_seconds={
            name: timing.total_seconds
            for name, timing in machine.instrument.timings().items()
        },
        retry_rounds=machine.ledger.retry_rounds,
        retry_words=machine.ledger.retry_words,
        retry_messages=machine.ledger.retry_messages,
        failed_over=machine.failed_over,
        warnings=list(machine.instrument.warnings),
        fusion_summary=machine.ledger.fusion_summary(),
        bitwise=bitwise,
    )
