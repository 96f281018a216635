"""Candidate enumeration, argmin selection, and measured cross-checks.

``plan_sttsv`` is the autotuning entry point: enumerate every valid
configuration for a tensor — representation, communication variant
(point-to-point vs All-to-All), transport backend, plan strategy,
batch width — price each one from the exact fused ledger its own
engine predicts under calibrated α-β-γ constants
(:mod:`repro.planner.calibration`), and return the argmin with the
full priced table. The representation registry
(:mod:`repro.core.representations`) supplies each candidate's engine,
flops, compute rate, ledger and run span, so no representation is
special-cased here.

The interesting selection is the paper's own tradeoff: the All-to-All
variant moves ~2× the point-to-point bandwidth but fuses each phase
into a single physical exchange, so it wins exactly when α dominates β
— inflate α (a high-latency interconnect) and the argmin flips from
point-to-point to All-to-All; inflate β (a thin pipe) and it flips
back. Both flips are pinned by tests.

Ties are broken deterministically: candidates are priced in a fixed
enumeration order and sorting is stable, so equal-cost configurations
resolve to the earliest-enumerated one (simulated before shm,
point-to-point before All-to-All, smaller batch widths first) — the
planner never dithers between equivalent choices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.parallel_sttsv import CommBackend
from repro.core.representations import (
    Representation,
    priced_representations,
    representation_named,
)
from repro.errors import ConfigurationError
from repro.machine.ledger import CommunicationLedger
from repro.machine.machine import Machine
from repro.machine.transport import make_transport
from repro.planner.calibration import Calibration
from repro.planner.pricing import STRATEGIES, VARIANTS, plan_cost

#: Default batch widths enumerated for the plan path.
DEFAULT_BATCH_WIDTHS = (1, 8, 32)


@dataclass(frozen=True)
class Candidate:
    """One runnable configuration.

    ``mode="parallel"`` candidates carry ``(q, P, backend, variant)``
    and serve through Algorithm 5 on the warm machine;
    ``mode="plan"`` candidates carry ``(strategy, batch_width)`` and
    serve through the compiled sequential plan (no communication).
    ``representation`` is the registry name; ``"symk"`` candidates
    (enumerated when the caller knows the tensor's rank) price the
    low-rank factored paths: the parallel ``r``-word all-gather or the
    O(nr) sequential kernel.
    """

    mode: str
    q: Optional[int] = None
    P: Optional[int] = None
    backend: Optional[str] = None
    variant: Optional[str] = None
    strategy: Optional[str] = None
    batch_width: Optional[int] = None
    representation: str = "dense-3"
    rank: Optional[int] = None

    def label(self) -> str:
        representation = representation_named(self.representation)
        if self.mode == "parallel":
            body = f"parallel q={self.q} {self.backend} {self.variant}"
        else:
            body = representation.plan_label(
                self.strategy, self.batch_width, self.rank
            )
        return representation.label_prefix + body


@dataclass
class PricedCandidate:
    """A candidate with its α-β-γ price (seconds per served vector)."""

    candidate: Candidate
    comm_time: float
    compute_time: float
    total_time: float
    #: Physical synchronous steps per vector (fused exchanges count 1).
    physical_rounds: int
    #: Critical-path words sent per processor per vector.
    words_per_processor: int
    alpha: float
    beta: float
    gamma: float
    #: Filled by :func:`measure_candidate` (wall seconds, one vector).
    measured_seconds: Optional[float] = None

    @property
    def prediction_error(self) -> Optional[float]:
        """``predicted/measured`` ratio (None until measured)."""
        if not self.measured_seconds:
            return None
        return self.total_time / self.measured_seconds


class PlanDecision:
    """The priced candidate table plus its argmins."""

    def __init__(
        self,
        n: int,
        candidates: List[PricedCandidate],
        calibration: Calibration,
    ):
        if not candidates:
            raise ConfigurationError("planner produced no candidates")
        self.n = n
        self.calibration = calibration
        # Stable sort: ties resolve to enumeration order.
        self.candidates = sorted(candidates, key=lambda c: c.total_time)
        self.best = self.candidates[0]
        self.best_parallel = next(
            (c for c in self.candidates if c.candidate.mode == "parallel"),
            None,
        )
        self.best_plan = next(
            (c for c in self.candidates if c.candidate.mode == "plan"),
            None,
        )

    def session_config(self) -> Dict:
        """The configuration the serving layer's auto mode applies:
        machine side from the best parallel candidate, plan side from
        the best sequential candidate."""
        config: Dict = {"n": self.n}
        if self.best_parallel is not None:
            parallel = self.best_parallel.candidate
            config.update(
                q=parallel.q,
                P=parallel.P,
                backend=parallel.backend,
                variant=parallel.variant,
            )
        if self.best_plan is not None:
            plan = self.best_plan.candidate
            config.update(
                strategy=plan.strategy, batch_width=plan.batch_width
            )
        return config


def _price_parallel(
    candidate: Candidate,
    ledger: CommunicationLedger,
    flops: float,
    gamma: float,
    calibration: Calibration,
) -> PricedCandidate:
    model = calibration.cost_model(candidate.backend, gamma=gamma)
    comm = model.fused_communication_time(ledger)
    compute = model.computation_time(flops)
    return PricedCandidate(
        candidate=candidate,
        comm_time=comm,
        compute_time=compute,
        total_time=comm + compute,
        physical_rounds=ledger.fused_rounds
        + sum(1 for r in ledger.rounds if not r.fused),
        words_per_processor=ledger.max_words_sent(),
        alpha=model.alpha,
        beta=model.beta,
        gamma=gamma,
    )


def _price_engines(
    representation: Representation,
    q: int,
    P: int,
    n: int,
    rank: Optional[int],
    order: int,
    backends: Sequence[str],
    variants: Sequence[str],
    calibration: Calibration,
) -> List[PricedCandidate]:
    """Price every ``(backend, variant)`` one representation runs at
    ``(q, P)``, in that enumeration order. One engine is built per
    variant; every backend prices its ledger under its own α-β.
    """
    gamma = getattr(calibration.compute, representation.rate)
    variants = [
        v for v in variants if CommBackend(v) in representation.variants
    ]
    costs: Dict[str, Tuple[CommunicationLedger, float]] = {}
    for variant in variants:
        engine = representation.engine(q, P, n, order, variant)
        costs[variant] = (
            representation.ledger(engine, rank),
            representation.flops(engine, rank),
        )
    template = Candidate(
        mode="parallel", q=q, P=P, representation=representation.name,
        rank=rank,
    )
    return [
        _price_parallel(
            replace(template, backend=backend, variant=variant),
            *costs[variant],
            gamma,
            calibration,
        )
        for backend in backends
        for variant in variants
    ]


def _price_plans(
    representation: Representation,
    n: int,
    rank: Optional[int],
    strategies: Sequence[str],
    batch_widths: Sequence[int],
    calibration: Calibration,
) -> List[PricedCandidate]:
    """Price the plan-mode candidates of one representation."""
    priced = []
    for strategy, width in representation.plan_modes(strategies, batch_widths):
        work, rate = plan_cost(strategy, width, n, rank, calibration.compute)
        priced.append(PricedCandidate(
            Candidate(
                mode="plan", strategy=strategy, batch_width=width,
                representation=representation.name, rank=rank,
            ),
            comm_time=0.0, compute_time=work * rate,
            total_time=work * rate, physical_rounds=0,
            words_per_processor=0, alpha=0.0, beta=0.0, gamma=rate,
        ))
    return priced


def _check_choices(name: str, given: Sequence, valid: Sequence) -> None:
    for value in given:
        if value not in valid:
            raise ConfigurationError(
                f"{name} must be one of {valid}, got {value!r}"
            )


def plan_sttsv(
    n: int,
    qs: Sequence[int],
    backends: Sequence[str] = ("simulated",),
    variants: Sequence[str] = VARIANTS,
    strategies: Sequence[str] = STRATEGIES,
    batch_widths: Sequence[int] = DEFAULT_BATCH_WIDTHS,
    calibration: Optional[Calibration] = None,
    Ps: Optional[Sequence[int]] = None,
    rank: Optional[int] = None,
    order: int = 3,
) -> PlanDecision:
    """Enumerate, price, and rank every candidate configuration.

    Parameters
    ----------
    n:
        Tensor dimension the plan is for.
    qs:
        Partition knobs to consider (at order 3, prime powers building
        ``P = q(q²+1)`` processors).
    Ps:
        Optional processor-count filter: keep only the ``qs`` whose
        ``P`` appears here (a ``(q, P)`` consistency check when both
        are given explicitly).
    rank:
        When the tensor is known to be a rank-``r`` symmetric Kruskal
        tensor, also enumerate ``representation="symk"`` candidates —
        the low-rank parallel path (priced from its exact
        ``(P − 1) · r``-word predicted ledger) and the O(nr)
        sequential kernel — alongside the dense ones, so the decision
        table shows the dense-vs-factored crossover directly.
    order:
        Tensor order; a representation without a flop count raises.
    """
    if n < 1:
        raise ConfigurationError(f"tensor dimension must be >= 1, got {n}")
    if not qs:
        raise ConfigurationError("planner needs at least one q")
    _check_choices("variant", variants, VARIANTS)
    _check_choices("strategy", strategies, STRATEGIES)
    for width in batch_widths:
        if width < 1:
            raise ConfigurationError(
                f"plan batch widths must be >= 1, got {width}"
            )
    calibration = (
        calibration if calibration is not None else Calibration.default()
    )
    representations = priced_representations(order, rank)
    wanted_P = set(Ps) if Ps else None
    priced: List[PricedCandidate] = []
    seen_P: List[int] = []
    for q in qs:
        # Every representation runs on the dense family's P, so the
        # table compares them on the same machine.
        P = representations[0].processor_count(q)
        seen_P.append(P)
        if wanted_P is not None and P not in wanted_P:
            continue
        for representation in representations:
            priced.extend(
                _price_engines(
                    representation, q, P, n, rank, order, backends,
                    variants, calibration,
                )
            )
    for representation in representations:
        priced.extend(
            _price_plans(
                representation, n, rank, strategies, batch_widths,
                calibration,
            )
        )
    if wanted_P is not None and not any(
        c.candidate.mode == "parallel" for c in priced
    ):
        raise ConfigurationError(
            f"no q in {list(qs)} builds P in {sorted(wanted_P)}"
            f" (qs give P = {seen_P})"
        )
    return PlanDecision(n, priced, calibration)


def auto_config(
    representation: Representation,
    n: int,
    q: int,
    P: int,
    rank: Optional[int] = None,
    order: int = 3,
    backends: Sequence[str] = ("simulated",),
    calibration: Optional[Calibration] = None,
) -> Dict:
    """The serving layer's auto-mode hook: the best configuration for
    one registered tensor of ``representation`` at a fixed ``(q, P)``.

    Stable sort and enumeration-order ties resolve a replayed
    registration identically on every shard.
    """
    calibration = (
        calibration if calibration is not None else Calibration.default()
    )
    priced = _price_engines(
        representation, q, P, n, rank, order, backends, VARIANTS,
        calibration,
    ) + _price_plans(
        representation, n, rank, STRATEGIES, DEFAULT_BATCH_WIDTHS,
        calibration,
    )
    return PlanDecision(n, priced, calibration).session_config()


# -- measured cross-check --------------------------------------------------------


def measure_candidate(
    priced: PricedCandidate,
    n: int,
    seed: int = 0,
    repeats: int = 3,
) -> PricedCandidate:
    """Execute a parallel candidate once per repeat and attach the
    median measured wall time (obs phase spans) to a copy.

    The candidate runs on its own representation's engine and a random
    tensor of it — Algorithm 5 on a dense tensor, or the low-rank
    engine on a rank-``r`` Kruskal tensor — and ``measured_seconds``
    is the median run span (``sttsv:run`` / ``symk:run``); callers
    compare it against ``total_time`` to track the cost model's
    prediction error (the benchmarks hook records exactly that).
    """
    candidate = priced.candidate
    if candidate.mode != "parallel":
        raise ConfigurationError(
            "measure_candidate only measures parallel candidates"
        )
    representation = representation_named(candidate.representation)
    order = 3  # every priced candidate is order 3 (BCSS-4 has no flops)
    engine = representation.engine(
        candidate.q, candidate.P, n, order, candidate.variant
    )
    tensor = representation.random_tensor(n, order, candidate.rank, seed)
    x = np.random.default_rng(seed + 1).normal(size=n)
    samples: List[float] = []
    with Machine(
        candidate.P,
        transport=make_transport(candidate.backend, candidate.P),
    ) as machine:
        engine.load_tensor(machine, tensor)
        for _ in range(repeats):
            machine.instrument.reset()
            engine.load_vector(machine, x)
            engine.run(machine)
            machine.reset_ledger()
            samples.append(
                machine.instrument.total_seconds(representation.span)
            )
    measured = float(np.median(samples)) if samples else math.nan
    return replace(priced, measured_seconds=measured)
