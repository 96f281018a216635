"""Candidate enumeration, argmin selection, and measured cross-checks.

``plan_sttsv`` is the autotuning entry point: enumerate every valid
configuration for a tensor — communication variant (point-to-point vs
All-to-All), fused vs unfused execution, transport backend, plan
strategy, batch width — price each one from the exact ledger its own
engine predicts (``ParallelSTTSV.predicted_ledger`` /
``ParallelSymKTTSV.predicted_ledger``) under calibrated α-β-γ
constants (:mod:`repro.planner.calibration`), and return the argmin
with the full priced table.

The interesting selection is the paper's own tradeoff: the All-to-All
variant moves ~2× the point-to-point bandwidth but fuses each phase
into a single physical exchange, so it wins exactly when α dominates β
— inflate α (a high-latency interconnect) and the argmin flips from
point-to-point to All-to-All; inflate β (a thin pipe) and it flips
back. Both flips are pinned by tests.

Ties are broken deterministically: candidates are priced in a fixed
enumeration order and sorting is stable, so equal-cost configurations
resolve to the earliest-enumerated one (simulated before shm,
point-to-point before All-to-All, fused before unfused, smaller batch
widths first) — the planner never dithers between equivalent choices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.parallel_sttsv import ParallelSTTSV
from repro.core.parallel_symk import ParallelSymKTTSV
from repro.core.partition import TetrahedralPartition
from repro.errors import ConfigurationError
from repro.machine.ledger import CommunicationLedger
from repro.machine.machine import Machine
from repro.machine.transport import make_transport
from repro.planner.calibration import Calibration
from repro.planner.pricing import (
    STRATEGIES,
    VARIANTS,
    gemm_plan_flops,
    scatter_plan_ops,
    symk_parallel_flops,
    symk_plan_flops,
)
from repro.steiner import spherical_steiner_system
from repro.tensor.dense import random_symmetric
from repro.tensor.symk import random_symk

#: Modes a candidate prices: the warm machine (Algorithm 5) or the
#: compiled sequential plan.
MODES = ("parallel", "plan")

#: Default batch widths enumerated for the plan path.
DEFAULT_BATCH_WIDTHS = (1, 8, 32)

#: Flops per ternary multiplication (one multiply-accumulate).
_FLOPS_PER_TERNARY = 2


@dataclass(frozen=True)
class Candidate:
    """One runnable configuration.

    ``mode="parallel"`` candidates carry ``(q, P, backend, variant,
    fusion)`` and serve through Algorithm 5 on the warm machine;
    ``mode="plan"`` candidates carry ``(strategy, batch_width)`` and
    serve through the compiled sequential plan (no communication).
    ``representation="symk"`` candidates (enumerated when the caller
    knows the tensor's rank) price the low-rank factored paths instead:
    the parallel ``r``-word all-gather or the O(nr) sequential kernel.
    """

    mode: str
    q: Optional[int] = None
    P: Optional[int] = None
    backend: Optional[str] = None
    variant: Optional[str] = None
    fusion: Optional[bool] = None
    strategy: Optional[str] = None
    batch_width: Optional[int] = None
    representation: str = "dense"
    rank: Optional[int] = None

    def label(self) -> str:
        prefix = "symk " if self.representation == "symk" else ""
        if self.mode == "parallel":
            return (
                f"{prefix}parallel q={self.q} {self.backend} {self.variant}"
                f" {'fused' if self.fusion else 'unfused'}"
            )
        if self.representation == "symk":
            return f"symk plan r={self.rank}"
        return f"plan {self.strategy} s={self.batch_width}"


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
                fusion=parallel.fusion,
            )
        if self.best_plan is not None:
            plan = self.best_plan.candidate
            config.update(
                strategy=plan.strategy, batch_width=plan.batch_width
            )
        return config


def _engine(
    candidate: Candidate,
    n: int,
    partition: Optional[TetrahedralPartition] = None,
) -> Union[ParallelSTTSV, ParallelSymKTTSV]:
    """The engine a parallel candidate runs: the one whose ledger
    prices it and the one :func:`measure_candidate` times."""
    if candidate.representation == "symk":
        return ParallelSymKTTSV(candidate.P, n, backend=candidate.variant)
    if partition is None:
        partition = TetrahedralPartition(spherical_steiner_system(candidate.q))
    return ParallelSTTSV(partition, n, backend=candidate.variant)


def _price_parallel(
    candidate: Candidate,
    ledger: CommunicationLedger,
    flops: float,
    gamma: float,
    calibration: Calibration,
) -> PricedCandidate:
    model = calibration.cost_model(candidate.backend, gamma=gamma)
    # On an unfused ledger (no fused rounds) this is exactly
    # ``communication_time``: α · rounds + β · Σ per-round max words.
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


def _price_plan(
    candidate: Candidate, work: float, rate: float
) -> PricedCandidate:
    compute = work * rate
    return PricedCandidate(
        candidate=candidate,
        comm_time=0.0,
        compute_time=compute,
        total_time=compute,
        physical_rounds=0,
        words_per_processor=0,
        alpha=0.0,
        beta=0.0,
        gamma=rate,
    )


def _price_engines(
    template: Candidate,
    n: int,
    backends: Sequence[str],
    variants: Sequence[str],
    fusion_options: Sequence[bool],
    calibration: Calibration,
    partition: Optional[TetrahedralPartition] = None,
) -> List[PricedCandidate]:
    """Price every ``(backend, variant, fusion)`` of one parallel
    family — ``template`` fixes the representation, ``q``/``P`` and
    rank — in that enumeration order.

    One engine is built per variant; both fusion ledgers are read from
    it, and every backend prices the same ledger under its own α-β.
    """
    symk = template.representation == "symk"
    gamma = (
        calibration.compute.gemv_flop_s
        if symk
        else calibration.compute.gemm_flop_s
    )
    costs: Dict[Tuple[str, bool], Tuple[CommunicationLedger, float]] = {}
    for variant in variants:
        engine = _engine(replace(template, variant=variant), n, partition)
        if symk:
            flops = symk_parallel_flops(template.P, n, template.rank)
            ledger_of = partial(engine.predicted_ledger, template.rank)
        else:
            flops = _FLOPS_PER_TERNARY * max(
                map(engine.flops_per_processor, range(template.P))
            )
            ledger_of = engine.predicted_ledger
        for fusion in fusion_options:
            costs[variant, fusion] = (ledger_of(fusion), flops)
    return [
        _price_parallel(
            replace(template, backend=backend, variant=variant, fusion=fusion),
            *costs[variant, fusion],
            gamma,
            calibration,
        )
        for backend in backends
        for variant in variants
        for fusion in fusion_options
    ]


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
    fusion_options: Sequence[bool] = (True, False),
    strategies: Sequence[str] = STRATEGIES,
    batch_widths: Sequence[int] = DEFAULT_BATCH_WIDTHS,
    calibration: Optional[Calibration] = None,
    Ps: Optional[Sequence[int]] = None,
    rank: Optional[int] = None,
) -> PlanDecision:
    """Enumerate, price, and rank every candidate configuration.

    Parameters
    ----------
    n:
        Tensor dimension the plan is for.
    qs:
        Prime powers to consider (each builds ``P = q(q²+1)``
        processors).
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
    compute = calibration.compute
    wanted_P = set(Ps) if Ps else None
    priced: List[PricedCandidate] = []
    seen_P: List[int] = []
    for q in qs:
        partition = TetrahedralPartition(spherical_steiner_system(q))
        partition.validate()
        seen_P.append(partition.P)
        if wanted_P is not None and partition.P not in wanted_P:
            continue
        families = [Candidate(mode="parallel", q=q, P=partition.P)]
        if rank is not None:
            families.append(
                replace(families[0], representation="symk", rank=rank)
            )
        for template in families:
            priced.extend(
                _price_engines(
                    template, n, backends, variants, fusion_options,
                    calibration, partition,
                )
            )
    if rank is not None:
        symk_plan = Candidate(
            mode="plan",
            strategy="symk",
            batch_width=1,
            representation="symk",
            rank=rank,
        )
        priced.append(
            _price_plan(symk_plan, symk_plan_flops(n, rank), compute.gemv_flop_s)
        )
    for strategy in strategies:
        for width in batch_widths:
            candidate = Candidate(
                mode="plan", strategy=strategy, batch_width=width
            )
            if strategy == "gemm":
                work = gemm_plan_flops(n)
                rate = compute.gemm_flop_s if width > 1 else compute.gemv_flop_s
            else:
                # bincount batches column by column: width buys nothing.
                work, rate = scatter_plan_ops(n), compute.scatter_op_s
            priced.append(_price_plan(candidate, work, rate))
    if wanted_P is not None and not any(
        c.candidate.mode == "parallel" for c in priced
    ):
        raise ConfigurationError(
            f"no q in {list(qs)} builds P in {sorted(wanted_P)}"
            f" (qs give P = {seen_P})"
        )
    return PlanDecision(n, priced, calibration)


def auto_session_config(
    n: int,
    q: int,
    backends: Sequence[str] = ("simulated",),
    calibration: Optional[Calibration] = None,
    fusion_options: Sequence[bool] = (True,),
) -> Dict:
    """The serving layer's auto-mode hook: the best configuration for
    one registered tensor at a fixed ``q``.

    ``fusion_options`` defaults to fused-only because the session pool
    owner (the server) controls fusion globally; pass both options to
    let the planner decide that too.
    """
    decision = plan_sttsv(
        n,
        qs=(q,),
        backends=backends,
        fusion_options=fusion_options,
        calibration=calibration,
    )
    return decision.session_config()


def auto_symk_config(
    n: int,
    rank: int,
    P: int,
    backends: Sequence[str] = ("simulated",),
    calibration: Optional[Calibration] = None,
    fusion_options: Sequence[bool] = (True,),
) -> Dict:
    """Auto-mode hook for low-rank registrations at a fixed ``P``.

    Prices only ``representation="symk"`` parallel candidates (the
    registration payload already fixed the representation) and returns
    the machine-side fields plus the one valid plan strategy. Same
    determinism contract as :func:`auto_session_config`: stable sort,
    enumeration-order ties, identical resolution on every shard.
    """
    calibration = (
        calibration if calibration is not None else Calibration.default()
    )
    priced = _price_engines(
        Candidate(mode="parallel", P=P, representation="symk", rank=rank),
        n, backends, VARIANTS, fusion_options, calibration,
    )
    best = min(priced, key=lambda c: c.total_time).candidate
    return {
        "n": n,
        "P": P,
        "backend": best.backend,
        "variant": best.variant,
        "fusion": best.fusion,
        "strategy": "symk",
    }


# -- measured cross-check --------------------------------------------------------


def measure_candidate(
    priced: PricedCandidate,
    n: int,
    seed: int = 0,
    repeats: int = 3,
) -> PricedCandidate:
    """Execute a parallel candidate once per repeat and attach the
    median measured wall time (obs phase spans) to a copy.

    The candidate runs on its own engine — Algorithm 5 on a random
    dense tensor, or the low-rank engine on a random rank-``r``
    Kruskal tensor for ``representation="symk"`` — and
    ``measured_seconds`` is the median ``sttsv:run`` / ``symk:run``
    span; callers compare it against ``total_time`` to track the cost
    model's prediction error (the benchmarks hook records exactly
    that).
    """
    candidate = priced.candidate
    if candidate.mode != "parallel":
        raise ConfigurationError(
            "measure_candidate only measures parallel candidates"
        )
    engine = _engine(candidate, n)
    if candidate.representation == "symk":
        load_resident, span = engine.load_factors, "symk:run"
        tensor = random_symk(n, candidate.rank, seed=seed)
    else:
        load_resident, span = engine.load_tensor, "sttsv:run"
        tensor = random_symmetric(n, seed=seed)
    x = np.random.default_rng(seed + 1).normal(size=n)
    samples: List[float] = []
    with Machine(
        candidate.P,
        transport=make_transport(candidate.backend, candidate.P),
        fusion=bool(candidate.fusion),
    ) as machine:
        load_resident(machine, tensor)
        for _ in range(repeats):
            machine.instrument.reset()
            engine.load_vector(machine, x)
            engine.run(machine)
            machine.reset_ledger()
            samples.append(machine.instrument.total_seconds(span))
    measured = float(np.median(samples)) if samples else math.nan
    return replace(priced, measured_seconds=measured)
