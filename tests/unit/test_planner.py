"""Planner: calibration persistence, exact predicted ledgers, argmin."""

import re

import numpy as np
import pytest

from repro.core.parallel_sttsv import CommBackend, ParallelSTTSV
from repro.core.parallel_symk import ParallelSymKTTSV
from repro.core.partition import TetrahedralPartition
from repro.core.partition_ndim import QuadruplePartition
from repro.core.representations import select
from repro.errors import ConfigurationError
from repro.machine.machine import Machine
from repro.matrix.partition import TriangleBlockPartition
from repro.planner import (
    STRATEGIES,
    Calibration,
    TransportConstants,
    auto_config,
    calibrate,
    measure_candidate,
    plan_sttsv,
    render_decision_table,
)
from repro.planner.calibration import (
    CALIBRATION_VERSION,
    DEFAULT_COMPUTE,
    ComputeConstants,
)
from repro.steiner import boolean_steiner_system, spherical_steiner_system
from repro.steiner.pairwise import projective_plane_system
from repro.tensor.dense import random_symmetric
from repro.tensor.ndpacked import nd_random_symmetric
from repro.tensor.sparse import SparseSymmetricTensor
from repro.tensor.symk import random_symk


def _partition(q: int) -> TetrahedralPartition:
    partition = TetrahedralPartition(spherical_steiner_system(q))
    partition.validate()
    return partition


def _fields(ledger, fused: bool = True) -> dict:
    """Every ledger field a prediction must reproduce; with
    ``fused=False`` only the algorithmic ones (no ``fused`` tags or
    ``fused_*`` side-channel), which a per-round reference run on a
    ``Machine(fusion=False)`` records too."""
    fields = {
        "words_sent": list(ledger.words_sent),
        "words_received": list(ledger.words_received),
        "messages_sent": list(ledger.messages_sent),
        "messages_received": list(ledger.messages_received),
        "rounds": [
            (
                record.label,
                record.fused if fused else None,
                record.max_words(),
                [(m.source, m.dest, m.words, m.tag) for m in record.messages],
            )
            for record in ledger.rounds
        ],
    }
    if fused:
        fields["fusion"] = ledger.fusion_summary()
    return fields


def _calibration(alpha: float, beta: float) -> Calibration:
    return Calibration(
        backends={"simulated": TransportConstants(alpha=alpha, beta=beta)},
        compute=DEFAULT_COMPUTE,
    )


class TestCalibrationPersistence:
    def test_json_round_trip(self, tmp_path):
        original = Calibration(
            backends={
                "simulated": TransportConstants(alpha=3e-7, beta=2e-10),
                "shm": TransportConstants(alpha=9e-6, beta=4e-9),
            },
            compute=ComputeConstants(
                gemm_flop_s=1.5e-10, gemv_flop_s=3e-10, scatter_op_s=6e-9
            ),
            created_unix=123.5,
            measured=True,
        )
        path = tmp_path / "cal.json"
        original.save(str(path))
        loaded = Calibration.load(str(path))
        assert loaded == original

    def test_load_or_default_without_file(self, tmp_path):
        calibration = Calibration.load_or_default(
            str(tmp_path / "missing.json")
        )
        assert not calibration.measured
        assert calibration.constants_for("simulated").alpha == 1e-6

    def test_version_mismatch_raises(self, tmp_path):
        path = tmp_path / "cal.json"
        text = Calibration.default().to_json().replace(
            f'"version": {CALIBRATION_VERSION}', '"version": 999'
        )
        path.write_text(text)
        with pytest.raises(ConfigurationError):
            Calibration.load(str(path))

    def test_malformed_json_raises(self, tmp_path):
        path = tmp_path / "cal.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            Calibration.load(str(path))

    def test_missing_fields_raise(self):
        with pytest.raises(ConfigurationError):
            Calibration.from_json(
                f'{{"version": {CALIBRATION_VERSION}, "backends": {{}}}}'
            )

    def test_measured_calibration_round_trips(self, tmp_path):
        measured = calibrate(backends=("simulated",), repeats=2)
        assert measured.measured
        constants = measured.constants_for("simulated")
        assert constants.alpha > 0 and constants.beta > 0
        assert measured.compute.gemm_flop_s > 0
        path = tmp_path / "measured.json"
        measured.save(str(path))
        assert Calibration.load(str(path)) == measured

    def test_calibrate_rejects_unknown_backend(self):
        with pytest.raises(ConfigurationError):
            calibrate(backends=("carrier-pigeon",))


class TestPredictedLedger:
    @pytest.mark.parametrize("variant", ["point-to-point", "all-to-all"])
    @pytest.mark.parametrize("fusion", [True, False])
    def test_matches_executed_ledger(self, variant, fusion):
        """Each engine's predicted ledger matches its executed one field
        for field: dense and sparse order 3 at q=2 and q=3, and (point
        to point only) the irregular order-4 SQS(8) partition and the
        order-2 Fano triangle partition (SYMV). Against
        the per-round reference machine (``fusion=False``) the
        algorithmic fields still match."""
        cases = []
        for q, n in ((2, 20), (3, 30)):
            cases.append((_partition(q), random_symmetric(n, seed=0)))
            cases.append(
                (
                    _partition(q),
                    SparseSymmetricTensor.from_hyperedges(
                        n, [(0, 5, 11), (3, 7, 19), (2, 9, 14)]
                    ),
                )
            )
        if variant == "point-to-point":
            cases.append(
                (
                    QuadruplePartition(boolean_steiner_system(3)),
                    nd_random_symmetric(24, 4, seed=0),
                )
            )
            cases.append(
                (
                    TriangleBlockPartition(projective_plane_system(2)),
                    nd_random_symmetric(21, 2, seed=0),
                )
            )
        for partition, tensor in cases:
            x = np.random.default_rng(1).normal(size=tensor.n)
            algo = ParallelSTTSV(
                partition, tensor.n, backend=CommBackend(variant)
            )
            predicted = algo.predicted_ledger()
            with Machine(partition.P, fusion=fusion) as machine:
                algo.load(machine, tensor, x)
                algo.run(machine)
                actual = machine.ledger
            assert _fields(predicted, fusion) == _fields(actual, fusion)
            assert predicted.words_sent == algo.words_per_processor()

    def test_rejects_unknown_variant(self):
        with pytest.raises(ConfigurationError, match="point-to-point"):
            ParallelSTTSV(_partition(2), 20, backend="carrier-pigeon")


class TestPredictedSymkLedger:
    @pytest.mark.parametrize("variant", ["point-to-point", "all-to-all"])
    @pytest.mark.parametrize("fusion", [True, False])
    def test_matches_executed_ledger(self, variant, fusion):
        """The low-rank engine's predicted ledger is field-for-field the
        ledger its run records — labels, per-round volumes, and fusion
        flags included, so the (P−1)·r closed form the planner prices
        is exactly what execution pays. Against the per-round reference
        machine (``fusion=False``) the algorithmic fields still match."""
        n, rank = 25, 4
        tensor = random_symk(n, rank, seed=0)
        x = np.random.default_rng(1).normal(size=n)
        for P in (1, 6, 10):
            algo = ParallelSymKTTSV(P, n, backend=CommBackend(variant))
            predicted = algo.predicted_ledger(rank)
            with Machine(P, fusion=fusion) as machine:
                algo.load(machine, tensor, x)
                algo.run(machine)
                actual = machine.ledger
            assert _fields(predicted, fusion) == _fields(actual, fusion)
            assert actual.max_words_sent() == (P - 1) * rank

    def test_single_processor_prices_empty(self):
        predicted = ParallelSymKTTSV(1, 8).predicted_ledger(5)
        assert predicted.round_count() == 0
        assert predicted.max_words_sent() == 0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            ParallelSymKTTSV(4, 8, backend="carrier-pigeon")
        with pytest.raises(ConfigurationError):
            ParallelSymKTTSV(0, 8)
        with pytest.raises(ConfigurationError):
            ParallelSymKTTSV(4, 8).predicted_ledger(0)


class TestSymkPlanning:
    def test_rank_adds_symk_candidates(self):
        decision = plan_sttsv(40, qs=(2,), rank=4)
        representations = {
            priced.candidate.representation
            for priced in decision.candidates
        }
        assert representations == {"dense-3", "symk"}
        symk_parallel = [
            priced for priced in decision.candidates
            if priced.candidate.representation == "symk"
            and priced.candidate.mode == "parallel"
        ]
        assert symk_parallel
        for priced in symk_parallel:
            P = priced.candidate.P
            assert priced.words_per_processor == (P - 1) * 4

    def test_low_rank_beats_dense_at_large_n(self):
        """The regime the representation exists for: comm (P−1)·r
        independent of n must beat the dense Θ(n) schedule once n is
        large."""
        decision = plan_sttsv(400, qs=(2,), rank=4)
        best_parallel = decision.best_parallel.candidate
        assert best_parallel.representation == "symk"

    def test_auto_symk_config_is_complete(self):
        config = auto_config(select(3, rank=4), 60, q=2, P=10, rank=4)
        assert config["strategy"] == "symk"
        assert config["P"] == 10
        assert config["variant"] in ("point-to-point", "all-to-all")
        assert config["backend"] == "simulated"
        assert "fusion" not in config


class TestPlanSelection:
    def test_alpha_inflated_prefers_all_to_all(self):
        # High latency no longer favours All-to-All: each variant runs
        # Algorithm 5's two phases as 2 fused exchanges, so their α
        # terms tie and point-to-point's fewer words decide. (All-to-All
        # won here only while point-to-point split each phase into 4
        # fused batches, 8 exchanges against 2.)
        decision = plan_sttsv(
            30,
            qs=(3,),
            calibration=_calibration(alpha=1e-2, beta=1e-9),
        )
        priced = {
            c.candidate.variant: c
            for c in decision.candidates
            if c.candidate.mode == "parallel"
        }
        p2p, a2a = priced["point-to-point"], priced["all-to-all"]
        assert p2p.physical_rounds == a2a.physical_rounds == 2
        assert p2p.words_per_processor < a2a.words_per_processor
        assert decision.best_parallel.candidate.variant == "point-to-point"

    def test_mode_flips_with_communication_cost(self):
        # α-heavy constants price any exchange above the whole
        # sequential plan; cheap ones hand the choice to Algorithm 5.
        def best_mode(alpha, beta):
            decision = plan_sttsv(
                90, qs=(3,), calibration=_calibration(alpha=alpha, beta=beta)
            )
            return decision.best.candidate.mode

        assert best_mode(1e-2, 1e-9) == "plan"
        assert best_mode(1e-9, 1e-12) == "parallel"

    def test_beta_inflated_prefers_point_to_point(self):
        # Thin pipe: point-to-point's lower word volume wins back.
        decision = plan_sttsv(
            30,
            qs=(3,),
            calibration=_calibration(alpha=1e-9, beta=1e-3),
        )
        assert (
            decision.best_parallel.candidate.variant == "point-to-point"
        )

    def test_tied_costs_resolve_to_enumeration_order(self):
        # gemm at widths 8 and 32 price identically (same flops, same
        # rate); the stable sort must keep the earlier-enumerated
        # width, deterministically, on every call.
        for _ in range(3):
            decision = plan_sttsv(30, qs=(3,), batch_widths=(1, 8, 32))
            gemm = [
                c
                for c in decision.candidates
                if c.candidate.strategy == "gemm"
                and c.candidate.batch_width in (8, 32)
            ]
            assert gemm[0].total_time == gemm[1].total_time
            assert gemm[0].candidate.batch_width == 8
            assert decision.best_plan.candidate.batch_width == 8

    def test_degenerate_inputs_raise(self):
        with pytest.raises(ConfigurationError):
            plan_sttsv(0, qs=(2,))
        with pytest.raises(ConfigurationError):
            plan_sttsv(30, qs=())
        with pytest.raises(ConfigurationError):
            plan_sttsv(30, qs=(2,), variants=("carrier-pigeon",))
        with pytest.raises(ConfigurationError):
            plan_sttsv(30, qs=(2,), Ps=(999,))
        with pytest.raises(ConfigurationError, match=re.escape(str(STRATEGIES))):
            plan_sttsv(30, qs=(2,), strategies=("blocked-gemm",))
        with pytest.raises(ConfigurationError):
            plan_sttsv(30, qs=(2,), batch_widths=(0,))

    def test_session_config_carries_both_sides(self):
        config = plan_sttsv(30, qs=(3,)).session_config()
        assert config["q"] == 3 and config["P"] == 30
        assert config["variant"] in ("point-to-point", "all-to-all")
        assert config["strategy"] in ("gemm", "bincount")
        assert "fusion" not in config

    def test_auto_session_config_fixed_q(self):
        config = auto_config(select(3), 20, q=2, P=10)
        assert config["q"] == 2 and config["P"] == 10
        assert "fusion" not in config
        assert config["backend"] == "simulated"


class TestReportAndMeasure:
    def test_decision_table_renders(self):
        decision = plan_sttsv(30, qs=(3,))
        table = render_decision_table(decision)
        assert "STTSV plan for n=30" in table
        assert "all-to-all" in table and "point-to-point" in table
        assert "alpha=" in table and "beta=" in table
        assert ">1" in table  # best row marker
        assert f"best: {decision.best.candidate.label()}" in table

    def test_measure_candidate_attaches_wall_time(self):
        decision = plan_sttsv(20, qs=(2,))
        measured = measure_candidate(
            decision.best_parallel, 20, repeats=1
        )
        assert measured.measured_seconds > 0
        assert measured.prediction_error is not None
        # The original priced candidate is untouched.
        assert decision.best_parallel.measured_seconds is None

    def test_measure_symk_candidate_runs_the_low_rank_engine(
        self, monkeypatch
    ):
        decision = plan_sttsv(60, qs=(2,), rank=4)
        best = decision.best_parallel
        assert best.candidate.representation == "symk"

        def dense_run(*_args, **_kwargs):
            raise AssertionError("measured dense Algorithm 5")

        monkeypatch.setattr(ParallelSTTSV, "run", dense_run)
        measured = measure_candidate(best, 60, repeats=1)
        assert measured.measured_seconds > 0

    def test_measure_rejects_plan_candidates(self):
        decision = plan_sttsv(20, qs=(2,))
        with pytest.raises(ConfigurationError):
            measure_candidate(decision.best_plan, 20)
