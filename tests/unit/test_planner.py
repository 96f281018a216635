"""Planner: calibration persistence, exact predicted ledgers, argmin."""

import numpy as np
import pytest

from repro.core.parallel_sttsv import CommBackend, ParallelSTTSV
from repro.core.partition import TetrahedralPartition
from repro.errors import ConfigurationError
from repro.machine.machine import Machine
from repro.planner import (
    Calibration,
    TransportConstants,
    auto_session_config,
    calibrate,
    measure_candidate,
    plan_sttsv,
    predicted_ledger,
    render_decision_table,
)
from repro.planner.calibration import (
    CALIBRATION_VERSION,
    DEFAULT_COMPUTE,
    ComputeConstants,
)
from repro.steiner import spherical_steiner_system
from repro.tensor.dense import random_symmetric
from repro.tensor.sparse import SparseSymmetricTensor


def _partition(q: int) -> TetrahedralPartition:
    partition = TetrahedralPartition(spherical_steiner_system(q))
    partition.validate()
    return partition


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
        """Dense and sparse Algorithm 5 share the exchange path, so one
        prediction must match both executed ledgers field for field."""
        partition = _partition(2)
        n = 20
        predicted = predicted_ledger(
            partition, n, variant=variant, fusion=fusion
        )
        x = np.random.default_rng(1).normal(size=n)
        engines = [
            (ParallelSTTSV, random_symmetric(n, seed=0)),
            (
                ParallelSTTSV,
                SparseSymmetricTensor.from_hyperedges(
                    n, [(0, 5, 11), (3, 7, 19), (2, 9, 14)]
                ),
            ),
        ]
        for engine, tensor in engines:
            with Machine(partition.P, fusion=fusion) as machine:
                algo = engine(partition, n, backend=CommBackend(variant))
                algo.load(machine, tensor, x)
                algo.run(machine)
                actual = machine.ledger
            assert predicted.round_count() == actual.round_count()
            assert predicted.words_sent == actual.words_sent
            assert predicted.words_received == actual.words_received
            assert predicted.messages_sent == actual.messages_sent
            assert [r.label for r in predicted.rounds] == [
                r.label for r in actual.rounds
            ]
            assert [r.max_words() for r in predicted.rounds] == [
                r.max_words() for r in actual.rounds
            ]
            assert [r.fused for r in predicted.rounds] == [
                r.fused for r in actual.rounds
            ]
            assert predicted.fusion_summary() == actual.fusion_summary()

    def test_rejects_unknown_variant(self):
        with pytest.raises(ConfigurationError):
            predicted_ledger(_partition(2), 20, variant="carrier-pigeon")


class TestPredictedSymkLedger:
    @pytest.mark.parametrize("variant", ["point-to-point", "all-to-all"])
    @pytest.mark.parametrize("fusion", [True, False])
    def test_matches_executed_ledger(self, variant, fusion):
        """The symk pricing ledger is field-for-field the ledger a real
        ParallelSymKTTSV run produces — labels, per-round volumes, and
        fusion flags included, so the (P−1)·r closed form the planner
        prices is exactly what execution pays."""
        from repro.core.parallel_symk import ParallelSymKTTSV
        from repro.planner.pricing import predicted_symk_ledger
        from repro.tensor.symk import random_symk

        P, n, rank = 6, 25, 4
        predicted = predicted_symk_ledger(
            P, rank, variant=variant, fusion=fusion
        )
        tensor = random_symk(n, rank, seed=0)
        x = np.random.default_rng(1).normal(size=n)
        with Machine(P, fusion=fusion) as machine:
            algo = ParallelSymKTTSV(P, n, backend=CommBackend(variant))
            algo.load(machine, tensor, x)
            algo.run(machine)
            actual = machine.ledger
            assert predicted.round_count() == actual.round_count()
            assert predicted.words_sent == actual.words_sent
            assert predicted.words_received == actual.words_received
            assert predicted.messages_sent == actual.messages_sent
            assert [r.label for r in predicted.rounds] == [
                r.label for r in actual.rounds
            ]
            assert [r.max_words() for r in predicted.rounds] == [
                r.max_words() for r in actual.rounds
            ]
            assert [r.fused for r in predicted.rounds] == [
                r.fused for r in actual.rounds
            ]
            assert predicted.fusion_summary() == actual.fusion_summary()
            assert actual.max_words_sent() == (P - 1) * rank

    def test_single_processor_prices_empty(self):
        from repro.planner.pricing import predicted_symk_ledger

        predicted = predicted_symk_ledger(1, 5)
        assert predicted.round_count() == 0
        assert predicted.max_words_sent() == 0

    def test_rejects_bad_inputs(self):
        from repro.planner.pricing import predicted_symk_ledger

        with pytest.raises(ConfigurationError):
            predicted_symk_ledger(4, 3, variant="carrier-pigeon")
        with pytest.raises(ConfigurationError):
            predicted_symk_ledger(0, 3)
        with pytest.raises(ConfigurationError):
            predicted_symk_ledger(4, 0)


class TestSymkPlanning:
    def test_rank_adds_symk_candidates(self):
        decision = plan_sttsv(40, qs=(2,), rank=4)
        representations = {
            priced.candidate.representation
            for priced in decision.candidates
        }
        assert representations == {"dense", "symk"}
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
        from repro.planner import auto_symk_config

        config = auto_symk_config(60, 4, 10)
        assert config["strategy"] == "symk"
        assert config["P"] == 10
        assert config["variant"] in ("point-to-point", "all-to-all")
        assert config["backend"] == "simulated"
        assert isinstance(config["fusion"], bool)


class TestPlanSelection:
    def test_alpha_inflated_prefers_all_to_all(self):
        # High latency: All-to-All's 2 fused exchanges beat
        # point-to-point's 2·FUSED_BATCHES despite ~2× the bandwidth.
        decision = plan_sttsv(
            30,
            qs=(3,),
            calibration=_calibration(alpha=1e-2, beta=1e-9),
            fusion_options=(True,),
        )
        assert decision.best_parallel.candidate.variant == "all-to-all"

    def test_beta_inflated_prefers_point_to_point(self):
        # Thin pipe: point-to-point's lower word volume wins back.
        decision = plan_sttsv(
            30,
            qs=(3,),
            calibration=_calibration(alpha=1e-9, beta=1e-3),
            fusion_options=(True,),
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

    def test_unfused_pays_more_alpha(self):
        decision = plan_sttsv(30, qs=(3,))
        by_key = {
            (c.candidate.variant, c.candidate.fusion): c
            for c in decision.candidates
            if c.candidate.mode == "parallel"
        }
        for variant in ("point-to-point", "all-to-all"):
            fused = by_key[(variant, True)]
            unfused = by_key[(variant, False)]
            assert fused.physical_rounds < unfused.physical_rounds
            assert fused.comm_time < unfused.comm_time

    def test_degenerate_inputs_raise(self):
        with pytest.raises(ConfigurationError):
            plan_sttsv(0, qs=(2,))
        with pytest.raises(ConfigurationError):
            plan_sttsv(30, qs=())
        with pytest.raises(ConfigurationError):
            plan_sttsv(30, qs=(2,), variants=("carrier-pigeon",))
        with pytest.raises(ConfigurationError):
            plan_sttsv(30, qs=(2,), Ps=(999,))

    def test_session_config_carries_both_sides(self):
        config = plan_sttsv(30, qs=(3,)).session_config()
        assert config["q"] == 3 and config["P"] == 30
        assert config["variant"] in ("point-to-point", "all-to-all")
        assert config["strategy"] in ("gemm", "bincount")
        assert isinstance(config["fusion"], bool)

    def test_auto_session_config_fixed_q(self):
        config = auto_session_config(20, 2)
        assert config["q"] == 2 and config["P"] == 10
        assert config["fusion"] is True  # default restricts to fused
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
        decision = plan_sttsv(20, qs=(2,), fusion_options=(True,))
        measured = measure_candidate(
            decision.best_parallel, 20, repeats=1
        )
        assert measured.measured_seconds > 0
        assert measured.prediction_error is not None
        # The original priced candidate is untouched.
        assert decision.best_parallel.measured_seconds is None

    def test_measure_rejects_plan_candidates(self):
        decision = plan_sttsv(20, qs=(2,))
        with pytest.raises(ConfigurationError):
            measure_candidate(decision.best_plan, 20)
