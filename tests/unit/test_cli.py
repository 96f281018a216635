"""CLI commands exercised in process."""

import json

import numpy as np
import pytest

from repro._version import __version__
from repro.cli import main
from repro.core.representations import BCSS4, Dense3, SymK


class TestTables:
    def test_default_q3(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "R_p" in out
        assert "Q_i" in out
        assert "'P': 30" in out

    def test_sqs8(self, capsys):
        assert main(["tables", "--sqs", "3"]) == 0
        out = capsys.readouterr().out
        assert "'P': 14" in out


class TestSchedule:
    def test_sqs8_has_12_steps(self, capsys):
        assert main(["schedule", "--sqs", "3"]) == 0
        out = capsys.readouterr().out
        assert "step 12:" in out
        assert "step 13:" not in out
        assert "12 steps for P = 14" in out

    def test_q2(self, capsys):
        assert main(["schedule", "--q", "2"]) == 0
        out = capsys.readouterr().out
        assert "9 steps for P = 10" in out


class TestBound:
    def test_d3(self, capsys):
        assert main(["bound", "--n", "120", "--p", "30"]) == 0
        out = capsys.readouterr().out
        assert "68.59" in out

    def test_d4(self, capsys):
        assert main(["bound", "--n", "120", "--p", "30", "--d", "4"]) == 0
        out = capsys.readouterr().out
        assert "lower bound" in out

    @pytest.mark.parametrize("d", ["3", "4"])
    def test_vacuous_bound_is_zero_not_negative(self, d, capsys):
        # At P=1 the formula is 2(n!/(n-d)!)^(1/d) - 2n < 0.
        assert main(["bound", "--n", "8", "--p", "1", "--d", d]) == 0
        out = capsys.readouterr().out
        assert f"P=1, d={d}): 0.00 words per processor" in out


class TestAnalyze:
    def test_q2_defaults(self, capsys):
        assert main(["analyze", "--q", "2"]) == 0
        out = capsys.readouterr().out
        assert "point-to-point" in out
        assert "all-to-all" in out
        assert "lower bound" in out
        # Exact optimal cost for the default n = 30 at q=2 is 30 words.
        assert "30 words/proc" in out


class TestAdmissible:
    def test_listing(self, capsys):
        assert main(["admissible", "--limit", "200"]) == 0
        out = capsys.readouterr().out
        assert "10, 14, 30, 68, 130" in out


class TestPlan:
    def test_decision_table_prints(self, capsys):
        assert main(["plan", "--q", "3", "--P", "30"]) == 0
        out = capsys.readouterr().out
        assert "STTSV plan for n=120" in out
        assert "all-to-all" in out and "point-to-point" in out
        assert "best:" in out
        assert "session config:" in out

    def test_alpha_override_flips_to_all_to_all(self, capsys):
        """An inflated α no longer flips the parallel variant: both
        price 2 fused rounds (the α terms tie), and point-to-point,
        with fewer words per processor, stays chosen."""
        assert main(["plan", "--q", "3", "--alpha", "1e-2"]) == 0
        out = capsys.readouterr().out
        rows = {
            cells[6]: cells
            for cells in map(str.split, out.splitlines())
            if cells[1:2] == ["parallel"]
        }
        p2p, a2a = rows["point-to-point"], rows["all-to-all"]
        assert p2p[9] == a2a[9] == "2"  # rounds
        assert int(p2p[10]) < int(a2a[10])  # words/proc
        assert "best parallel: parallel q=3 simulated point-to-point" in out
        assert "variant=point-to-point" in out

    def test_beta_override_flips_to_point_to_point(self, capsys):
        assert main(
            ["plan", "--q", "3", "--alpha", "1e-9", "--beta", "1e-3"]
        ) == 0
        out = capsys.readouterr().out
        assert "variant=point-to-point" in out

    def test_calibrate_writes_file_plan_reads_it(self, tmp_path, capsys):
        path = str(tmp_path / "cal.json")
        assert main(
            ["plan", "--q", "2", "--calibrate", "--calibration", path]
        ) == 0
        out = capsys.readouterr().out
        assert f"wrote {path}" in out
        assert "measured constants" in out
        # A second run loads the same file instead of re-measuring.
        assert main(["plan", "--q", "2", "--calibration", path]) == 0
        assert "measured constants" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "args,best,config",
        [
            (
                ["--q", "2"],
                "best: parallel q=2 simulated point-to-point",
                "session config: P=10, backend=simulated, batch_width=8,"
                " n=40, q=2, strategy=gemm, variant=point-to-point",
            ),
            (
                ["--q", "3", "--P", "30"],
                "best: parallel q=3 simulated point-to-point",
                "session config: P=30, backend=simulated, batch_width=8,"
                " n=120, q=3, strategy=gemm, variant=point-to-point",
            ),
            (
                ["--q", "2", "--rank", "4", "--n", "60"],
                "best: symk plan r=4",
                "session config: P=10, backend=simulated, batch_width=1,"
                " n=60, q=2, strategy=symk, variant=all-to-all",
            ),
        ],
        ids=["q2", "q3-P30", "q2-rank4"],
    )
    def test_decision_unchanged_without_fusion_axis(
        self, args, best, config, capsys
    ):
        """The argmin and session config carry no ``fused`` label
        suffix and no ``fusion=True`` config field. With each phase one
        fused exchange, both variants price 2 rounds, so the dense
        argmin is point-to-point (fewer words), not the All-to-All that
        8 point-to-point rounds against 2 used to pick."""
        assert main(["plan", *args]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert best in lines
        assert config in lines
        assert not any("fused" in line for line in lines)

    def test_mismatched_P_reports_error(self, capsys):
        assert main(["plan", "--q", "2", "--P", "999"]) == 2
        assert "error:" in capsys.readouterr().err


class TestErrors:
    def test_bad_q_reports_error(self, capsys):
        assert main(["tables", "--q", "6"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_command_returns_2_with_usage(self, capsys):
        # Unknown subcommands must not escape as SystemExit: main()
        # returns the argparse exit code with usage on stderr.
        assert main(["frobnicate"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "frobnicate" in err

    def test_bad_flag_returns_2(self, capsys):
        assert main(["tables", "--no-such-flag"]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_no_command_returns_2(self, capsys):
        assert main([]) == 2
        assert "usage:" in capsys.readouterr().err


class TestVersion:
    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_help_returns_0(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "serve" in out
        assert "load" in out


class TestSymv:
    def test_fano_default(self, capsys):
        assert main(["symv"]) == 0
        out = capsys.readouterr().out
        assert "P = 7" in out
        assert "12 words/proc, 12 rounds" in out
        assert "2-D lower bound: 9.5 words/proc" in out

    def test_pg23(self, capsys):
        assert main(["symv", "--q", "3"]) == 0
        out = capsys.readouterr().out
        assert "P = 13" in out
        assert "24 words/proc, 24 rounds" in out
        assert "2-D lower bound: 20.6 words/proc" in out

    def test_padded(self, capsys):
        assert main(["symv", "--q", "2", "--n", "20"]) == 0
        out = capsys.readouterr().out
        assert "n = 20" in out
        assert "12 words/proc, 12 rounds" in out
        assert "2-D lower bound: 9.0 words/proc" in out


class TestFusionFlagsRemoved:
    """Fusion is how exchanges run; no command offers the opt-out."""

    @pytest.mark.parametrize("command", ["analyze", "plan", "serve"])
    @pytest.mark.parametrize("flag", ["--fused", "--no-fused"])
    def test_flag_is_rejected(self, command, flag, capsys):
        assert main([command, flag]) == 2
        assert flag in capsys.readouterr().err


class TestAnalyzeAudit:
    def test_audit_passes(self, capsys):
        assert main(["analyze", "--q", "2", "--audit"]) == 0
        out = capsys.readouterr().out
        assert "all runs PASS" in out
        assert "[PASS]" in out


class TestLowRank:
    def test_analyze_rank_pins_closed_form(self, capsys):
        assert main(["analyze", "--q", "2", "--rank", "4", "--n", "50"]) == 0
        out = capsys.readouterr().out
        assert "(P-1)*r" in out
        assert "36 words/proc" in out  # (10-1)*4
        assert "bitwise" in out
        assert "MISMATCH" not in out

    def test_order4_vacuous_bound_is_zero(self, capsys):
        # SQS(4) is one processor; the order-4 formula is negative there.
        assert main(["analyze", "--order", "4", "--sqs", "2", "--n", "6"]) == 0
        out = capsys.readouterr().out
        assert "lower bound:      0.0 words/proc" in out
        assert "-0." not in out and "lower bound: -" not in out

    def test_analyze_rank_rejects_sqs(self, capsys):
        assert main(["analyze", "--sqs", "3", "--rank", "4"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_plan_rank_prices_symk(self, capsys):
        assert main(["plan", "--q", "2", "--rank", "4", "--n", "40"]) == 0
        out = capsys.readouterr().out
        assert "symk" in out
        assert "repr" in out

    def test_plan_order4_is_actionable_typed_exit_2(self, capsys):
        """The planner prices order 3 only; asking for order 4 must be
        a typed error with a recovery path on stderr and exit code 2,
        not a silent fallback or a traceback."""
        assert main(["plan", "--order", "4", "--q", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "prices order 3 only" in err
        assert "repro load --order 4 --backend" in err


class TestAnalyzeEveryRepresentation:
    """One analyze path: faults, audit, timings and the trace dump work
    at every order and rank."""

    @pytest.mark.parametrize(
        "args",
        [
            ["--order", "4", "--sqs", "3"],
            ["--q", "2", "--rank", "4", "--n", "50"],
        ],
        ids=["bcss4", "symk"],
    )
    def test_faults_audit_and_trace_out(self, args, tmp_path, capsys):
        path = tmp_path / "spans.jsonl"
        assert main(
            [
                "analyze", *args,
                "--faults", "drop=0.1,corrupt=0.05,seed=7",
                "--audit", "--trace-out", str(path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "retry rounds" in out
        assert "[PASS]" in out
        assert "all runs PASS" in out
        trace_id = out.split("trace id: ")[1].split()[0]
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        assert spans
        assert all(trace_id in span["trace_ids"] for span in spans)

    def test_rank_audit_without_faults(self, tmp_path, capsys):
        path = tmp_path / "spans.jsonl"
        assert main(
            [
                "analyze", "--q", "2", "--rank", "4", "--n", "50",
                "--audit", "--trace-out", str(path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "all runs PASS" in out
        assert "36 words/proc" in out and "bitwise" in out
        assert path.read_text().count("symk:run") == 2  # both variants

    def test_order4_timings(self, capsys):
        assert main(
            ["analyze", "--order", "4", "--sqs", "2", "--n", "6", "--timings"]
        ) == 0
        out = capsys.readouterr().out
        assert "sttsv:run" in out and " ms" in out

    def test_order3_on_sqs8(self, capsys):
        assert main(["analyze", "--sqs", "3", "--audit"]) == 0
        out = capsys.readouterr().out
        assert "Algorithm 5 on P = 14" in out
        assert "all runs PASS" in out


class TestAnalyzeExitCode:
    """A run that fails its oracle or ledger check exits 1 at every
    order and rank, with or without --audit."""

    @pytest.mark.parametrize(
        "representation, args",
        [
            (Dense3, ["--q", "2"]),
            (BCSS4, ["--order", "4", "--sqs", "2", "--n", "6"]),
            (SymK, ["--q", "2", "--rank", "4", "--n", "50"]),
        ],
        ids=["dense3", "bcss4", "symk"],
    )
    @pytest.mark.parametrize("audit", [[], ["--audit"]], ids=["", "audit"])
    def test_wrong_oracle_exits_1(
        self, representation, args, audit, monkeypatch, capsys
    ):
        monkeypatch.setattr(
            representation, "oracle", lambda self, tensor, x: np.ones(tensor.n)
        )
        assert main(["analyze", *args, *audit]) == 1
        assert "numerical error" in capsys.readouterr().out

    def test_wrong_ledger_formula_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(
            Dense3, "expected_words",
            lambda self, engine, rank: [0] * engine.partition.P,
        )
        assert main(["analyze", "--q", "2"]) == 1
        assert "problem: ledger" in capsys.readouterr().out
