"""Command-line harness: subcommands, config handling, exit codes, CSV."""
import numpy as np
import pytest

from regnear.cli import (RUN_COLUMNS, _parse_floats, _parse_seeds, main,
                         run_single)
from regnear.linalg import read_matrix, read_vector, write_matrix
from regnear.problems import add_noise, build_phillips, relative_error


class TestRunSingle:
    def test_phase_accounting_and_error(self):
        base = build_phillips(20)
        r = run_single(base, 1e-2, seed=1, reg_name="L1dP1", eta=1.01,
                       delta=1.0, max_iter=50)
        assert r.matvecs == r.matvecs_prepare + r.matvecs_solve + r.matvecs_back
        assert r.matvecs_prepare == 1 and r.matvecs_back == 1
        assert r.iterations >= 1
        noisy = add_noise(base, 1e-2, seed=1)
        assert r.relative_error == pytest.approx(
            relative_error(r.x, noisy.x_hat))
        assert r.stop_reason == "DISCREPANCY_MET"

    def test_breakdown_line_mentions_phases(self):
        r = run_single(build_phillips(16), 1e-2, seed=2, reg_name="P2L2tP2",
                       eta=1.01, delta=1.0)
        line = r.breakdown_line()
        assert f"prepare {r.matvecs_prepare}" in line
        assert f"solve {r.matvecs_solve}" in line
        assert f"back {r.matvecs_back}" in line
        assert f"k={r.iterations}" in line

    def test_csv_row_matches_columns(self):
        r = run_single(build_phillips(16), 1e-3, seed=1, reg_name="I",
                       eta=1.01, delta=1.0)
        parts = r.csv_row().split(",")
        assert len(parts) == len(RUN_COLUMNS)
        assert parts[0] == "phillips"
        assert int(parts[RUN_COLUMNS.index("n")]) == 16
        assert float(parts[RUN_COLUMNS.index("relative_error")]) == r.relative_error


class TestArgumentParsing:
    def test_seed_range(self):
        assert _parse_seeds("2..5") == (2, 3, 4, 5)

    def test_seed_list(self):
        assert _parse_seeds("1,4,9") == (1, 4, 9)

    def test_bad_seed_text(self):
        with pytest.raises(ValueError):
            _parse_seeds("a..b")

    def test_float_list(self):
        assert _parse_floats("1e-2,1e-3") == (1e-2, 1e-3)

    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestSolveCommand:
    def test_writes_outputs(self, tmp_path, capsys):
        prefix = str(tmp_path / "run")
        code = main(["solve", "--problem", "phillips", "--n", "24",
                     "--noise", "1e-2", "--reg", "L1dP1", "--seed", "1",
                     "--out", prefix])
        assert code == 0
        out = capsys.readouterr().out
        assert "prepare" in out and "solve" in out and "back" in out
        with open(prefix + ".csv") as f:
            header, row = f.read().strip().split("\n")
        assert header == ",".join(RUN_COLUMNS)
        assert row.startswith("phillips,24,0.01,L1dP1,1,")
        xk = read_vector(prefix + "_xk.txt")
        xhat = read_vector(prefix + "_xhat.txt")
        assert xk.shape == xhat.shape == (24,)
        # the written vectors reproduce the reported relative error
        reported = float(row.split(",")[RUN_COLUMNS.index("relative_error")])
        assert relative_error(xk, xhat) == pytest.approx(reported, rel=1e-12)

    def test_zero_noise_runs_to_iteration_cap(self, tmp_path):
        prefix = str(tmp_path / "clean")
        code = main(["solve", "--problem", "phillips", "--n", "16",
                     "--noise", "0", "--reg", "I", "--max-iter", "6",
                     "--out", prefix])
        assert code == 0
        with open(prefix + ".csv") as f:
            row = f.read().strip().split("\n")[1]
        assert row.split(",")[RUN_COLUMNS.index("stop_reason")] == "MAX_ITER"

    def test_unknown_regularizer_is_config_error(self, tmp_path):
        code = main(["solve", "--n", "16", "--reg", "L99",
                     "--out", str(tmp_path / "x")])
        assert code == 2

    def test_negative_noise_is_config_error(self, tmp_path):
        code = main(["solve", "--n", "16", "--noise", "-1",
                     "--out", str(tmp_path / "x")])
        assert code == 2

    @pytest.mark.parametrize("flags", [
        ["--noise", "inf"], ["--noise", "nan"], ["--eta", "inf"],
        ["--delta", "inf"], ["--delta", "nan"],
    ])
    def test_non_finite_setting_is_config_error(self, tmp_path, flags):
        prefix = tmp_path / "x"
        code = main(["solve", "--n", "16", "--reg", "L1dP1", *flags,
                     "--out", str(prefix)])
        assert code == 2
        assert not (tmp_path / "x.csv").exists()

    def test_numerical_failure_exit_code(self, tmp_path):
        # a vanishing corner weight makes the invertible core singular
        code = main(["solve", "--n", "16", "--reg", "L1dP1",
                     "--delta", "1e-20", "--out", str(tmp_path / "x")])
        assert code == 3

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem = phillips\nn = 16\nnoise = 1e-2\n"
                       "reg = I\nseed = 3\n# comment line\n")
        prefix = str(tmp_path / "cfgrun")
        code = main(["solve", "--config", str(cfg), "--n", "20",
                     "--out", prefix])
        assert code == 0
        with open(prefix + ".csv") as f:
            row = f.read().strip().split("\n")[1]
        parts = row.split(",")
        assert parts[RUN_COLUMNS.index("n")] == "20"  # flag beats file
        assert parts[RUN_COLUMNS.index("seed")] == "3"

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("banana = 7\n")
        assert main(["solve", "--config", str(cfg)]) == 2

    def test_malformed_config_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just some words\n")
        assert main(["solve", "--config", str(cfg)]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.cfg")]) == 2


class TestTableCommand:
    def run_small_table(self, tmp_path, name):
        out = str(tmp_path / name)
        code = main(["table", "--problem", "phillips", "--n", "40",
                     "--noise", "1e-2", "--regs", "I,L1dP1",
                     "--seeds", "1..2", "--out", out])
        assert code == 0
        with open(out) as f:
            return f.read()

    def test_row_structure(self, tmp_path):
        text = self.run_small_table(tmp_path, "t.csv")
        lines = text.strip().split("\n")
        # header + 2 regularizers x (2 seeds + 1 median)
        assert len(lines) == 1 + 2 * 3
        assert lines[0] == ",".join(RUN_COLUMNS)
        seeds = [line.split(",")[RUN_COLUMNS.index("seed")]
                 for line in lines[1:]]
        assert seeds == ["1", "2", "median", "1", "2", "median"]

    def test_median_row_aggregates(self, tmp_path):
        text = self.run_small_table(tmp_path, "t.csv")
        lines = text.strip().split("\n")
        block = [line.split(",") for line in lines[1:4]]
        idx = RUN_COLUMNS.index("relative_error")
        med = float(block[2][idx])
        vals = sorted(float(r[idx]) for r in block[:2])
        assert med == pytest.approx(0.5 * (vals[0] + vals[1]))
        # aggregate rows carry no solver fields
        assert block[2][RUN_COLUMNS.index("stop_reason")] == ""

    def test_deterministic_output(self, tmp_path):
        first = self.run_small_table(tmp_path, "a.csv")
        second = self.run_small_table(tmp_path, "b.csv")
        assert first == second

    def test_failed_cell_is_recorded_and_run_continues(self, tmp_path, capsys):
        out = str(tmp_path / "err.csv")
        code = main(["table", "--problem", "phillips", "--n", "16",
                     "--noise", "1e-2", "--regs", "L1dP1", "--seeds", "1..2",
                     "--delta", "1e-20", "--out", out])
        assert code == 0
        with open(out) as f:
            text = f.read()
        assert text.count("ERROR_SingularCore") == 2
        assert "SingularCore" in capsys.readouterr().out

    def test_rejects_non_finite_noise_level(self, tmp_path, capsys):
        code = main(["table", "--n", "16", "--noise", "1e-2,nan",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().out == ""  # no cell ran

    def test_rejects_empty_seed_list(self, tmp_path):
        code = main(["table", "--n", "16", "--seeds", ",",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2


class TestDistancesCommand:
    def test_curve_values(self, tmp_path):
        out = str(tmp_path / "d.csv")
        assert main(["distances", "--min-n", "4", "--max-n", "10",
                     "--out", out]) == 0
        with open(out) as f:
            lines = f.read().strip().split("\n")
        assert lines[0] == "n,dist_L20,dist_PL2P,dist_L2P"
        assert len(lines) == 8
        const = np.sqrt(10.0) / 4.0
        for line in lines[1:]:
            n, d_l20, d_two, d_right = line.split(",")
            assert float(d_l20) == pytest.approx(const, rel=1e-12)
            assert float(d_right) < float(d_two) < float(d_l20)

    def test_bad_range(self, tmp_path):
        assert main(["distances", "--min-n", "10", "--max-n", "4",
                     "--out", str(tmp_path / "d.csv")]) == 2
        assert main(["distances", "--min-n", "2", "--max-n", "8",
                     "--out", str(tmp_path / "d.csv")]) == 2


class TestNearestCommand:
    def write_inputs(self, tmp_path, a, v):
        a_path = str(tmp_path / "a.txt")
        v_path = str(tmp_path / "v.txt")
        write_matrix(a_path, a)
        write_matrix(v_path, v)
        return a_path, v_path

    def test_projects_and_reports_distance(self, tmp_path, capsys):
        rng = np.random.default_rng(120)
        a = rng.standard_normal((4, 5))
        v = np.ones((5, 1))
        a_path, v_path = self.write_inputs(tmp_path, a, v)
        out = str(tmp_path / "ahat.txt")
        code = main(["nearest", "--matrix", a_path, "--nullspace", v_path,
                     "--out", out])
        assert code == 0
        ahat = read_matrix(out)
        assert np.max(np.abs(ahat @ np.ones(5))) <= 1e-12
        printed = capsys.readouterr().out
        dist = np.linalg.norm(a - ahat)
        assert f"{dist:.12g}"[:8] in printed

    def test_symmetric_variant(self, tmp_path):
        rng = np.random.default_rng(121)
        s = rng.standard_normal((5, 5))
        a = s + s.T
        a_path, v_path = self.write_inputs(tmp_path, a, np.ones((5, 1)))
        out = str(tmp_path / "ahat.txt")
        code = main(["nearest", "--matrix", a_path, "--nullspace", v_path,
                     "--symmetric", "--out", out])
        assert code == 0
        ahat = read_matrix(out)
        np.testing.assert_allclose(ahat, ahat.T, atol=1e-12)
        assert np.max(np.abs(ahat @ np.ones(5))) <= 1e-12

    def test_symmetric_rejects_asymmetric_input(self, tmp_path):
        rng = np.random.default_rng(122)
        a_path, v_path = self.write_inputs(tmp_path,
                                           rng.standard_normal((4, 4)),
                                           np.ones((4, 1)))
        code = main(["nearest", "--matrix", a_path, "--nullspace", v_path,
                     "--symmetric", "--out", str(tmp_path / "o.txt")])
        assert code == 3

    def test_dependent_nullspace_vectors(self, tmp_path):
        v = np.column_stack([np.ones(4), 2.0 * np.ones(4)])
        a_path, v_path = self.write_inputs(tmp_path, np.eye(4), v)
        code = main(["nearest", "--matrix", a_path, "--nullspace", v_path,
                     "--out", str(tmp_path / "o.txt")])
        assert code == 3

    def test_unparsable_matrix_file(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a matrix\n")
        v_path = str(tmp_path / "v.txt")
        write_matrix(v_path, np.ones((3, 1)))
        code = main(["nearest", "--matrix", str(bad), "--nullspace", v_path,
                     "--out", str(tmp_path / "o.txt")])
        assert code == 3

    def test_requires_both_files(self, tmp_path):
        assert main(["nearest", "--out", str(tmp_path / "o.txt")]) == 2
