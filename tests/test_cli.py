"""Command-line harness: subcommands, config handling, exit codes, CSV."""
import argparse
import ast
import contextlib
import csv
import functools
import io
import itertools
import os
import statistics
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import regnear
import regnear.cli
import regnear.pipeline
from regnear.cli import (DEFAULT_NOISE, DEFAULT_SEEDS, _parse_floats, _parse_seeds,
                         main)
from regnear.linalg import read_matrix, write_matrix
from regnear.nearness import distance_from_products
from regnear.pipeline import (RUN_COLUMNS, RunResult, _fmt, _median, breakdown_lines,
                              csv_rows, run_block, run_single)
from regnear.problems import (add_noise, build_phillips, build_problem,
                              relative_error)
from regnear.regops import (REGULARIZER_NAMES, Mode, RegularizerKind,
                            make_nullspace_basis, regularizer_from_name,
                            stencil_product)
from regnear.solver import rrgmres_block
from regnear.transform import LinearOperator, factor_transform

SWEEP_FIXTURE = Path(__file__).parent / "data" / "default_sweep.csv"
README = Path(__file__).resolve().parents[1] / "README.md"
BLOCK_ROWS = regnear.cli._DISTANCE_BLOCK_ROWS
# a symmetric matrix whose entries square past the float range, with
# the basis of ones: both nearness distances are 5e200
HUGE_MATRIX = np.array([[4e200, 1e200, 0.0], [1e200, 3e200, 1e200], [0.0, 1e200, 4e200]])
# nearest runs near the float maximum, each with the basis of ones: the
# argv, the matrix, the exit code and the line it prints
NEAR_MAX_RUNS = {
    # a - a^T overflowed in the symmetry check
    "asymmetric": (["--symmetric"], [[1.7e308, -1.7e308], [1.7e308, 1.0]], 3,
                   "numerical failure: NotSymmetric: input matrix is not symmetric"),
    # a V overflowed; the distance, sqrt(3) 1.7e308, is beyond the float range
    "distance-beyond": ([], [[1.7e308, 1.7e308, 1.7e308], [0, 1, 0], [0, 0, 1]], 3,
                        "numerical failure: OutOfRange: distance exceeds the float range"),
    # the distance, 1.7e308 / sqrt(3), is finite, but the nearest
    # matrix's entry -1.7e308 - 1.7e308 / 3 is not
    "matrix-beyond": ([], [[1.7e308, 1.7e308, -1.7e308], [0, 1, 0], [0, 0, 1]], 3,
                      "numerical failure: OutOfRange: nearest matrix exceeds the float range"),
    # a V overflowed in a partial sum; the distance and the matrix are finite
    "finite": ([], [[1.7e308, 1.7e308, -9e307], [0, 1, 0], [0, 0, 1]], 0,
               "distance 1.44337567297e+308"),
}


@functools.lru_cache(maxsize=None)
def cached_problem(problem, n):
    """The noise-free test problem, built once per (problem, n)."""
    return build_problem(problem, n)


class TestRunSingle:
    @pytest.mark.parametrize("problem, reg", [("phillips", "L20"),
                                              ("deriv2", "L1dP1")])
    def test_structured_K_runs_as_dense_K(self, problem, reg):
        # the large-solve cells: the structured operator against dense K
        base = cached_problem(problem, 2000)
        dense = factor_transform(LinearOperator.from_matrix(base.K),
                                 regularizer_from_name(reg, 2000))
        a = run_single(base, 1e-3, 11, reg, 1.01, 1.0)
        b = run_block([add_noise(base, 1e-3, 11)], [dense], 1.01)[0][0]
        for col in ("iterations", "matvecs", "stop_reason", "matvecs_prepare",
                    "matvecs_solve", "matvecs_back"):
            assert getattr(a, col) == getattr(b, col), col
        assert a.relative_error == pytest.approx(b.relative_error, rel=1e-8)

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

    def test_block_lines_are_each_runs_fields(self):
        # one % over a repeated template writes each field as _fmt does,
        # %.17g for a float and str for the rest, in every line of a block
        values = [0.1, 1.0 / 3.0, 0.0, -0.0, 1e-300, 5e-324, 7.4e153, 1.7976931348623157e308,
                  np.inf, np.nan, 2.0, np.float64(0.25)]
        runs = [RunResult(problem="deriv2", n=200, nu=nu, regularizer="L1dP1", seed=seed,
                          iterations=34, matvecs=40, relative_error=err,
                          stop_reason="MAX_ITER", matvecs_prepare=3, matvecs_solve=35,
                          matvecs_back=2, residual=res, x=np.zeros(1))
                for seed, (nu, err, res) in enumerate(itertools.product(values[:3], values,
                                                                        values[::-1]))]
        assert csv_rows(runs) == "".join(
            ",".join(_fmt(getattr(r, c)) for c in RUN_COLUMNS) + "\n" for r in runs)
        assert breakdown_lines(runs) == "".join(
            f"deriv2 n=200 nu={_fmt(r.nu)} L1dP1 seed={r.seed}: matvecs 40 = prepare 3 "
            f"+ solve 35 + back 2; k=34 MAX_ITER\n" for r in runs)
        assert csv_rows([]) == breakdown_lines([]) == ""


    @settings(max_examples=60, deadline=None)
    @given(problem=st.sampled_from(["phillips", "deriv2"]), n=st.integers(20, 60),
           name=st.sampled_from(REGULARIZER_NAMES), nu=st.floats(1e-4, 1e-2),
           seed=st.integers(0, 2**32 - 1))
    def test_matvec_totals(self, problem, n, name, nu, seed):
        # prepare pays one product per basis vector and split, the solver
        # k + 1 (the seed A b and one per iteration), the back map one per
        # oblique projector
        reg = regularizer_from_name(name, n)
        two_sided = reg.mode is Mode.TWO_SIDED
        r = run_single(cached_problem(problem, n), nu, seed, name, eta=1.01,
                       delta=1.0)
        assert r.matvecs == r.matvecs_prepare + r.matvecs_solve + r.matvecs_back
        assert r.matvecs_prepare == (2 if two_sided else 1) * reg.basis.ell
        if r.iterations == 0:
            assert r.stop_reason == "INITIAL_RESIDUAL_OK" and r.matvecs_solve == 0
        else:
            assert r.matvecs_solve == r.iterations + 1
        assert r.matvecs_back == (0 if name == "I" else 2 if two_sided else 1)


class TestDefaultSweepRegression:
    """Every cell of the default n = 200 table sweeps against the results
    recorded in tests/data/default_sweep.csv."""

    @pytest.mark.parametrize("problem", ["phillips", "deriv2"])
    def test_cells_match_recorded_sweep(self, problem):
        with open(SWEEP_FIXTURE) as f:
            rows = [r for r in csv.DictReader(f) if r["problem"] == problem]
        grid = {(float(r["nu"]), r["regularizer"], int(r["seed"])) for r in rows}
        assert len(rows) == len(grid)
        assert grid == set(itertools.product(DEFAULT_NOISE, REGULARIZER_NAMES,
                                             DEFAULT_SEEDS))
        base = build_problem(problem, 200)
        for row in rows:
            r = run_single(base, float(row["nu"]), int(row["seed"]),
                           row["regularizer"], eta=1.01, delta=1.0)
            for col in ("iterations", "stop_reason", "matvecs",
                        "matvecs_prepare", "matvecs_solve", "matvecs_back"):
                assert str(getattr(r, col)) == row[col], (row, col)
            assert r.relative_error == pytest.approx(
                float(row["relative_error"]), rel=1e-6), row

    @pytest.mark.parametrize("problem", ["phillips", "deriv2"])
    def test_table_matches_recorded_sweep(self, problem, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert main(["table", "--problem", problem, "--out", str(out)]) == 0
        with open(out) as f:
            got = [r for r in csv.DictReader(f) if r["seed"] != "median"]
        with open(SWEEP_FIXTURE) as f:
            want = [r for r in csv.DictReader(f) if r["problem"] == problem]
        assert len(got) == len(want) == 180
        for row, ref in zip(got, want):
            for col in ("problem", "n", "nu", "regularizer", "seed",
                        "iterations", "stop_reason", "matvecs",
                        "matvecs_prepare", "matvecs_solve", "matvecs_back"):
                assert row[col] == ref[col], (ref, col)
            assert float(row["relative_error"]) == pytest.approx(
                float(ref["relative_error"]), rel=1e-6), ref

    def test_table_factors_once_per_block(self, tmp_path, monkeypatch, capsys):
        # one factor per regularizer serves every noise level, and one
        # noise draw per (noise level, seed) serves every regularizer
        factors, noises = [], []

        def counting_factor(K, reg):
            factors.append(reg.name)
            return factor_transform(K, reg)

        def counting_noise(base, nu, seed):
            noises.append((nu, seed))
            return add_noise(base, nu, seed)

        monkeypatch.setattr(regnear.pipeline, "factor_transform", counting_factor)
        monkeypatch.setattr(regnear.pipeline, "add_noise", counting_noise)
        assert main(["table", "--problem", "phillips",
                     "--out", str(tmp_path / "table.csv")]) == 0
        assert factors == list(REGULARIZER_NAMES) and len(factors) == 6
        assert sorted(noises) == sorted(itertools.product(DEFAULT_NOISE, DEFAULT_SEEDS))
        assert len(noises) == 30

    def test_table_makes_one_solver_call_per_noise_level(self, tmp_path, monkeypatch,
                                                         capsys):
        # each noise level is one lockstep loop: its ten seeds with each of
        # the six factors, a group of columns per factor
        calls = []

        def counting_block(A, B, cfgs, keep_iterates=False):
            calls.append([b.shape[1] for b in B])
            return rrgmres_block(A, B, cfgs, keep_iterates)

        monkeypatch.setattr(regnear.pipeline, "rrgmres_block", counting_block)
        assert main(["table", "--problem", "phillips",
                     "--out", str(tmp_path / "table.csv")]) == 0
        assert calls == [[10] * 6] * 3


    @pytest.mark.parametrize("problem", ["phillips", "deriv2"])
    def test_block_above_the_crossover_matches_run_single(
            self, problem, tmp_path, monkeypatch, capsys):
        # at n = 400 K is the structured operator and each block of seeds
        # is one structured product per step; dense K must not be read
        def no_dense_K(*args):
            raise AssertionError("dense K was read")

        monkeypatch.setattr(regnear.problems, "_phillips_matrix", no_dense_K)
        monkeypatch.setattr(regnear.problems, "_deriv2_matrix", no_dense_K)
        out = tmp_path / "table.csv"
        assert main(["table", "--problem", problem, "--n", "400", "--seeds", "1..3",
                     "--regs", "I,L1dP1,P2L2tP2", "--out", str(out)]) == 0
        with open(out) as f:
            rows = [r for r in csv.DictReader(f) if r["seed"] != "median"]
        assert len(rows) == 3 * 3 * 3
        base = cached_problem(problem, 400)
        for row in rows:
            r = run_single(base, float(row["nu"]), int(row["seed"]),
                           row["regularizer"], eta=1.01, delta=1.0)
            for col in ("problem", "n", "nu", "regularizer", "seed",
                        "iterations", "stop_reason", "matvecs",
                        "matvecs_prepare", "matvecs_solve", "matvecs_back"):
                assert row[col] == _fmt(getattr(r, col)), (row, col)
            assert float(row["relative_error"]) == pytest.approx(
                r.relative_error, rel=1e-6), row


class TestArgumentParsing:
    def test_seed_range(self):
        assert _parse_seeds("2..5") == (2, 3, 4, 5)

    def test_seed_list(self):
        assert _parse_seeds("1,4,9") == (1, 4, 9)

    def test_bad_seed_text(self):
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_seeds("a..b")

    @pytest.mark.parametrize("argv, message", [
        (["table", "--seeds", "1..x"], "argument --seeds: bad seed range '1..x'"),
        (["table", "--noise", "1e-2,abc"], "argument --noise: bad number list '1e-2,abc'"),
        (["nearest", "--symmetric", "maybe"], "argument --symmetric: bad boolean 'maybe'"),
    ], ids=["seeds", "noise", "symmetric"])
    def test_bad_list_item_names_its_reason(self, argv, message, capsys):
        # the usage error gives the parser's reason, not its function's name
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err == f"error: regnear {argv[0]}: {message}\n"
        assert "_parse_" not in err

    # every scalar option reads a number spelled in plain ASCII, as the
    # list items do: int and float alone read 1_0 as 10 and the
    # Arabic-Indic or fullwidth digits as digits
    @pytest.mark.parametrize("command, option, text", [
        ("solve", "n", "1_0"), ("solve", "seed", "\u0663"), ("solve", "max-iter", "1_0"),
        ("solve", "eta", "1_0"), ("solve", "delta", "\uff11"), ("solve", "noise", "1_0e-3"),
        ("table", "n", "\u0661\u0666"), ("table", "max-iter", "\u0665"),
        ("distances", "min-n", "\u0664"), ("distances", "max-n", "1_0"),
        ("distances", "step", "\uff11"),
    ])
    def test_a_scalar_option_reads_plain_ascii(self, command, option, text, tmp_path, capsys):
        out = str(tmp_path / "out")
        with pytest.raises(SystemExit) as exc:
            main([command, f"--{option}", text, "--out", out])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            f"error: regnear {command}: argument --{option}: bad number {text!r}\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{option} = {text}\n", encoding="utf-8")
        assert main([command, "--config", str(cfg), "--out", out]) == 2
        key = option.replace("-", "_")
        assert capsys.readouterr().err == f"error: config key {key}: bad number {text!r}\n"
        assert list(tmp_path.iterdir()) == [cfg]

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
        xk = read_matrix(prefix + "_xk.txt")
        xhat = read_matrix(prefix + "_xhat.txt")
        assert xk.shape == xhat.shape == (24, 1)
        xk, xhat = xk[:, 0], xhat[:, 0]
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

    def test_huge_iteration_cap_matches_small_one(self, tmp_path):
        # the solver's storage follows the iterations run, not max_iter
        rows = []
        for cap in ("100", "10000000"):
            prefix = str(tmp_path / f"cap{cap}")
            assert main(["solve", "--n", "16", "--max-iter", cap,
                         "--out", prefix]) == 0
            with open(prefix + ".csv") as f:
                rows.append(f.read().strip().split("\n")[1])
        assert rows[0] == rows[1]

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

    @pytest.mark.parametrize("noise", ["1e-2", "0"])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, noise):
        # rejected before the problem is built, with or without noise
        code = main(["solve", "--n", "16", "--noise", noise, "--seed", "-1",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("error:") == 1 and "seed -1" in err
        assert not list(tmp_path.iterdir())

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # a vanishing corner weight makes the invertible core singular
        code = main(["solve", "--n", "16", "--reg", "L1dP1",
                     "--delta", "1e-20", "--out", str(tmp_path / "x")])
        assert code == 3
        assert "SingularCore" in capsys.readouterr().err

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

    def test_malformed_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n = 16\njust some words\n")
        assert main(["solve", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:2: expected key=value\n"

    @pytest.mark.parametrize("command", ["solve", "table"])
    def test_non_finite_delta_rejected_before_any_build(self, command, tmp_path, capsys,
                                                        monkeypatch):
        built = []
        monkeypatch.setattr(regnear.pipeline, "build_problem",
                            lambda *args: built.append(args))
        out = tmp_path / "x"
        assert main([command, "--n", "16", "--delta", "nan", "--out", str(out)]) == 2
        assert built == []
        assert capsys.readouterr().err == "error: delta must be finite, got nan\n"
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("seeds", ["1..3", "1..4"], ids=["odd", "even"])
    def test_median_cells_are_statistics_median(self, seeds, tmp_path):
        # each median cell, as text, is the exact median of its block's
        # seed rows, with the even count averaging the middle two
        out = tmp_path / "t.csv"
        assert main(["table", "--problem", "deriv2", "--n", "40",
                     "--noise", "1e-2,1e-4", "--regs", "I,L1dP1,L20",
                     "--seeds", seeds, "--out", str(out)]) == 0
        with open(out) as f:
            rows = list(csv.DictReader(f))
        blocks, block = [], []
        for row in rows:
            if row["seed"] != "median":
                block.append(row)
                continue
            blocks.append((block, row))
            block = []
        assert len(blocks) == 6 and not block
        for seed_rows, median in blocks:
            assert len(seed_rows) == len(_parse_seeds(seeds))
            for col, parse in (("iterations", int), ("matvecs", int),
                               ("relative_error", float)):
                want = statistics.median(parse(r[col]) for r in seed_rows)
                assert median[col] == _fmt(float(want)), (median, col)

    def test_deterministic_output(self, tmp_path):
        first = self.run_small_table(tmp_path, "a.csv")
        second = self.run_small_table(tmp_path, "b.csv")
        assert first == second

    def test_failed_cell_is_recorded_and_run_continues(self, tmp_path, capsys,
                                                       monkeypatch):
        builds = []

        def counting_build(name, n, delta=1.0):
            builds.append((name, n, delta))
            return regularizer_from_name(name, n, delta)

        monkeypatch.setattr(regnear.pipeline, "regularizer_from_name", counting_build)
        out = str(tmp_path / "err.csv")
        code = main(["table", "--problem", "phillips", "--n", "16",
                     "--noise", "1e-2", "--regs", "L1dP1", "--seeds", "1..2",
                     "--delta", "1e-20", "--out", out])
        assert code == 0
        with open(out) as f:
            text = f.read()
        assert text.count("ERROR_SingularCore") == 2
        assert "SingularCore" in capsys.readouterr().out
        # the failed factor is stored and reported, not attempted per seed
        assert builds == [("L1dP1", 16, 1e-20)]

    def test_every_factor_failed_makes_no_solver_call(self, tmp_path, capsys,
                                                      monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("the solver ran")

        monkeypatch.setattr(regnear.pipeline, "rrgmres_block", no_solve)
        out = tmp_path / "err.csv"
        assert main(["table", "--regs", "L1dP1", "--delta", "1e-20", "--seeds", "1..2",
                     "--out", str(out)]) == 0
        with open(out) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == len(DEFAULT_NOISE) * 3
        for row in rows:
            want = "" if row["seed"] == "median" else "ERROR_SingularCore"
            assert row["stop_reason"] == want and row["iterations"] == ""
        assert capsys.readouterr().out.count(": ERROR_SingularCore: ") == 6

    def test_repeated_regularizers_and_seeds(self, tmp_path, capsys):
        # a regularizer or a seed named twice repeats its rows where it
        # is named; each row reads as the row of the table without repeats
        def table(regs, seeds):
            out = tmp_path / "t.csv"
            assert main(["table", "--n", "30", "--regs", regs, "--seeds", seeds,
                         "--noise", "1e-2,0", "--out", str(out)]) == 0
            with open(out) as f:
                return [r for r in csv.DictReader(f) if r["seed"] != "median"]

        plain = {(r["nu"], r["regularizer"], r["seed"]): r for r in table("I,L1dP1", "3,1")}
        rows = table("I,L1dP1,I", "3,1,3")
        keys = [(r["nu"], r["regularizer"], r["seed"]) for r in rows]
        assert keys == [(_fmt(nu), reg, seed) for nu in (1e-2, 0.0)
                        for reg in ("I", "L1dP1", "I") for seed in ("3", "1", "3")]
        for row, key in zip(rows, keys):
            ref = plain[key]
            for col in RUN_COLUMNS:
                if col in ("relative_error", "residual"):
                    assert float(row[col]) == pytest.approx(float(ref[col]), rel=1e-12)
                else:
                    assert row[col] == ref[col], (key, col)
        # the second I block is the first, to the bit
        assert rows[:3] == rows[6:9] and rows[9:12] == rows[15:18]

    @pytest.mark.parametrize("reg", ["L1dP1", "P2L2tP2"])
    @pytest.mark.parametrize("n", [200, 2000], ids=["dense-K", "structured-K"])
    @pytest.mark.parametrize("problem", ["phillips", "deriv2"])
    def test_one_cell_table_writes_the_solve_row(self, problem, n, reg, tmp_path, capsys):
        # solve is the one-cell case of the table's run path: the same
        # header and the same row, byte for byte
        cell = ["--problem", problem, "--n", str(n), "--noise", "1e-3"]
        assert main(["solve", *cell, "--reg", reg, "--seed", "11",
                     "--out", str(tmp_path / "s")]) == 0
        assert main(["table", *cell, "--regs", reg, "--seeds", "11",
                     "--out", str(tmp_path / "t.csv")]) == 0
        solved = (tmp_path / "s.csv").read_text().split("\n")
        tabled = (tmp_path / "t.csv").read_text().split("\n")
        assert len(solved) == 3 and len(tabled) == 4
        assert tabled[:2] == solved[:2]

    @settings(max_examples=100, deadline=None)
    @given(values=st.one_of(
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=12),
        st.lists(st.integers(0, 10**6), min_size=1, max_size=12)))
    def test_median_is_np_median(self, values):
        assert _median(values) == float(np.median(values))

    @pytest.mark.parametrize("noise", ["1e-2", "0"])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, noise):
        # no row of the valid seed 1 is run before the bad one is seen
        out = tmp_path / "x.csv"
        code = main(["table", "--n", "16", "--regs", "I", "--seeds", "1,-1",
                     "--noise", noise, "--out", str(out)])
        assert code == 2
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.count("error:") == 1 and "seed -1" in err
        assert not out.exists()

    def test_negative_delta_fails_before_any_row(self, tmp_path, capsys):
        # the regularizers are all built before the first row is run
        out = tmp_path / "x.csv"
        code = main(["table", "--n", "16", "--delta", "-1", "--out", str(out)])
        assert code == 2
        stdout, err = capsys.readouterr()
        assert stdout == "" and "delta" in err
        assert not out.exists()

    def test_rejects_non_finite_noise_level(self, tmp_path, capsys):
        code = main(["table", "--n", "16", "--noise", "1e-2,nan",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().out == ""  # no cell ran

    def test_noise_column_has_17_significant_digits(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["table", "--n", "16", "--noise", "0.1", "--regs", "I", "--seeds", "1",
                     "--out", str(out)]) == 0
        with open(out) as f:
            rows = list(csv.DictReader(f))
        assert [row["nu"] for row in rows] == ["0.10000000000000001"] * 2

    def test_rejects_empty_seed_list(self, tmp_path):
        code = main(["table", "--n", "16", "--seeds", ",",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize("setting", [
        ["--noise", ","], ["--regs", ","], "noise = ,", "regs = ,", "seeds = ,",
    ], ids=["noise-flag", "regs-flag", "noise-config", "regs-config", "seeds-config"])
    def test_rejects_empty_list_from_flag_or_config(self, tmp_path, capsys, setting):
        if isinstance(setting, str):
            cfg = tmp_path / "empty.cfg"
            cfg.write_text(setting + "\n")
            setting = ["--config", str(cfg)]
        out = tmp_path / "x.csv"
        assert main(["table", "--n", "16", *setting, "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().out == ""  # no cell ran


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

    @staticmethod
    def dense_row(n):
        """(||L2t - L20||, ||L2t - P L2t P||, ||L2t - L2t P||) with the
        explicit projector P = I - V V^T of the constants and linear
        trends."""
        l2t = (np.diag(np.full(n, 0.5)) + np.diag(np.full(n - 1, -0.25), 1)
               + np.diag(np.full(n - 1, -0.25), -1))
        l20 = l2t.copy()
        l20[[0, -1]] = 0.0
        V, _ = np.linalg.qr(np.column_stack([np.ones(n), np.arange(1.0, n + 1.0)]))
        P = np.eye(n) - V @ V.T
        return (np.linalg.norm(l2t - l20), np.linalg.norm(l2t - P @ l2t @ P),
                np.linalg.norm(l2t - l2t @ P))

    @pytest.mark.parametrize("argv,orders", [
        (["--min-n", "4", "--max-n", "6"], [4, 5, 6]),
        (["--min-n", "78", "--max-n", "78"], [78]),
        (["--min-n", "211", "--max-n", "211"], [211]),
        (["--min-n", "400", "--max-n", "400"], [400]),
        (["--min-n", "4", "--max-n", "60", "--step", "7"], list(range(4, 61, 7))),
    ], ids=["4-6", "78", "211", "400", "step7"])
    def test_rows_match_dense_projector(self, argv, orders, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["distances", *argv, "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert [int(r.split(",")[0]) for r in rows] == orders
        for row in rows:
            n, *got = row.split(",")
            np.testing.assert_allclose([float(g) for g in got],
                                       self.dense_row(int(n)), rtol=1e-12)

    def test_large_order_builds_no_square_array(self, tmp_path):
        # at n = 4000 an n x n array of doubles takes 128 MB; the table
        # works on n x 2 blocks alone
        import tracemalloc
        out = tmp_path / "d.csv"
        tracemalloc.start()
        try:
            assert main(["distances", "--min-n", "4000", "--max-n", "4000",
                         "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert out.read_text().splitlines()[1].startswith("4000,")

    @staticmethod
    def per_order_line(n):
        """The table's row for order n by the per-order route: the basis
        of that order alone, its own stencil product, then the two
        distances."""
        V = make_nullspace_basis("N2", n).V
        lv = stencil_product(RegularizerKind.L2_TILDE, n, V)
        return (f"{n},{float(np.sqrt(0.625)):.17g},"
                f"{distance_from_products(V, lv, lv):.17g},"
                f"{distance_from_products(V, lv):.17g}")

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lo=st.integers(4, BLOCK_ROWS + 100), span=st.integers(0, 300),
           step=st.integers(1, 40))
    @example(lo=4, span=396, step=1)  # the default table: many blocks
    @example(lo=5, span=295, step=7)
    # orders on both sides of the cap: 4096 rows fill a block, and the
    # 4097 rows of order 4096 are a block of their own
    @example(lo=BLOCK_ROWS - 3, span=8, step=1)
    def test_rows_are_the_per_order_route_bit_for_bit(self, tmp_path, lo, span, step):
        out = tmp_path / "d.csv"
        assert main(["distances", "--min-n", str(lo), "--max-n", str(lo + span),
                     "--step", str(step), "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert rows == [self.per_order_line(n) for n in range(lo, lo + span + 1, step)]

    def test_default_run_stays_small(self, tmp_path):
        # the 397 orders of the default table come in blocks of at most
        # BLOCK_ROWS rows, each a few n x 2 arrays
        import tracemalloc
        tracemalloc.start()
        try:
            assert main(["distances", "--out", str(tmp_path / "d.csv")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_bad_range(self, tmp_path):
        assert main(["distances", "--min-n", "10", "--max-n", "4",
                     "--out", str(tmp_path / "d.csv")]) == 2
        assert main(["distances", "--min-n", "2", "--max-n", "8",
                     "--out", str(tmp_path / "d.csv")]) == 2

    @pytest.mark.parametrize("step", ["-1", "0"])
    def test_non_positive_step_is_config_error(self, step, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert main(["distances", "--step", step, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: step must be positive\n"
        assert not out.exists()


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

    def test_rows_beyond_the_header_are_a_parse_error(self, tmp_path, capsys):
        # a 2 x 2 header over three rows: the third row is not dropped
        bad = tmp_path / "a.txt"
        bad.write_text("2 2\n2 1\n1 3\n5 5\n")
        v_path = str(tmp_path / "v.txt")
        write_matrix(v_path, np.ones((2, 1)))
        out = tmp_path / "o.txt"
        code = main(["nearest", "--matrix", str(bad), "--nullspace", v_path,
                     "--out", str(out)])
        assert code == 3
        assert "ParseError" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("symmetric", [["--symmetric", "false"], "symmetric = off"],
                             ids=["flag", "config"])
    def test_symmetric_off_is_the_plain_variant(self, symmetric, tmp_path):
        # an asymmetric matrix, which the symmetric variant refuses
        a = np.arange(16.0).reshape(4, 4)
        a_path, v_path = self.write_inputs(tmp_path, a, np.ones((4, 1)))
        files = ["--matrix", a_path, "--nullspace", v_path]
        plain = tmp_path / "plain.txt"
        assert main(["nearest", *files, "--out", str(plain)]) == 0
        if isinstance(symmetric, str):
            cfg = tmp_path / "off.cfg"
            cfg.write_text(symmetric + "\n")
            symmetric = ["--config", str(cfg)]
        out = tmp_path / "off.txt"
        assert main(["nearest", *files, *symmetric, "--out", str(out)]) == 0
        assert out.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize("symmetric", [[], ["--symmetric"]], ids=["plain", "symmetric"])
    def test_entries_whose_squares_overflow(self, symmetric, tmp_path, capsys):
        # ||A V|| and ||A||_F square past the float range; both distances
        # still come out as 5e200, with no numpy warning
        a_path, v_path = self.write_inputs(tmp_path, HUGE_MATRIX, np.ones((3, 1)))
        out = tmp_path / "o.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["nearest", "--matrix", a_path, "--nullspace", v_path, *symmetric,
                         "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        assert capsys.readouterr().out == f"distance 5e+200\nwrote {out}\n"
        ahat = read_matrix(str(out))
        assert np.max(np.abs(ahat @ np.ones(3))) <= 1e-12 * 4e200

    def test_requires_both_files(self, tmp_path):
        assert main(["nearest", "--out", str(tmp_path / "o.txt")]) == 2

    def test_null_space_vectors_near_the_float_limit(self, tmp_path, capsys):
        # entries of 1e200 square past the float range: the columns are
        # independent all the same, and the span check still bounds the
        # basis, with no numpy warning
        v = 1e200 * np.column_stack([np.ones(3), [1.0, 2.0, 3.0]])
        a_path, v_path = self.write_inputs(tmp_path, np.eye(3), v)
        out = str(tmp_path / "o.txt")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["nearest", "--matrix", a_path, "--nullspace", v_path,
                         "--out", out])
        assert code == 0, capsys.readouterr().err
        ahat = read_matrix(out)
        assert np.max(np.abs(ahat @ (v / 1e200))) <= 1e-12


@pytest.mark.parametrize("command", ["distances", "solve", "table", "nearest"])
def test_unwritable_or_missing_file_is_config_error(command, tmp_path, capsys):
    # a path in a directory that does not exist, for the output file or,
    # for nearest, the input matrix: one error line and exit code 2
    missing = tmp_path / "missing"
    run = ["--n", "12", "--noise", "1e-2"]
    argv = {
        "distances": ["distances", "--max-n", "6", "--out", str(missing / "d.csv")],
        "solve": ["solve", *run, "--out", str(missing / "s")],
        "table": ["table", *run, "--regs", "I", "--seeds", "1",
                  "--out", str(missing / "t.csv")],
        "nearest": ["nearest", "--matrix", str(missing / "a.txt"),
                    "--nullspace", str(missing / "v.txt"),
                    "--out", str(tmp_path / "o.txt")],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(missing) in err
    assert not missing.exists()


@pytest.mark.parametrize("command", ["solve", "table"])
def test_out_of_memory_is_config_error(command, tmp_path, capsys, monkeypatch):
    # a dense K that does not fit: one error line that names n, exit code 2
    # (the build is faked: a test never asks for the real allocation)
    def no_memory(problem, n):
        raise MemoryError

    monkeypatch.setattr(regnear.pipeline, "build_problem", no_memory)
    assert main([command, "--n", "300000", "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "n = 300000" in err and "300000x300000" not in err


@pytest.mark.parametrize("problem", ["phillips", "deriv2"])
@pytest.mark.parametrize("argv", [["solve", "--n", "3"],
                                  ["table", "--n", "-5", "--seeds", "1"]],
                         ids=["solve", "table"])
def test_out_of_range_n_is_config_error(argv, problem, tmp_path, capsys):
    # a problem size the builder refuses is a bad flag value, not a
    # numerical failure: one error line, exit code 2 and no output file
    out = tmp_path / "x"
    assert main([*argv, "--problem", problem, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{problem} needs n >= 4" in err
    assert list(tmp_path.iterdir()) == []


def test_other_out_of_memory_is_config_error(tmp_path, capsys, monkeypatch):
    # any other allocation that fails ends in one error line, not a traceback
    def no_memory(orders):
        raise MemoryError(f"Unable to allocate {8 * orders[0] ** 2} bytes")

    monkeypatch.setattr(regnear.cli, "stacked_n2_bases", no_memory)
    assert main(["distances", "--out", str(tmp_path / "d.csv")]) == 2
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 128 bytes\n"


@pytest.mark.parametrize("argv", [
    ["solve", "--noise", "1e200"], ["solve", "--noise", "1e300"],
    ["table", "--noise", "1e300", "--regs", "I", "--seeds", "1"],
], ids=["solve-1e200", "solve-1e300", "table-1e300"])
def test_overflowing_noise_norm_is_config_error(argv, tmp_path, capsys):
    # ||e|| = nu ||b_hat|| beyond sqrt(float max) cannot be squared: it is
    # refused in one error line that names nu, before numpy could warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*argv, "--n", "40", "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: noise level ") and err.count("\n") == 1
    assert repr(float(argv[2])) in err


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(["solve", "table"]),
       problem=st.sampled_from(["phillips", "deriv2"]),
       n=st.sampled_from([4, 5, 40, 321]),
       noise=st.sampled_from(["5e152", "1e153", "1.3e154", "0", "5e-324", "nan",
                              "-1", "1e-3"]),
       eta=st.sampled_from(["1", "1.0000001", "1e300", "1.01"]),
       max_iter=st.sampled_from(["0", "1", "100"]),
       delta=st.sampled_from(["1e-20", "1e300", "1"]),
       regs=st.lists(st.sampled_from(REGULARIZER_NAMES), min_size=1, max_size=3,
                     unique=True),
       seeds=st.sampled_from(["0", "1..2", "11"]))
# deriv2's P2L2tP2 cells near the noise guard: x reaches 7.4e153, and
# the sum of squares of its error overflowed
@example(command="table", problem="deriv2", n=40, noise="1e153", eta="1.01",
         max_iter="100", delta="1", regs=list(REGULARIZER_NAMES), seeds="1..2")
def test_run_settings_at_their_bounds(command, problem, n, noise, eta, max_iter, delta,
                                      regs, seeds):
    # settings at and beyond each bound either run to finite CSV values
    # or fail in one line with exit code 2 or 3, leaving no file, and no
    # numpy warning gets out either way
    argv = [command, "--problem", problem, "--n", str(n), "--noise", noise,
            "--eta", eta, "--max-iter", max_iter, "--delta", delta]
    if command == "solve":
        # the prefix of out.csv and the two vector files
        argv += ["--reg", regs[0], "--seed", seeds.split("..")[0], "--out", "out"]
    else:
        argv += ["--regs", ",".join(regs), "--seeds", seeds, "--out", "out.csv"]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv[-1] = os.path.join(tmp, argv[-1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
        written = sorted(Path(tmp).iterdir())
        assert code in (0, 2, 3)
        if code:
            assert err.getvalue().count("\n") == 1 and written == [], (err.getvalue(), written)
            return
        (table,) = [f for f in written if f.suffix == ".csv"]
        with open(table) as f:
            rows = list(csv.DictReader(f))
        assert rows
        for row in rows:
            for column, value in row.items():
                if value and column not in ("problem", "regularizer", "seed", "stop_reason"):
                    assert np.isfinite(float(value)), (column, row)
        for vector in written:
            if vector.suffix == ".txt":
                # ParseError on a non-finite entry
                assert read_matrix(str(vector)).shape[1] == 1


# matrix entries at the edges of the float range, signed zeros included
EDGE_ENTRIES = (0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 1e200, -1e200, 1e300, -1e300,
                1.7e308, -1.7e308)


@st.composite
def distances_argv(draw):
    """A distances run with orders and steps at and beyond their bounds."""
    return ["distances", "--min-n", str(draw(st.integers(2, 5))),
            "--max-n", str(draw(st.sampled_from([3, 4, 5, 400]))),
            "--step", str(draw(st.sampled_from([-1, 0, 1, 7]))), "--out", "out.csv"], {}


@st.composite
def nearest_argv(draw):
    """A nearest run on a matrix of order at most 6 and a null-space file
    of l in {0, 1, 2, n} vectors, square or not, orders matching or not,
    entries from EDGE_ENTRIES; with the symmetric variant, on a mirrored
    (symmetric) matrix or not."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.one_of(st.just(rows), st.integers(1, 6)))
    a = draw(hnp.arrays(np.float64, (rows, cols), elements=st.sampled_from(EDGE_ENTRIES)))
    if rows == cols and draw(st.booleans()):
        a = np.where(np.triu(np.ones(a.shape, dtype=bool)), a, a.T)
    n = draw(st.one_of(st.just(cols), st.integers(1, 6)))
    ell = draw(st.sampled_from([0, 1, 2, n]))
    scale = draw(st.sampled_from([1.0, 1e-300, 1e200, 1e300]))
    v = draw(st.one_of(
        hnp.arrays(np.float64, (n, ell), elements=st.sampled_from(EDGE_ENTRIES)),
        st.just(scale * np.vander(np.arange(1.0, n + 1.0), ell, increasing=True))))
    symmetric = draw(st.sampled_from([[], ["--symmetric"], ["--symmetric", "false"]]))
    return (["nearest", "--matrix", "a.txt", "--nullspace", "v.txt", *symmetric,
             "--out", "out.txt"], {"a.txt": a, "v.txt": v})


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=st.one_of(distances_argv(), nearest_argv()))
# the entries up to 4e200 whose squares overflowed in both variants
@example(case=(["nearest", "--matrix", "a.txt", "--nullspace", "v.txt", "--out", "out.txt"],
               {"a.txt": HUGE_MATRIX, "v.txt": np.ones((3, 1))}))
@example(case=(["nearest", "--matrix", "a.txt", "--nullspace", "v.txt", "--symmetric",
                "--out", "out.txt"], {"a.txt": HUGE_MATRIX, "v.txt": np.ones((3, 1))}))
# NEAR_MAX_RUNS, whose entries near the float maximum overflowed
@example(case=(["nearest", "--matrix", "a.txt", "--nullspace", "v.txt", "--symmetric",
                "--out", "out.txt"], {"a.txt": np.array(NEAR_MAX_RUNS["asymmetric"][1]),
                                      "v.txt": np.ones((2, 1))}))
@example(case=(["nearest", "--matrix", "a.txt", "--nullspace", "v.txt", "--out", "out.txt"],
               {"a.txt": np.array(NEAR_MAX_RUNS["distance-beyond"][1]), "v.txt": np.ones((3, 1))}))
@example(case=(["nearest", "--matrix", "a.txt", "--nullspace", "v.txt", "--out", "out.txt"],
               {"a.txt": np.array(NEAR_MAX_RUNS["matrix-beyond"][1]), "v.txt": np.ones((3, 1))}))
@example(case=(["nearest", "--matrix", "a.txt", "--nullspace", "v.txt", "--out", "out.txt"],
               {"a.txt": np.array(NEAR_MAX_RUNS["finite"][1]), "v.txt": np.ones((3, 1))}))
# null-space vectors near the float maximum, whose span check overflowed
@example(case=(["nearest", "--matrix", "a.txt", "--nullspace", "v.txt", "--out", "out.txt"],
               {"a.txt": np.zeros((3, 3)),
                "v.txt": np.array([[1e300, 1.0], [1.0, 1.7e308], [0.0, 1.0]])}))
def test_distances_and_nearest_at_their_bounds(case):
    # a run either writes its file and a finite distance, or fails in
    # one line with exit code 2 or 3 and writes nothing, with no numpy
    # warning either way
    argv, inputs = case
    out = io.StringIO()
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, a in inputs.items():
            write_matrix(os.path.join(tmp, name), a)
        argv = [os.path.join(tmp, x) if x in ("a.txt", "v.txt", "out.txt", "out.csv") else x
                for x in argv]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
                code = main(argv)
        written = sorted(p.name for p in Path(tmp).iterdir() if p.name not in inputs)
        assert code in (0, 2, 3)
        if code:
            assert err.getvalue().count("\n") == 1, err.getvalue()
            assert "Traceback" not in err.getvalue() and written == []
            return
        assert written == [os.path.basename(argv[-1])]
        if argv[0] == "distances":
            with open(argv[-1]) as f:
                rows = list(csv.reader(f))[1:]
            assert rows and all(np.isfinite(float(x)) for row in rows for x in row)
        else:
            read_matrix(argv[-1])  # ParseError on a non-finite entry
            first = out.getvalue().splitlines()[0]
            assert first.startswith("distance ") and np.isfinite(float(first.split()[1]))


# list items of --noise, --regs and --seeds, each with the value it
# lists, or None for an item the table refuses.  A number is spelled in
# plain ASCII: int and float alone read the digit separator of 1_0 (as
# 10) and non-ASCII digits
NOISE_ITEMS = {"1e-3": 1e-3, "0": 0.0, " 1e-2 ": 1e-2, "x": None, "-1": None, "nan": None,
               "1e-3..1e-2": None, "1_0": None, "1e-0_3": None, "\uff11": None}
REG_ITEMS = {"I": "I", " L1dP1 ": "L1dP1", "L3": None, "L_20": None}
SEED_ITEMS = {"3": 3, "1": 1, " 2 ": 2, "1.5": None, "-1": None, "x": None, "1_0": None,
              "\u0663": None}


@st.composite
def comma_list(draw, items):
    """A comma list of keys of items, empty and blank items among them,
    and the values it lists, repeats kept, or None when the table must
    refuse it: a bad item, or nothing listed."""
    keys = draw(st.lists(st.sampled_from([*items, "", " "]), max_size=4))
    values = [items[k] for k in keys if k.strip()]
    return ",".join(keys), values if values and None not in values else None


@st.composite
def seed_range(draw):
    """lo..hi with bounds that are integers or not, in order or reversed,
    spelled in plain ASCII or not."""
    lo, hi = draw(st.sampled_from(["0", "1", "2", "x", "", "1_0", "\u0661"])), draw(
        st.sampled_from(["0", "1", "3", "1.5", "", "1_2", "\u0663"]))
    plain = all(x.isascii() and "_" not in x for x in (lo, hi))
    try:
        values = list(range(int(lo), int(hi) + 1)) if plain else []
    except ValueError:
        values = []
    return f"{lo}..{hi}", values or None


@settings(max_examples=150, deadline=None)
@given(noise=comma_list(NOISE_ITEMS), regs=comma_list(REG_ITEMS),
       seeds=st.one_of(comma_list(SEED_ITEMS), seed_range()))
# repeats list their cells again: the golden case table-duplicates
# depends on them
@example(noise=("1e-3", [1e-3]), regs=("I", ["I"]), seeds=("3,3", [3, 3]))
@example(noise=("1e-3", [1e-3]), regs=("I,I", ["I", "I"]), seeds=("1", [1]))
@example(noise=("1e-3,1e-3", [1e-3, 1e-3]), regs=("I", ["I"]), seeds=("1", [1]))
# a reversed range, and a list of empty items, list no seed
@example(noise=("1e-3", [1e-3]), regs=("I", ["I"]), seeds=("2..1", None))
@example(noise=("1e-3", [1e-3]), regs=("I", ["I"]), seeds=(",", None))
# a blank item is an empty one; int and float read 1_0 as 10 and the
# Arabic-Indic digit three as 3, which the lists refuse
@example(noise=("1e-3", [1e-3]), regs=("I", ["I"]), seeds=("1, ,3", [1, 3]))
@example(noise=("1e-3", [1e-3]), regs=("I", ["I"]), seeds=("1_0", None))
@example(noise=("1e-3", [1e-3]), regs=("I", ["I"]), seeds=("1_0..1_2", None))
@example(noise=("1e-3", [1e-3]), regs=("I", ["I"]), seeds=("\u0663", None))
@example(noise=("1_0", None), regs=("I", ["I"]), seeds=("1", [1]))
def test_table_lists(noise, regs, seeds):
    # a table either lists one row per (noise level, regularizer, seed)
    # cell and a median row per (noise level, regularizer), repeats
    # included, or exits 2 in one stderr line and writes no file; no
    # numpy warning gets out either way
    texts, listed = zip(noise, regs, seeds)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.csv")
        argv = ["table", "--n", "8", *(f"--{name}={text}" for name, text in
                                       zip(("noise", "regs", "seeds"), texts)), "--out", out]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse's usage error
                    code = exc.code
        if None in listed:
            assert code == 2 and err.getvalue().count("\n") == 1, (argv, err.getvalue())
            assert os.listdir(tmp) == []
            return
        assert code == 0, (argv, err.getvalue())
        with open(out) as f:
            cells = [(float(r["nu"]), r["regularizer"], r["seed"]) for r in csv.DictReader(f)]
    nus, names, seed_list = listed
    assert cells == [(nu, reg, seed) for nu in nus for reg in names
                     for seed in [*map(str, seed_list), "median"]]


@pytest.mark.parametrize("argv, matrix, code, line", [
    (["nearest", "--matrix", "a.txt", "--nullspace", "v.txt"], HUGE_MATRIX, 0,
     "distance 5e+200"),
    (["nearest", "--matrix", "a.txt", "--nullspace", "v.txt", "--symmetric"], HUGE_MATRIX, 0,
     "distance 5e+200"),
    (["distances", "--step", "-1"], HUGE_MATRIX, 2, "error: step must be positive"),
    *((["nearest", "--matrix", "a.txt", "--nullspace", "v.txt", *flags], np.array(a), code, line)
      for flags, a, code, line in NEAR_MAX_RUNS.values()),
], ids=["nearest", "nearest-symmetric", "distances-negative-step", *NEAR_MAX_RUNS])
def test_bounds_under_python_m(argv, matrix, code, line, tmp_path):
    # the same runs as python -m regnear.cli with every warning an error:
    # the distance of entries whose squares overflow, entries near the
    # float maximum, which fail only where the answer is beyond the float
    # range or a is not symmetric, and a bad step; a failure is one
    # error line with no file
    write_matrix(str(tmp_path / "a.txt"), matrix)
    write_matrix(str(tmp_path / "v.txt"), np.ones((len(matrix), 1)))
    run = subprocess.run([sys.executable, "-W", "error", "-m", "regnear.cli", *argv,
                          "--out", "out"], cwd=tmp_path, env=_child_env(),
                         capture_output=True, text=True)
    assert run.returncode == code, run.stderr
    assert line in (run.stderr if code else run.stdout).splitlines()
    assert (tmp_path / "out").exists() == (code == 0)
    if code:
        assert run.stderr.count("\n") == 1 and run.stdout == ""


def _child_env():
    src = os.path.dirname(os.path.dirname(regnear.__file__))
    return dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1")


def test_cli_import_leaves_out_scipy_optimize():
    # only the dense oracles need scipy; the CLI must start without
    # paying for its import
    code = "import sys, regnear.cli; sys.exit('scipy.optimize' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code],
                          env=_child_env()).returncode == 0
    code = ("import sys, regnear.cli; "
            "sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code],
                          env=_child_env()).returncode == 0


def test_cli_import_leaves_out_numpy_fft():
    # numpy loads numpy.fft on first use; only a phillips problem above
    # the dense crossover uses it
    code = "import sys, regnear.cli; sys.exit('numpy.fft' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code],
                          env=_child_env()).returncode == 0


def test_cli_import_leaves_out_what_it_never_runs():
    # the table's median is a sorted midpoint of Python numbers, not
    # statistics (which loads fractions and decimal), the Gauss-Legendre
    # rule of the quadrature oracles, from numpy.polynomial, lives with
    # them in regnear.oracles, and the pipeline module, with the layers
    # only it uses, loads when solve or table runs
    code = ("import sys, regnear.cli; sys.exit(sorted(m for m in "
            "('statistics', 'fractions', 'decimal', 'numpy.polynomial', "
            "'regnear.oracles', 'regnear.pipeline', 'regnear.problems', "
            "'regnear.transform', 'regnear.solver') if m in sys.modules) or None)")
    run = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_distances_and_nearest_leave_out_the_solve_pipeline(tmp_path):
    # the two commands run on regops and nearness alone: the problems,
    # the transformation, the solver and numpy.random (which only the
    # noise draws use) load for solve and table
    write_matrix(str(tmp_path / "a.txt"), np.diag([2.0, 3.0, 4.0]) + 1.0)
    write_matrix(str(tmp_path / "v.txt"), np.ones((3, 1)))
    code = """
import sys
from regnear.cli import main

unused = ("regnear.pipeline", "regnear.problems", "regnear.transform", "regnear.solver",
          "numpy.random")
for argv in (["distances", "--max-n", "20", "--out", "d.csv"],
             ["nearest", "--matrix", "a.txt", "--nullspace", "v.txt", "--out", "o.txt"]):
    if main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
    loaded = [m for m in unused if m in sys.modules]
    if loaded:
        sys.exit(f"{argv[0]} loaded {loaded}")
"""
    run = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=_child_env(),
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def imported_modules(path):
    """Every module a file of the package imports, at module level or in
    a function, relative imports resolved against regnear; `from M
    import x` gives M and M.x."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["regnear" if node.level else "", node.module]))
            yield base
            yield from (f"{base}.{a.name}" for a in node.names)


def test_only_the_oracles_import_scipy():
    # the dense references live in regnear.oracles, the one module that
    # imports scipy; no other module imports scipy or the oracles
    package = Path(regnear.__file__).parent
    assert "scipy.linalg" in set(imported_modules(package / "oracles.py"))
    offenders = [(path.name, m) for path in sorted(package.glob("*.py"))
                 if path.name != "oracles.py" for m in imported_modules(path)
                 if m.split(".")[0] == "scipy" or m.startswith("regnear.oracles")]
    assert offenders == []


def test_no_command_loads_the_oracles_or_scipy(tmp_path):
    # every command runs on numpy alone: table, solve below and above the
    # dense crossover (at n = 400 K is structured), distances and nearest
    write_matrix(str(tmp_path / "a.txt"), np.diag([2.0, 3.0, 4.0]) + 1.0)
    write_matrix(str(tmp_path / "v.txt"), np.ones((3, 1)))
    code = """
import sys
from regnear.cli import main

for argv in (["table", "--n", "40", "--seeds", "1..2", "--out", "t.csv"],
             ["solve", "--n", "40", "--reg", "P2L2tP2", "--out", "s"],
             ["solve", "--n", "400", "--reg", "L20", "--out", "p"],
             ["solve", "--problem", "deriv2", "--n", "400", "--reg", "L1dP1", "--out", "d"],
             ["distances", "--max-n", "20", "--out", "d.csv"],
             ["nearest", "--matrix", "a.txt", "--nullspace", "v.txt", "--out", "o.txt"]):
    if main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
    loaded = sorted(m for m in sys.modules
                    if m == "regnear.oracles" or m.split(".")[0] == "scipy")
    if loaded:
        sys.exit(f"{' '.join(argv)} loaded {loaded}")
"""
    run = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=_child_env(),
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("argv", [["table", "--seeds", "5..1"], ["solve", "--seed", "-1"]],
                         ids=["table-empty-seeds", "solve-negative-seed"])
def test_pipeline_config_error_under_python_m(argv, tmp_path):
    # run as python -m regnear.cli, the CLI module is __main__; a
    # ConfigError raised in the pipeline must still be the class main
    # catches: one error line, exit code 2, no traceback
    run = subprocess.run([sys.executable, "-m", "regnear.cli", *argv, "--n", "16",
                          "--out", str(tmp_path / "x")], cwd=tmp_path, env=_child_env(),
                         capture_output=True, text=True)
    assert run.returncode == 2, run.stderr
    assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1, run.stderr
    assert run.stderr.count("error:") == 1 and "Traceback" not in run.stderr
    assert run.stdout == "" and list(tmp_path.iterdir()) == []


def test_package_import_loads_no_submodule():
    code = ("import sys, regnear; "
            "sys.exit(sorted(m for m in sys.modules if m.startswith('regnear.')) or None)")
    run = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def _readme_imports() -> list[str]:
    """The names the README's examples import from regnear."""
    import ast
    names = []
    for block in README.read_text().split("```python")[1:]:
        for node in ast.walk(ast.parse(block.split("```")[0])):
            if isinstance(node, ast.ImportFrom) and node.module == "regnear":
                names += [a.name for a in node.names]
    return names


def test_every_public_name_resolves():
    # each name loads its submodule on first use, in a fresh process;
    # the README imports only names of __all__
    readme = _readme_imports()
    assert readme and set(readme) <= set(regnear.__all__)
    code = ("import regnear; "
            "missing = [n for n in regnear.__all__ if getattr(regnear, n, None) is None]; "
            "assert not missing, missing; "
            "assert set(regnear.__all__) <= set(dir(regnear)); "
            f"from regnear import {', '.join(readme)}")
    run = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_table_leaves_out_numpy_ma(tmp_path):
    # np.median would load numpy.ma, about 15 ms and 1.4 MB of a cold
    # table; the medians of an odd and an even seed count need neither
    for seeds in ("1..3", "1..4"):
        code = ("import sys; from regnear.cli import main; "
                f"code = main(['table', '--n', '40', '--seeds', '{seeds}', '--out', 't.csv']); "
                "sys.exit(code or 'numpy.ma' in sys.modules)")
        run = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=_child_env(),
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr


# Runs every subcommand at a small size, in the working directory, with
# scipy blocked when the first argument is "block".
_EVERY_COMMAND = """
import sys

if sys.argv[1] == "block":
    class NoScipy:
        def find_spec(self, name, path=None, target=None):
            if name.split(".")[0] == "scipy":
                raise ImportError(f"{name} is blocked")

    sys.meta_path.insert(0, NoScipy())

from regnear.cli import main
from regnear.regops import REGULARIZER_NAMES

runs = [["distances", "--max-n", "20", "--out", "d.csv"],
        ["nearest", "--matrix", "a.txt", "--nullspace", "v.txt",
         "--symmetric", "true", "--out", "o.txt"]]
for problem in ("phillips", "deriv2"):
    runs += [["solve", "--problem", problem, "--n", "40", "--reg", reg,
              "--out", f"{problem}-{reg}"] for reg in REGULARIZER_NAMES]
    runs.append(["table", "--problem", problem, "--n", "40", "--seeds", "1..2",
                 "--out", f"{problem}.csv"])
for argv in runs:
    if main(argv) != 0:
        sys.exit(f"{argv} failed")
"""


def test_every_command_runs_without_scipy(tmp_path):
    # the same files and the same stdout with scipy importable or blocked
    a = np.diag([2.0, 3.0, 4.0, 5.0]) + 1.0
    outputs = {}
    for mode in ("block", "allow"):
        cwd = tmp_path / mode
        cwd.mkdir()
        write_matrix(str(cwd / "a.txt"), a)
        write_matrix(str(cwd / "v.txt"), np.ones((4, 1)))
        run = subprocess.run([sys.executable, "-c", _EVERY_COMMAND, mode],
                             cwd=cwd, env=_child_env(), capture_output=True)
        assert run.returncode == 0, run.stderr.decode()
        files = {f.name: f.read_bytes() for f in sorted(cwd.iterdir())}
        outputs[mode] = (run.stdout, files)
    # the two inputs, distances, nearest, and for each problem three
    # files per solve and the table
    assert len(outputs["block"][1]) == 2 + 1 + 1 + 2 * (3 * 6 + 1)
    assert outputs["block"] == outputs["allow"]
