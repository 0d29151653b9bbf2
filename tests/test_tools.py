"""Tests of the repository tools: the code-line counter, the
comparison logic of the reference-set gate and the statistics of the
paired benchmark comparison."""
import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(f"tool_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab = load_tool("ab")
code_lines = load_tool("code_lines")
golden = load_tool("golden")

MODULE = '''"""A module docstring
over two lines."""
import os  # a trailing comment: the line holds code

# a comment line


def f(x):
    """A function docstring."""
    y = (x
         + 1
         + len(os.sep))
    return y


class C:
    """A class
    docstring."""

    value = 1
'''


class TestCodeLines:
    def test_counts_the_lines_of_code_by_hand(self, tmp_path, capsys):
        # import, def, the three lines of y = ..., return, class, value
        path = tmp_path / "mod.py"
        path.write_text(MODULE)
        assert code_lines.code_lines(path) == 8
        (tmp_path / "__init__.py").write_text('"""Only a docstring."""\n')
        assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
        counts = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert counts == [["__init__.py", "0"], ["mod.py", "8"], ["total", "8"]]

    def test_compares_two_counts_by_module(self):
        # a.py shrinks, b.py is new and c.py is gone: each side without a
        # module counts 0 for it
        lines = code_lines.compare({"a.py": 10, "b.py": 5}, {"a.py": 12, "c.py": 3})
        assert [line.split() for line in lines] == [
            ["module", "before", "after", "change"], ["a.py", "12", "10", "-2"],
            ["b.py", "0", "5", "+5"], ["c.py", "3", "0", "-3"], ["total", "15", "15", "+0"]]


HEADER = ("problem,n,nu,regularizer,seed,iterations,stop_reason,matvecs,"
          "matvecs_prepare,matvecs_solve,matvecs_back,relative_error\n")
ROWS = ["deriv2,200,0.0001,L10,1,30,DISCREPANCY_MET,32,1,31,0,0.125",
        "deriv2,200,0.0001,L10,2,29,DISCREPANCY_MET,31,1,30,0,0.25"]


# the column order of a run CSV, which ends in the residual
RUN_HEADER = ("problem,n,nu,regularizer,seed,iterations,matvecs,relative_error,"
              "stop_reason,matvecs_prepare,matvecs_solve,matvecs_back,residual\n")
RUN_ROWS = ["phillips,30,0,I,1,12,13,0.5,BREAKDOWN,0,13,0,7.5808746139063142e-15",
            "phillips,30,0,I,3,12,13,0.75,BREAKDOWN,0,13,0,2.5e-15",
            "phillips,30,0,I,3,12,13,0.75,BREAKDOWN,0,13,0,2.5e-15"]


def manifest(rows, files=None, header=HEADER):
    cells = golden.read_cells(header + "\n".join(rows) + "\n")
    return {"bytecode": "compiled at every start",
            "cases": {"table": {"args": ["table"], "exit": 0, "stdout": "aa",
                                "stderr": "e0", "files": files or {"t.csv": "f0"},
                                "cells": cells},
                      "bad": {"args": ["solve"], "exit": 2, "stdout": "s", "stderr": "e",
                              "files": {}, "cells": {}}}}


class TestGoldenCompare:
    def test_every_input_file_of_the_set_is_committed(self):
        paths = [arg for args in golden.CASES.values() for arg in args
                 if arg.startswith(str(golden.DATA))]
        assert len(paths) == 14 and all(Path(p).is_file() for p in paths)

    def test_reads_the_cells_of_a_run_csv(self):
        cells = golden.read_cells(HEADER + ROWS[0] + "\n")
        assert cells == {"deriv2/200/0.0001/L10/1": {
            "k": "30", "stop": "DISCREPANCY_MET", "matvecs": ["32", "1", "31", "0"],
            "relative_error": "0.125"}}

    def test_equal_manifests_are_byte_identical(self):
        identical, lines = golden.compare(manifest(ROWS), manifest(ROWS), {})
        assert identical
        assert lines == ["bytecode: compiled at every start", "byte-identical"]

    def test_names_the_cells_that_move(self):
        # seed 1 moves its relative error by 4e-7 relative, and seed 2
        # changes k and one matvec column; the fixture holds seed 1
        moved = [ROWS[0].replace("0.125", "0.12500005"),
                 ROWS[1].replace(",29,", ",30,").replace(",31,1,30,", ",32,1,31,")]
        fixture = golden.read_cells(HEADER + ROWS[0].replace("0.125", "0.1250001") + "\n")
        identical, lines = golden.compare(manifest(moved, files={"t.csv": "f1"}),
                                          manifest(ROWS), fixture)
        assert not identical
        assert "table: differs in file t.csv" in lines
        assert not any(line.startswith("bad") for line in lines)
        k_line, = [line for line in lines if "/2:" in line]
        assert "k, matvecs differ" in k_line
        assert ("k, stop reason and matvecs equal in 1 of the 2 cells of the cases "
                "that differ") in lines
        assert ("relative_error moved in 1 cells, by more than 1e-08 in 1; "
                "largest move 4e-07, deriv2/200/0.0001/L10/1") in lines
        cell, = [line for line in lines if line.startswith("  deriv2/200/0.0001/L10/1")]
        assert "moved 4e-07, k/stop/matvecs equal, 4e-07 from the fixture" in cell

    def test_reports_a_difference_without_cells(self):
        # the stream of a failing run changes: named, though it has no cell
        new = manifest(ROWS)
        new["cases"]["bad"]["stderr"] = "other"
        identical, lines = golden.compare(new, manifest(ROWS), {})
        assert not identical
        assert lines[1:] == ["bad: differs in stderr", "k, stop reason and matvecs "
                             "equal in 0 of the 0 cells of the cases that differ"]

    def test_reads_and_compares_the_residual(self):
        # a repeated seed is a cell of its own; seed 1's residual moves by
        # two units in the last place and the repeat of seed 3 by 0.04,
        # while no relative_error moves
        cells = golden.read_cells(RUN_HEADER + "\n".join(RUN_ROWS) + "\n")
        assert sorted(cells) == ["phillips/30/0/I/1", "phillips/30/0/I/3",
                                 "phillips/30/0/I/3#2"]
        assert cells["phillips/30/0/I/3#2"]["residual"] == "2.5e-15"
        moved = [RUN_ROWS[0].replace("063142e-15", "063173e-15"), RUN_ROWS[1],
                 RUN_ROWS[2].replace("2.5e-15", "2.6e-15")]
        identical, lines = golden.compare(
            manifest(moved, files={"t.csv": "f1"}, header=RUN_HEADER),
            manifest(RUN_ROWS, header=RUN_HEADER), {})
        assert not identical
        assert lines[1:] == [
            "table: differs in file t.csv",
            "k, stop reason and matvecs equal in 3 of the 3 cells of the cases that differ",
            "residual moved in 2 cells; largest move 0.04, phillips/30/0/I/3#2"]


def exits(**codes):
    """A manifest of cases with the given exit codes and nothing else."""
    return {"bytecode": "compiled at every start",
            "cases": {name.replace("_", "-"): {"args": [], "exit": code, "stdout": "s",
                                               "stderr": "e", "files": {}, "cells": {}}
                      for name, code in codes.items()}}


class TestGoldenExitCodes:
    def test_each_failing_case_is_one_of_the_set(self):
        assert set(golden.EXPECTED_EXIT) <= set(golden.CASES)

    def test_names_each_case_with_another_exit_code(self):
        assert golden.unexpected_exits(exits(table_phillips=0, solve_bad_reg=2,
                                             nearest_dependent=3)) == []
        # a table that crashes, a usage error that passes and a failure
        # with the wrong code
        assert golden.unexpected_exits(exits(table_phillips=1, solve_bad_reg=0,
                                             nearest_dependent=2, distances=0)) == [
            "nearest-dependent: exit code 2, expected 3",
            "solve-bad-reg: exit code 0, expected 2",
            "table-phillips: exit code 1, expected 0"]

    @pytest.mark.parametrize("against", [False, True])
    def test_an_unexpected_exit_code_fails_the_run(self, against, monkeypatch, capsys, tmp_path):
        # in both forms, and with --against even where both sides agree
        crashed = exits(table_phillips=1, solve_bad_reg=2)
        monkeypatch.setattr(golden, "run_set", lambda tree, scratch: crashed)
        monkeypatch.setattr(golden, "export", lambda rev, dest: None)
        argv = ["golden.py", "--manifest", str(tmp_path / "m.json")]
        argv += ["--against", "HEAD"] if against else []
        assert golden.main(argv) == 1
        err = capsys.readouterr().err
        assert err == "table-phillips: exit code 1, expected 0\n"
        monkeypatch.setattr(golden, "run_set", lambda tree, scratch: exits(table_phillips=0))
        assert golden.main(argv) == 0


# ten parent runs with quartiles 0.995 and 1.005 around a median of 1.0
PARENT = [0.99, 1.01, 0.995, 1.005, 1.0, 1.0, 0.995, 1.005, 0.99, 1.01]


class TestABCompare:
    @pytest.mark.parametrize("wins, losses, p", [
        (10, 0, 2 / 1024), (0, 10, 2 / 1024), (9, 1, 22 / 1024), (1, 9, 22 / 1024),
        (5, 5, 1.0), (0, 0, 1.0), (3, 0, 0.25)])
    def test_sign_test_p_by_hand(self, wins, losses, p):
        # two-sided: twice the tail of Binomial(wins + losses, 1/2) from
        # the larger count up, at most 1
        assert ab.sign_test_p(wins, losses) == p

    def test_ties_count_for_neither_side(self):
        s = ab.summarize([0.9] * 9 + [1.0], [1.0] * 10, "lower", 0.25)
        assert (s["wins"], s["losses"], s["pairs"]) == (9, 0, 10)
        assert s["p"] == 2 / 512

    def test_gain_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_iqr(self):
        assert ab.summarize([0.9] * 10, PARENT, "lower", 0.25)["verdict"] == "gain"
        nine = ab.summarize([0.9] * 9 + [1.1], PARENT, "lower", 0.25)
        assert (nine["wins"], nine["p"], nine["verdict"]) == (9, 22 / 1024, "gain")
        # eight wins of ten, or a median gap inside the parent's quartiles
        eight = ab.summarize([0.9] * 8 + [1.1] * 2, PARENT, "lower", 0.25)
        assert eight["verdict"] == "no change"
        near = [p - 0.001 for p in PARENT]
        assert ab.summarize(near, PARENT, "lower", 0.25)["verdict"] == "no change"
        # nine pairs are too few, whatever they show
        assert ab.summarize([0.9] * 9, PARENT[:9], "lower", 0.25)["verdict"] == "no change"

    def test_gain_needs_a_gap_past_the_minimum_effect(self):
        # a steady 0.37 % fall of the peak RSS in ten pairs of ten is no
        # gain: the gap passes the tiny IQR but not 1 % of the median
        parent = [40.39] * 5 + [40.38, 40.40] * 2 + [40.39]
        steady = ab.summarize([40.24] * 10, parent, "lower", 0.05)
        assert (steady["wins"], steady["verdict"]) == (10, "no change")
        assert ab.summarize([39.9] * 10, parent, "lower", 0.05)["verdict"] == "gain"
        assert ab.summarize([40.8] * 10, parent, "higher", 0.05)["verdict"] == "gain"
        assert ab.summarize([40.6] * 10, parent, "higher", 0.05)["verdict"] == "no change"

    def test_higher_is_better_turns_the_direction(self):
        s = ab.summarize([1.1] * 10, PARENT, "higher", 0.25)
        assert (s["wins"], s["verdict"]) == (10, "gain")
        assert s["relative"] == pytest.approx(0.1)
        assert ab.summarize([0.7] * 10, PARENT, "higher", 0.25)["verdict"] == "worse"

    def test_worse_is_beyond_the_bound(self):
        s = ab.summarize([1.3] * 10, PARENT, "lower", 0.25)
        assert (s["losses"], s["verdict"]) == (10, "worse")
        assert s["relative"] == pytest.approx(0.3)
        # slower in every pair, but by less than the bound
        assert ab.summarize([1.2] * 10, PARENT, "lower", 0.25)["verdict"] == "no change"

    def test_unresolved_when_the_parent_spreads_past_the_bound(self):
        wide = [0.6, 1.4, 0.7, 1.3, 1.0, 1.0, 0.7, 1.3, 0.6, 1.4]
        assert ab.summarize(list(reversed(wide)), wide, "lower", 0.25)["verdict"] == "unresolved"
        # unless every run of the change reads better than every parent run
        assert ab.summarize([0.5] * 10, wide, "lower", 0.25)["verdict"] == "no change"

    def test_one_pair_has_degenerate_quartiles(self):
        s = ab.summarize([0.2], [0.25], "lower", 0.25)
        assert s["change"] == (0.2, 0.2, 0.2) and s["parent"] == (0.25, 0.25, 0.25)
        assert (s["wins"], s["p"], s["verdict"]) == (1, 1.0, "no change")
