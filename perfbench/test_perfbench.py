"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, Call, RunCell  # noqa: E402

HEADER = ("problem,n,nu,regularizer,seed,iterations,matvecs,relative_error,"
          "stop_reason,matvecs_prepare,matvecs_solve,matvecs_back,residual")


def _b_hat_norm(problem: str, n: int) -> float:
    K, x_hat = oracle.PROBLEMS[problem](n)
    return float(np.linalg.norm(K @ x_hat))


def _row(**over) -> dict:
    # a correct L2tP2 row: prepare 2, solve k+1, back 1
    row = {"problem": "phillips", "n": 200, "nu": 1e-2, "reg": "L2tP2", "seed": 11,
           "k": 3, "matvecs": 7, "relative_error": 0.02,
           "stop_reason": "DISCREPANCY_MET", "prepare": 2, "solve": 4, "back": 1,
           "residual": 0.5 * 1.01e-2 * _b_hat_norm("phillips", 200)}
    row.update(over)
    return row


CELL = RunCell("phillips", 200, 1e-2, "L2tP2", 11)


def test_checker_accepts_a_correct_row():
    assert checker.check_run_row(_row(), CELL, _b_hat_norm("phillips", 200)) == []


@pytest.mark.parametrize("over, word", [
    ({"matvecs": 8}, "prepare + solve + back"),
    ({"solve": 5, "matvecs": 8}, "closed form"),
    ({"back": 2, "matvecs": 8}, "closed form"),
    ({"residual": 2.0 * 1.01e-2 * _b_hat_norm("phillips", 200)}, "above"),
    ({"k": 0, "solve": 1, "matvecs": 4}, "closed form"),
    ({"seed": 12}, "expected"),
])
def test_checker_flags_a_corrupted_row(over, word):
    bad = checker.check_run_row(_row(**over), CELL, _b_hat_norm("phillips", 200))
    assert any(word in message for message in bad), bad


def test_expected_matvecs_closed_forms():
    assert checker.expected_matvecs("I", 0) == (0, 0, 0)
    assert checker.expected_matvecs("L10", 5) == (1, 6, 1)
    assert checker.expected_matvecs("L20", 5) == (2, 6, 1)
    assert checker.expected_matvecs("P2L2tP2", 2) == (4, 3, 2)


def _csv_line(row: dict) -> str:
    return ",".join(str(v) for v in (
        row["problem"], row["n"], row["nu"], row["reg"], row["seed"], row["k"],
        row["matvecs"], row["relative_error"], row["stop_reason"], row["prepare"],
        row["solve"], row["back"], row["residual"]))


def test_check_call_counts_failed_cells_without_aborting(tmp_path):
    cells = (CELL, RunCell("phillips", 200, 1e-2, "L2tP2", 12),
             RunCell("phillips", 200, 1e-2, "L2tP2", 13))
    lines = [HEADER, _csv_line(_row()), _csv_line(_row(seed=12, matvecs=9)),
             "phillips,200,0.01,L2tP2,13,,,,ERROR_SingularCore,,,,"]
    (tmp_path / "t.csv").write_text("\n".join(lines) + "\n")
    result = checker.CheckResult()
    checker.check_call(Call(("table",), "t.csv", cells), 0, tmp_path,
                       checker.Oracles(), result)
    assert sorted(result.problems) == sorted(c.id for c in cells[1:])

    result = checker.CheckResult()
    checker.check_call(Call(("table",), "t.csv", cells), 3, tmp_path,
                       checker.Oracles(), result)
    assert result.failed == 3


def test_check_call_on_a_real_solve(tmp_path):
    """The CLI's own output passes; a perturbed solution vector fails."""
    cell = RunCell("deriv2", 64, 1e-3, "L1dP1", 5)
    argv = ("solve", "--problem", "deriv2", "--n", "64", "--noise", "0.001",
            "--reg", "L1dP1", "--seed", "5", "--out", "s")
    subprocess.run([sys.executable, "-m", "regnear.cli", *argv], cwd=tmp_path,
                   env=run.child_env(), check=True, capture_output=True)
    call = Call(argv, "s.csv", (cell,), "s")
    result = checker.CheckResult()
    checker.check_call(call, 0, tmp_path, checker.Oracles(), result)
    assert result.failed == 0, result.problems

    xk = tmp_path / "s_xk.txt"
    lines = xk.read_text().splitlines()
    lines[10] = repr(float(lines[10]) * (1 + 1e-6))
    xk.write_text("\n".join(lines) + "\n")
    result = checker.CheckResult()
    checker.check_call(call, 0, tmp_path, checker.Oracles(), result)
    assert any("K x_k - b" in m for m in result.problems[cell.id])


def test_distances_checker_flags_a_wrong_value(tmp_path):
    call = WORKLOADS["distances"].calls(1)[0]
    rows = ["n,dist_L20,dist_PL2P,dist_L2P"]
    for cell in call.cells[:3]:
        d_l20, d_two, d_right = oracle.distances_row(cell.n)
        if cell is call.cells[1]:
            d_right *= 1 + 1e-6
        rows.append(f"{cell.n},{d_l20:.17g},{d_two:.17g},{d_right:.17g}")
    (tmp_path / "distances.csv").write_text("\n".join(rows) + "\n")
    short = Call(call.argv, call.out, call.cells[:3])
    result = checker.CheckResult()
    checker.check_call(short, 0, tmp_path, checker.Oracles(), result)
    assert list(result.problems) == [call.cells[1].id]


def _flag(call, flag):
    return call.argv[call.argv.index(flag) + 1]


def test_workload_seed_sets_the_noise_seeds():
    sweep = WORKLOADS["paper-sweep"]
    assert [_flag(c, "--seeds") for c in sweep.calls(1)] == ["11..20"] * 2
    assert [_flag(c, "--seeds") for c in sweep.calls(2)] == ["21..30"] * 2
    assert {c.seed for c in sweep.cells(2)} == set(range(21, 31))
    large = WORKLOADS["large-solve"]
    assert {_flag(c, "--seed") for c in large.calls(1)} == {"11"}
    assert {_flag(c, "--seed") for c in large.calls(7)} == {"71"}
    assert large.calls(7) == large.calls(7)


def test_workload_sizes():
    assert len(WORKLOADS["paper-sweep"].cells(1)) == 360
    assert len(WORKLOADS["large-solve"].cells(1)) == 2
    assert len(WORKLOADS["distances"].cells(1)) == 397


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} \
        == {name: w.why for name, w in WORKLOADS.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_report_prints_every_metric_with_workload_and_unit():
    metrics = {k: 1.5 for k in run.END_TO_END}
    reported = {k: 2.5 for k in run.REPORTED_ONLY}
    lines = run.report_lines("paper-sweep",
                             run.Outcome(10, 0, metrics, reported), trace=0)
    for name, (unit, _) in {**run.END_TO_END, **run.REPORTED_ONLY}.items():
        assert any(line.split() == ["paper-sweep", name, line.split()[2], unit]
                   for line in lines), name
    line = json.loads(run.Outcome(10, 0, metrics).json_line(run.END_TO_END))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"]["wall_s"] == {"value": 1.5, "unit": "s"}


def test_span_self_times():
    sys.path.insert(0, str(ROOT / "src"))
    from tracer import span_totals
    spans = [["solver.solve", 0.0, 10.0, -1, "c"],
             ["transform.apply", 1.0, 4.0, 0, "c"],
             ["problems.kmatvec", 1.5, 2.5, 1, "c"],
             ["transform.apply", 5.0, 7.0, 0, "c"]]
    totals = span_totals(spans)
    assert totals["solver.solve"]["self_s"] == pytest.approx(5.0)
    assert totals["transform.apply"] == {"s": 5.0, "self_s": 4.0, "count": 2}


def test_fails_without_printing_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "distances",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
