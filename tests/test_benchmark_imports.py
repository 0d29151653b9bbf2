"""The benchmark imports names from the package; a name it imports must
not disappear from the module it is imported from, and its traced pass
must read the same results as the CLI's own run."""
import ast
import importlib
import pathlib
import sys

import pytest

from regnear.cli import main
from regnear.problems import build_problem

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"

sys.path.insert(0, str(PERFBENCH))
try:
    import tracer
    from workloads import REGS, DistCell, RunCell
finally:
    sys.path.remove(str(PERFBENCH))


def test_every_name_the_benchmark_imports_exists():
    imported = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("regnear."):
                imported += [(path.name, node.module, a.name) for a in node.names]
    assert any(mod == "regnear.transform" for _, mod, _ in imported)
    missing = [(f, mod, name) for f, mod, name in imported
               if not hasattr(importlib.import_module(mod), name)]
    assert not missing


@pytest.mark.parametrize("problem", ["phillips", "deriv2"])
def test_traced_run_agrees_with_the_untraced_one(problem):
    # the traced pass calls the layers one by one, on a dense K; the
    # untraced one is the CLI's run_single.  Every column they report,
    # k, the stop reason, the matvec columns and the relative error,
    # must agree exactly, for each catalog regularizer
    base = build_problem(problem, 40)
    for reg in REGS:
        cell = RunCell(problem, 40, 1e-4, reg, 1)
        traced = tracer.traced_run(tracer.Tracer(), base, cell)
        assert set(traced) == {"k", "stop_reason", "matvecs", "prepare", "solve", "back",
                               "relative_error"}
        assert traced == tracer.untraced_run(base, cell), reg


def test_distances_row_is_the_cli_row(tmp_path):
    row = tracer.distances_row(tracer.Tracer(), DistCell(40))
    out = tmp_path / "d.csv"
    assert main(["distances", "--min-n", "40", "--max-n", "40", "--out", str(out)]) == 0
    assert row["line"] == out.read_text().splitlines()[-1]
