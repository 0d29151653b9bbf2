"""Checks the CLI's outputs cell by cell and counts failed cells.

A failed cell never aborts the run: every problem is recorded against
the cell's id, and failed_frac is failed cells over attempted cells.
The reference values come from oracle.py, never from regnear.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle
from workloads import ETA, MAX_ITER, Call, DistCell, RunCell

# Per regularizer: null-space dimension ell and how the regularizer is
# applied.  They fix the matvec columns in closed form: prepare costs ell
# products with K (2*ell two-sided), back-transforming costs 0 without a
# null space, 1 with one and 2 two-sided.
REG_FORMS = {"I": (0, "identity"), "L10": (1, "plain"), "L1dP1": (1, "right"),
             "L20": (2, "plain"), "L2tP2": (2, "right"),
             "P2L2tP2": (2, "two-sided")}

VECTOR_RTOL = 1e-8      # recomputed residual / relative error against the CSV
DIST_RTOL = 1e-10       # distances against the dense projector
XHAT_RTOL = 1e-12       # written exact solution against the oracle
THRESHOLD_SLACK = 1e-9  # relative rounding allowance on eta * nu * ||b_hat||


def expected_matvecs(reg: str, k: int) -> tuple[int, int, int]:
    """(prepare, solve, back) products with K for a run that stopped at k."""
    ell, form = REG_FORMS[reg]
    prepare = 2 * ell if form == "two-sided" else ell
    back = {"identity": 0, "plain": 1, "right": 1, "two-sided": 2}[form]
    return prepare, (k + 1 if k > 0 else 0), back


@dataclass
class CheckResult:
    """Per-cell problems plus the parsed rows of the cells that passed parsing."""

    problems: dict = field(default_factory=dict)   # cell id -> [messages]
    rows: dict = field(default_factory=dict)       # cell id -> parsed row

    def flag(self, cell_id: str, message: str) -> None:
        self.problems.setdefault(cell_id, []).append(message)

    @property
    def failed(self) -> int:
        return len(self.problems)


class Oracles:
    """Reference problems and distance rows, built once per benchmark run."""

    def __init__(self):
        self._problems = {}
        self._dist = {}

    def problem(self, name: str, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """K, x_hat and b_hat = K x_hat."""
        if (name, n) not in self._problems:
            K, x_hat = oracle.PROBLEMS[name](n)
            self._problems[(name, n)] = (K, x_hat, K @ x_hat)
        return self._problems[(name, n)]

    def distances(self, n: int) -> tuple[float, float, float]:
        if n not in self._dist:
            self._dist[n] = oracle.distances_row(n)
        return self._dist[n]


def _close(a: float, b: float, rtol: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def parse_run_row(row: dict) -> dict:
    """Typed copy of one per-seed CSV row; raises ValueError on a malformed one."""
    return {
        "problem": row["problem"], "n": int(row["n"]), "nu": float(row["nu"]),
        "reg": row["regularizer"], "seed": int(row["seed"]),
        "k": int(row["iterations"]), "matvecs": int(row["matvecs"]),
        "relative_error": float(row["relative_error"]),
        "stop_reason": row["stop_reason"],
        "prepare": int(row["matvecs_prepare"]), "solve": int(row["matvecs_solve"]),
        "back": int(row["matvecs_back"]), "residual": float(row["residual"]),
    }


def check_run_row(row: dict, cell: RunCell, b_hat_norm: float) -> list[str]:
    """Problems with one parsed pipeline row; empty when it is correct."""
    bad = []
    key = (row["problem"], row["n"], row["nu"], row["reg"], row["seed"])
    if key != (cell.problem, cell.n, cell.nu, cell.reg, cell.seed):
        return [f"row {key} where {cell.id} was expected"]
    k = row["k"]
    if not 0 <= k <= MAX_ITER:
        bad.append(f"iterations {k} outside 0..{MAX_ITER}")
    prepare, solve, back = expected_matvecs(cell.reg, k)
    if (row["prepare"], row["solve"], row["back"]) != (prepare, solve, back):
        bad.append(f"matvec columns {row['prepare']}/{row['solve']}/{row['back']}, "
                   f"closed form {prepare}/{solve}/{back}")
    if row["matvecs"] != row["prepare"] + row["solve"] + row["back"]:
        bad.append(f"matvecs {row['matvecs']} is not prepare + solve + back")
    if row["stop_reason"] in ("DISCREPANCY_MET", "INITIAL_RESIDUAL_OK"):
        threshold = ETA * cell.nu * b_hat_norm
        if not row["residual"] <= threshold * (1.0 + THRESHOLD_SLACK):
            bad.append(f"residual {row['residual']:.6g} above eta*nu*||b_hat|| "
                       f"= {threshold:.6g}")
    if row["stop_reason"] == "INITIAL_RESIDUAL_OK" and k != 0:
        bad.append("INITIAL_RESIDUAL_OK with k > 0")
    if not (math.isfinite(row["relative_error"]) and row["relative_error"] > 0.0):
        bad.append(f"relative error {row['relative_error']!r}")
    return bad


def _read_vector(path: Path) -> np.ndarray:
    """A vector in the package's plain-text format: 'n 1' header, one value a line."""
    lines = path.read_text().split("\n")
    rows, cols = (int(t) for t in lines[0].split())
    values = np.array([float(t) for t in lines[1:1 + rows * cols]])
    if cols != 1 or values.size != rows:
        raise ValueError(f"{path.name}: not an n x 1 vector file")
    return values


def check_vectors(workdir: Path, call: Call, row: dict, cell: RunCell,
                  oracles: Oracles) -> list[str]:
    """Recompute ||K x_k - b|| and the relative error from the written vectors."""
    K, x_hat, b_hat = oracles.problem(cell.problem, cell.n)
    try:
        xk = _read_vector(workdir / f"{call.prefix}_xk.txt")
        xh = _read_vector(workdir / f"{call.prefix}_xhat.txt")
    except (OSError, ValueError) as exc:
        return [f"solution vectors unreadable: {exc}"]
    if xk.shape != x_hat.shape or xh.shape != x_hat.shape:
        return ["solution vectors have the wrong length"]
    bad = []
    if np.linalg.norm(xh - x_hat) > XHAT_RTOL * np.linalg.norm(x_hat):
        bad.append("written x_hat differs from the problem's exact solution")
    b = oracle.noisy_rhs(b_hat, cell.nu, cell.seed)
    resid = float(np.linalg.norm(K @ xk - b))
    if not _close(resid, row["residual"], VECTOR_RTOL):
        bad.append(f"||K x_k - b|| = {resid:.17g}, CSV residual {row['residual']:.17g}")
    err = float(np.linalg.norm(xk - x_hat) / np.linalg.norm(x_hat))
    if not _close(err, row["relative_error"], VECTOR_RTOL):
        bad.append(f"relative error {err:.17g}, CSV {row['relative_error']:.17g}")
    return bad


def _check_run_csv(lines: list[str], call: Call, workdir: Path,
                   oracles: Oracles, result: CheckResult) -> None:
    rows = list(csv.DictReader(lines))
    per_seed = [r for r in rows if r.get("seed") != "median"]
    if len(per_seed) != len(call.cells):
        result.flag(call.cells[0].id, f"{call.out}: {len(per_seed)} rows, "
                                      f"expected {len(call.cells)}")
    for i, cell in enumerate(call.cells):
        if i >= len(per_seed):
            result.flag(cell.id, "row missing")
            continue
        raw = per_seed[i]
        if raw.get("stop_reason", "").startswith("ERROR_"):
            result.flag(cell.id, f"CLI reported {raw['stop_reason']}")
            continue
        try:
            row = parse_run_row(raw)
        except (KeyError, TypeError, ValueError) as exc:
            result.flag(cell.id, f"malformed row: {exc}")
            continue
        b_hat_norm = float(np.linalg.norm(oracles.problem(cell.problem, cell.n)[2]))
        bad = check_run_row(row, cell, b_hat_norm)
        if call.prefix is not None and not bad:
            bad = check_vectors(workdir, call, row, cell, oracles)
        for message in bad:
            result.flag(cell.id, message)
        result.rows[cell.id] = row


def _check_distances_csv(lines: list[str], call: Call, oracles: Oracles,
                         result: CheckResult) -> None:
    body = lines[1:]
    if len(body) != len(call.cells):
        result.flag(call.cells[0].id, f"{call.out}: {len(body)} rows, "
                                      f"expected {len(call.cells)}")
    for i, cell in enumerate(call.cells):
        if i >= len(body):
            result.flag(cell.id, "row missing")
            continue
        try:
            n, *got = body[i].split(",")
            got = [float(v) for v in got]
            ok_n = int(n) == cell.n
        except ValueError as exc:
            result.flag(cell.id, f"malformed row: {exc}")
            continue
        want = oracles.distances(cell.n)
        if not ok_n or len(got) != 3:
            result.flag(cell.id, f"row {body[i]!r} where n={cell.n} was expected")
        elif not all(_close(g, w, DIST_RTOL) for g, w in zip(got, want)):
            result.flag(cell.id, f"distances {got} differ from dense {list(want)}")
        result.rows[cell.id] = {"line": body[i]}


def check_call(call: Call, returncode: int, workdir: Path, oracles: Oracles,
               result: CheckResult) -> None:
    """Check one CLI process: exit code, row count, and every cell."""
    if returncode != 0:
        for cell in call.cells:
            result.flag(cell.id, f"CLI exited with code {returncode}")
        return
    try:
        lines = (workdir / call.out).read_text().splitlines()
    except OSError as exc:
        for cell in call.cells:
            result.flag(cell.id, f"{call.out} unreadable: {exc}")
        return
    if isinstance(call.cells[0], DistCell):
        _check_distances_csv(lines, call, oracles, result)
    else:
        _check_run_csv(lines, call, workdir, oracles, result)
