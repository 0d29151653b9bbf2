"""Run the reference set of regnear commands and compare two trees.

The reference set is the fixed list of CLI runs whose outputs a change
to the pipeline should leave alone: both default tables, the default
distances and distances from 4 to 2000, three solves at n = 2000 and
2001, three tables that take the failed-factor and repeated-argument
paths, two runs that must fail with a usage error, and eight `nearest`
runs.  Those project the symmetric matrix of tests/data, the same
matrix scaled by 1e210 (past the products' scaling threshold, short of
the matrix's) and by 1e-300 (where the products' squares underflow),
plain and symmetric, onto a two-column null space, and give a
dependent null-space file, which must fail with exit code 3.
The input files are read by absolute path from this tree, on both
sides of a comparison, as the fixture is.  Each run is a child process with OMP_NUM_THREADS=1
in a directory of its own.  Its manifest entry holds the exit code, the
sha256 of stdout, stderr and every file it wrote, and, for every CSV
row of a table or solve, the cell's iterations, stop reason, the four
matvec columns, relative_error and residual.

Run from the repository root:

    python3 tools/golden.py [--manifest FILE]
    python3 tools/golden.py --against REV [--manifest FILE]

The first form runs the set on the working tree and writes the manifest
(to FILE, or to stdout).  The second also exports REV with
`git archive` into a temporary directory, runs the same set there, and
reports either "byte-identical" or, per table cell that differs,
whether k, the stop reason and the matvecs are equal, how far
relative_error moved, and how far it is from
tests/data/default_sweep.csv; and in how many cells the residual
moved, and by how much at most.  It exits 0 when the two sides are
byte-identical and 1 otherwise.

Both sides run in the same bytecode state: each gets its own empty
PYTHONPYCACHEPREFIX, and PYTHONDONTWRITEBYTECODE is passed on as it is
set here.  The report names that state.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"
FIXTURE = DATA / "default_sweep.csv"

_SOLVE = ["--noise", "1e-3", "--seed", "11", "--out", "solve"]


def _nearest(matrix: str, nullspace: str, *flags: str) -> list:
    """A nearest run on two input files of tests/data, by absolute path."""
    return ["nearest", "--matrix", str(DATA / f"{matrix}.txt"),
            "--nullspace", str(DATA / f"{nullspace}.txt"), *flags]


CASES = {
    "table-phillips": ["table", "--problem", "phillips"],
    "table-deriv2": ["table", "--problem", "deriv2"],
    "distances": ["distances"],
    "distances-2000": ["distances", "--min-n", "4", "--max-n", "2000"],
    "solve-phillips-L20-2000": ["solve", "--problem", "phillips", "--reg", "L20",
                                "--n", "2000", *_SOLVE],
    "solve-phillips-L20-2001": ["solve", "--problem", "phillips", "--reg", "L20",
                                "--n", "2001", *_SOLVE],
    "solve-deriv2-L1dP1-2000": ["solve", "--problem", "deriv2", "--reg", "L1dP1",
                                "--n", "2000", *_SOLVE],
    "table-delta": ["table", "--delta", "1e-20", "--regs", "L1dP1,I", "--seeds", "1..2"],
    "table-all-failed": ["table", "--regs", "L1dP1", "--delta", "1e-20"],
    "table-duplicates": ["table", "--n", "30", "--regs", "I,L1dP1,I",
                         "--seeds", "3,1,3", "--noise", "1e-2,0"],
    "solve-bad-reg": ["solve", "--reg", "L3"],
    "table-bad-reg": ["table", "--regs", "I,L3"],
    "nearest": _nearest("nearest_matrix", "nearest_nullspace"),
    "nearest-symmetric": _nearest("nearest_matrix", "nearest_nullspace", "--symmetric"),
    "nearest-1e210": _nearest("nearest_matrix_1e210", "nearest_nullspace"),
    "nearest-1e210-symmetric": _nearest("nearest_matrix_1e210", "nearest_nullspace",
                                        "--symmetric"),
    "nearest-1e-300": _nearest("nearest_matrix_1e-300", "nearest_nullspace"),
    "nearest-1e-300-symmetric": _nearest("nearest_matrix_1e-300", "nearest_nullspace",
                                         "--symmetric"),
    "nearest-dependent": _nearest("nearest_matrix", "nearest_nullspace_dependent"),
}

CELL_KEY = ("problem", "n", "nu", "regularizer", "seed")
MATVECS = ("matvecs", "matvecs_prepare", "matvecs_solve", "matvecs_back")
# a relative_error move above this is listed cell by cell
MOVED = 1e-8


def bytecode_state() -> str:
    if os.environ.get("PYTHONDONTWRITEBYTECODE"):
        return "compiled at every start (PYTHONDONTWRITEBYTECODE set, empty cache)"
    return "cached after the first start (an empty cache prefix per side)"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def read_cells(text: str) -> dict:
    """The cells of a run CSV, keyed 'problem/n/nu/regularizer/seed',
    each with its residual when the CSV has that column.  A row that
    repeats a key, as a table given a regularizer or seed twice writes,
    is a cell of its own, keyed with '#2', '#3' and so on."""
    cells, seen = {}, {}
    for row in csv.DictReader(io.StringIO(text)):
        cell = {"k": row["iterations"], "stop": row["stop_reason"],
                "matvecs": [row[c] for c in MATVECS],
                "relative_error": row["relative_error"]}
        if "residual" in row:
            cell["residual"] = row["residual"]
        key = "/".join(row[c] for c in CELL_KEY)
        seen[key] = seen.get(key, 0) + 1
        cells[key if seen[key] == 1 else f"{key}#{seen[key]}"] = cell
    return cells


def run_case(tree: Path, args: list, workdir: Path, cache: Path) -> dict:
    """Run one case of the set on the package under tree/src."""
    workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OMP_NUM_THREADS="1",
               PYTHONPYCACHEPREFIX=str(cache))
    proc = subprocess.run([sys.executable, "-m", "regnear.cli", *args], cwd=workdir,
                          env=env, capture_output=True)
    entry = {"args": args, "exit": proc.returncode, "stdout": _sha(proc.stdout),
             "stderr": _sha(proc.stderr), "files": {}, "cells": {}}
    for path in sorted(workdir.iterdir()):
        data = path.read_bytes()
        entry["files"][path.name] = _sha(data)
        if path.suffix == ".csv" and data.startswith(b"problem,"):
            entry["cells"].update(read_cells(data.decode()))
    return entry


def run_set(tree: Path, scratch: Path) -> dict:
    return {"bytecode": bytecode_state(),
            "cases": {name: run_case(tree, args, scratch / "out" / name, scratch / "pycache")
                      for name, args in CASES.items()}}


def export(rev: str, dest: Path) -> None:
    """The tree of rev, from the local repository, unpacked into dest."""
    data = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")


def _digests(case: dict) -> dict:
    return {"exit": case["exit"], "stdout": case["stdout"], "stderr": case["stderr"],
            **{f"file {name}": sha for name, sha in case["files"].items()}}


def _move(new: str, old: str) -> float:
    a, b = float(new), float(old)
    return abs(a - b) / abs(b) if b else abs(a - b)


def compare(new: dict, old: dict, fixture: dict) -> tuple:
    """(identical, report lines) for two manifests, new against old.

    fixture maps cell keys to the reference cells, as read_cells gives
    them; a moved cell that it holds reports its distance from it.
    """
    lines = [f"bytecode: {new['bytecode']}"]
    if new["bytecode"] != old["bytecode"]:
        lines.append(f"bytecode differs: the other side was {old['bytecode']}")
    moved, residuals, compared, kept = [], [], 0, 0
    identical = True
    for name in sorted(set(new["cases"]) | set(old["cases"])):
        a, b = new["cases"].get(name), old["cases"].get(name)
        if a is None or b is None:
            identical = False
            lines.append(f"{name}: only on the {'old' if a is None else 'new'} side")
            continue
        da, db = _digests(a), _digests(b)
        differ = sorted(k for k in set(da) | set(db) if da.get(k) != db.get(k))
        if not differ:
            continue
        identical = False
        lines.append(f"{name}: differs in {', '.join(differ)}")
        for key in sorted(set(a["cells"]) | set(b["cells"])):
            ca, cb = a["cells"].get(key), b["cells"].get(key)
            if ca is None or cb is None:
                lines.append(f"  {key}: only on the {'old' if ca is None else 'new'} side")
                continue
            same = {f: ca[f] == cb[f] for f in ("k", "stop", "matvecs")}
            compared, kept = compared + 1, kept + all(same.values())
            if not all(same.values()):
                changed = ", ".join(f for f, ok in same.items() if not ok)
                lines.append(f"  {key}: {changed} differ: {ca} against {cb}")
            if ca["relative_error"] != cb["relative_error"]:
                ref = fixture.get(key)
                dist = (_move(ca["relative_error"], ref["relative_error"])
                        if ref else None)
                moved.append((_move(ca["relative_error"], cb["relative_error"]), key,
                              all(same.values()), dist))
            if ca.get("residual") != cb.get("residual"):
                residuals.append((_move(ca["residual"], cb["residual"]), key))
    if identical:
        return True, lines + ["byte-identical"]
    lines.append(f"k, stop reason and matvecs equal in {kept} of the {compared} cells "
                 "of the cases that differ")
    if moved:
        big = sorted((m for m in moved if m[0] > MOVED), reverse=True)
        lines.append(f"relative_error moved in {len(moved)} cells, by more than "
                     f"{MOVED:g} in {len(big)}; largest move {max(moved)[0]:.2g}, "
                     f"{max(moved)[1]}")
        for move, key, same, dist in big:
            where = "not in the fixture" if dist is None else f"{dist:.2g} from the fixture"
            lines.append(f"  {key}: moved {move:.2g}, k/stop/matvecs "
                         f"{'equal' if same else 'DIFFER'}, {where}")
    if residuals:
        move, key = max(residuals)
        lines.append(f"residual moved in {len(residuals)} cells; largest move "
                     f"{move:.2g}, {key}")
    return False, lines


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV",
                        help="also run the set on REV and compare the working tree with it")
    parser.add_argument("--manifest", metavar="FILE",
                        help="write the working tree's manifest here (default: stdout "
                             "without --against)")
    args = parser.parse_args(argv[1:])
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        tmp = Path(tmp)
        new = run_set(ROOT, tmp / "new")
        if args.manifest:
            Path(args.manifest).write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
        if not args.against:
            if not args.manifest:
                print(json.dumps(new, indent=1, sort_keys=True))
            return 0
        export(args.against, tmp / "tree")
        old = run_set(tmp / "tree", tmp / "old")
    identical, lines = compare(new, old, read_cells(FIXTURE.read_text()))
    print(f"working tree against {args.against}")
    print("\n".join(lines))
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
