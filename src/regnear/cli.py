"""Command-line harness.

Four subcommands: `solve` runs one problem/noise/regularizer/seed cell
and writes the solution vectors, `table` sweeps the full cross product
with per-cell medians, `distances` tabulates the nearness distances of
the tridiagonal second-difference matrix as the dimension grows, and
`nearest` projects an external matrix file onto a prescribed null space.

All numeric CSV output is written with 17 significant digits so reruns
of identical configurations are byte-identical.  Exit codes: 0 success,
2 configuration error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import statistics
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericsError
from .linalg import read_matrix, write_matrix, write_vector
from .nearness import (NullSpaceBasis, nearest_symmetric_with_nullspace,
                       nearest_with_nullspace, nearness_distance)
from .problems import add_noise, build_problem, relative_error
from .regops import (REGULARIZER_NAMES, RegularizerKind,
                     make_nullspace_basis, make_regularization_matrix,
                     regularizer_from_name)
from .solver import SolverConfig, rrgmres_solve
from .transform import (StandardFormFactor, back_transform, factor_transform,
                        project_rhs)

DEFAULT_NOISE = (1e-2, 1e-3, 1e-4)
DEFAULT_SEEDS = tuple(range(1, 11))

RUN_COLUMNS = ("problem", "n", "nu", "regularizer", "seed", "iterations",
               "matvecs", "relative_error", "stop_reason",
               "matvecs_prepare", "matvecs_solve", "matvecs_back", "residual")


class ConfigError(Exception):
    """Bad flags, config file, or argument combination (exit code 2)."""


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


@dataclass
class RunResult:
    problem: str
    n: int
    nu: float
    regularizer: str
    seed: int
    iterations: int
    matvecs: int
    relative_error: float
    stop_reason: str
    matvecs_prepare: int
    matvecs_solve: int
    matvecs_back: int
    residual: float
    x: np.ndarray

    def csv_row(self) -> str:
        return ",".join(_fmt(getattr(self, c)) for c in RUN_COLUMNS)

    def breakdown_line(self) -> str:
        return (f"{self.problem} n={self.n} nu={_fmt(self.nu)} "
                f"{self.regularizer} seed={self.seed}: "
                f"matvecs {self.matvecs} = prepare {self.matvecs_prepare} "
                f"+ solve {self.matvecs_solve} + back {self.matvecs_back}; "
                f"k={self.iterations} {self.stop_reason}")


def run_single(base_problem, nu: float, seed: int, reg_name: str,
               eta: float, delta: float, max_iter: int = 100,
               factor: Optional[StandardFormFactor] = None) -> RunResult:
    """One full pipeline pass; matvec phases are counted separately.

    factor, when given, must be factor_transform of base_problem.K and
    the reg_name regularizer; it is reused as is, so runs that share it
    skip the factor step.  Each run still reports the factor's own
    prepare count, so the columns do not depend on whether it is shared.
    """
    prob = add_noise(base_problem, nu, seed)
    if factor is None:
        factor = factor_transform(prob.K, regularizer_from_name(reg_name, prob.n, delta))
    ctx = project_rhs(factor, prob.b)
    cfg = SolverConfig(eta=eta, epsilon=prob.epsilon, max_iter=max_iter)
    res = rrgmres_solve(ctx, ctx.solver_rhs, cfg)
    before_back = ctx.matvec_count
    x = back_transform(ctx, res.z)
    back_mv = ctx.matvec_count - before_back
    return RunResult(
        problem=prob.name, n=prob.n, nu=nu, regularizer=reg_name, seed=seed,
        iterations=res.k,
        matvecs=ctx.prepare_matvecs + res.solve_matvecs + back_mv,
        relative_error=relative_error(x, prob.x_hat),
        stop_reason=res.stop_reason.value,
        matvecs_prepare=ctx.prepare_matvecs, matvecs_solve=res.solve_matvecs,
        matvecs_back=back_mv, residual=res.residual, x=x)


# --- config file ----------------------------------------------------------

_LIST_KEYS = {"noise", "regs", "seeds"}


def _parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, _, val = line.partition("=")
                values[key.strip().replace("-", "_")] = val.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _apply_config(args: argparse.Namespace, converters: dict) -> None:
    """Fill still-unset flags from the config file, then hard defaults.

    Command-line flags always win because they leave their slot non-None.
    """
    if getattr(args, "config", None):
        raw = _parse_config_file(args.config)
        for key, val in raw.items():
            if key not in converters:
                valid = ", ".join(sorted(converters))
                raise ConfigError(f"unknown config key {key!r}; valid keys: {valid}")
            if getattr(args, key, None) is None:
                try:
                    setattr(args, key, converters[key](val))
                except ValueError as exc:
                    raise ConfigError(f"config key {key}: {exc}") from exc


def _parse_seeds(text: str) -> tuple[int, ...]:
    text = text.strip()
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            return tuple(range(int(lo), int(hi) + 1))
        except ValueError as exc:
            raise ValueError(f"bad seed range {text!r}") from exc
    try:
        return tuple(int(p) for p in text.split(",") if p)
    except ValueError as exc:
        raise ValueError(f"bad seed list {text!r}") from exc


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(",") if p)
    except ValueError as exc:
        raise ValueError(f"bad number list {text!r}") from exc


def _parse_regs(text: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in text.split(",") if p.strip())


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"bad boolean {text!r}")


def _check_numbers(noise_levels, eta: float, delta: float, max_iter: int) -> None:
    """Reject bad numeric settings before any problem is built."""
    if not all(0.0 <= nu < np.inf for nu in noise_levels):
        raise ConfigError("noise levels must be finite and nonnegative")
    if not np.isfinite(delta):
        raise ConfigError(f"delta must be finite, got {delta!r}")
    SolverConfig(eta=eta, max_iter=max_iter)  # ValueError on a bad eta or max_iter


def _validate_regs(regs) -> tuple[str, ...]:
    for name in regs:
        if name not in REGULARIZER_NAMES:
            valid = ", ".join(REGULARIZER_NAMES)
            raise ConfigError(f"unknown regularizer {name!r}; valid names: {valid}")
    return tuple(regs)


# --- subcommands ----------------------------------------------------------

def cmd_solve(args) -> int:
    _apply_config(args, {
        "problem": str, "n": int, "noise": float, "reg": str, "seed": int,
        "eta": float, "delta": float, "out": str, "max_iter": int})
    problem = args.problem or "phillips"
    n = args.n if args.n is not None else 200
    nu = args.noise if args.noise is not None else 1e-2
    reg = args.reg or "I"
    seed = args.seed if args.seed is not None else 1
    eta = args.eta if args.eta is not None else 1.01
    delta = args.delta if args.delta is not None else 1.0
    max_iter = args.max_iter if args.max_iter is not None else 100
    prefix = args.out or "solve"
    _validate_regs([reg])
    _check_numbers([nu], eta, delta, max_iter)

    base = build_problem(problem, n)
    result = run_single(base, nu, seed, reg, eta, delta, max_iter)
    csv_path = f"{prefix}.csv"
    with open(csv_path, "w") as f:
        f.write(",".join(RUN_COLUMNS) + "\n")
        f.write(result.csv_row() + "\n")
    write_vector(f"{prefix}_xk.txt", result.x)
    write_vector(f"{prefix}_xhat.txt", base.x_hat)
    print(result.breakdown_line())
    print(f"wrote {csv_path}, {prefix}_xk.txt, {prefix}_xhat.txt")
    return 0


def _median_row(problem: str, n: int, nu: float, reg: str, rows: list) -> str:
    ok = [r for r in rows if isinstance(r, RunResult)]
    cells = {c: "" for c in RUN_COLUMNS}
    cells.update(problem=problem, n=str(n), nu=_fmt(nu), regularizer=reg,
                 seed="median")
    if ok:
        cells["iterations"] = _fmt(float(statistics.median(r.iterations for r in ok)))
        cells["matvecs"] = _fmt(float(statistics.median(r.matvecs for r in ok)))
        cells["relative_error"] = _fmt(float(statistics.median(
            r.relative_error for r in ok)))
    return ",".join(str(cells[c]) for c in RUN_COLUMNS)


def cmd_table(args) -> int:
    _apply_config(args, {
        "problem": str, "n": int, "noise": _parse_floats, "regs": _parse_regs,
        "seeds": _parse_seeds, "eta": float, "delta": float, "out": str,
        "max_iter": int})
    problem = args.problem or "phillips"
    n = args.n if args.n is not None else 200
    noise_levels = args.noise if args.noise is not None else DEFAULT_NOISE
    regs = _validate_regs(args.regs if args.regs is not None else REGULARIZER_NAMES)
    seeds = args.seeds if args.seeds is not None else DEFAULT_SEEDS
    eta = args.eta if args.eta is not None else 1.01
    delta = args.delta if args.delta is not None else 1.0
    max_iter = args.max_iter if args.max_iter is not None else 100
    out = args.out or f"table_{problem}.csv"
    _check_numbers(noise_levels, eta, delta, max_iter)
    if not seeds:
        raise ConfigError("need at least one seed")

    base = build_problem(problem, n)
    lines = [",".join(RUN_COLUMNS)]
    for nu in noise_levels:
        for reg in regs:
            # one factor serves the block's seeds; when factoring fails,
            # each seed's run_single raises the failure again and it is
            # reported per seed
            try:
                factor = factor_transform(base.K, regularizer_from_name(reg, n, delta))
            except NumericsError:
                factor = None
            block: list = []
            for seed in seeds:
                try:
                    r = run_single(base, nu, seed, reg, eta, delta, max_iter, factor)
                except NumericsError as exc:
                    tag = f"ERROR_{type(exc).__name__}"
                    cells = {c: "" for c in RUN_COLUMNS}
                    cells.update(problem=problem, n=str(n), nu=_fmt(nu),
                                 regularizer=reg, seed=str(seed), stop_reason=tag)
                    lines.append(",".join(str(cells[c]) for c in RUN_COLUMNS))
                    block.append(tag)
                    print(f"{problem} n={n} nu={_fmt(nu)} {reg} seed={seed}: {tag}: {exc}")
                    continue
                lines.append(r.csv_row())
                block.append(r)
                print(r.breakdown_line())
            lines.append(_median_row(problem, n, nu, reg, block))
    with open(out, "w") as f:
        f.write("\n".join(lines) + "\n")
    print(f"wrote {out} ({len(lines) - 1} rows)")
    return 0


def cmd_distances(args) -> int:
    _apply_config(args, {"min_n": int, "max_n": int, "step": int, "out": str})
    n_min = args.min_n if args.min_n is not None else 4
    n_max = args.max_n if args.max_n is not None else 400
    step = args.step if args.step is not None else 1
    out = args.out or "distances.csv"
    if not (4 <= n_min <= n_max):
        raise ConfigError("need 4 <= min-n <= max-n")
    if step < 1:
        raise ConfigError("step must be positive")

    lines = ["n,dist_L20,dist_PL2P,dist_L2P"]
    for n in range(n_min, n_max + 1, step):
        l2t = make_regularization_matrix(RegularizerKind.L2_TILDE, n)
        l20 = make_regularization_matrix(RegularizerKind.L2_ZERO, n)
        basis = make_nullspace_basis("N2", n)
        d_l20 = float(np.linalg.norm(l2t - l20))
        d_two = nearness_distance(l2t, basis, symmetric=True)
        d_right = nearness_distance(l2t, basis, symmetric=False)
        lines.append(f"{n},{d_l20:.17g},{d_two:.17g},{d_right:.17g}")
    with open(out, "w") as f:
        f.write("\n".join(lines) + "\n")
    print(f"wrote {out} ({len(lines) - 1} rows)")
    return 0


def cmd_nearest(args) -> int:
    _apply_config(args, {"matrix": str, "nullspace": str, "symmetric": _parse_bool,
                         "out": str})
    if not args.matrix or not args.nullspace:
        raise ConfigError("nearest needs --matrix and --nullspace files")
    out = args.out or "nearest.txt"
    symmetric = bool(args.symmetric)
    a = read_matrix(args.matrix)
    v = read_matrix(args.nullspace)
    basis = NullSpaceBasis.from_vectors(v)
    if symmetric:
        ahat = nearest_symmetric_with_nullspace(a, basis)
    else:
        ahat = nearest_with_nullspace(a, basis)
    write_matrix(out, ahat)
    dist = nearness_distance(a, basis, symmetric=symmetric)
    print(f"distance {dist:.12g}")
    print(f"wrote {out}")
    return 0


# --- entry point ----------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="regnear",
        description="Null-space-aware regularizers, standard-form transformation, "
                    "and range-restricted GMRES experiments.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="flat key=value file; flags override it")
        sp.add_argument("--out", help="output path (CSV file or prefix)")

    sp = sub.add_parser("solve", help="run a single experiment cell")
    sp.add_argument("--problem", choices=("phillips", "deriv2"))
    sp.add_argument("--n", type=int)
    sp.add_argument("--noise", type=float)
    sp.add_argument("--reg")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--eta", type=float)
    sp.add_argument("--delta", type=float)
    sp.add_argument("--max-iter", dest="max_iter", type=int)
    add_common(sp)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("table", help="full noise x regularizer x seed sweep")
    sp.add_argument("--problem", choices=("phillips", "deriv2"))
    sp.add_argument("--n", type=int)
    sp.add_argument("--noise", type=_parse_floats,
                    help="comma-separated noise levels")
    sp.add_argument("--regs", type=_parse_regs,
                    help="comma-separated regularizer names")
    sp.add_argument("--seeds", type=_parse_seeds,
                    help="comma list or lo..hi range")
    sp.add_argument("--eta", type=float)
    sp.add_argument("--delta", type=float)
    sp.add_argument("--max-iter", dest="max_iter", type=int)
    add_common(sp)
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("distances", help="nearness distances versus matrix order")
    sp.add_argument("--min-n", dest="min_n", type=int)
    sp.add_argument("--max-n", dest="max_n", type=int)
    sp.add_argument("--step", type=int)
    add_common(sp)
    sp.set_defaults(func=cmd_distances)

    sp = sub.add_parser("nearest", help="project a matrix file onto a null-space "
                                        "constraint")
    sp.add_argument("--matrix", help="matrix text file for A")
    sp.add_argument("--nullspace", help="matrix text file whose columns span "
                                        "the null space")
    sp.add_argument("--symmetric", nargs="?", const=True, default=None,
                    type=_parse_bool, help="use the symmetric variant")
    add_common(sp)
    sp.set_defaults(func=cmd_nearest)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
