"""Command-line harness.

Four subcommands: `solve` runs one problem/noise/regularizer/seed cell
and writes the solution vectors, `table` sweeps the full cross product
with per-cell medians, `distances` tabulates the nearness distances of
the tridiagonal second-difference matrix as the dimension grows, and
`nearest` projects an external matrix file onto a prescribed null space.

All numeric CSV output is written with 17 significant digits so reruns
of identical configurations are byte-identical.  Exit codes: 0 success,
2 configuration error (a file that cannot be read or written, or a
size that does not fit in memory, included), 3 numerical failure (the
bad content of an input file that could be read included).
"""
from __future__ import annotations

import argparse
import importlib
import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import BadDimension, NumericsError
from .linalg import read_matrix, write_matrix, write_vector
from .nearness import (NullSpaceBasis, distance_from_products,
                       nearest_symmetric_with_nullspace,
                       nearest_with_nullspace, nearness_distance)
from .regops import (REGULARIZER_NAMES, RegularizerKind, catalog_entry,
                     regularizer_from_name, stacked_n2_bases, stencil_product)

DEFAULT_NOISE = (1e-2, 1e-3, 1e-4)
DEFAULT_SEEDS = tuple(range(1, 11))

# The names of the solve and table pipeline, by the module that defines
# them.  They are bound here on first use, so that distances and nearest
# import neither problems, transform nor solver.
_PIPELINE = {
    "problems": ("add_noise", "build_problem", "relative_error"),
    "solver": ("SolverConfig", "rrgmres_block", "rrgmres_solve"),
    "transform": ("back_transform", "factor_transform", "project_rhs"),
}


def _load_pipeline() -> None:
    """Bind each pipeline name that is not bound here yet; one that is
    (a test may have replaced it) is kept."""
    namespace = globals()
    for module, names in _PIPELINE.items():
        if not all(name in namespace for name in names):
            mod = importlib.import_module(f"{__package__}.{module}")
            for name in names:
                namespace.setdefault(name, getattr(mod, name))


def __getattr__(name: str):
    if any(name in names for names in _PIPELINE.values()):
        _load_pipeline()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ConfigError(Exception):
    """Bad flags, config file, or argument combination (exit code 2)."""


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


@dataclass(eq=False)
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


# the CSV columns: every field of a run but its solution vector
RUN_COLUMNS = tuple(f.name for f in fields(RunResult) if f.name != "x")


def _config(prob, eta: float, max_iter: int) -> SolverConfig:
    return SolverConfig(eta=eta, epsilon=prob.epsilon, max_iter=max_iter)


def _back(ctx, z: np.ndarray) -> tuple[np.ndarray, int]:
    """back_transform of z (a vector, or one column per run) and the
    products with K it cost each run."""
    before = ctx.matvec_count
    x = back_transform(ctx, z)
    return x, (ctx.matvec_count - before) // (z.shape[1] if z.ndim == 2 else 1)


def _run_result(prob, factor: StandardFormFactor, res, x: np.ndarray,
                back_mv: int) -> RunResult:
    """The row of one run.  It reports the factor's own prepare count,
    so its columns do not depend on how many runs share the factor."""
    return RunResult(
        problem=prob.name, n=prob.n, nu=prob.noise.nu,
        regularizer=factor.reg.name, seed=prob.noise.seed, iterations=res.k,
        matvecs=factor.prepare_matvecs + res.solve_matvecs + back_mv,
        relative_error=relative_error(x, prob.x_hat),
        stop_reason=res.stop_reason.value,
        matvecs_prepare=factor.prepare_matvecs, matvecs_solve=res.solve_matvecs,
        matvecs_back=back_mv, residual=res.residual, x=x)


def run_cell(prob, factor: StandardFormFactor, eta: float,
             max_iter: int = 100) -> RunResult:
    """One run on the noisy problem prob: project, solve with
    rrgmres_solve and back-transform with factor, the factor_transform
    of prob's K and a regularizer, counting the matvec phases apart."""
    _load_pipeline()
    ctx = project_rhs(factor, prob.b)
    res = rrgmres_solve(ctx, ctx.solver_rhs, _config(prob, eta, max_iter))
    return _run_result(prob, factor, res, *_back(ctx, res.z))


def run_block(probs: list, factors: list, eta: float, max_iter: int = 100) -> list:
    """run_cell for each of the noisy problems probs, which share K, with
    each of factors, all in lockstep: one projection per factor of the
    block of their right-hand sides, one rrgmres_block with a group of
    columns per factor, and one back-transform per factor.  Returns the
    rows factor by factor, each list in the order of probs; each row
    counts the columns its own run took, so it reads as its run_cell
    row does."""
    _load_pipeline()
    b = np.column_stack([p.b for p in probs])
    ctxs = [project_rhs(factor, b) for factor in factors]
    cfgs = [_config(p, eta, max_iter) for p in probs]
    sols = rrgmres_block(ctxs, [ctx.solver_rhs for ctx in ctxs], cfgs * len(ctxs))
    rows = []
    for c, (factor, ctx) in enumerate(zip(factors, ctxs)):
        res = sols[c * len(probs):(c + 1) * len(probs)]
        xs, back_mv = _back(ctx, np.column_stack([r.z for r in res]))
        rows.append([_run_result(p, factor, r, x, back_mv)
                     for p, r, x in zip(probs, res, xs.T.copy())])
    return rows


def run_single(base_problem, nu: float, seed: int, reg_name: str,
               eta: float, delta: float, max_iter: int = 100) -> RunResult:
    """One cell from scratch: the noise, the factor, then run_cell."""
    _load_pipeline()
    prob = add_noise(base_problem, nu, seed)
    factor = factor_transform(prob.op, regularizer_from_name(reg_name, prob.n, delta))
    return run_cell(prob, factor, eta, max_iter)


# --- config file ----------------------------------------------------------

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


def _config_defaults(parser: argparse.ArgumentParser, path: str) -> dict:
    """The config file's values, each converted by its option's declared type."""
    actions = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
    values = {}
    for key, val in _parse_config_file(path).items():
        if key not in actions:
            valid = ", ".join(sorted(actions))
            raise ConfigError(f"unknown config key {key!r}; valid keys: {valid}")
        try:
            values[key] = (actions[key].type or str)(val)
        except ValueError as exc:
            raise ConfigError(f"config key {key}: {exc}") from exc
    return values


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


def _check_numbers(noise_levels, seeds, eta, delta, max_iter) -> None:
    """Reject bad numeric settings before any problem is built."""
    if not all(0.0 <= nu < np.inf for nu in noise_levels):
        raise ConfigError("noise levels must be finite and nonnegative")
    if any(seed < 0 for seed in seeds):
        raise ConfigError(f"seed {min(seeds)} is negative; seeds must be nonnegative")
    if not np.isfinite(delta):
        raise ConfigError(f"delta must be finite, got {delta!r}")
    SolverConfig(eta=eta, max_iter=max_iter)  # ValueError on a bad eta or max_iter


def _build_base(problem: str, n: int):
    """The noise-free problem; an n out of range, or a problem too large
    for memory, is a bad n."""
    try:
        return build_problem(problem, n)
    except BadDimension as exc:
        raise ConfigError(f"--n {n}: {exc}") from None
    except MemoryError:
        raise ConfigError(f"n = {n} needs more than the memory available") from None


def _validate_regs(regs) -> None:
    for name in regs:
        catalog_entry(name)  # ValueError on an unknown name


# --- subcommands ----------------------------------------------------------

def cmd_solve(args) -> int:
    _load_pipeline()
    _validate_regs([args.reg])
    _check_numbers([args.noise], [args.seed], args.eta, args.delta, args.max_iter)

    base = _build_base(args.problem, args.n)
    result = run_single(base, args.noise, args.seed, args.reg, args.eta,
                        args.delta, args.max_iter)
    prefix = args.out
    csv_path = f"{prefix}.csv"
    with open(csv_path, "w") as f:
        f.write(",".join(RUN_COLUMNS) + "\n")
        f.write(result.csv_row() + "\n")
    write_vector(f"{prefix}_xk.txt", result.x)
    write_vector(f"{prefix}_xhat.txt", base.x_hat)
    print(result.breakdown_line())
    print(f"wrote {csv_path}, {prefix}_xk.txt, {prefix}_xhat.txt")
    return 0


def _partial_row(problem: str, n: int, nu: float, reg: str, seed: str,
                 **cells: str) -> str:
    """A CSV row for one table cell with the given columns; the others
    are blank."""
    cells.update(problem=problem, n=str(n), nu=_fmt(nu), regularizer=reg,
                 seed=seed)
    return ",".join(cells.get(c, "") for c in RUN_COLUMNS)


def _median(values: list) -> float:
    """The median of a list of numbers, as np.median gives it: the middle
    one, or the mean of the middle two."""
    v, h = sorted(values), len(values) // 2
    return float(v[h] if len(v) % 2 else (v[h - 1] + v[h]) / 2)


def _median_row(problem: str, n: int, nu: float, reg: str, runs: list) -> str:
    medians = {c: _fmt(_median([getattr(r, c) for r in runs]))
               for c in ("iterations", "matvecs", "relative_error")} if runs else {}
    return _partial_row(problem, n, nu, reg, "median", **medians)


def cmd_table(args) -> int:
    _load_pipeline()
    problem, n, delta = args.problem, args.n, args.delta
    _validate_regs(args.regs)
    _check_numbers(args.noise, args.seeds, args.eta, delta, args.max_iter)
    for what, values in (("noise level", args.noise), ("regularizer", args.regs),
                         ("seed", args.seeds)):
        if not values:
            raise ConfigError(f"need at least one {what}")
    out = args.out or f"table_{problem}.csv"

    base = _build_base(problem, n)
    # the factor depends on the regularizer alone and the noise on
    # (nu, seed) alone: each is made once, and a factor that fails is
    # reported from its stored exception in every row it would serve.
    # Each noise level runs its seeds with every factor in one lockstep
    # loop, a group of columns per factor
    factors, failed = {}, {}
    for reg in dict.fromkeys(args.regs):
        try:
            factors[reg] = factor_transform(base.op, regularizer_from_name(reg, n, delta))
        except NumericsError as exc:
            failed[reg] = exc
    lines = [",".join(RUN_COLUMNS)]
    for nu in args.noise:
        noisy = [add_noise(base, nu, seed) for seed in args.seeds]
        blocks = dict(zip(factors, run_block(noisy, list(factors.values()), args.eta,
                                             args.max_iter))) if factors else {}
        for reg in args.regs:
            runs = blocks.get(reg, [])
            if reg in failed:
                tag = f"ERROR_{type(failed[reg]).__name__}"
                for seed in args.seeds:
                    lines.append(_partial_row(problem, n, nu, reg, str(seed), stop_reason=tag))
                    print(f"{problem} n={n} nu={_fmt(nu)} {reg} seed={seed}: {tag}: {failed[reg]}")
            for r in runs:
                lines.append(r.csv_row())
                print(r.breakdown_line())
            lines.append(_median_row(problem, n, nu, reg, runs))
    with open(out, "w") as f:
        f.write("\n".join(lines) + "\n")
    print(f"wrote {out} ({len(lines) - 1} rows)")
    return 0


# the most rows of a distances block: enough orders to share each
# stacked array operation, few enough to keep the block small
_DISTANCE_BLOCK_ROWS = 4096


def _order_blocks(orders):
    """orders cut into runs of consecutive orders whose stacked bases,
    n + 1 rows each, fit in _DISTANCE_BLOCK_ROWS, one list at a time; an
    order larger than that is a block of its own."""
    block, rows = [], 0
    for n in orders:
        if block and rows + n + 1 > _DISTANCE_BLOCK_ROWS:
            yield block
            block, rows = [], 0
        block.append(n)
        rows += n + 1
    yield block


def cmd_distances(args) -> int:
    if not (4 <= args.min_n <= args.max_n):
        raise ConfigError("need 4 <= min-n <= max-n")
    if args.step < 1:
        raise ConfigError("step must be positive")

    # L2_TILDE and L2_ZERO differ in the two overhang rows, (1/2, -1/4)
    # and (-1/4, 1/2), at every order
    d_l20 = float(np.sqrt(0.625))
    lines = ["n,dist_L20,dist_PL2P,dist_L2P"]
    for block in _order_blocks(range(args.min_n, args.max_n + 1, args.step)):
        # the bases of the block's orders, each followed by a zero row,
        # and one stencil product for all of them: on each order's rows
        # it is that order's own L2_TILDE V, bit for bit
        V, starts = stacked_n2_bases(block)
        LV = stencil_product(RegularizerKind.L2_TILDE, V.shape[0], V)
        for n, s in zip(block, starts.tolist()):
            v, lv = V[s:s + n], LV[s:s + n]
            # L2_TILDE is symmetric (a palindromic stencil with its
            # overhang rows kept), so L2_TILDE^T V is lv too
            d_two = distance_from_products(v, lv, lv)
            d_right = distance_from_products(v, lv)
            lines.append(f"{n},{d_l20:.17g},{d_two:.17g},{d_right:.17g}")
    with open(args.out, "w") as f:
        f.write("\n".join(lines) + "\n")
    print(f"wrote {args.out} ({len(lines) - 1} rows)")
    return 0


def cmd_nearest(args) -> int:
    if not args.matrix or not args.nullspace:
        raise ConfigError("nearest needs --matrix and --nullspace files")
    a = read_matrix(args.matrix)
    v = read_matrix(args.nullspace)
    basis = NullSpaceBasis.from_vectors(v)
    if args.symmetric:
        ahat = nearest_symmetric_with_nullspace(a, basis)
    else:
        ahat = nearest_with_nullspace(a, basis)
    write_matrix(args.out, ahat)
    dist = nearness_distance(a, basis, symmetric=args.symmetric)
    print(f"distance {dist:.12g}")
    print(f"wrote {args.out}")
    return 0


# --- entry point ----------------------------------------------------------

def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subcommand parsers by name."""
    p = argparse.ArgumentParser(
        prog="regnear",
        description="Null-space-aware regularizers, standard-form transformation, "
                    "and range-restricted GMRES experiments.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_command(name, func, help, out, *options):
        """A subcommand with the given (flag, settings) options, then
        --config and --out (default out)."""
        sp = sub.add_parser(name, help=help)
        for flag, settings in options:
            sp.add_argument(flag, **settings)
        sp.add_argument("--config", help="flat key=value file; flags override it")
        sp.add_argument("--out", default=out, help="output path (CSV file or prefix)")
        sp.set_defaults(func=func)

    # the run flags that solve and table share
    problem = [("--problem", dict(choices=("phillips", "deriv2"), default="phillips")),
               ("--n", dict(type=int, default=200))]
    solver = [("--eta", dict(type=float, default=1.01)),
              ("--delta", dict(type=float, default=1.0)),
              ("--max-iter", dict(type=int, default=100))]

    add_command("solve", cmd_solve, "run a single experiment cell", "solve",
                *problem,
                ("--noise", dict(type=float, default=1e-2)),
                ("--reg", dict(default="I")),
                ("--seed", dict(type=int, default=1)),
                *solver)
    # the table's default output name follows --problem
    add_command("table", cmd_table, "full noise x regularizer x seed sweep", None,
                *problem,
                ("--noise", dict(type=_parse_floats, default=DEFAULT_NOISE,
                                 help="comma-separated noise levels")),
                ("--regs", dict(type=_parse_regs, default=REGULARIZER_NAMES,
                                help="comma-separated regularizer names")),
                ("--seeds", dict(type=_parse_seeds, default=DEFAULT_SEEDS,
                                 help="comma list or lo..hi range")),
                *solver)
    add_command("distances", cmd_distances, "nearness distances versus matrix order",
                "distances.csv",
                ("--min-n", dict(type=int, default=4)),
                ("--max-n", dict(type=int, default=400)),
                ("--step", dict(type=int, default=1)))
    add_command("nearest", cmd_nearest,
                "project a matrix file onto a null-space constraint", "nearest.txt",
                ("--matrix", dict(help="matrix text file for A")),
                ("--nullspace", dict(help="matrix text file whose columns span "
                                          "the null space")),
                ("--symmetric", dict(nargs="?", const=True, default=False,
                                     type=_parse_bool, help="use the symmetric variant")))
    return p, sub.choices


def main(argv=None) -> int:
    """Run one subcommand.  A setting comes from its flag, else from the
    --config file, else from the parser's default: the file's values
    become the subcommand's defaults and the flags are parsed again."""
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            command = commands[args.command]
            command.set_defaults(**_config_defaults(command, args.config))
            args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
