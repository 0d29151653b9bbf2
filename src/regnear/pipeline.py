"""The solve and table runs: the paper's experiment pipeline.

A run adds noise to a test problem, composes a catalog regularizer,
factors the standard-form transformation of K with it, runs RRGMRES to
the discrepancy stop and maps the result back, counting the products
with K of each phase.  run_block is the one run path: the noisy
problems of a block share K and each factor serves all of them, their
columns running side by side through one rrgmres_block loop.
run_single, behind `regnear solve`, is its one-cell case, so a solve
writes the row that the same cell of a table writes.

solve and table are the bodies of the two subcommands; the CLI imports
this module when one of them runs, so that distances and nearest load
neither the problems, the transformation nor the solver.  A bad
setting raises errors.ConfigError, which the CLI reports with exit
code 2.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import BadDimension, ConfigError, NumericsError
from .linalg import write_vector
from .problems import add_noise, build_problem, relative_errors
from .regops import catalog_entry, regularizer_from_name
from .solver import SolverConfig, rrgmres_block
from .transform import back_transform, factor_transform, project_rhs


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
        return csv_rows([self])[:-1]

    def breakdown_line(self) -> str:
        return breakdown_lines([self])[:-1]


# the CSV columns: every field of a run but its solution vector
RUN_COLUMNS = tuple(f.name for f in fields(RunResult) if f.name != "x")
# a CSV row and a breakdown line as % templates of a run's fields, each
# field written as _fmt writes it: %.17g for a float and str otherwise
_CSV_ROW = (",".join("%.17g" if f.type in (float, "float") else "%s" for f in fields(RunResult)
                     if f.name != "x") + "\n", RUN_COLUMNS)
_BREAKDOWN_LINE = ("%s n=%s nu=%.17g %s seed=%s: matvecs %s = prepare %s + solve %s + back %s; "
                   "k=%s %s\n",
                   ("problem", "n", "nu", "regularizer", "seed", "matvecs", "matvecs_prepare",
                    "matvecs_solve", "matvecs_back", "iterations", "stop_reason"))


def _filled(template: tuple, runs: list) -> str:
    """The lines of runs, one per run, from a (template, field names)
    pair: one % over the template repeated."""
    text, names = template
    return (text * len(runs)) % tuple(getattr(r, c) for r in runs for c in names)


def csv_rows(runs: list) -> str:
    """The CSV rows of runs, each ending in a newline."""
    return _filled(_CSV_ROW, runs)


def breakdown_lines(runs: list) -> str:
    """The breakdown lines of runs, each ending in a newline."""
    return _filled(_BREAKDOWN_LINE, runs)


def _back(ctx, z: np.ndarray) -> tuple[np.ndarray, int]:
    """back_transform of z, one column per run, and the products with K
    it cost each run."""
    before = ctx.matvec_count
    x = back_transform(ctx, z)
    return x, (ctx.matvec_count - before) // z.shape[1]


def _run_result(prob, factor, res, x: np.ndarray, back_mv: int, error: float) -> RunResult:
    """The row of one run, whose relative error is error.  It reports
    the factor's own prepare count, so its columns do not depend on how
    many runs share the factor."""
    return RunResult(
        problem=prob.name, n=prob.n, nu=prob.noise.nu,
        regularizer=factor.reg.name, seed=prob.noise.seed, iterations=res.k,
        matvecs=factor.prepare_matvecs + res.solve_matvecs + back_mv,
        relative_error=error,
        stop_reason=res.stop_reason.value,
        matvecs_prepare=factor.prepare_matvecs, matvecs_solve=res.solve_matvecs,
        matvecs_back=back_mv, residual=res.residual, x=x)


def run_block(probs: list, factors: list, eta: float, max_iter: int = 100) -> list:
    """The runs of each of the noisy problems probs, noisy copies of one
    problem that share K and x_hat, with each of factors
    (factor_transform of that K and a regularizer), all in lockstep: one
    projection per factor of the block of their right-hand sides, one
    rrgmres_block with a group of columns per factor, and one
    back-transform and one relative_errors per factor.  Returns the rows
    factor by factor, each list in the order of probs; each row counts
    the columns its own run took, so it reads as the run alone would."""
    b = np.column_stack([p.b for p in probs])
    ctxs = [project_rhs(factor, b) for factor in factors]
    cfgs = [SolverConfig(eta=eta, epsilon=p.epsilon, max_iter=max_iter) for p in probs]
    sols = rrgmres_block(ctxs, [ctx.solver_rhs for ctx in ctxs], cfgs * len(ctxs))
    rows = []
    for c, (factor, ctx) in enumerate(zip(factors, ctxs)):
        res = sols[c * len(probs):(c + 1) * len(probs)]
        xs, back_mv = _back(ctx, np.column_stack([r.z for r in res]))
        errors = relative_errors(xs, probs[0].x_hat).tolist()
        rows.append([_run_result(p, factor, r, x, back_mv, e)
                     for p, r, x, e in zip(probs, res, xs.T.copy(), errors)])
    return rows


def run_single(base_problem, nu: float, seed: int, reg_name: str,
               eta: float, delta: float, max_iter: int = 100) -> RunResult:
    """One cell from scratch: the noise, the factor, then run_block of
    that one problem and factor."""
    prob = add_noise(base_problem, nu, seed)
    factor = factor_transform(prob.op, regularizer_from_name(reg_name, prob.n, delta))
    return run_block([prob], [factor], eta, max_iter)[0][0]


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


def solve(args) -> int:
    """`regnear solve`: one cell, its CSV row and its solution vectors."""
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


def table(args) -> int:
    """`regnear table`: every (noise level, regularizer, seed) cell, and
    the medians of each (noise level, regularizer) block."""
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
    # the file's text in pieces that each end in a newline: a block's
    # rows, and its breakdown lines on stdout, in one call each
    pieces = [",".join(RUN_COLUMNS) + "\n"]
    for nu in args.noise:
        noisy = [add_noise(base, nu, seed) for seed in args.seeds]
        blocks = dict(zip(factors, run_block(noisy, list(factors.values()), args.eta,
                                             args.max_iter))) if factors else {}
        for reg in args.regs:
            runs = blocks.get(reg, [])
            if reg in failed:
                tag = f"ERROR_{type(failed[reg]).__name__}"
                for seed in args.seeds:
                    pieces.append(_partial_row(problem, n, nu, reg, str(seed), stop_reason=tag)
                                  + "\n")
                    print(f"{problem} n={n} nu={_fmt(nu)} {reg} seed={seed}: {tag}: {failed[reg]}")
            pieces.append(csv_rows(runs))
            print(breakdown_lines(runs), end="")
            pieces.append(_median_row(problem, n, nu, reg, runs) + "\n")
    text = "".join(pieces)
    with open(out, "w") as f:
        f.write(text)
    rows = text.count("\n") - 1
    print(f"wrote {out} ({rows} rows)")
    return 0
