"""Command-line harness.

Four subcommands: `solve` runs one problem/noise/regularizer/seed cell
and writes the solution vectors, `table` sweeps the full cross product
with per-cell medians, `distances` tabulates the nearness distances of
the tridiagonal second-difference matrix as the dimension grows, and
`nearest` projects an external matrix file onto a prescribed null space.

This module holds the parser, the config file handling, distances and
nearest.  solve and table run in the pipeline module, which is
imported when one of them runs: distances and nearest load neither the
problems, the transformation nor the solver.

All numeric CSV output is written with 17 significant digits so reruns
of identical configurations are byte-identical.  Exit codes: 0 success,
2 configuration error (a file that cannot be read or written, or a
size that does not fit in memory, included), 3 numerical failure (the
bad content of an input file that could be read included).
"""
from __future__ import annotations

import argparse
import sys
from functools import partial

import numpy as np

from .errors import ConfigError, NumericsError
from .linalg import read_matrix, write_matrix
from .nearness import (NullSpaceBasis, distance_from_products,
                       nearest_symmetric_with_nullspace,
                       nearest_with_nullspace, nearness_distance)
from .regops import (REGULARIZER_NAMES, RegularizerKind, stacked_n2_bases,
                     stencil_product)

DEFAULT_NOISE = (1e-2, 1e-3, 1e-4)
DEFAULT_SEEDS = tuple(range(1, 11))


def __getattr__(name: str):
    # run_single stays importable from here, for callers that read it
    # from the CLI module; it loads the pipeline on first use
    if name == "run_single":
        from .pipeline import run_single
        return run_single
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
        except argparse.ArgumentTypeError as exc:
            raise ConfigError(f"config key {key}: {exc}") from exc
    return values


def _number(kind, text: str):
    """kind(text) for a number spelled in plain ASCII, and
    ArgumentTypeError for any other text: int and float alone also read
    Python's digit separators, 1_0 as 10, and non-ASCII digits.  Every
    numeric option reads its value with it, as partial(_number, kind),
    and so does every list item."""
    try:
        if "_" not in text and text.isascii():
            return kind(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"bad number {text!r}")


def _items(text: str) -> list:
    """The items of a comma list, stripped, with the blank ones skipped."""
    return [p.strip() for p in text.split(",") if p.strip()]


# the number, list and boolean parsers raise ArgumentTypeError, whose
# message argparse shows as it is; a ValueError would read "invalid
# <parser> value"
def _parse_seeds(text: str) -> tuple[int, ...]:
    text = text.strip()
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            return tuple(range(_number(int, lo), _number(int, hi) + 1))
        except argparse.ArgumentTypeError as exc:
            raise argparse.ArgumentTypeError(f"bad seed range {text!r}") from exc
    try:
        return tuple(_number(int, p) for p in _items(text))
    except argparse.ArgumentTypeError as exc:
        raise argparse.ArgumentTypeError(f"bad seed list {text!r}") from exc


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(_number(float, p) for p in _items(text))
    except argparse.ArgumentTypeError as exc:
        raise argparse.ArgumentTypeError(f"bad number list {text!r}") from exc


def _parse_regs(text: str) -> tuple[str, ...]:
    return tuple(_items(text))


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"bad boolean {text!r}")


# --- subcommands ----------------------------------------------------------

def cmd_solve(args) -> int:
    from .pipeline import solve
    return solve(args)


def cmd_table(args) -> int:
    from .pipeline import table
    return table(args)


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
    dist = nearness_distance(a, basis, symmetric=args.symmetric)
    write_matrix(args.out, ahat)
    print(f"distance {dist:.12g}")
    print(f"wrote {args.out}")
    return 0


# --- entry point ----------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse's parser, whose usage errors exit with code 2 in one
    line, as every other configuration error does; --help has the usage.
    Its subcommand parsers are of this class too."""

    def error(self, message):
        self.exit(2, f"error: {self.prog}: {message}\n")


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subcommand parsers by name."""
    p = _Parser(
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

    integer, real = partial(_number, int), partial(_number, float)
    # the run flags that solve and table share
    problem = [("--problem", dict(choices=("phillips", "deriv2"), default="phillips")),
               ("--n", dict(type=integer, default=200))]
    solver = [("--eta", dict(type=real, default=1.01)),
              ("--delta", dict(type=real, default=1.0)),
              ("--max-iter", dict(type=integer, default=100))]

    add_command("solve", cmd_solve, "run a single experiment cell", "solve",
                *problem,
                ("--noise", dict(type=real, default=1e-2)),
                ("--reg", dict(default="I")),
                ("--seed", dict(type=integer, default=1)),
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
                ("--min-n", dict(type=integer, default=4)),
                ("--max-n", dict(type=integer, default=400)),
                ("--step", dict(type=integer, default=1)))
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
