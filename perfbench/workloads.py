"""The benchmark's workloads: which CLI calls each one makes, and which
cells (output rows) each call must produce.

Every input comes from the workload seed through noise_seeds(); the
CLI receives only the resulting flags.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

ETA = 1.01          # the CLI's default safety factor
MAX_ITER = 100      # the CLI's default iteration cap
DELTA = 1.0         # the CLI's default corner weight
REGS = ("I", "L10", "L1dP1", "L20", "L2tP2", "P2L2tP2")
SWEEP_NOISE = (1e-2, 1e-3, 1e-4)
SWEEP_N = 200
SWEEP_SEEDS = 10
LARGE_N = 2000
LARGE_NU = 1e-3
LARGE_CASES = (("phillips", "L20"), ("deriv2", "L1dP1"))
DIST_ORDERS = (4, 400)


def noise_seeds(seed: int, count: int) -> list[int]:
    """The noise seeds a workload passes to the CLI: count of them per seed."""
    return [10 * seed + i for i in range(1, count + 1)]


@dataclass(frozen=True)
class RunCell:
    """One pipeline run, keyed the way the CLI's CSV row identifies it."""

    problem: str
    n: int
    nu: float
    reg: str
    seed: int

    @property
    def id(self) -> str:
        return f"{self.problem}/n={self.n}/nu={self.nu:g}/{self.reg}/seed={self.seed}"


@dataclass(frozen=True)
class DistCell:
    """One row of the distances table."""

    n: int

    @property
    def id(self) -> str:
        return f"distances/n={self.n}"


@dataclass(frozen=True)
class Call:
    """One cold CLI process and the output it must leave behind.

    out is the CSV path relative to the call's working directory; a
    solve call also writes <prefix>_xk.txt and <prefix>_xhat.txt.
    """

    argv: tuple[str, ...]
    out: str
    cells: tuple
    prefix: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    problems: tuple[tuple[str, int], ...]   # what set-up builds
    calls: Callable[[int], list[Call]]      # workload seed -> CLI calls

    def cells(self, seed: int) -> list:
        return [c for call in self.calls(seed) for c in call.cells]


def _sweep_calls(seed: int) -> list[Call]:
    seeds = noise_seeds(seed, SWEEP_SEEDS)
    calls = []
    for problem in ("phillips", "deriv2"):
        cells = tuple(RunCell(problem, SWEEP_N, nu, reg, s)
                      for nu in SWEEP_NOISE for reg in REGS for s in seeds)
        argv = ("table", "--problem", problem, "--n", str(SWEEP_N),
                "--noise", ",".join(repr(nu) for nu in SWEEP_NOISE),
                "--regs", ",".join(REGS), "--seeds", f"{seeds[0]}..{seeds[-1]}",
                "--out", f"table_{problem}.csv")
        calls.append(Call(argv, f"table_{problem}.csv", cells))
    return calls


def _large_calls(seed: int) -> list[Call]:
    (s,) = noise_seeds(seed, 1)
    calls = []
    for problem, reg in LARGE_CASES:
        prefix = f"solve_{problem}_{reg}"
        argv = ("solve", "--problem", problem, "--n", str(LARGE_N),
                "--noise", repr(LARGE_NU), "--reg", reg, "--seed", str(s),
                "--out", prefix)
        calls.append(Call(argv, f"{prefix}.csv",
                          (RunCell(problem, LARGE_N, LARGE_NU, reg, s),), prefix))
    return calls


def _distances_calls(seed: int) -> list[Call]:
    # The distances table has no random input, so the seed changes nothing.
    lo, hi = DIST_ORDERS
    argv = ("distances", "--min-n", str(lo), "--max-n", str(hi),
            "--out", "distances.csv")
    return [Call(argv, "distances.csv",
                 tuple(DistCell(n) for n in range(lo, hi + 1)))]


WORKLOADS = {w.name: w for w in (
    Workload("paper-sweep",
             "the paper's table at n=200: per-seed transform and solver work "
             "dominates and problem building is negligible",
             (("phillips", SWEEP_N), ("deriv2", SWEEP_N)), _sweep_calls),
    Workload("large-solve",
             "single solves at n=2000: dense pseudoinverse, O(n^2) deriv2 build "
             "and dense-QR compose dominate; one right-hand side per process",
             (("phillips", LARGE_N), ("deriv2", LARGE_N)), _large_calls),
    Workload("distances",
             "nearness distances for orders 4..400: dense catalog assembly and "
             "projection, with no K, no b and no solver",
             (), _distances_calls),
)}
