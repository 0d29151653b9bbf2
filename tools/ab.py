"""Compare the benchmark on the working tree and on a revision, in pairs.

Run from the repository root:

    python3 tools/ab.py --against REV (--workload W | --all) [--pairs 10]
                        [--seconds 8] [--seed 1] [--json FILE]

REV is exported with `git archive` (golden.export) into a temporary
directory, and the working tree's perfbench/ and BENCHMARK.json are
copied over the export, so both sides run the same harness code.  Each
pair runs `perfbench/run.py --trace 0` once on the working tree (the
change) and once on the export (the parent), one after the other; the
side that goes first alternates from pair to pair.

For each workload and each end-to-end metric of BENCHMARK.json, with
its direction (`better`) and its bound, the report gives both sides'
median and quartiles, the relative shift of the median, the change's
wins out of the pairs (ties count for neither), the exact two-sided
sign-test p of wins against losses, and a verdict:

* worse: the change's median is worse than the parent's by more than
  the bound, as a fraction of the parent's median;
* gain: over at least ten pairs, the change wins at least nine tenths
  of them, and its median is better than the parent's by more than the
  parent's interquartile range and by more than MIN_EFFECT (1 %) of the
  parent's median;
* unresolved: the parent's interquartile range is wider than the bound,
  unless every run of the change reads better than every run of the
  parent;
* no change: otherwise.

Every run whose JSON line has `failed` > 0 is reported.  The exit code
is 1 when a run failed or gave no result, and 0 otherwise, whatever the
verdicts.  --json FILE writes every run's result and the summary.
"""
from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("change", "parent")
# fewer pairs than this claim no gain, whatever they show
MIN_GAIN_PAIRS = 10
# a median gap below this share of the parent's median is no gain, however
# steady: a metric that repeats within a few parts in ten thousand, as the
# peak RSS does, has a parent IQR far below what a change can be credited with
MIN_EFFECT = 0.01


def sign_test_p(wins: int, losses: int) -> float:
    """The exact two-sided sign-test p of wins against losses, ties left
    out: twice the chance of a split at least this uneven in a fair coin's
    wins + losses tosses, at most 1."""
    m = wins + losses
    tail = sum(math.comb(m, k) for k in range(max(wins, losses), m + 1))
    return min(1.0, 2 * tail / 2 ** m)


def quartiles(values: list) -> tuple:
    """(q1, median, q3) of values; a single value is all three."""
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


def summarize(change: list, parent: list, better: str, bound: float) -> dict:
    """The comparison of one metric over pairs of runs: change[i] and
    parent[i] are its values in pair i."""
    sign = 1.0 if better == "lower" else -1.0
    # gains[i] > 0 where the change reads better in pair i
    gains = [sign * (p - c) for c, p in zip(change, parent)]
    wins, losses = sum(g > 0 for g in gains), sum(g < 0 for g in gains)
    q_change, q_parent = quartiles(change), quartiles(parent)
    base = abs(q_parent[1])
    gap = sign * (q_parent[1] - q_change[1])
    iqr = q_parent[2] - q_parent[0]
    separated = all(sign * (p - c) > 0 for c in change for p in parent)
    if -gap > bound * base:
        verdict = "worse"
    elif (len(gains) >= MIN_GAIN_PAIRS and 10 * wins >= 9 * len(gains)
          and gap > max(iqr, MIN_EFFECT * base)):
        verdict = "gain"
    elif iqr > bound * base and not separated:
        verdict = "unresolved"
    else:
        verdict = "no change"
    relative = (q_change[1] - q_parent[1]) / base if base else 0.0
    return {"change": q_change, "parent": q_parent, "relative": relative,
            "wins": wins, "losses": losses, "pairs": len(gains),
            "p": sign_test_p(wins, losses), "verdict": verdict}


def run_side(tree: Path, flags: list, workloads: list, args) -> dict | None:
    """One run of the benchmark on tree: its results by workload, from
    run.py's last line (one result for a single workload, a mapping by
    name for --all), or None when it gave none."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", *flags, "--seed",
                           str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        err = proc.stderr.strip().splitlines()
        print(f"  run in {tree} exited with code {proc.returncode}: "
              f"{err[-1] if err else 'no message'}")
        return None
    data = json.loads(lines[-1])
    return {workloads[0]: data} if "metrics" in data else data


def report(summaries: dict) -> list[str]:
    lines = [f"{'workload':<12} {'metric':<12} {'parent q1/median/q3':<28} "
             f"{'change q1/median/q3':<28} {'shift':>8} {'wins':>6} {'p':>7}  verdict"]
    for (workload, metric), s in summaries.items():
        parent = "/".join(f"{v:.4g}" for v in s["parent"])
        change = "/".join(f"{v:.4g}" for v in s["change"])
        lines.append(f"{workload:<12} {metric:<12} {parent:<28} {change:<28} "
                     f"{s['relative']:>+8.2%} {s['wins']:>3}/{s['pairs']:<2} {s['p']:>7.4f}  "
                     f"{s['verdict']}")
    return lines


def main(argv: list) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", required=True,
                        help="the revision to compare the working tree with")
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=names)
    which.add_argument("--all", action="store_true", help="every workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", metavar="FILE", help="write every run and the summary here")
    args = parser.parse_args(argv[1:])
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workloads = names if args.all else [args.workload]
    flags = ["--all"] if args.all else ["--workload", args.workload]

    from golden import export  # tools/ is the script's directory
    pairs, ok = [], True
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {"change": ROOT, "parent": Path(tmp)}
        export(args.against, trees["parent"])
        shutil.rmtree(trees["parent"] / "perfbench", ignore_errors=True)
        shutil.copytree(ROOT / "perfbench", trees["parent"] / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", trees["parent"] / "BENCHMARK.json")
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            print(f"pair {pair + 1}/{args.pairs}: {order[0]} first", flush=True)
            pairs.append({side: run_side(trees[side], flags, workloads, args)
                          for side in order})
            for side, results in pairs[-1].items():
                ok = ok and results is not None
                for workload, result in (results or {}).items():
                    if result["failed"]:
                        ok = False
                        print(f"  FAILED: {side}, pair {pair + 1}, {workload}: "
                              f"{result['failed']} of {result['attempted']} failed")
    # only the pairs in which both sides gave a result are compared
    whole = [p for p in pairs if all(p.values())]

    def values(side, workload, metric):
        return [p[side][workload]["metrics"][metric]["value"] for p in whole]

    summaries = {(w, m["name"]): summarize(values("change", w, m["name"]),
                                           values("parent", w, m["name"]),
                                           m["better"], m["bound"])
                 for w in workloads for m in bench["end_to_end"] if whole}
    print(f"working tree against {args.against}: {args.pairs} pairs, "
          f"--seconds {args.seconds:g}, --seed {args.seed}")
    print("\n".join(report(summaries)))
    if args.json:
        Path(args.json).write_text(json.dumps({
            "against": args.against, "pairs": args.pairs, "seconds": args.seconds,
            "seed": args.seed, "runs": pairs,
            "summary": [{"workload": w, "metric": m, **s} for (w, m), s in summaries.items()]},
            indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
