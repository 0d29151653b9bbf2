#!/usr/bin/env python3
"""Layered benchmark of the regnear pipeline.

One workload:

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 25 --trace 0

Every workload, with a table of every metric by workload and unit:

    python3 perfbench/run.py --all --seed 1 --seconds 25 --trace 0

--trace 0 measures end to end.  Each repetition launches the workload's
CLI calls as cold `python -m regnear.cli ...` processes, one at a time,
with one BLAS thread; repetitions continue until --seconds have passed
(at least MIN_REPS).  Set-up (a fresh interpreter importing regnear.cli
and building the workload's problems) is timed SETUP_REPEATS times.

A probe process with fixed work that uses no regnear code runs before
every repetition and after the last one.  The gated times are given in
reference seconds: measured seconds times PROBE_REF_S over the median
probe.  A change in the machine's speed during or between runs slows the
probe as well and cancels; a change in the program does not.  The raw
times are printed too.

--trace 1 gives the per-layer numbers: one cold CLI repetition, then
traced and untraced in-process passes over the same cells (tracer.py),
alternating, until --seconds have passed.  Every traced cell must agree
with the CLI's CSV row in k, stop reason and matvec columns.

Every output is checked (checker.py); a wrong cell counts as failed and
the run goes on.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  The run reads and
writes only inside the checkout: scratch output goes to .perfbench_work/
(removed at exit) and span files to .perfbench_out/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, RunCell

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPAN_DIR = ROOT / ".perfbench_out"

BLAS_THREADS = "1"
SETUP_REPEATS = 3
MIN_REPS = 3
PROBE_REF_S = 0.9       # the probe's median wall time on the baseline machine
RUN_LIMIT_S = 170.0     # no repetition starts that could end past this

# name -> (unit, better).  END_TO_END is what --trace 0 reports in its JSON
# line.  REPORTED_ONLY are end-to-end numbers printed by the report only:
# the raw times, because on a shared machine whose speed drifts they cannot
# hold a bound from run to run; the counts and errors, because they do not
# exist on every workload (distances has no K) or are 0 whenever the run is
# correct.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "cells_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
REPORTED_ONLY = {
    "wall_raw_s": ("s", "lower"),
    "setup_raw_s": ("s", "lower"),
    "probe_s": ("s", "lower"),
    "matvecs": ("count", "lower"),
    "iterations": ("count", "lower"),
    "rel_error_median": ("ratio", "lower"),
    "failed_frac": ("ratio", "lower"),
}
PER_LAYER = {
    "cli.import_s": ("s", "lower"),
    "problems.build_s": ("s", "lower"),
    "problems.kmatvec_s": ("s", "lower"),
    "problems.kmatvec_count": ("count", "lower"),
    "problems.kmatvec_bytes_computed": ("bytes", "lower"),
    "regops.compose_s": ("s", "lower"),
    "regops.assemble_s": ("s", "lower"),
    "nearness.distance_s": ("s", "lower"),
    "transform.prepare_s": ("s", "lower"),
    "transform.prepare_matvecs": ("count", "lower"),
    "transform.apply_s": ("s", "lower"),
    "transform.back_s": ("s", "lower"),
    "solver.solve_s": ("s", "lower"),
    "solver.self_s": ("s", "lower"),
    "solver.iterations": ("count", "lower"),
    "pipeline.run_ms_p50": ("ms", "lower"),
    "pipeline.run_ms_p95": ("ms", "lower"),
    "pipeline.runs": ("count", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
    "matvecs": ("count", "lower"),
    "iterations": ("count", "lower"),
}

SETUP_CODE = """\
import json, sys, time
t0 = time.perf_counter()
import regnear.cli
from regnear.problems import build_problem
t1 = time.perf_counter()
for name, n in json.loads(sys.argv[1]):
    build_problem(name, n)
print(json.dumps({"import_s": t1 - t0, "build_s": time.perf_counter() - t1}))
"""

# Fixed work in the CLI's mix that never touches regnear: a cold start with
# the numpy and scipy imports, small matrix-vector products in a Python loop,
# small pseudoinverses, a Python loop and a medium matrix product.
PROBE_CODE = """\
import numpy as np
import scipy.linalg, scipy.optimize
rng = np.random.default_rng(0)
a = rng.standard_normal((200, 200))
v = rng.standard_normal(200)
for _ in range(4000):
    v = a @ v
    v /= np.linalg.norm(v)
for _ in range(8):
    np.linalg.pinv(a)
s = 0
for i in range(300000):
    s += i * i
b = rng.standard_normal((800, 800))
b @ b
"""


class SetupFailed(Exception):
    """The program cannot be started at all; the run prints no result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS=BLAS_THREADS, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS, PYTHONPATH=str(SRC))
    return env


@dataclass
class Child:
    returncode: int
    wall_s: float
    maxrss_mb: float


def run_child(args: list[str], cwd: Path, log: str, deadline: float) -> Child:
    """Run `python <args>` to completion; killed if it outlives the deadline.

    Resource usage comes from wait4 on this child alone, so the peak RSS
    is the child's own.
    """
    with open(cwd / f"{log}.out", "wb") as out, open(cwd / f"{log}.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=child_env(),
                                stdout=out, stderr=err)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0)


def run_setup(workload, workdir: Path, deadline: float) -> list[dict]:
    """Time SETUP_REPEATS fresh interpreters doing the workload's set-up."""
    problems = json.dumps([list(p) for p in workload.problems])
    out = []
    for i in range(SETUP_REPEATS):
        child = run_child(["-c", SETUP_CODE, problems], workdir, f"setup{i}", deadline)
        if child.returncode != 0:
            err = (workdir / f"setup{i}.err").read_text().strip().splitlines()
            raise SetupFailed(f"set-up exited with code {child.returncode}: "
                              f"{err[-1] if err else 'no message'}")
        inner = json.loads((workdir / f"setup{i}.out").read_text())
        out.append({"setup_s": child.wall_s, **inner})
    return out


@dataclass
class Rep:
    dir: Path
    wall_s: float
    children: list


def run_probe(workdir: Path, deadline: float) -> float:
    child = run_child(["-c", PROBE_CODE], workdir, "probe", deadline)
    if child.returncode != 0:
        raise SetupFailed(f"probe exited with code {child.returncode}")
    return child.wall_s


def measure(workload, seed: int, seconds: float, min_reps: int, workdir: Path,
            deadline: float) -> tuple[list[Rep], list[float]]:
    """Repeat the workload's CLI calls until `seconds` have passed.

    A probe runs before every repetition and after the last one, so each
    repetition sits between two probes.  Returns the repetitions and the
    probe wall times.
    """
    calls = workload.calls(seed)
    reps: list[Rep] = []
    probes = [run_probe(workdir, deadline)]
    t_start = time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - t_start < seconds:
        if reps and time.monotonic() + reps[-1].wall_s + probes[-1] > deadline:
            break
        repdir = workdir / f"rep{len(reps)}"
        repdir.mkdir()
        t0 = time.perf_counter()
        children = [run_child(["-m", "regnear.cli", *call.argv], repdir,
                              f"call{i}", deadline)
                    for i, call in enumerate(calls)]
        reps.append(Rep(repdir, time.perf_counter() - t0, children))
        probes.append(run_probe(workdir, deadline))
    return reps, probes


REPEAT_KEYS = ("k", "stop_reason", "prepare", "solve", "back", "matvecs", "line")


def check_reps(workload, seed: int, reps: list[Rep]):
    """Check every repetition; a cell whose counts differ from the first
    repetition's fails, because k and matvecs must repeat exactly."""
    from checker import CheckResult, Oracles, check_call
    oracles = Oracles()
    results = []
    for rep in reps:
        result = CheckResult()
        for call, child in zip(workload.calls(seed), rep.children):
            check_call(call, child.returncode, rep.dir, oracles, result)
        results.append(result)
    first = results[0].rows
    for result in results[1:]:
        for cell_id, row in result.rows.items():
            if cell_id in first and any(row.get(k) != first[cell_id].get(k)
                                        for k in REPEAT_KEYS):
                result.flag(cell_id, "counts differ from the first repetition")
    return results


def run_summary(rows: dict) -> dict:
    """matvecs, iterations and median relative error over pipeline rows."""
    runs = [r for r in rows.values() if "k" in r]
    if not runs:
        return {}
    return {"matvecs": sum(r["matvecs"] for r in runs),
            "iterations": sum(r["k"] for r in runs),
            "rel_error_median": statistics.median(r["relative_error"] for r in runs)}


def quartiles(values: list) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"q1={q1:.4f} median={q2:.4f} q3={q3:.4f} n={len(values)}"


@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: dict                                 # the JSON line's metrics
    reported: dict = field(default_factory=dict)  # printed by the report only
    notes: list = field(default_factory=list)

    def json_line(self, units: dict) -> str:
        return json.dumps({
            "correct": self.failed == 0, "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": units[k][0]}
                        for k, v in self.metrics.items()}})


def _problem_notes(results) -> list[str]:
    notes = []
    for i, result in enumerate(results):
        for cell_id, messages in list(result.problems.items())[:20]:
            notes.append(f"FAILED rep{i} {cell_id}: {'; '.join(messages)}")
    return notes


def end_to_end(workload, seed: int, seconds: float, workdir: Path,
               deadline: float) -> Outcome:
    setups = run_setup(workload, workdir, deadline)
    reps, probes = measure(workload, seed, seconds, MIN_REPS, workdir, deadline)
    results = check_reps(workload, seed, reps)
    cells = len(workload.cells(seed))
    attempted = cells * len(reps)
    failed = sum(r.failed for r in results)
    walls = [r.wall_s for r in reps]
    wall = statistics.median(walls)
    setup = statistics.median(s["setup_s"] for s in setups)
    probe = statistics.median(probes)
    scale = PROBE_REF_S / probe
    metrics = {
        "wall_s": wall * scale,
        "setup_s": setup * scale,
        "cells_per_s": cells / (wall * scale),
        "peak_rss_mb": statistics.median(max(c.maxrss_mb for c in r.children)
                                         for r in reps),
    }
    reported = {"wall_raw_s": wall, "setup_raw_s": setup, "probe_s": probe,
                **run_summary(results[0].rows), "failed_frac": failed / attempted}
    notes = [f"wall_raw_s per repetition: {quartiles(walls)}",
             f"probe_s: {quartiles(probes)}",
             f"setup_raw_s per repetition: {quartiles([s['setup_s'] for s in setups])}",
             f"inside set-up: import_s median "
             f"{statistics.median(s['import_s'] for s in setups):.4f}, build_s median "
             f"{statistics.median(s['build_s'] for s in setups):.4f}",
             *_problem_notes(results)]
    return Outcome(attempted, failed, metrics, reported, notes)


def cross_check(pass_outcomes: dict, cli_rows: dict, result) -> None:
    """The in-process pass must reproduce the CLI's counts cell for cell."""
    for cell_id, got in pass_outcomes.items():
        want = cli_rows.get(cell_id)
        if want is None:
            result.flag(cell_id, "no CLI row to cross-check against")
            continue
        diff = [k for k in REPEAT_KEYS if k in want and got.get(k) != want[k]]
        if diff:
            result.flag(cell_id, "in-process pass differs from the CLI in "
                        + ", ".join(f"{k} ({got.get(k)!r} vs {want[k]!r})" for k in diff))


def layer_metrics(workload, seed, traced, untraced, spans, import_s, cli_rows) -> dict:
    from tracer import percentile, span_totals
    totals = span_totals(spans)

    def total(name, key="s"):
        return totals.get(name, {}).get(key, 0.0)

    runs = [(c, traced.outcomes[c.id]) for c in workload.cells(seed)
            if isinstance(c, RunCell)]
    csv = run_summary(cli_rows)
    return {
        "cli.import_s": import_s,
        "problems.build_s": total("problems.build"),
        "problems.kmatvec_s": total("problems.kmatvec"),
        "problems.kmatvec_count": total("problems.kmatvec", "count"),
        "problems.kmatvec_bytes_computed": sum(8 * c.n * c.n * o["matvecs"]
                                               for c, o in runs),
        "regops.compose_s": total("regops.compose"),
        "regops.assemble_s": total("regops.assemble"),
        "nearness.distance_s": total("nearness.distance"),
        "transform.prepare_s": total("transform.prepare"),
        "transform.prepare_matvecs": sum(o["prepare"] for _, o in runs),
        "transform.apply_s": total("transform.apply"),
        "transform.back_s": total("transform.back"),
        "solver.solve_s": total("solver.solve"),
        "solver.self_s": total("solver.solve", "self_s"),
        "solver.iterations": sum(o["k"] for _, o in runs),
        "pipeline.run_ms_p50": 1e3 * statistics.median(untraced.cell_s),
        "pipeline.run_ms_p95": 1e3 * percentile(untraced.cell_s, 95),
        "pipeline.runs": len(untraced.cell_s),
        "trace.overhead_frac": traced.total_s / untraced.total_s - 1.0,
        "matvecs": csv.get("matvecs", 0),
        "iterations": csv.get("iterations", 0),
    }


def per_layer(workload, seed: int, seconds: float, workdir: Path,
              deadline: float) -> Outcome:
    setups = run_setup(workload, workdir, deadline)
    import_s = statistics.median(s["import_s"] for s in setups)
    reps, _ = measure(workload, seed, 0.0, 1, workdir, deadline)
    (result,) = check_reps(workload, seed, reps)
    cli_rows = result.rows

    sys.path.insert(0, str(SRC))
    from tracer import Tracer, run_pass, span_totals
    cells = len(workload.cells(seed))
    per_pass, span_log, last_totals = [], [], {}
    t_start = time.perf_counter()
    pair_s = 0.0
    while not per_pass or time.perf_counter() - t_start < seconds:
        if time.monotonic() + pair_s > deadline:
            break
        t_pair = time.perf_counter()
        tracer = Tracer()
        # alternate which pass runs first, so warm-up favours neither
        if len(per_pass) % 2 == 0:
            traced = run_pass(workload, seed, tracer)
            untraced = run_pass(workload, seed, None)
        else:
            untraced = run_pass(workload, seed, None)
            traced = run_pass(workload, seed, tracer)
        cross_check(traced.outcomes, cli_rows, result)
        cross_check(untraced.outcomes, cli_rows, result)
        per_pass.append(layer_metrics(workload, seed, traced, untraced,
                                      tracer.spans, import_s, cli_rows))
        t0 = tracer.spans[0][1] if tracer.spans else 0.0
        span_log.append([[s[0], round(s[1] - t0, 9), round(s[2] - t0, 9), s[3], s[4]]
                         for s in tracer.spans])
        last_totals = span_totals(tracer.spans)
        pair_s = time.perf_counter() - t_pair

    SPAN_DIR.mkdir(exist_ok=True)
    span_file = SPAN_DIR / f"spans-{workload.name}-seed{seed}.json"
    span_file.write_text(json.dumps({
        "workload": workload.name, "seed": seed,
        "fields": ["name", "start_s", "end_s", "parent", "cell"],
        "passes": span_log}))
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in PER_LAYER}
    notes = [f"traced passes: {len(per_pass)}; spans written to "
             f"{span_file.relative_to(ROOT)}",
             "span totals of the last traced pass (name: count, total s, self s):"]
    notes += [f"  {name}: {t['count']}, {t['s']:.4f}, {t['self_s']:.4f}"
              for name, t in sorted(last_totals.items())]
    notes += _problem_notes([result])
    attempted = cells * (1 + 2 * len(per_pass))
    return Outcome(attempted, result.failed, metrics, {}, notes)


def environment(seed: int) -> dict:
    import numpy
    import scipy
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_forced": int(BLAS_THREADS), "workload_seed": seed,
        "git_commit": commit,
        "limits": "CPUs are not pinned and the file cache is not dropped; "
                  "other tenants share the machine",
    }


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 deadline: float) -> Outcome:
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        run = per_layer if trace else end_to_end
        return run(WORKLOADS[name], seed, seconds, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report_lines(name: str, outcome: Outcome, trace: int) -> list[str]:
    units = PER_LAYER if trace else {**END_TO_END, **REPORTED_ONLY}
    values = {**outcome.metrics, **outcome.reported}
    return [f"{name:<12} {metric:<34} {values[metric]:<14.6g} {unit}"
            for metric, (unit, _) in units.items() if metric in values]


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return value


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=list(WORKLOADS))
    which.add_argument("--all", action="store_true", help="run every workload")
    p.add_argument("--seed", type=_nonnegative, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    start = time.monotonic()
    # on SIGTERM, unwind: run_child kills and reaps its child, scratch is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "regnear" / "cli.py").is_file():
        print(f"error: {SRC / 'regnear'} not found; run from a checkout of the "
              f"repository", file=sys.stderr)
        return 2
    # one BLAS thread here too, before numpy loads, for the in-process passes
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    print("env " + json.dumps(environment(args.seed)))
    print("note: the ROADMAP baseline came from another machine (default table "
          "3.5 s, import 0.85 s); perfbench/BASELINE.md holds this benchmark's "
          "baseline at the seed commit")

    names = list(WORKLOADS) if args.all else [args.workload]
    units = PER_LAYER if args.trace else END_TO_END
    outcomes = {}
    try:
        for name in names:
            deadline = time.monotonic() + RUN_LIMIT_S if args.all else start + RUN_LIMIT_S
            outcomes[name] = run_workload(name, args.seed, args.seconds, args.trace,
                                          deadline)
            for line in outcomes[name].notes:
                print(f"{name}: {line}")
    except SetupFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{'workload':<12} {'metric':<34} {'value':<14} unit")
    for name, outcome in outcomes.items():
        for line in report_lines(name, outcome, args.trace):
            print(line)
    if args.all:
        print(json.dumps({name: json.loads(o.json_line(units))
                          for name, o in outcomes.items()}))
    else:
        print(outcomes[args.workload].json_line(units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
