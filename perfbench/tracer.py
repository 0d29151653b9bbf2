"""In-process passes over a workload's cells, traced and untraced.

The traced pass calls regnear's public functions with exactly the
arguments cli.run_single and cli.cmd_distances use, and times each call
from outside: nothing inside the package changes.  K is wrapped in a
timed transform.LinearOperator and the transformed operator in a timed
adapter, so every product with K and every application of the
transformed operator is a span of its own.

The untraced pass runs the same cells through cli.run_single (or the
same distances code with no spans) and times each cell from outside.
The two passes together give the tracing overhead.
"""
from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from regnear.cli import run_single
from regnear.nearness import nearness_distance
from regnear.problems import add_noise, build_problem, relative_error
from regnear.regops import (RegularizerKind, make_nullspace_basis,
                            make_regularization_matrix, regularizer_from_name)
from regnear.solver import SolverConfig, rrgmres_solve
from regnear.transform import (LinearOperator, back_transform, k2_operator,
                               prepare_context)

from workloads import DELTA, ETA, MAX_ITER, DistCell, RunCell, Workload

NAME, START, END, PARENT, CELL = range(5)


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, cell id].

    A span without a cell id inherits its parent's.  Parent -1 marks a
    top-level span.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, cell: str | None = None):
        parent = self._open[-1] if self._open else -1
        if cell is None and parent >= 0:
            cell = self.spans[parent][CELL]
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, cell])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][END] = time.perf_counter()
            self._open.pop()


class NullTracer:
    """Records nothing; stands in for a Tracer in the untraced pass."""

    @contextmanager
    def span(self, name: str, cell: str | None = None):
        yield


def timed_matrix(tracer: Tracer, K: np.ndarray) -> LinearOperator:
    """K as a counted LinearOperator whose every product is a span."""
    K = np.asarray(K, dtype=float)

    def matvec(v):
        with tracer.span("problems.kmatvec"):
            return K @ v

    return LinearOperator(K.shape, matvec)


class TimedOperator:
    """The transformed operator, with each application recorded as a span."""

    def __init__(self, tracer: Tracer, inner):
        self._tracer = tracer
        self._inner = inner
        self.shape = inner.shape

    def matvec(self, z):
        with self._tracer.span("transform.apply"):
            return self._inner.matvec(z)

    @property
    def matvec_count(self) -> int:
        return self._inner.matvec_count


def traced_run(tracer: Tracer, base, cell) -> dict:
    """cli.run_single, call for call, with a span around each layer."""
    with tracer.span("pipeline.run", cell.id):
        with tracer.span("problems.add_noise"):
            prob = add_noise(base, cell.nu, cell.seed)
        with tracer.span("regops.compose"):
            reg = regularizer_from_name(cell.reg, prob.n, DELTA)
        op = timed_matrix(tracer, prob.K)
        with tracer.span("transform.prepare"):
            ctx = prepare_context(op, prob.b, reg)
        cfg = SolverConfig(eta=ETA, epsilon=prob.epsilon, max_iter=MAX_ITER)
        with tracer.span("solver.solve"):
            res = rrgmres_solve(TimedOperator(tracer, k2_operator(ctx)),
                                ctx.solver_rhs, cfg)
        before_back = op.matvec_count
        with tracer.span("transform.back"):
            x = back_transform(ctx, res.z)
        with tracer.span("problems.relative_error"):
            err = relative_error(x, prob.x_hat)
    return {"k": res.k, "stop_reason": res.stop_reason.value,
            "matvecs": op.matvec_count, "prepare": ctx.prepare_matvecs,
            "solve": res.solve_matvecs, "back": op.matvec_count - before_back,
            "relative_error": err}


def untraced_run(base, cell) -> dict:
    r = run_single(base, cell.nu, cell.seed, cell.reg, ETA, DELTA, MAX_ITER)
    return {"k": r.iterations, "stop_reason": r.stop_reason,
            "matvecs": r.matvecs, "prepare": r.matvecs_prepare,
            "solve": r.matvecs_solve, "back": r.matvecs_back,
            "relative_error": r.relative_error}


def distances_row(tracer, cell: DistCell) -> dict:
    """One row of cli.cmd_distances, with the same calls and formatting."""
    n = cell.n
    with tracer.span("distances.row", cell.id):
        with tracer.span("regops.assemble"):
            l2t = make_regularization_matrix(RegularizerKind.L2_TILDE, n)
            l20 = make_regularization_matrix(RegularizerKind.L2_ZERO, n)
            basis = make_nullspace_basis("N2", n)
        with tracer.span("nearness.distance"):
            d_l20 = float(np.linalg.norm(l2t - l20))
            d_two = nearness_distance(l2t, basis, symmetric=True)
            d_right = nearness_distance(l2t, basis, symmetric=False)
    return {"line": f"{n},{d_l20:.17g},{d_two:.17g},{d_right:.17g}"}


@dataclass
class PassResult:
    outcomes: dict        # cell id -> outcome dict
    cell_s: list          # wall seconds per cell, timed from outside
    total_s: float        # wall seconds of the whole pass


def run_pass(workload: Workload, seed: int, tracer: Tracer | None) -> PassResult:
    """Every cell of the workload in CLI order; traced when tracer is given.

    Problems are built once per CLI call, as the CLI builds them: once
    per table, once per solve.
    """
    trace = tracer or NullTracer()
    outcomes, cell_s = {}, []
    t_pass = time.perf_counter()
    for call in workload.calls(seed):
        first = call.cells[0]
        base = None
        if isinstance(first, RunCell):
            with trace.span("problems.build", f"build/{first.problem}/n={first.n}"):
                base = build_problem(first.problem, first.n)
        for cell in call.cells:
            t0 = time.perf_counter()
            if isinstance(cell, DistCell):
                outcomes[cell.id] = distances_row(trace, cell)
            elif tracer is None:
                outcomes[cell.id] = untraced_run(base, cell)
            else:
                outcomes[cell.id] = traced_run(tracer, base, cell)
            cell_s.append(time.perf_counter() - t0)
    return PassResult(outcomes, cell_s, time.perf_counter() - t_pass)


def span_totals(spans: list[list]) -> dict:
    """name -> {"s": total duration, "self_s": total self time, "count": spans}.

    A span's self time is its duration minus the durations of its
    direct children.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    totals: dict = {}
    for s, c in zip(spans, child):
        t = totals.setdefault(s[NAME], {"s": 0.0, "self_s": 0.0, "count": 0})
        t["s"] += s[END] - s[START]
        t["self_s"] += s[END] - s[START] - c
        t["count"] += 1
    return totals


def percentile(values: list, q: int) -> float:
    """q-th percentile by linear interpolation; the value itself for one sample."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
