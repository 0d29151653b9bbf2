"""Range-restricted GMRES with a discrepancy-principle stop.

The Krylov space is built from powers of the operator applied to A b
rather than b itself, which keeps the iterates in the range of A and
suppresses the noise component that b carries in ill-posed problems.
Because b is generally not contained in the span of the Arnoldi basis,
the least-squares subproblem has a full projected right-hand side plus
an out-of-span remainder vector.  The subproblem is kept once, as the
Givens-rotated triangle R, its rotated right-hand side g and the
rotations, updated as each Hessenberg column arrives, so each iteration
costs one operator application and O(k) vector work, done as two block
Gram-Schmidt passes over the basis.  Every iterate, residual and
fallback is read from that state.  When R is singular by linalg's rule
(triangle_is_singular), the iterate takes the minimum-norm solution of
R y = g[:k], and the residual of step k, ||A z_k - b||, is the hypot
of g[k], the remainder and the misfit ||R y - g[:k]||.

There is one loop, and it runs a block of right-hand sides in lockstep
(Neuman, Reichel & Sadok 2012 on range-restricted methods with several
right-hand sides; the Krylov spaces stay separate and only the per-step
work is shared).  rrgmres_block takes an n x s block B and one
SolverConfig per column, or several operators of one order with a
block each, whose columns then run as consecutive groups of one loop.
Each step applies each operator's matmat once, to the newest basis
vectors of its columns still running, a contiguous slice of them: one
product per column, which is the paper's cost model.  Gram-Schmidt, the
rotations, the norms, the stop tests and the compaction run once per
step for every group.  Each column keeps its own basis, R, g, rotations,
log and stop reason, and leaves the loop when it stops, so its result
is the one it would get alone, to rounding, and a group's results do
not depend on the groups beside it.  The columns that stop at one step
share one back substitution and one basis combination.  rrgmres_solve
is the case s = 1 and applies A.matvec, so any object with shape and
matvec serves it.  The basis grows in chunks of a few steps, with no
copy of what is stored, so max_iter bounds the loop and not the memory.

Also provides the dense Tikhonov solver used as an equivalence oracle
and a discrepancy-principle search over the Tikhonov parameter.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .errors import NoRoot, ShapeMismatch, SingularSystem, SingularTriangular
from .linalg import (checked_rhs, min_norm_lstsq_solve, solve_upper_triangular,
                     triangle_is_singular)

# A new Krylov direction, made from a unit vector, shorter than this
# fraction of ||A b|| / ||b|| ends the basis; the same test, with ||A b||
# against ||b||, rejects a vanishing A b.  Both sides scale alike with A
# and neither depends on the scale of b.
BREAKDOWN_TOL = 1e-14


class StopReason(str, Enum):
    DISCREPANCY_MET = "DISCREPANCY_MET"
    MAX_ITER = "MAX_ITER"
    BREAKDOWN = "BREAKDOWN"
    INITIAL_RESIDUAL_OK = "INITIAL_RESIDUAL_OK"


@dataclass
class SolverConfig:
    """Stopping controls.  epsilon is the noise norm the discrepancy
    principle compares against; eta is the safety factor above it."""

    eta: float = 1.01
    epsilon: float = 0.0
    max_iter: int = 100

    def __post_init__(self):
        if not 1.0 < self.eta < np.inf:
            raise ValueError(f"eta must be finite and exceed 1, got {self.eta!r}")
        if not 0.0 <= self.epsilon < np.inf:
            raise ValueError(f"epsilon must be finite and nonnegative, got {self.epsilon!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter!r}")


@dataclass
class IterationLog:
    """Residual history.  matvecs counts operator applications since the
    solve started, so entry k of a transformed run reads k+1."""

    entries: list = field(default_factory=list)

    def record(self, k: int, residual: float, matvecs: int) -> None:
        self.entries.append((int(k), float(residual), int(matvecs)))

    def residuals(self) -> list:
        return [r for _, r, _ in self.entries]


@dataclass(eq=False)
class RRGMRESResult:
    z: np.ndarray
    k: int
    residual: float
    stop_reason: StopReason
    log: IterationLog
    solve_matvecs: int
    iterates: Optional[list] = None


def _apply_rotation(cs, sn, a, b):
    return cs * a + sn * b, -sn * a + cs * b


def _make_rotation(a, b):
    # elementwise over a batch; a zero pair takes the identity rotation
    r = np.hypot(a, b)
    zero = r == 0.0
    safe = np.where(zero, 1.0, r)
    return np.where(zero, 1.0, a / safe), b / safe, r


def _rotate_in(rot: np.ndarray, col: np.ndarray, g: np.ndarray):
    """Rotate column j of a Hessenberg matrix into triangular form, for a
    batch of problems side by side.

    Axis 0 of each array runs down the column; any further axes are the
    batch.  col holds the column's j + 2 leading entries and is
    overwritten with the rotated ones.  rot[0, :j] and rot[1, :j] hold
    the cosines and sines of the earlier rotations; the new rotation is
    written to rot[:, j] and applied to entries j and j + 1 of the
    rotated right-hand side g.  Returns the new diagonal entry and the
    largest magnitude in the rotated column, the two numbers the
    singular-triangle rule reads.
    """
    j = col.shape[0] - 2
    c = list(col)
    for i in range(j):
        c[i], c[i + 1] = _apply_rotation(rot[0, i], rot[1, i], c[i], c[i + 1])
    cs, sn, rr = _make_rotation(c[j], c[j + 1])
    rot[0, j], rot[1, j] = cs, sn
    col[:j + 1] = c[:j] + [rr]
    col[j + 1] = 0.0
    g[j], g[j + 1] = _apply_rotation(cs, sn, g[j], g[j + 1])
    return rr, np.abs(col).max(axis=0)


def _solve_rotated(tri: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimize ||tri y - rhs|| for the k x k rotated triangle.

    Returns the minimizer and the misfit ||tri y - rhs||.  A nonsingular
    triangle back-substitutes, with misfit 0; one that
    solve_upper_triangular judges singular takes the minimum-norm
    least-squares solution.  The rotations are orthogonal, so this has
    the minimizers and the singular values of the unrotated (k+1, k)
    problem, whose residual is hypot(g[k], misfit).
    """
    try:
        return solve_upper_triangular(tri, rhs), 0.0
    except SingularTriangular:
        y = min_norm_lstsq_solve(tri, rhs)
        return y, float(np.linalg.norm(tri @ y - rhs))


def hessenberg_residual(h: np.ndarray, beta: float) -> tuple[float, np.ndarray]:
    """Residual and minimizer of ||beta e1 - h y|| for (k+1, k) Hessenberg h.

    h is rotated into a triangle R with right-hand side g; the residual
    is hypot(g[k], ||R y - g[:k]||), and the misfit term is nonzero only
    when R is singular and y is the minimum-norm least-squares solution.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1] + 1:
        raise ShapeMismatch(f"expected (k+1, k) Hessenberg block, got {h.shape}")
    k = h.shape[1]
    r = h.copy()
    g = np.zeros(k + 1)
    g[0] = float(beta)
    rot = np.zeros((2, k))
    for j in range(k):
        _rotate_in(rot, r[:j + 2, j], g)
    y, misfit = _solve_rotated(r[:k, :k], g[:k])
    return float(np.hypot(g[k], misfit)), y


def _square(A) -> int:
    m, n = A.shape
    if m != n:
        raise ShapeMismatch(f"operator must be square, got shape {(m, n)}")
    return n


def rrgmres_solve(A, b: np.ndarray, cfg: SolverConfig,
                  keep_iterates: bool = False) -> RRGMRESResult:
    """Iterate on the square operator A until the discrepancy principle
    is satisfied, the basis breaks down, or max_iter is reached.

    The one-column case of rrgmres_block: A needs shape and matvec
    alone.  Iteration k costs one application of A; the initial Krylov
    seed A b costs one more.  A zero starting guess is implicit: the
    k = 0 entry of the log is ||b||, and if that already meets the
    discrepancy test no operator application happens at all.  The log
    and solve_matvecs count the calls of A.matvec made here and nothing
    else.  A b with non-finite entries raises ValueError before any call.

    The residual logged at step k, compared with eta * epsilon and
    returned, is ||A z_k - b|| of the iterate z_k of that step, also
    when the rotated triangle is singular (see _solve_rotated).  With
    keep_iterates the iterates of every step are returned as well.
    """
    b = checked_rhs(b, _square(A))
    (res,) = _lockstep([lambda X: A.matvec(X[:, 0])[:, None]], [1], b[:, None],
                       [cfg], keep_iterates)
    return res


def rrgmres_block(A, B, cfgs, keep_iterates: bool = False) -> list:
    """rrgmres_solve for each column of the n x s block B, column j with
    cfgs[j], the s runs side by side.

    A may also be a list of operators of one order, with B a list of
    blocks, one per operator: each block's columns run with its
    operator, all of them in the one loop, and cfgs and the results
    follow the columns of the blocks in order.  Each step applies each
    operator's matmat once, to the block of the newest basis vectors of
    its columns still running, so a product with K serves them all.
    Each column keeps its own basis, rotated triangle, rotations, log
    and stop, and leaves the loop when it stops.  Its result is
    rrgmres_solve's for that column alone, to rounding, and the result
    of a block does not depend on the blocks run beside it: its
    solve_matvecs and log count the block columns it took part in, and
    each operator's own count rises by the sum over its columns.
    """
    if not isinstance(A, (list, tuple)):
        A, B = [A], [B]
    if len(A) != len(B) or len({_square(a) for a in A}) != 1:
        raise ShapeMismatch(f"{len(B)} blocks for {len(A)} operators, or orders differ")
    blocks = [checked_rhs(b, _square(A[0]), block=True) for b in B]
    B, cfgs = np.concatenate(blocks, axis=1), list(cfgs)
    if len(cfgs) != B.shape[1]:
        raise ShapeMismatch(f"{B.shape[1]} right-hand sides but {len(cfgs)} configs")
    return _lockstep([a.matmat for a in A], [b.shape[1] for b in blocks], B, cfgs,
                     keep_iterates)


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (s, n) arrays, each one BLAS dot."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _by_group(products: list, group: np.ndarray, X: np.ndarray) -> np.ndarray:
    """(s, n): products[c] on the columns of the n x s block X that group
    marks c, a contiguous run of them for each c, one call per run, the
    results as the rows of a C-ordered array."""
    out = np.empty(X.shape[::-1])
    for c, lo, m in zip(*np.unique(group, return_index=True, return_counts=True)):
        out[lo:lo + m] = products[c](X[:, lo:lo + m]).T
    return out


def _pieces(chunks: list, k: int) -> list:
    """The filled parts of the basis chunks that hold basis vectors
    0..k-1, each (s, used, n)."""
    size = chunks[0].shape[1]
    return [c[:, :min(size, k - lo)] for lo, c in zip(range(0, k, size), chunks)]


def _coefficients(pieces: list, w: np.ndarray) -> np.ndarray:
    """(s, k): each seed's basis vectors against its row of w, one GEMV
    per seed and chunk."""
    return np.concatenate([np.matmul(p, w[:, :, None]) for p in pieces], axis=1)[:, :, 0]


def _combination(pieces, y: np.ndarray) -> np.ndarray:
    """(s, n): each seed's basis vectors combined with its row of y.
    pieces may be a generator, read once."""
    out, lo = None, 0
    for p in pieces:
        term = np.matmul(y[:, None, lo:lo + p.shape[1]], p)[:, 0]
        out = term if out is None else out + term
        lo += p.shape[1]
    return out


def _enlarged(a: np.ndarray, shape: tuple) -> np.ndarray:
    """a in the leading corner of a zero array of the given shape."""
    out = np.zeros(shape)
    out[tuple(slice(d) for d in a.shape)] = a
    return out


def _lockstep(products: list, widths: list, B, cfgs: list, keep_iterates: bool) -> list:
    """RRGMRES on the columns of B side by side: the one loop behind
    rrgmres_solve and rrgmres_block.  The columns come in groups, the
    first widths[0] of B, then the next widths[1], and so on, and
    products[c](X) applies group c's operator to each column of an
    n x s' block X.  Each step calls each product once, on a contiguous
    slice of the newest basis vectors: those of its group's running
    columns.

    The running columns are all at the same step k.  Their state runs
    along a column axis: axis 0 of the basis, of bres, of the rotated
    triangle R and of the per-column numbers, the last axis of g and the
    rotations.  The basis is kept in chunks of a few steps, each
    allocated when the iteration reaches it, so no step copies the
    basis and max_iter only bounds the loop; the small state grows by
    the same number of steps.  A column that stops takes its iterate
    and leaves, and every array drops its slice, which keeps each
    group's running columns contiguous.
    """
    n, s = B.shape
    bt = np.ascontiguousarray(B.T)          # each b as a row
    bnorm = np.sqrt(_dots(bt, bt))
    threshold = np.array([cfg.eta * cfg.epsilon for cfg in cfgs])
    max_iter = np.array([cfg.max_iter for cfg in cfgs])
    group = np.repeat(np.arange(len(products)), widths)
    logs = [IterationLog() for _ in range(s)]
    for log, r in zip(logs, bnorm.tolist()):
        log.record(0, r, 0)
    results = [None] * s

    def stop_at_zero(stopped, reason: StopReason, applies: int) -> None:
        for c in stopped:
            results[c] = RRGMRESResult(
                z=np.zeros(n), k=0, residual=float(bnorm[c]), stop_reason=reason,
                log=logs[c], solve_matvecs=applies,
                iterates=[] if keep_iterates else None)

    met = bnorm <= threshold
    stop_at_zero(np.flatnonzero(met), StopReason.INITIAL_RESIDUAL_OK, 0)
    cols = np.flatnonzero(~met)             # the running columns of B
    if cols.size == 0:
        return results
    ab = _by_group(products, group[cols], B[:, cols])
    beta0 = np.sqrt(_dots(ab, ab))
    # A b vanished: the range-restricted space is empty
    empty = beta0 <= BREAKDOWN_TOL * bnorm[cols]
    stop_at_zero(cols[empty], StopReason.BREAKDOWN, 1)
    if empty.all():
        return results
    cols, ab, beta0 = cols[~empty], ab[~empty], beta0[~empty]
    bnorm, threshold, max_iter, group = (a[cols] for a in (bnorm, threshold, max_iter, group))

    size = 8  # basis vectors per chunk
    v0 = ab / beta0[:, None]
    chunks = [np.empty((cols.size, size, n))]
    chunks[0][:, 0] = v0
    g = np.zeros((size + 1, cols.size))     # rotated right-hand sides
    g[0] = _dots(v0, bt[cols])
    # split b into basis projections and an explicit remainder vector;
    # keeping the remainder avoids the cancellation that ||b||^2 - sum c_j^2
    # suffers when the basis captures b almost entirely
    bres = bt[cols] - g[0][:, None] * v0
    rot = np.zeros((2, size, cols.size))
    rmat = np.zeros((cols.size, size, size))
    # smallest diagonal entry and largest entry of each triangle so far;
    # columns of R are final once rotated in, and so are these
    dmin, rmax = np.full(cols.size, np.inf), np.zeros(cols.size)

    def solve(i: int, k: int) -> tuple[np.ndarray, float]:
        # the first k columns of R and g[:k] are final from step k on, so
        # the iterate of step k can be read at any later point
        return _solve_rotated(np.ascontiguousarray(rmat[i, :k, :k]),
                              np.ascontiguousarray(g[:k, i]))

    def iterate(i: int, k: int) -> np.ndarray:
        basis = [p[i:i + 1] for p in _pieces(chunks, k)]
        return _combination(basis, solve(i, k)[0][None])[0]

    for k in itertools.count(1):  # every column leaves by its max_iter
        j = k - 1
        w = _by_group(products, group, chunks[j // size][:, j % size].T)
        pieces = _pieces(chunks, k)
        # classical Gram-Schmidt in two block passes (CGS2); the second,
        # unconditional pass keeps the basis orthogonal to working precision
        h = _coefficients(pieces, w)
        w = w - _combination(pieces, h)
        corr = _coefficients(pieces, w)
        w = w - _combination(pieces, corr)
        hkk = np.sqrt(_dots(w, w))
        hcol = np.concatenate(((h + corr).T, hkk[None]))
        if k > rmat.shape[1]:
            cap = rmat.shape[1] + size
            rmat = _enlarged(rmat, (cols.size, cap, cap))
            g = _enlarged(g, (cap + 1, cols.size))
            rot = _enlarged(rot, (2, cap, cols.size))

        # a column whose basis cannot grow has no part of b along the
        # direction that does not exist: its c_k is 0 and bres stays
        broken = hkk <= BREAKDOWN_TOL * beta0 / bnorm
        vnew = w / np.where(broken, 1.0, hkk)[:, None]
        if k % size == 0:
            chunks.append(np.empty((cols.size, size, n)))
        chunks[k // size][:, k % size] = vnew
        g[k] = np.where(broken, 0.0, _dots(vnew, bres))
        bres = bres - g[k][:, None] * vnew
        diag, cmax = _rotate_in(rot, hcol, g)
        rmat[:, :k, j] = hcol[:k].T
        dmin, rmax = np.minimum(dmin, diag), np.maximum(rmax, cmax)

        residual = np.hypot(g[k], np.sqrt(_dots(bres, bres)))
        for i in np.flatnonzero(triangle_is_singular(dmin, rmax)):
            # ||A z_k - b||^2 = g_k^2 + ||bres||^2 + misfit^2
            residual[i] = np.hypot(residual[i], solve(i, k)[1])
        for c, r in zip(cols.tolist(), residual.tolist()):
            logs[c].record(k, r, k + 1)

        met = residual <= threshold
        done = met | broken | (k >= max_iter)
        if not done.any():
            continue
        # the columns that stop share k: those whose triangles are regular
        # by the running dmin and rmax back-substitute together and
        # combine their bases in one pass; a singular one takes
        # _solve_rotated's minimum-norm path
        leaving = np.flatnonzero(done)
        regular = leaving[~triangle_is_singular(dmin[leaving], rmax[leaving])]
        y = solve_upper_triangular(rmat[regular, :k, :k], g[:k, regular].T)
        zs = dict(zip(regular.tolist(), _combination((p[regular] for p in pieces), y)))
        for i in leaving.tolist():
            stop = (StopReason.DISCREPANCY_MET if met[i] else
                    StopReason.BREAKDOWN if broken[i] else StopReason.MAX_ITER)
            results[cols[i]] = RRGMRESResult(
                z=zs[i] if i in zs else iterate(i, k), k=k, residual=float(residual[i]),
                stop_reason=stop, log=logs[cols[i]], solve_matvecs=k + 1,
                iterates=([iterate(i, m) for m in range(1, k + 1)]
                          if keep_iterates else None))
        keep = ~done
        if not keep.any():
            return results
        # chunk by chunk, so the basis is never held twice
        pieces = None
        for ci in range(len(chunks)):
            chunks[ci] = chunks[ci][keep]
        cols, beta0, bnorm, threshold, max_iter, group, bres, dmin, rmax, rmat = (
            a[keep] for a in (cols, beta0, bnorm, threshold, max_iter, group, bres,
                              dmin, rmax, rmat))
        g, rot = g[:, keep], rot[..., keep]


def tikhonov_direct_oracle(K: np.ndarray, L: np.ndarray, b: np.ndarray,
                           mu: float) -> np.ndarray:
    """Dense normal-equations solve of min ||K x - b||^2 + mu ||L x||^2.

    Used as the ground truth the transformation must reproduce; never on
    the fast path.
    """
    K = np.asarray(K, dtype=float)
    L = np.asarray(L, dtype=float)
    b = np.asarray(b, dtype=float)
    if K.ndim != 2 or L.ndim != 2 or K.shape[1] != L.shape[1]:
        raise ShapeMismatch("K and L must share their column count")
    if b.shape != (K.shape[0],):
        raise ShapeMismatch("right-hand side length must match K's row count")
    if mu < 0.0:
        raise ValueError(f"mu must be nonnegative, got {mu!r}")
    # imported here, not at module level: the CLI never calls this
    # oracle, and scipy would add about 0.4 s to every CLI start
    import scipy.linalg

    a = K.T @ K + mu * (L.T @ L)
    try:
        factor = scipy.linalg.cho_factor(a)
    except scipy.linalg.LinAlgError as exc:
        raise SingularSystem("normal equations are singular; the null spaces of "
                             "K and L intersect") from exc
    return scipy.linalg.cho_solve(factor, K.T @ b)


def discrepancy_mu_solve(K: np.ndarray, L: np.ndarray, b: np.ndarray,
                         epsilon: float, eta: float = 1.01,
                         mu_lo: float = 1e-14, mu_hi: float = 1e6,
                         rtol: float = 1e-10) -> tuple[float, np.ndarray]:
    """Find mu with ||K x_mu - b|| = eta * epsilon by bisection in log mu.

    The residual norm grows monotonically with mu, so a sign change of
    the bracket pins the root.  Raises NoRoot when no bracket exists
    (noise level below the best attainable residual, or above ||b||).
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    target = eta * epsilon

    def gap(log_mu: float) -> float:
        x = tikhonov_direct_oracle(K, L, b, float(np.exp(log_mu)))
        return float(np.linalg.norm(K @ x - b)) - target

    lo, hi = float(np.log(mu_lo)), float(np.log(mu_hi))
    flo, fhi = gap(lo), gap(hi)
    grow = 0
    while flo > 0.0 and grow < 8:
        lo -= 10.0
        flo = gap(lo)
        grow += 1
    grow = 0
    while fhi < 0.0 and grow < 8:
        hi += 10.0
        fhi = gap(hi)
        grow += 1
    if flo > 0.0 or fhi < 0.0:
        raise NoRoot("discrepancy level is not bracketed by any mu")
    # imported here, not at module level: this oracle is the only user of
    # scipy.optimize, which would add about 0.3 s to every CLI start
    import scipy.optimize

    root = scipy.optimize.brentq(gap, lo, hi, xtol=1e-12, rtol=max(rtol, 1e-15))
    mu = float(np.exp(root))
    return mu, tikhonov_direct_oracle(K, L, b, mu)
