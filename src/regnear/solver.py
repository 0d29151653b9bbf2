"""Range-restricted GMRES with a discrepancy-principle stop.

The Krylov space is built from powers of the operator applied to A b
rather than b itself, which keeps the iterates in the range of A and
suppresses the noise component that b carries in ill-posed problems.
Because b is generally not contained in the span of the Arnoldi basis,
the least-squares subproblem has a full projected right-hand side plus
an out-of-span remainder vector.  The subproblem is kept once, as the
Givens-rotated triangle R, its rotated right-hand side g and the
rotations (Saad 2003, section 6.5), updated as each Hessenberg column
arrives, so each iteration costs one operator application and O(k)
vector work, done as two block Gram-Schmidt passes over the basis.

There is one loop, and it runs a block of right-hand sides in lockstep
(Neuman, Reichel & Sadok 2012 on range-restricted methods with several
right-hand sides; the Krylov spaces stay separate and only the per-step
work is shared).  rrgmres_block takes an n x s block B and one
SolverConfig per column, or several operators of one order with a
block each, whose columns then run as consecutive groups of one loop.
Each step applies each operator's matmat once, to the newest basis
vectors of its columns still running, a contiguous slice of them: one
product per column, which is the paper's cost model.  rrgmres_solve is
the case s = 1 and applies A.matvec, so any object with shape and
matvec serves it.

The running columns share one state, a struct of arrays along the
column axis (_Columns): each column's basis, the remainder of b, R, g,
the rotations, its residual history and its stopping data.  R is the
only record of the singular rule, and the residual history the only
record of the log, which a column's result reads when it leaves.
Gram-Schmidt, the rotations, the norms and the stop tests run once per
step for every column.  The state grows by a chunk of steps at a time,
copying only the small arrays and never the stored basis, so max_iter
bounds the loop and not the memory; a column that stops leaves through
one take, which keeps each group's columns contiguous.  So a column's
result is the one it would get alone, to rounding, and a group's
results do not depend on the groups beside it.

One method solves the least-squares problems of any set of columns at
any step, and every iterate and residual is read through it: the
iterates of the columns that stop, those kept on request and the k = 0
stops, each combining its bases in one pass, and the misfit of a
singular column, which forms no iterate.  The regular triangles
back-substitute together.  When R is singular by linalg's rule, read
from R itself (singular_triangles), the iterate takes the minimum-norm
solution of R y = g[:k], and the residual of step k, ||A z_k - b||, is
the hypot of g[k], the remainder and the misfit ||R y - g[:k]||.

Also provides the dense Tikhonov solver used as an equivalence oracle
and a discrepancy-principle search over the Tikhonov parameter.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .errors import NoRoot, ShapeMismatch, SingularSystem
from .linalg import (checked_rhs, min_norm_lstsq_solve, singular_triangles,
                     solve_upper_triangular)

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
    """Residual history, entries (k, residual, matvecs) for k = 0..k of
    the stop, built once when a column leaves the loop.  matvecs counts
    operator applications since the solve started, so entry k of a
    transformed run reads k+1."""

    entries: list = field(default_factory=list)

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
    rotated right-hand side g.
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


def _least_squares(R: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimize ||R y - g|| for a stack of m x m rotated triangles R,
    (r, m, m), and right-hand sides g, (r, m).

    The triangles that linalg's rule (singular_triangles) reads as
    regular back-substitute together, with misfit 0; each singular one
    takes the minimum-norm least-squares solution.  Returns y, (r,
    m), and the misfits ||R y - g||.  The rotations are orthogonal, so
    this has the minimizers and the singular values of the unrotated
    (m+1, m) problem, whose residual is hypot(g_m, misfit).
    """
    singular = singular_triangles(R)
    y, misfit = np.empty(g.shape), np.zeros(len(g))
    y[~singular] = solve_upper_triangular(R[~singular], g[~singular])
    for i in np.flatnonzero(singular):
        y[i] = min_norm_lstsq_solve(R[i], g[i])
        misfit[i] = np.linalg.norm(R[i] @ y[i] - g[i])
    return y, misfit


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
    y, misfit = _least_squares(r[None, :k, :k], g[None, :k])
    return float(np.hypot(g[k], misfit[0])), y[0]


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
    when the rotated triangle is singular (see _least_squares).  With
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


def _by_group(products: list, widths: list, X: np.ndarray) -> np.ndarray:
    """(s, n): products[c] on the next widths[c] columns of the n x s
    block X, one call per group that has any, the results as the rows
    of a C-ordered array."""
    out, lo = np.empty(X.shape[::-1]), 0
    for product, m in zip(products, widths):
        if m:
            out[lo:lo + m] = product(X[:, lo:lo + m]).T
        lo += m
    return out


def _pieces(chunks: list, k: int) -> list:
    """The filled parts of the basis chunks that hold basis vectors
    0..k-1, each (s, used, n)."""
    return [c[:, :min(SIZE, k - lo)] for lo, c in zip(range(0, k, SIZE), chunks)]


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


SIZE = 8  # basis vectors per chunk


class _Columns:
    """The running columns of _lockstep, all at step k.

    Every array attribute runs along the column axis, axis 0, one entry
    per running column: its column of B (cols) and operator group,
    eta * epsilon (threshold), max_iter, ||A b|| (beta0), the remainder
    bres of b outside the basis, the residual of each step so far, res
    (s, cap) with res[:, 0] = ||b||, and the rotated least-squares
    problem: the triangle R (s, cap, cap), its right-hand side g (s,
    cap) and the cosines and sines of the rotations (s, 2, cap).  R is
    the only record of the singular rule, read by _least_squares.  The
    basis is a list of chunks of SIZE steps, each (s, SIZE, n), and
    widths counts the running columns of each group, whose columns are
    contiguous and in group order.
    """

    def __init__(self, n: int, widths: list, **arrays):
        self.__dict__.update(arrays)
        self.n, self.widths, self.chunks, self.k = n, list(widths), [], 0

    def take(self, keep: np.ndarray) -> None:
        """Keep the columns that keep marks: every array, the basis chunk
        by chunk so that it is never held twice, and the widths."""
        for name, a in list(vars(self).items()):
            if isinstance(a, np.ndarray):
                setattr(self, name, a[keep])
        for i, c in enumerate(self.chunks):
            self.chunks[i] = c[keep]
        self.widths = np.bincount(self.group, minlength=len(self.widths)).tolist()

    def grow(self) -> None:
        """Room for SIZE more steps: one more basis chunk, and R, g, the
        rotations and res in the leading corner of zero arrays that hold
        SIZE more.  Nothing stored is copied but the small state."""
        s, cap = self.cols.size, self.g.shape[1] + SIZE
        self.chunks.append(np.empty((s, SIZE, self.n)))
        for name, shape in (("R", (cap, cap)), ("g", (cap,)), ("rot", (2, cap)),
                            ("res", (cap,))):
            small, big = getattr(self, name), np.zeros((s, *shape))
            big[tuple(map(slice, small.shape))] = small
            setattr(self, name, big)

    def extend(self, k: int, v: np.ndarray, broken) -> None:
        """Store the basis vectors v_k, the rows of v, and split b along
        them: g_k = v_k . bres, and bres loses that part.  A column that
        broken marks has no new direction, so its g_k is 0 and its bres
        stays.  The explicit remainder avoids the cancellation that
        ||b||^2 - sum g_j^2 suffers when the basis captures b almost
        entirely."""
        if k % SIZE == 0:
            self.grow()
        self.chunks[k // SIZE][:, k % SIZE] = v
        self.g[:, k] = np.where(broken, 0.0, _dots(v, self.bres))
        self.bres = self.bres - self.g[:, k, None] * v

    def least_squares(self, rows, m: int) -> tuple[np.ndarray, np.ndarray]:
        """The coefficients y of the iterates z_m of the columns rows,
        (len(rows), m), and their misfits ||R y - g[:m]||, at any step
        1 <= m <= k.  The first m columns of R and g[:m] are final from
        step m on.  The regular triangles back-substitute together and
        the singular ones take the minimum-norm solve."""
        return _least_squares(self.R[rows, :m, :m], self.g[rows, :m])

    def iterates(self, rows: np.ndarray, m: int) -> np.ndarray:
        """The iterates z_m of the columns rows, (len(rows), n), at any
        step m <= k, their bases combined in one pass; m = 0 gives z = 0."""
        if m == 0:
            return np.zeros((rows.size, self.n))
        y = self.least_squares(rows, m)[0]
        return _combination((p[rows] for p in _pieces(self.chunks, m)), y)


def _lockstep(products: list, widths: list, B, cfgs: list, keep_iterates: bool) -> list:
    """RRGMRES on the columns of B side by side: the one loop behind
    rrgmres_solve and rrgmres_block.  The columns come in groups, the
    first widths[0] of B, then the next widths[1], and so on, and
    products[c](X) applies group c's operator to each column of an
    n x s' block X.  Each step calls each product once, on a contiguous
    slice of the newest basis vectors: those of its group's running
    columns.

    The running columns are all at the same step k, and their state is
    one _Columns.  A column that stops takes its iterate, and its log,
    read from its residual history, and leaves: the state takes the
    rest, which keeps each group's running columns contiguous.
    """
    n, s = B.shape
    bt = np.ascontiguousarray(B.T)          # each b as a row
    bnorm = np.sqrt(_dots(bt, bt))
    results = [None] * s
    # res starts as ||b|| alone: the k = 0 stops leave before any grow
    st = _Columns(n, widths, cols=np.arange(s), res=bnorm[:, None], bres=bt,
                  group=np.repeat(np.arange(len(products)), widths),
                  threshold=np.array([cfg.eta * cfg.epsilon for cfg in cfgs]),
                  max_iter=np.array([cfg.max_iter for cfg in cfgs]),
                  R=np.zeros((s, 0, 0)), g=np.zeros((s, 0)), rot=np.zeros((s, 2, 0)))

    def leave(stops: list, applies: int) -> bool:
        """The running columns that a mask of stops, a list of (mask,
        StopReason) pairs, marks take their results at step k, each with
        the reason of the first mask that marks it and the log of its
        residuals res[:k + 1], and leave.  True when no column is left."""
        done = np.logical_or.reduce([mask for mask, _ in stops])
        if not done.any():
            return False
        rows = np.flatnonzero(done)
        z = st.iterates(rows, st.k)
        kept = [st.iterates(rows, m) for m in range(1, st.k + 1)] if keep_iterates else None
        history = st.res[rows, :st.k + 1].tolist()
        for j, i in enumerate(rows.tolist()):
            results[int(st.cols[i])] = RRGMRESResult(
                z=z[j], k=st.k, residual=history[j][-1],
                stop_reason=next(reason for mask, reason in stops if mask[i]),
                log=IterationLog([(m, r, m + (m > 0)) for m, r in enumerate(history[j])]),
                solve_matvecs=applies,
                iterates=None if kept is None else [zm[j] for zm in kept])
        st.take(~done)
        return st.cols.size == 0

    if leave([(bnorm <= st.threshold, StopReason.INITIAL_RESIDUAL_OK)], 0):
        return results
    ab = _by_group(products, st.widths, B[:, st.cols])
    st.beta0 = np.sqrt(_dots(ab, ab))
    # A b vanished: the range-restricted space is empty
    empty = st.beta0 <= BREAKDOWN_TOL * st.res[:, 0]
    if leave([(empty, StopReason.BREAKDOWN)], 1):
        return results
    st.extend(0, ab[~empty] / st.beta0[:, None], False)

    for k in itertools.count(1):  # every column leaves by its max_iter
        j = k - 1
        w = _by_group(products, st.widths, st.chunks[j // SIZE][:, j % SIZE].T)
        pieces = _pieces(st.chunks, k)
        # classical Gram-Schmidt in two block passes (CGS2); the second,
        # unconditional pass keeps the basis orthogonal to working precision
        h = _coefficients(pieces, w)
        w = w - _combination(pieces, h)
        corr = _coefficients(pieces, w)
        w = w - _combination(pieces, corr)
        del pieces  # no view of the basis outlives the step's take
        hkk = np.sqrt(_dots(w, w))
        hcol = np.concatenate(((h + corr).T, hkk[None]))

        # the basis of a column whose new direction vanishes cannot grow
        broken = hkk <= BREAKDOWN_TOL * st.beta0 / st.res[:, 0]
        st.extend(k, w / np.where(broken, 1.0, hkk)[:, None], broken)
        _rotate_in(st.rot.transpose(1, 2, 0), hcol, st.g.T)
        st.R[:, :k, j], st.k = hcol[:k].T, k

        residual = np.hypot(st.g[:, k], np.sqrt(_dots(st.bres, st.bres)))
        rows = np.flatnonzero(singular_triangles(st.R[:, :k, :k]))
        if rows.size:
            # ||A z_k - b||^2 = g_k^2 + ||bres||^2 + misfit^2
            residual[rows] = np.hypot(residual[rows], st.least_squares(rows, k)[1])
        st.res[:, k] = residual
        if leave([(residual <= st.threshold, StopReason.DISCREPANCY_MET),
                  (broken, StopReason.BREAKDOWN), (k >= st.max_iter, StopReason.MAX_ITER)],
                 k + 1):
            return results


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
