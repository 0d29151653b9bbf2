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
Each step applies each operator's matvec once, to the block of the
newest basis vectors of its columns still running, a contiguous slice
of them: one product per column, which is the paper's cost model.  So
an operator takes an n x s block in matvec, as LinearOperator and the
standard-form context do.  rrgmres_solve is rrgmres_block on one
column, so its operator's matvec takes an n x 1 block too, and the loop
applies an operator in one way only.

The running columns share one state, a struct of arrays along the column
axis (_Columns): each column's basis, the remainder of b, R, g, the
rotations, R^-1, its residual history and its stopping data.  R is the
only record of the singular rule and the residual history the only
record of the log, both of which a column's result reads when it leaves.
Gram-Schmidt, the rotations, the update of R^-1, the norms and the stop
tests run once per step for every column.  The state grows by a chunk of
steps at a time, copying only the small arrays and never the stored
basis, so max_iter bounds the loop and not the memory; a column that
stops leaves through one take, which keeps each group's columns
contiguous.  So a column's result is the one it would get alone, to
rounding, and a group's results do not depend on the groups beside it.

A column of B whose largest entry lies outside [2**-400, 2**400]
(linalg.LARGE) runs scaled by a power of two, with its epsilon
(linalg.scale_exponents), so that the squares of b neither overflow
nor underflow; so does its operator, where the product A b lies outside
that range: every product of the column is scaled by the power of two
that brings A b into [1/2, 1).  Its iterates and residuals are scaled
back when it leaves.  Every step is homogeneous in b and in A, the test
of a vanishing A b, A b = 0, included, so the scaled run is the plain
one to the bit, scaled, wherever the plain one does not overflow or
underflow.  Each product is read once where it enters the loop
(_by_group): a non-finite entry raises ValueError before any arithmetic
on it can warn.

An iterate gets its least-squares solution y in one place,
_Columns.iterates: y solves step m's triangle R[:m, :m] against g[:m]
(_least_squares), which no later step changes, and the bases of the
columns it serves combine with it in one pass (m = 0 gives z = 0).  The
columns that stop at step k take z_k from it, and with keep_iterates
every z_m, m <= k, of which z_k is the last; so each kept iterate is
the one a run stopped at step m returns, bit for bit.  Like GMRES
(Saad 2003, section 6.5), the loop reads each residual from g, so a
step solves a triangle only for the misfit of a near-singular one.  The
state keeps R^-1 beside R, one column a step, -R^-1 r / rho above the
diagonal and 1 / rho on it (one batched product), with running
||R^-1||_F and max |R|.  A triangle with NEAR_SINGULAR_TOL rmax
||R^-1||_F at or below MARGIN, a margin below 1, passes the length test
below unsolved, as ||y|| <= ||R^-1||_F ||g||: its misfit is 0, and the
step does not solve it.  The other triangles, and those whose R^-1 has
left the float range, are solved at the step for their misfit, and a
column among them that leaves solves its triangle again for its
iterate.  A triangle's solve does not depend on the stack it is in, and
on a cleared triangle neither rule below fires, so _least_squares gives
it the back substitution and the bound moves no bit.  A triangle is
near singular when linalg's rule at NEAR_SINGULAR_TOL = sqrt(u) holds
for it (singular_triangles, read from R itself), or when its
back-substituted y is longer than ||g|| / (NEAR_SINGULAR_TOL rmax),
which finds a singular value that R hides far below its smallest
diagonal entry.  Back substitution there gives a y so large that the
rounding of z = V y and of A z outweighs the residual it would be logged
with (Brown & Walker 1997 on GMRES for nearly singular systems).  So
such a triangle takes the minimum-norm solution of R y = g[:k] on its
singular values above NEAR_SINGULAR_TOL times the largest, and the
residual of step k, ||A z_k - b||, is the hypot of g[k], the remainder
and the misfit ||R y - g[:k]||.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .errors import ShapeMismatch
from .linalg import (NEAR_SINGULAR_TOL, _as_float_array, back_substitute, checked_rhs, dots,
                     scale_exponents, scaled_back, singular_triangles)

# A new Krylov direction, made from a unit vector, shorter than this
# fraction of ||A b|| / ||b|| ends the basis: both sides scale alike with
# A, and neither depends on the scale of b.  A b itself vanishes only
# where it is 0, a test that no power of two on A or b can move.
BREAKDOWN_TOL = 1e-14
# A triangle R with NEAR_SINGULAR_TOL rmax ||R^-1||_F at or below this
# margin passes the length test of _least_squares without being solved:
# ||y|| <= ||R^-1||_F ||g||, and the margin below 1 absorbs the rounding
# of R^-1, of y and of both norms, each of relative size about
# cond(R) u <= MARGIN sqrt(u)
MARGIN = 0.5


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
        if (not isinstance(self.max_iter, (int, np.integer)) or isinstance(self.max_iter, bool)
                or self.max_iter < 1):
            raise ValueError(f"max_iter must be an integer of at least 1, got {self.max_iter!r}")


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
    for i, cs, sn in zip(range(j), rot[0], rot[1]):
        a, b = c[i], c[i + 1]
        c[i], c[i + 1] = cs * a + sn * b, cs * b - sn * a
    cs, sn, rr = _make_rotation(c[j], c[j + 1])
    rot[0, j], rot[1, j] = cs, sn
    col[:j + 1] = c[:j] + [rr]
    col[j + 1] = 0.0
    a, b = g[j], g[j + 1]
    g[j], g[j + 1] = cs * a + sn * b, cs * b - sn * a


def _least_squares(R: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimize ||R y - g|| for a stack of m x m rotated triangles R,
    (r, m, m), and right-hand sides g, (r, m).

    The triangles that linalg's rule at NEAR_SINGULAR_TOL
    (singular_triangles) reads as regular back-substitute together, with
    misfit 0: back_substitute reads no rule again, and the loop has
    already read every product that entered R and g as finite.  Each
    near-singular one, by that rule or by a y longer than ||g|| /
    (NEAR_SINGULAR_TOL rmax), takes LAPACK's minimum-norm least-squares
    solution (np.linalg.lstsq) on its singular values above
    NEAR_SINGULAR_TOL times the largest.  Returns y, (r, m), and the
    misfits ||R y - g||.  The rotations are orthogonal, so this has the
    minimizers and the singular values of the unrotated (m+1, m)
    problem, whose residual is hypot(g_m, misfit).
    """
    near = singular_triangles(R, NEAR_SINGULAR_TOL)
    y, misfit = np.zeros(g.shape), np.zeros(len(g))
    y[~near] = back_substitute(R[~near], g[~near])
    rmax = np.abs(R).max(axis=(1, 2), initial=0.0)
    near |= NEAR_SINGULAR_TOL * rmax * np.linalg.norm(y, axis=1) > np.linalg.norm(g, axis=1)
    for i in np.flatnonzero(near):
        y[i] = np.linalg.lstsq(R[i], g[i], rcond=NEAR_SINGULAR_TOL)[0]
        misfit[i] = np.linalg.norm(R[i] @ y[i] - g[i])
    return y, misfit


def _square(A) -> int:
    m, n = A.shape
    if m != n:
        raise ShapeMismatch(f"operator must be square, got shape {(m, n)}")
    return n


def rrgmres_solve(A, b: np.ndarray, cfg: SolverConfig,
                  keep_iterates: bool = False) -> RRGMRESResult:
    """Iterate on the square operator A until the discrepancy principle
    is satisfied, the basis breaks down, or max_iter is reached.

    rrgmres_block on b as an n x 1 block: A needs shape and a matvec
    that takes such a block.  Iteration k costs one application of A;
    the initial Krylov seed A b costs one more.  A zero starting guess
    is implicit: the k = 0 entry of the log is ||b||, and if that
    already meets the discrepancy test no operator application happens
    at all.  The log and solve_matvecs count the calls of A.matvec made
    here and nothing else.  A b with non-finite entries raises
    ValueError before any call, and so does a product of A with one,
    as it comes back.  A b whose largest entry lies outside
    [1/linalg.LARGE, linalg.LARGE] runs scaled by a power of two, with
    epsilon, and so do the products of A where A b lies outside that
    range; the results are scaled back, and OutOfRange is raised when
    one of them, such as ||b||, is beyond the float range.

    The residual logged at step k, compared with eta * epsilon and
    returned, is ||A z_k - b|| of the iterate z_k of that step, also
    when the rotated triangle is near singular (see _least_squares).  With
    keep_iterates the iterates of every step are returned as well.
    """
    return rrgmres_block(A, checked_rhs(b, _square(A))[:, None], [cfg], keep_iterates)[0]


def rrgmres_block(A, B, cfgs, keep_iterates: bool = False) -> list:
    """rrgmres_solve for each column of the n x s block B, column j with
    cfgs[j], the s runs side by side.

    A may also be a list of operators of one order, with B a list of
    blocks, one per operator: each block's columns run with its
    operator, all of them in the one loop, and cfgs and the results
    follow the columns of the blocks in order.  Each step applies each
    operator's matvec once, to the n x s' block of the newest basis
    vectors of its columns still running, so a product with K serves
    them all.  Each column keeps its own basis, rotated triangle,
    rotations, log and stop, and leaves the loop when it stops.  Its
    result is rrgmres_solve's for that column alone, to rounding, and
    the result of a block does not depend on the blocks run beside it:
    its solve_matvecs and log count the block columns it took part in,
    and each operator's own count rises by the sum over its columns.
    """
    if not isinstance(A, (list, tuple)):
        A, B = [A], [B]
    if len(A) != len(B) or len({_square(a) for a in A}) != 1:
        raise ShapeMismatch(f"{len(B)} blocks for {len(A)} operators, or orders differ")
    blocks = [checked_rhs(b, _square(A[0]), block=True) for b in B]
    B, cfgs = np.concatenate(blocks, axis=1), list(cfgs)
    if len(cfgs) != B.shape[1]:
        raise ShapeMismatch(f"{B.shape[1]} right-hand sides but {len(cfgs)} configs")
    return _lockstep(A, [b.shape[1] for b in blocks], B, cfgs, keep_iterates)


def _by_group(ops: list, widths: list, X: np.ndarray, e: np.ndarray) -> np.ndarray:
    """(s, n): ops[c].matvec on the next widths[c] columns of the n x s
    block X, one call per group that has any, the results as the rows
    of a C-ordered array, row i scaled by 2**-e[i].  Every product
    enters the loop here and is read once, before any arithmetic:
    linalg's finiteness rule raises ValueError for a non-finite entry."""
    out, lo = np.empty(X.shape[::-1]), 0
    for op, m in zip(ops, widths):
        if m:
            out[lo:lo + m] = op.matvec(X[:, lo:lo + m]).T
        lo += m
    out = _as_float_array(out, "operator product")
    return np.ldexp(out, -e[:, None], out=out) if e.any() else out


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
    per running column: its column of B (cols) and operator group, the
    exponents of the powers of two that scaled it (scale) and its
    operator's products (ascale), the scaled eta * epsilon (threshold),
    max_iter, the scaled ||A b|| (beta0), the remainder bres of b
    outside the basis, the residual of each step so far, res (s, cap)
    with res[:, 0] = ||b||, and the rotated least-squares problem: the
    triangle R (s, cap, cap), its right-hand side g (s, cap) and the
    cosines and sines of the rotations (s, 2, cap).  Beside
    R run its inverse Rinv (s, cap, cap), the square of ||R^-1||_F
    (rinv2) and max |R| (rmax), each grown by one column a step and
    non-finite, quietly, once R^-1 leaves the float range; they serve
    only the bound that spares a triangle its solve at the step
    (MARGIN).  R is the only record of the singular rule, read by
    _least_squares, and no least-squares solution y is kept: iterates
    solves y from R and g where it forms an iterate.  The basis is a
    list of chunks of SIZE steps, each (s, SIZE, n), and widths counts
    the running columns of each group, whose columns are contiguous and
    in group order.
    """

    def __init__(self, n: int, widths: list, **arrays):
        s = sum(widths)
        self.__dict__.update(arrays, R=np.zeros((s, 0, 0)), Rinv=np.zeros((s, 0, 0)),
                             g=np.zeros((s, 0)), rot=np.zeros((s, 2, 0)),
                             rinv2=np.zeros(s), rmax=np.zeros(s))
        self.n, self.widths, self.chunks, self.k = n, list(widths), [], 0

    def take(self, keep: np.ndarray) -> None:
        """Keep the columns that keep marks: every array and the basis
        chunks, one at a time so that nothing is held twice, and the
        widths."""
        for name in [name for name, a in vars(self).items() if isinstance(a, np.ndarray)]:
            setattr(self, name, getattr(self, name)[keep])
        for i, a in enumerate(self.chunks):
            self.chunks[i] = a[keep]
        self.widths = np.bincount(self.group, minlength=len(self.widths)).tolist()

    def grow(self) -> None:
        """Room for SIZE more steps: one more basis chunk, and R, Rinv, g,
        the rotations and res in the leading corner of zero arrays that
        hold SIZE more, each old array released before the next new one
        is made.  Nothing stored is copied but the small state."""
        s, cap = self.cols.size, self.g.shape[1] + SIZE
        self.chunks.append(np.empty((s, SIZE, self.n)))
        for name, shape in (("R", (cap, cap)), ("Rinv", (cap, cap)), ("g", (cap,)),
                            ("rot", (2, cap)), ("res", (cap,))):
            big = np.zeros((s, *shape))
            big[tuple(map(slice, getattr(self, name).shape))] = getattr(self, name)
            setattr(self, name, big)

    def extend(self, k: int, v: np.ndarray) -> None:
        """Store the basis vectors v_k, the rows of v, and split b along
        them: g_k = v_k . bres, and bres loses that part.  A zero v_k,
        the direction of a column whose new vector vanished, gives g_k
        = 0 and leaves bres as it was.  The explicit remainder avoids
        the cancellation that ||b||^2 - sum g_j^2 suffers when the basis
        captures b almost entirely."""
        if k % SIZE == 0:
            self.grow()
        self.chunks[k // SIZE][:, k % SIZE] = v
        self.g[:, k] = dots(v, self.bres)
        self.bres = self.bres - self.g[:, k, None] * v

    def add_column(self, hcol: np.ndarray) -> np.ndarray:
        """Step k + 1: rotate the Hessenberg column hcol, (k + 2, s), into
        column k of R, and append column k of R^-1, -R^-1 r / rho above
        the diagonal and 1 / rho on it, where r and rho are the new
        column's entries above and on the diagonal: one batched product,
        with rinv2 and rmax.  Returns the mask of the columns whose new
        triangle the bound clears, NEAR_SINGULAR_TOL rmax ||R^-1||_F <=
        MARGIN.  That bound implies linalg's rule at NEAR_SINGULAR_TOL,
        as ||R^-1||_F >= 1 / min |rho|, and it holds for no R^-1 with a
        non-finite entry.  hcol is overwritten."""
        j = self.k
        _rotate_in(self.rot.transpose(1, 2, 0), hcol, self.g.T)
        self.R[:, :j + 1, j], self.k = hcol[:j + 1].T, j + 1
        # hcol[j + 1] is 0 after the rotation: it holds the running max
        hcol[j + 1] = self.rmax
        self.rmax = np.abs(hcol).max(axis=0)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            inv = 1.0 / hcol[j]
            col = self.Rinv[:, :j + 1, j]
            col[:, :j] = np.matmul(self.Rinv[:, :j, :j], hcol[:j].T[:, :, None])[:, :, 0]
            col *= -inv[:, None]
            col[:, j] = inv
            self.rinv2 += dots(col, col)
            return self.rmax * np.sqrt(self.rinv2) <= MARGIN / NEAR_SINGULAR_TOL

    def iterates(self, rows: np.ndarray, m: int) -> np.ndarray:
        """The iterates z_m of the columns rows, (len(rows), n), at a
        step m <= k, in the scale of their b: the one place where an
        iterate gets its y, solved by _least_squares from R[:m, :m] and
        g[:m], which no step after m changes, and their bases combined
        with it in one pass; m = 0 gives z = 0."""
        if m == 0:
            return np.zeros((rows.size, self.n))
        y = _least_squares(self.R[rows, :m, :m], self.g[rows, :m])[0]
        z = _combination((p[rows] for p in _pieces(self.chunks, m)), y)
        return scaled_back(z, (self.scale - self.ascale)[rows, None], "iterate")


def _lockstep(ops: list, widths: list, B, cfgs: list, keep_iterates: bool) -> list:
    """RRGMRES on the columns of B side by side: the loop of
    rrgmres_block.  The columns come in groups, the first widths[0] of
    B, then the next widths[1], and so on, and group c runs with the
    operator ops[c].  Each step calls each operator's matvec once, on a
    contiguous n x s' slice of the newest basis vectors: those of its
    group's running columns.

    The running columns are all at the same step k, and their state is
    one _Columns.  A column that stops takes its iterate, from R and g
    (_Columns.iterates), and its log, read from its residual history,
    and leaves: the state takes the rest, which keeps each group's
    running columns contiguous.
    """
    n, s = B.shape
    scale = scale_exponents(B, axis=0)
    bt = np.ldexp(B.T, -scale[:, None], order="C")  # each b as a row, scaled
    bnorm = np.sqrt(dots(bt, bt))
    # a tiny b with a large epsilon scales its threshold past the float
    # range: inf, which every residual meets, as it does unscaled
    with np.errstate(over="ignore"):
        threshold = np.ldexp([cfg.eta * cfg.epsilon for cfg in cfgs], -scale)
    results = [None] * s
    # res starts as ||b|| alone: the k = 0 stops leave before any grow
    st = _Columns(n, widths, cols=np.arange(s), res=bnorm[:, None], bres=bt, scale=scale,
                  group=np.repeat(np.arange(len(ops)), widths),
                  threshold=threshold, max_iter=np.array([cfg.max_iter for cfg in cfgs]))

    def leave(stops: list, applies: int) -> bool:
        """The running columns that a mask of stops, a list of (mask,
        StopReason) pairs, marks take their results at step k, each with
        the reason of the first mask that marks it, its iterate z_k
        (_Columns.iterates; with keep_iterates, the last of its iterates
        z_1..z_k), and the log of its residuals res[:k + 1], and leave.
        True when no column is left."""
        done = np.logical_or.reduce([mask for mask, _ in stops])
        if not done.any():
            return False
        rows = np.flatnonzero(done)
        kept = [st.iterates(rows, m) for m in range(1, st.k + 1)] if keep_iterates else None
        z = kept[-1] if kept else st.iterates(rows, st.k)
        history = scaled_back(st.res[rows, :st.k + 1], st.scale[rows, None], "residual").tolist()
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
    ab = _by_group(ops, st.widths, np.ldexp(B[:, st.cols], -st.scale), np.zeros_like(st.scale))
    # each column's products run scaled by the power of two that brings
    # its A b into range; in place, as a block of A b can be large
    st.ascale = scale_exponents(ab, axis=1)
    np.ldexp(ab, -st.ascale[:, None], out=ab)
    st.beta0 = np.sqrt(dots(ab, ab))
    # A b vanished: the range-restricted space is empty
    empty = st.beta0 == 0.0
    if leave([(empty, StopReason.BREAKDOWN)], 1):
        return results
    st.extend(0, ab[~empty] / st.beta0[:, None])

    for k in itertools.count(1):  # every column leaves by its max_iter
        j = k - 1
        w = _by_group(ops, st.widths, st.chunks[j // SIZE][:, j % SIZE].T, st.ascale)
        pieces = _pieces(st.chunks, k)
        # classical Gram-Schmidt in two block passes (CGS2); the second,
        # unconditional pass keeps the basis orthogonal to working precision
        h = _coefficients(pieces, w)
        w = w - _combination(pieces, h)
        corr = _coefficients(pieces, w)
        w = w - _combination(pieces, corr)
        del pieces  # no view of the basis outlives the step's take
        hkk = np.sqrt(dots(w, w))
        hcol = np.concatenate(((h + corr).T, hkk[None]))

        # the basis of a column whose new direction vanishes cannot grow;
        # its b is still split along any w left, so that the residual
        # below is that of its iterate
        broken = hkk <= BREAKDOWN_TOL * st.beta0 / st.res[:, 0]
        st.extend(k, w / np.where(hkk > 0.0, hkk, 1.0)[:, None])
        cleared = st.add_column(hcol)

        # ||A z_k - b||^2 = g_k^2 + ||bres||^2 + misfit^2, the misfit 0
        # where R back-substitutes.  A triangle that the bound clears does;
        # the others are solved now, for their misfit alone: the iterates
        # of the columns that leave solve theirs again (_Columns.iterates)
        misfit = np.zeros(cleared.size)
        if not cleared.all():
            misfit[~cleared] = _least_squares(st.R[~cleared, :k, :k], st.g[~cleared, :k])[1]
        residual = np.hypot(np.hypot(st.g[:, k], np.sqrt(dots(st.bres, st.bres))), misfit)
        st.res[:, k] = residual
        if leave([(residual <= st.threshold, StopReason.DISCREPANCY_MET),
                  (broken, StopReason.BREAKDOWN), (k >= st.max_iter, StopReason.MAX_ITER)],
                 k + 1):
            return results
