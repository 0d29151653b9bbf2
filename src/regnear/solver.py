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

Also provides the dense Tikhonov solver used as an equivalence oracle
and a discrepancy-principle search over the Tikhonov parameter.
"""
from __future__ import annotations

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


def _apply_rotation(cs: float, sn: float, a: float, b: float) -> tuple[float, float]:
    return cs * a + sn * b, -sn * a + cs * b


def _make_rotation(a: float, b: float) -> tuple[float, float, float]:
    r = float(np.hypot(a, b))
    if r == 0.0:
        return 1.0, 0.0, 0.0
    return a / r, b / r, r


def _rotate_in(rot: list, col: np.ndarray, g) -> tuple[float, float]:
    """Rotate column j = len(rot) of a Hessenberg matrix into triangular form.

    col holds the column's j + 2 leading entries and is overwritten with
    the rotated ones; the new rotation is appended to rot and applied to
    entries j and j + 1 of the rotated right-hand side g.  Returns the
    new diagonal entry and the largest magnitude in the rotated column,
    the two numbers the singular-triangle rule reads.
    """
    j = len(rot)
    # the loop runs on Python floats: they round as NumPy scalars do,
    # at a fraction of the cost per operation
    c = col.tolist()
    for i, (cs, sn) in enumerate(rot):
        c[i], c[i + 1] = _apply_rotation(cs, sn, c[i], c[i + 1])
    cs, sn, rr = _make_rotation(c[j], c[j + 1])
    rot.append((cs, sn))
    c[j] = rr
    c[j + 1] = 0.0
    col[:] = c
    g[j], g[j + 1] = _apply_rotation(cs, sn, g[j], g[j + 1])
    return rr, max(map(abs, c))


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
    rot: list[tuple[float, float]] = []
    for j in range(k):
        _rotate_in(rot, r[:j + 2, j], g)
    y, misfit = _solve_rotated(r[:k, :k], g[:k])
    return float(np.hypot(g[k], misfit)), y


def rrgmres_solve(A, b: np.ndarray, cfg: SolverConfig,
                  keep_iterates: bool = False) -> RRGMRESResult:
    """Iterate on the square operator A until the discrepancy principle
    is satisfied, the basis breaks down, or max_iter is reached.

    Iteration k costs one application of A; the initial Krylov seed A b
    costs one more.  A zero starting guess is implicit: the k = 0 entry
    of the log is ||b||, and if that already meets the discrepancy test
    no operator application happens at all.  The log and solve_matvecs
    count the calls of A.matvec made here and nothing else.  A b with
    non-finite entries raises ValueError before any call.

    The residual logged at step k, compared with eta * epsilon and
    returned, is ||A z_k - b|| of the iterate z_k of that step, also
    when the rotated triangle is singular (see _solve_rotated).  With
    keep_iterates the iterates of every step are returned as well.
    """
    m, n = A.shape
    if m != n:
        raise ShapeMismatch(f"operator must be square, got shape {(m, n)}")
    b = checked_rhs(b, n)

    applies = 0

    def matvec(v: np.ndarray) -> np.ndarray:
        nonlocal applies
        applies += 1
        return A.matvec(v)

    log = IterationLog()
    threshold = cfg.eta * cfg.epsilon
    bnorm = float(np.linalg.norm(b))
    log.record(0, bnorm, 0)
    iterates = [] if keep_iterates else None

    if bnorm <= threshold:
        return RRGMRESResult(z=np.zeros(n), k=0, residual=bnorm,
                             stop_reason=StopReason.INITIAL_RESIDUAL_OK,
                             log=log, solve_matvecs=applies, iterates=iterates)

    seed = matvec(b)
    beta0 = float(np.linalg.norm(seed))
    if beta0 <= BREAKDOWN_TOL * bnorm:
        # A b vanished: the range-restricted space is empty
        return RRGMRESResult(z=np.zeros(n), k=0, residual=bnorm,
                             stop_reason=StopReason.BREAKDOWN,
                             log=log, solve_matvecs=applies, iterates=iterates)

    # Arnoldi basis (contiguous columns) and the rotated triangle; the
    # storage doubles when the iteration outgrows it, so max_iter only
    # bounds the loop
    cap = min(cfg.max_iter, 32)
    basis = np.zeros((n, cap + 1), order="F")
    basis[:, 0] = seed / beta0
    rmat = np.zeros((cap, cap))
    # split b into basis projections and an explicit remainder vector;
    # keeping the remainder avoids the cancellation that ||b||^2 - sum c_j^2
    # suffers when the basis captures b almost entirely
    g = [float(basis[:, 0] @ b)]       # rotated right-hand side
    bres = b - g[0] * basis[:, 0]
    rot: list[tuple[float, float]] = []
    # smallest diagonal entry and largest entry of the triangle so far;
    # columns of R are final once rotated in, and so are these
    dmin, rmax = np.inf, 0.0

    def solve(i: int) -> tuple[np.ndarray, float]:
        # the first i columns of R and g[:i] are final from step i on, so
        # the iterate of step i can be read at any later point
        return _solve_rotated(rmat[:i, :i], np.asarray(g[:i]))

    stop = StopReason.MAX_ITER
    for k in range(1, cfg.max_iter + 1):
        j = k - 1
        w = matvec(basis[:, j])
        vk = basis[:, :k]
        # classical Gram-Schmidt in two block passes (CGS2); the second,
        # unconditional pass keeps the basis orthogonal to working precision
        h = vk.T @ w
        w = w - vk @ h
        corr = vk.T @ w
        w = w - vk @ corr
        hkk = float(np.linalg.norm(w))
        col = np.append(h + corr, hkk)
        if k > cap:
            grow = min(cap, cfg.max_iter - cap)
            cap += grow
            rmat = np.pad(rmat, (0, grow))
            basis = np.pad(basis, ((0, 0), (0, grow)))

        if hkk <= BREAKDOWN_TOL * beta0 / bnorm:
            # the basis cannot grow, and b has no part along the direction
            # that does not exist: its c_k is 0 and bres stays as it is
            cnew = 0.0
            stop = StopReason.BREAKDOWN
        else:
            vnew = w / hkk
            basis[:, k] = vnew
            cnew = float(vnew @ bres)
            bres = bres - cnew * vnew
        g.append(cnew)
        diag, cmax = _rotate_in(rot, col, g)
        rmat[:k, j] = col[:k]
        dmin, rmax = min(dmin, diag), max(rmax, cmax)

        residual = float(np.hypot(g[k], np.linalg.norm(bres)))
        if triangle_is_singular(dmin, rmax):
            # ||A z_k - b||^2 = g_k^2 + ||bres||^2 + misfit^2
            residual = float(np.hypot(residual, solve(k)[1]))
        log.record(k, residual, applies)
        if residual <= threshold:
            stop = StopReason.DISCREPANCY_MET
        if stop is not StopReason.MAX_ITER:
            break

    if keep_iterates:
        iterates = [basis[:, :i] @ solve(i)[0] for i in range(1, k + 1)]
    return RRGMRESResult(z=basis[:, :k] @ solve(k)[0], k=k, residual=residual,
                         stop_reason=stop, log=log, solve_matvecs=applies,
                         iterates=iterates)


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
