"""Range-restricted GMRES with a discrepancy-principle stop.

The Krylov space is built from powers of the operator applied to A b
rather than b itself, which keeps the iterates in the range of A and
suppresses the noise component that b carries in ill-posed problems.
Because b is generally not contained in the span of the Arnoldi basis,
the least-squares subproblem has a full projected right-hand side plus
an out-of-span remainder; both pieces are tracked incrementally with
Givens rotations so each iteration costs one operator application and
O(k) vector work.

Also provides the dense Tikhonov solver used as an equivalence oracle
and a discrepancy-principle search over the Tikhonov parameter.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.optimize

from .errors import NoRoot, ShapeMismatch, SingularSystem
from .linalg import min_norm_lstsq_solve


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
    breakdown_tol: float = 1e-14

    def __post_init__(self):
        if not 1.0 < self.eta < np.inf:
            raise ValueError(f"eta must be finite and exceed 1, got {self.eta!r}")
        if not 0.0 <= self.epsilon < np.inf:
            raise ValueError(f"epsilon must be finite and nonnegative, got {self.epsilon!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter!r}")
        if not 0.0 <= self.breakdown_tol < 1.0:
            raise ValueError(f"breakdown_tol must lie in [0, 1), got {self.breakdown_tol!r}")


@dataclass
class IterationLog:
    """Residual history.  matvecs counts operator applications since the
    solve started, so entry k of a transformed run reads k+1."""

    entries: list = field(default_factory=list)

    def record(self, k: int, residual: float, matvecs: int) -> None:
        self.entries.append((int(k), float(residual), int(matvecs)))

    def residuals(self) -> list:
        return [r for _, r, _ in self.entries]

    def write_csv(self, f) -> None:
        own = isinstance(f, (str, bytes))
        handle = open(f, "w") if own else f
        try:
            handle.write("k,residual,matvecs\n")
            for k, r, mv in self.entries:
                handle.write(f"{k},{r:.17g},{mv}\n")
        finally:
            if own:
                handle.close()


@dataclass
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


def _givens_lsq(h: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimize ||h y - c|| for upper-Hessenberg h of shape (k+1, k).

    Returns the minimizer and the residual norm.  Falls back to a
    rank-revealing solve when elimination leaves a singular triangle.
    """
    h = np.asarray(h, dtype=float)
    c = np.asarray(c, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1] + 1:
        raise ShapeMismatch(f"expected (k+1, k) Hessenberg block, got {h.shape}")
    if c.shape != (h.shape[0],):
        raise ShapeMismatch("right-hand side length must match the row count")
    k = h.shape[1]
    r = h.copy()
    g = c.copy()
    rot = []
    for j in range(k):
        for i, (cs, sn) in enumerate(rot):
            r[i, j], r[i + 1, j] = _apply_rotation(cs, sn, r[i, j], r[i + 1, j])
        cs, sn, rr = _make_rotation(r[j, j], r[j + 1, j])
        rot.append((cs, sn))
        r[j, j] = rr
        r[j + 1, j] = 0.0
        g[j], g[j + 1] = _apply_rotation(cs, sn, g[j], g[j + 1])
    tri = r[:k, :k]
    rhs = g[:k]
    diag = np.abs(np.diag(tri)) if k else np.array([])
    scale = np.max(np.abs(tri)) if k else 0.0
    if k and np.min(diag) > 1e-14 * max(scale, 1e-300):
        y = scipy.linalg.solve_triangular(tri, rhs, lower=False)
    else:
        y = min_norm_lstsq_solve(h, c)
        return y, float(np.linalg.norm(h @ y - c))
    return y, abs(float(g[k]))


def hessenberg_residual(h: np.ndarray, beta: float) -> tuple[float, np.ndarray]:
    """Residual and minimizer of ||beta e1 - h y|| for (k+1, k) Hessenberg h."""
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1] + 1:
        raise ShapeMismatch(f"expected (k+1, k) Hessenberg block, got {h.shape}")
    c = np.zeros(h.shape[0])
    c[0] = float(beta)
    y, res = _givens_lsq(h, c)
    return res, y


def rrgmres_solve(A, b: np.ndarray, cfg: SolverConfig,
                  keep_iterates: bool = False) -> RRGMRESResult:
    """Iterate on the square operator A until the discrepancy principle
    is satisfied, the basis breaks down, or max_iter is reached.

    Iteration k costs one application of A; the initial Krylov seed A b
    costs one more.  A zero starting guess is implicit: the k = 0 entry
    of the log is ||b||, and if that already meets the discrepancy test
    no operator application happens at all.
    """
    m, n = A.shape
    if m != n:
        raise ShapeMismatch(f"operator must be square, got shape {(m, n)}")
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise ShapeMismatch(f"right-hand side has shape {b.shape}, expected ({n},)")

    start_count = A.matvec_count if hasattr(A, "matvec_count") else 0
    local_count = 0

    def applies() -> int:
        if hasattr(A, "matvec_count"):
            return A.matvec_count - start_count
        return local_count

    def matvec(v: np.ndarray) -> np.ndarray:
        nonlocal local_count
        local_count += 1
        return A.matvec(v)

    log = IterationLog()
    threshold = cfg.eta * cfg.epsilon
    bnorm = float(np.linalg.norm(b))
    log.record(0, bnorm, 0)
    iterates = [] if keep_iterates else None

    if bnorm <= threshold:
        return RRGMRESResult(z=np.zeros(n), k=0, residual=bnorm,
                             stop_reason=StopReason.INITIAL_RESIDUAL_OK,
                             log=log, solve_matvecs=applies(), iterates=iterates)

    seed = matvec(b)
    beta0 = float(np.linalg.norm(seed))
    if beta0 <= cfg.breakdown_tol * bnorm:
        # A b vanished: the range-restricted space is empty
        return RRGMRESResult(z=np.zeros(n), k=0, residual=bnorm,
                             stop_reason=StopReason.BREAKDOWN,
                             log=log, solve_matvecs=applies(), iterates=iterates)

    basis = [seed / beta0]
    # split b into basis projections and an explicit remainder vector;
    # keeping the remainder avoids the cancellation that ||b||^2 - sum c_j^2
    # suffers when the basis captures b almost entirely
    craw = [float(basis[0] @ b)]
    bres = b - craw[0] * basis[0]
    hraw = np.zeros((cfg.max_iter + 1, cfg.max_iter))
    rmat = np.zeros((cfg.max_iter, cfg.max_iter))
    g = [craw[0]]                      # rotated right-hand side
    rot: list[tuple[float, float]] = []

    def solve_current(k: int) -> np.ndarray:
        tri = rmat[:k, :k]
        diag = np.abs(np.diag(tri))
        scale = np.max(np.abs(tri)) if k else 0.0
        if k and np.min(diag) > 1e-14 * max(scale, 1e-300):
            y = scipy.linalg.solve_triangular(tri, np.asarray(g[:k]), lower=False)
        else:
            y = min_norm_lstsq_solve(hraw[:k + 1, :k], np.asarray(craw[:k + 1]))
        return np.column_stack(basis[:k]) @ y

    z = np.zeros(n)
    residual = bnorm
    stop = StopReason.MAX_ITER
    k_done = 0

    for k in range(1, cfg.max_iter + 1):
        j = k - 1
        w = matvec(basis[j])
        col = np.zeros(k + 1)
        for i in range(k):
            col[i] = float(basis[i] @ w)
            w = w - col[i] * basis[i]
        # one unconditional reorthogonalization pass keeps the basis clean
        for i in range(k):
            corr = float(basis[i] @ w)
            col[i] += corr
            w = w - corr * basis[i]
        hkk = float(np.linalg.norm(w))
        col[k] = hkk
        hraw[: k + 1, j] = col

        if hkk <= cfg.breakdown_tol * beta0:
            # basis cannot grow; solve the square projected problem as-is
            hsq = hraw[:k, :k]
            csh = np.asarray(craw[:k])
            y = min_norm_lstsq_solve(hsq, csh)
            proj = float(np.linalg.norm(hsq @ y - csh))
            gamma = float(np.linalg.norm(bres))
            residual = float(np.hypot(proj, gamma))
            z = np.column_stack(basis[:k]) @ y
            k_done = k
            log.record(k, residual, applies())
            if keep_iterates:
                iterates.append(z.copy())
            stop = (StopReason.DISCREPANCY_MET if residual <= threshold
                    else StopReason.BREAKDOWN)
            break

        vnew = w / hkk
        basis.append(vnew)
        cnew = float(vnew @ bres)
        craw.append(cnew)
        bres = bres - cnew * vnew

        for i, (cs, sn) in enumerate(rot):
            col[i], col[i + 1] = _apply_rotation(cs, sn, col[i], col[i + 1])
        cs, sn, rr = _make_rotation(col[j], col[j + 1])
        rot.append((cs, sn))
        col[j] = rr
        col[j + 1] = 0.0
        rmat[:k, j] = col[:k]
        g.append(cnew)
        g[j], g[j + 1] = _apply_rotation(cs, sn, g[j], g[j + 1])

        gamma = float(np.linalg.norm(bres))
        proj = abs(g[k])
        residual = float(np.hypot(proj, gamma))
        k_done = k
        log.record(k, residual, applies())
        if keep_iterates:
            iterates.append(solve_current(k))

        if residual <= threshold:
            z = iterates[-1].copy() if keep_iterates else solve_current(k)
            stop = StopReason.DISCREPANCY_MET
            break
    else:
        k_done = cfg.max_iter
        z = iterates[-1].copy() if keep_iterates else solve_current(cfg.max_iter)
        stop = StopReason.MAX_ITER

    return RRGMRESResult(z=z, k=k_done, residual=residual, stop_reason=stop,
                         log=log, solve_matvecs=applies(), iterates=iterates)


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
    root = scipy.optimize.brentq(gap, lo, hi, xtol=1e-12, rtol=max(rtol, 1e-15))
    mu = float(np.exp(root))
    return mu, tikhonov_direct_oracle(K, L, b, mu)
