"""Dense references that the tests check the pipeline against.

No CLI command runs any of these: they live with the tests, and the
package itself runs on numpy alone.

* Tikhonov: tikhonov_direct_oracle is the dense normal-equations solve
  of the general-form problem, and discrepancy_mu_solve the
  discrepancy-principle search over its parameter.
* The standard-form transformation: its two-sided refit trades the
  exact penalty bookkeeping for data fit, which is the behaviour the
  iterative solver wants.  The exact fixed-mu minimizer is still
  recoverable: tikhonov_minimizer_via_transform solves the transformed
  problem on the subspace the substitution actually reaches
  (right/plain modes) or through the effective regularizer's
  pseudoinverse (two-sided), and maps back.  Both reproduce the dense
  general-form solution to rounding error.
* The test problems: an adaptive Gauss-Legendre quadrature serves the
  *_by_quadrature oracles, which integrate the entries of phillips and
  deriv2 independently of their closed forms.
* The projectors: build_projector forms I - V (V^T V)^-1 V^T densely,
  make_projector_closed gives P1 and P2 entry by entry, and
  nearest_two_vector is the two-vector nearness correction in its own
  closed form.
* The failures that only these references raise: SingularSystem,
  NoRoot and DependentVectors, each a regnear.errors.NumericsError.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.optimize

from regnear.errors import BadDimension, NumericsError, ShapeMismatch, SingularCore
from regnear.linalg import RANK_TOL, LinearOperator, thin_qr
from regnear.nearness import _ORTHO_TOL
from regnear.problems import _phillips_solution
from regnear.regops import Mode, ProjectedRegularizer, RegularizerKind
from regnear.transform import apply_pk_dagger, back_transform, prepare_context


# --- Failures that only these references raise -----------------------------


class DependentVectors(NumericsError):
    """Two vectors expected to be independent are numerically parallel."""


class SingularSystem(NumericsError):
    """A dense linear system could not be solved reliably."""


class NoRoot(NumericsError):
    """A scalar root finder could not bracket the requested value."""


# --- Tikhonov --------------------------------------------------------------


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
    for _ in range(8):  # widen each end that misses the root, by up to 8 x 10
        if flo > 0.0:
            lo -= 10.0
            flo = gap(lo)
        if fhi < 0.0:
            hi += 10.0
            fhi = gap(hi)
    if flo > 0.0 or fhi < 0.0:
        raise NoRoot("discrepancy level is not bracketed by any mu")
    root = scipy.optimize.brentq(gap, lo, hi, xtol=1e-12, rtol=max(rtol, 1e-15))
    mu = float(np.exp(root))
    return mu, tikhonov_direct_oracle(K, L, b, mu)


# --- the standard-form transformation ---------------------------------------


def _orthonormal_range(a: np.ndarray, rank: int) -> np.ndarray:
    """Orthonormal basis of the range of a, known to have the given rank."""
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if rank > 0 and s[rank - 1] <= RANK_TOL * max(1.0, float(s[0])):
        raise SingularCore("effective regularizer has lower rank than expected")
    return u[:, :rank]


def tikhonov_minimizer_via_transform(K: np.ndarray, b: np.ndarray,
                                     reg: ProjectedRegularizer,
                                     mu: float) -> np.ndarray:
    """Exact fixed-mu minimizer computed through the transformation.

    Dense test path: solves the transformed penalized problem on the
    subspace the substitution reaches and maps the solution back.  The
    substitution z = core @ P @ x only sweeps the range of the effective
    regularizer, so the identity penalty is minimized there; in
    two-sided mode the data refit of the second split breaks that
    bookkeeping, and the minimizer is routed through the effective
    regularizer's pseudoinverse instead.  That route reads the first of
    the context's two splits, (Q, W), alone: it removes the range of Q
    from K and from b (b - Q Q^T b) itself, and adds the first split's
    null-space component at the end.  Agrees with the dense
    normal-equations solution of the general-form problem to rounding
    error.
    """
    K = np.asarray(K, dtype=float)
    b = np.asarray(b, dtype=float)
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    ctx = prepare_context(LinearOperator.from_matrix(K), b, reg)
    n = ctx.shape[1]

    if reg.kind is RegularizerKind.IDENTITY:
        g = K.T @ K + mu * np.eye(n)
        return scipy.linalg.cho_solve(scipy.linalg.cho_factor(g), K.T @ b)

    if reg.mode in (Mode.RIGHT, Mode.PLAIN):
        lam = reg.effective_matrix()
        w = _orthonormal_range(lam, n - reg.basis.ell)
        k2w = np.column_stack([ctx.matvec(w[:, j]) for j in range(w.shape[1])])
        g = k2w.T @ k2w + mu * np.eye(w.shape[1])
        s = scipy.linalg.cho_solve(scipy.linalg.cho_factor(g), k2w.T @ ctx.solver_rhs)
        return back_transform(ctx, w @ s)

    # Two-sided: the pseudoinverse of P core P is solve(P core P + V V^T, P z),
    # because the shifted matrix acts as the core on the complement and as
    # the identity on the null space.
    vvt = reg.basis.V @ reg.basis.V.T
    pinv_core = scipy.linalg.solve(reg.effective_matrix() + vvt, np.eye(n) - vvt)
    (q, _), _ = ctx.splits
    k1 = K - q @ (q.T @ K)
    khat = k1 @ pinv_core
    g = khat.T @ khat + mu * np.eye(n)
    zeta = scipy.linalg.cho_solve(scipy.linalg.cho_factor(g), khat.T @ (b - q @ (q.T @ b)))
    return apply_pk_dagger(ctx, pinv_core @ zeta) + ctx.x0s[0]


# --- quadrature of the test problems' entries -------------------------------


# the 10-point Gauss-Legendre nodes and weights
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)


def _gl_panel(f, a: float, b: float) -> float:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return half * float(np.dot(_GL_WEIGHTS, f(mid + half * _GL_NODES)))


def adaptive_gauss_legendre(f, a: float, b: float, tol: float = 1e-12,
                            _depth: int = 0) -> float:
    """Composite 10-point Gauss-Legendre with interval halving.

    The error estimate compares one panel against its two halves; the
    tolerance is absolute and split across subintervals.
    """
    if b <= a:
        return 0.0
    whole = _gl_panel(f, a, b)
    mid = 0.5 * (a + b)
    left = _gl_panel(f, a, mid)
    right = _gl_panel(f, mid, b)
    refined = left + right
    if abs(refined - whole) <= tol or _depth >= 48:
        return refined
    return (adaptive_gauss_legendre(f, a, mid, 0.5 * tol, _depth + 1)
            + adaptive_gauss_legendre(f, mid, b, 0.5 * tol, _depth + 1))


def _integrate_pieces(f, points: list[float], tol: float) -> float:
    """Integrate f over consecutive [points[i], points[i+1]] segments."""
    total = 0.0
    for lo, hi in zip(points[:-1], points[1:]):
        if hi > lo:
            total += adaptive_gauss_legendre(f, lo, hi, tol)
    return total


def _phillips_weighted(t, h: float, center):
    """The kernel times the triangular cell-overlap weight of one diagonal
    offset, in the local variable t = u - center: the weight h - |t| is
    then exact however far the offset lies from 0."""
    return _phillips_solution(center + t) * (h - np.abs(t))


def phillips_offset_by_quadrature(n: int, d: int, tol: float = 1e-12) -> float:
    """One diagonal offset of the phillips matrix by adaptive quadrature.

    The integrand is split at the weight's kink and at the kernel's
    support edges.  Exists to cross-check phillips_offsets; never used
    to build matrices.
    """
    if n < 1 or not 0 <= d < n:
        raise BadDimension("offset out of range")
    h = 12.0 / n
    center = d * h
    lo = max(-h, -3.0 - center)
    hi = min(h, 3.0 - center)
    if hi <= lo:
        return 0.0  # kernel support and cell overlap are disjoint: exact zero
    pts = [lo, 0.0, hi] if lo < 0.0 < hi else [lo, hi]
    return _integrate_pieces(lambda t: _phillips_weighted(t, h, center),
                             pts, tol) / h


def _deriv2_kernel(s, t):
    return np.where(s < t, s * (t - 1.0), t * (s - 1.0))


def deriv2_entry_by_quadrature(n: int, i: int, j: int, tol: float = 1e-12) -> float:
    """Independent nested-quadrature evaluation of one Green's matrix entry.

    Indices are 0-based.  Exists to cross-check the closed forms in
    build_deriv2; never used to build matrices.
    """
    if n < 1 or not (0 <= i < n and 0 <= j < n):
        raise BadDimension("cell indices out of range")
    h = 1.0 / n
    s_lo, s_hi = i * h, (i + 1) * h
    t_lo, t_hi = j * h, (j + 1) * h

    def inner(s: float) -> float:
        pts = [t_lo, t_hi]
        if t_lo < s < t_hi:
            pts = [t_lo, s, t_hi]
        return _integrate_pieces(lambda t: _deriv2_kernel(s, t), pts, tol)

    outer = adaptive_gauss_legendre(
        lambda s_arr: np.array([inner(float(s)) for s in np.atleast_1d(s_arr)]),
        s_lo, s_hi, tol)
    return outer / h


# --- projectors ---------------------------------------------------------------


def make_projector_closed(which: str, n: int) -> np.ndarray:
    """Entrywise closed forms of the complement projectors.

    P1 removes the mean; P2 removes the best-fitting affine trend.
    (At n = 2 the trend space is all of R^2, so P2 degenerates to the
    zero matrix.)
    """
    if n < 2:
        raise BadDimension("closed-form projectors need n >= 2")
    if which == "P1":
        return np.eye(n) - np.full((n, n), 1.0 / n)
    if which == "P2":
        h = np.arange(1, n + 1, dtype=float).reshape(-1, 1)
        k = np.arange(1, n + 1, dtype=float).reshape(1, -1)
        num = 2.0 * (n + 1) * (-3.0 * h + 2.0 * n + 1.0) + 6.0 * k * (2.0 * h - n - 1.0)
        return np.eye(n) - num / (n * (n + 1.0) * (n - 1.0))
    raise ValueError(f"unknown closed-form projector {which!r} (use 'P1' or 'P2')")


def build_projector(V) -> np.ndarray:
    """Orthogonal projector onto the complement of the column span of V,
    I - V (V^T V)^-1 V^T.  An empty V gives the identity.
    """
    V = np.asarray(V, dtype=float)
    if V.ndim == 1:
        V = V.reshape(-1, 1)
    n, ell = V.shape
    if ell == 0:
        return np.eye(n)
    if ell > n:
        raise ShapeMismatch("projector basis has more columns than rows")
    # dependent columns raise here, before the Gram matrix is inverted
    thin_qr(V)
    omega = V.T @ V
    return np.eye(n) - V @ np.linalg.solve(omega, V.T)


def nearest_two_vector(a, v1, v2) -> np.ndarray:
    """Two-vector special case via the explicit correction matrix.

    The subtracted correction C has entries assembled directly from
    v1, v2, their norms and inner product; the result equals
    nearest_with_nullspace with an orthonormalized {v1, v2} basis but
    exercises an independent formula.
    """
    a = np.asarray(a, dtype=float)
    v1 = np.asarray(v1, dtype=float).reshape(-1)
    v2 = np.asarray(v2, dtype=float).reshape(-1)
    if a.ndim != 2 or a.shape[1] != v1.shape[0] or v1.shape != v2.shape:
        raise ShapeMismatch("matrix and vectors are not conformant")
    n1 = float(v1 @ v1)
    n2 = float(v2 @ v2)
    ip = float(v1 @ v2)
    det = n1 * n2 - ip * ip
    if det <= _ORTHO_TOL * n1 * n2:
        raise DependentVectors("the two null-space vectors are numerically parallel")
    c = (n1 * np.outer(v2, v2)
         - ip * (np.outer(v2, v1) + np.outer(v1, v2))
         + n2 * np.outer(v1, v1)) / det
    return a - a @ c
