"""Galerkin discretizations of two classic first-kind integral equations.

Both problems project kernel and solution onto orthonormal box functions
(height 1/sqrt(h) on each of n equal cells), so matrix entries are cell
integrals of the kernel divided by h.  The convolution problem on
[-6, 6] integrates its kernel numerically; the Green's-function problem
on [0, 1] has piecewise-bilinear kernel pieces and exact entry formulas,
cross-checkable against quadrature.

The synthetic data are noise-free right-hand sides b_hat = K x_hat with
a constant vector added to x_hat, plus Gaussian noise rescaled to a
prescribed relative level.  The exact noise norm is recorded so the
discrepancy principle can use it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .errors import BadDimension, ShapeMismatch

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


@dataclass
class NoiseInfo:
    nu: float
    seed: int
    e: np.ndarray

    @property
    def epsilon(self) -> float:
        """Exact noise norm, the bound the discrepancy principle uses."""
        return float(np.linalg.norm(self.e))


@dataclass
class TestProblem:
    name: str
    n: int
    K: np.ndarray
    x_hat: np.ndarray
    b_hat: np.ndarray
    b: np.ndarray
    noise: Optional[NoiseInfo] = None

    @property
    def epsilon(self) -> float:
        return self.noise.epsilon if self.noise is not None else 0.0


def _phillips_solution(s):
    s = np.asarray(s, dtype=float)
    return np.where(np.abs(s) < 3.0, 1.0 + np.cos(np.pi * s / 3.0), 0.0)


def build_phillips(n: int, quad_tol: float = 1e-12) -> TestProblem:
    """Convolution equation on [-6, 6] with a cosine-bump kernel.

    The kernel k(tau, sigma) = x(tau - sigma) depends on the cell index
    difference only, so one integral per diagonal offset fills the whole
    (symmetric Toeplitz) matrix.  Integrating the triangular cell-overlap
    weight against the kernel reduces each entry to a single 1-d
    integral, split at the weight's kink and at the kernel's support
    edges.
    """
    if n < 4:
        raise BadDimension("phillips needs n >= 4")
    h = 12.0 / n
    offsets = np.zeros(n)
    for d in range(n):
        center = d * h
        lo = max(center - h, -3.0)
        hi = min(center + h, 3.0)
        if hi <= lo:
            continue  # kernel support and cell overlap are disjoint: exact zero
        pts = sorted({lo, hi, *(p for p in (center,) if lo < p < hi)})

        def f(u, _c=center):
            return _phillips_solution(u) * (h - np.abs(u - _c))

        offsets[d] = _integrate_pieces(f, list(pts), quad_tol) / h
    K = scipy.linalg.toeplitz(offsets)
    mids = -6.0 + (np.arange(1, n + 1) - 0.5) * h
    x_hat = np.sqrt(h) * _phillips_solution(mids) + 1.0
    b_hat = K @ x_hat
    return TestProblem(name="phillips", n=n, K=K, x_hat=x_hat,
                       b_hat=b_hat, b=b_hat.copy())


def _deriv2_kernel(s, t):
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    return np.where(s < t, s * (t - 1.0), t * (s - 1.0))


def build_deriv2(n: int) -> TestProblem:
    """Second-derivative Green's function problem on [0, 1].

    The kernel is s(t-1) above the diagonal and t(s-1) below, bilinear
    on each triangle, so every cell integral has a closed form.  For
    distinct cells the double integral factors into two one-dimensional
    ones; the diagonal cells integrate the kernel over a square split by
    the diagonal.
    """
    if n < 4:
        raise BadDimension("deriv2 needs n >= 4")
    h = 1.0 / n
    mids = (np.arange(1, n + 1) - 0.5) * h
    K = np.empty((n, n))
    # i > j: s >= t throughout, kernel t(s-1); the factored integrals give
    # h * mid_j * (mid_i - 1); symmetry fills the upper triangle
    for i in range(n):
        for j in range(i):
            K[i, j] = h * mids[j] * (mids[i] - 1.0)
            K[j, i] = K[i, j]
    alpha = np.arange(n) * h
    beta = alpha + h
    K[np.arange(n), np.arange(n)] = (
        (beta + alpha) * (beta ** 2 + alpha ** 2) / 4.0
        - (beta ** 2 + alpha * beta + alpha ** 2) / 3.0
        - alpha ** 2 * (beta + alpha) / 2.0
        + alpha ** 2)
    x_hat = np.sqrt(h) * np.exp(mids) + 1.0
    b_hat = K @ x_hat
    return TestProblem(name="deriv2", n=n, K=K, x_hat=x_hat,
                       b_hat=b_hat, b=b_hat.copy())


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


def build_problem(name: str, n: int) -> TestProblem:
    if name == "phillips":
        return build_phillips(n)
    if name == "deriv2":
        return build_deriv2(n)
    raise ValueError(f"unknown problem {name!r} (use 'phillips' or 'deriv2')")


def add_noise(problem: TestProblem, nu: float, seed: int) -> TestProblem:
    """Perturb b_hat with Gaussian noise rescaled to ||e|| = nu * ||b_hat||.

    The generator is counter-based (Philox) and fully determined by the
    seed, so realizations are reproducible across platforms and runs.
    """
    if not 0.0 <= nu < np.inf:
        raise ValueError(f"noise level must be finite and nonnegative, got {nu!r}")
    if nu == 0.0:
        e = np.zeros(problem.n)
    else:
        gen = np.random.Generator(np.random.Philox(seed))
        raw = gen.standard_normal(problem.n)
        e = raw * (nu * np.linalg.norm(problem.b_hat) / np.linalg.norm(raw))
    return TestProblem(name=problem.name, n=problem.n, K=problem.K,
                       x_hat=problem.x_hat, b_hat=problem.b_hat,
                       b=problem.b_hat + e,
                       noise=NoiseInfo(nu=float(nu), seed=int(seed), e=e))


def relative_error(x_k: np.ndarray, x_hat: np.ndarray) -> float:
    x_k = np.asarray(x_k, dtype=float)
    x_hat = np.asarray(x_hat, dtype=float)
    if x_k.shape != x_hat.shape:
        raise ShapeMismatch(f"shape {x_k.shape} vs {x_hat.shape}")
    return float(np.linalg.norm(x_k - x_hat) / np.linalg.norm(x_hat))
