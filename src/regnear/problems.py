"""Galerkin discretizations of two classic first-kind integral equations.

Both problems project kernel and solution onto orthonormal box functions
(height 1/sqrt(h) on each of n equal cells), so matrix entries are cell
integrals of the kernel divided by h, and both builders evaluate them
exactly.  The convolution problem on [-6, 6] has one closed form per
diagonal offset, Hansen's row plus a term for the kernel's support
edge, evaluated for all offsets in one vectorised expression; the
Green's-function problem on [0, 1] has piecewise-bilinear kernel pieces
and exact entry formulas.  The adaptive quadrature here serves only the
*_by_quadrature oracles that cross-check both; its Gauss-Legendre rule
is made on first use, so importing the module computes none.

K is handed on as an operator.  At or below DENSE_MAX_N a builder
stores dense K and a product is one GEMV, a block product one GEMM.
Above it a builder allocates no n x n array: phillips, symmetric
Toeplitz, multiplies through a circulant embedding and the FFT, and
deriv2, semiseparable, through two cumulative sums of its generators,
in O(n log n) and O(n).  Both work down axis 0, so one callable serves
a vector and each column of a block.  Dense K is then assembled from
the same closed forms each time it is read.

The synthetic data are noise-free right-hand sides b_hat = K x_hat with
a constant vector added to x_hat, plus Gaussian noise rescaled to a
prescribed relative level.  The exact noise norm is recorded so the
discrepancy principle can use it.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import BadDimension, ShapeMismatch
from .transform import LinearOperator

# The largest order at which K is stored dense.  Up to about this n one
# GEMV is as fast as the structured product; see CHANGES.md for the
# measurement.
DENSE_MAX_N = 320


@functools.cache
def _gl_rule() -> tuple[np.ndarray, np.ndarray]:
    """The 10-point Gauss-Legendre nodes and weights, made on first use:
    only the quadrature oracles need them, and the CLI never calls one."""
    return np.polynomial.legendre.leggauss(10)


def _gl_panel(f, a: float, b: float) -> float:
    nodes, weights = _gl_rule()
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return half * float(np.dot(weights, f(mid + half * nodes)))


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


@dataclass(eq=False)
class NoiseInfo:
    nu: float
    seed: int
    e: np.ndarray

    @property
    def epsilon(self) -> float:
        """Exact noise norm, the bound the discrepancy principle uses."""
        return float(np.linalg.norm(self.e))


@dataclass(eq=False)
class TestProblem:
    """K as the operator op, which counts its products, with the exact
    solution x_hat, the exact data b_hat = K x_hat and the data b."""

    name: str
    n: int
    op: LinearOperator
    x_hat: np.ndarray
    b_hat: np.ndarray
    b: np.ndarray
    dense: Callable[[], np.ndarray] = field(repr=False)
    noise: Optional[NoiseInfo] = None

    @property
    def K(self) -> np.ndarray:
        """Dense K: the stored matrix at or below DENSE_MAX_N; above it,
        assembled on every read, at 8 n^2 bytes."""
        return self.dense()

    @property
    def epsilon(self) -> float:
        return self.noise.epsilon if self.noise is not None else 0.0


def _with_operator(name: str, x_hat: np.ndarray,
                   dense: Callable[[], np.ndarray],
                   structured: Callable[[], Callable]) -> TestProblem:
    """The problem with K as an operator.  At or below DENSE_MAX_N,
    K = dense() is stored and serves every product; above it,
    structured() makes the matvec and dense() runs only when K is read.
    b_hat = K x_hat is a product the operator does not count."""
    n = x_hat.size
    if n <= DENSE_MAX_N:
        K = dense()
        op, b_hat, dense = LinearOperator.from_matrix(K), K @ x_hat, (lambda: K)
    else:
        matvec = structured()
        op, b_hat = LinearOperator((n, n), matvec), matvec(x_hat)
    return TestProblem(name=name, n=n, op=op, x_hat=x_hat, b_hat=b_hat,
                       b=b_hat.copy(), dense=dense)


def _phillips_solution(s):
    s = np.asarray(s, dtype=float)
    return np.where(np.abs(s) < 3.0, 1.0 + np.cos(np.pi * s / 3.0), 0.0)


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


_PHILLIPS_A = np.pi / 3.0


def _phillips_edge(t):
    """Psi(t) = integral over 0 < v < t of (1 - cos(a v)) (t - v), zero for
    t <= 0: the kernel's continuation past u = 3 against a ramp."""
    t = np.maximum(t, 0.0)
    return 0.5 * t * t - 2.0 * (np.sin(0.5 * _PHILLIPS_A * t) / _PHILLIPS_A) ** 2


def phillips_offsets(n: int) -> np.ndarray:
    """The phillips matrix entry of every diagonal offset (its first row).

    Offset d integrates the kernel 1 + cos(a u), a = pi/3, against the
    triangular weight h - |u - c| on |u - c| < h, c = d h, divided by h.
    Over the whole line that is Hansen's row (Regularization Tools),
    h + 9 / (h pi^2) (2 cos(a c) - cos(a (c - h)) - cos(a (c + h))),
    here written as h + cos(a c) (2 sin(a h/2) / a)^2 / h, which has no
    cancellation.  The edge term takes off the bump's continuation past
    u = 3: the weight is a second difference of ramps, so that part is
    the second difference of _phillips_edge at tau = c - 3, nonzero only
    for the one or two offsets whose weight crosses u = 3.  The weight
    misses the support exactly when (d - 1) h >= 3, tested on integers
    as 4 (d - 1) >= n, so those offsets are exactly 0 (a float test
    leaves a rounding residue, sometimes negative, at d = n/4 + 1).
    """
    h = 12.0 / n
    d = np.arange(n)
    c = d[4 * (d - 1) < n] * h
    tau = c - 3.0
    edge = (_phillips_edge(tau + h) - 2.0 * _phillips_edge(tau)
            + _phillips_edge(tau - h))
    # the Fourier transform of the triangular weight at a, over h
    tri_hat = (2.0 * np.sin(0.5 * _PHILLIPS_A * h) / _PHILLIPS_A) ** 2 / h
    offsets = np.zeros(n)
    offsets[:c.size] = h + np.cos(_PHILLIPS_A * c) * tri_hat - edge / h
    return offsets


def _phillips_matrix(offsets: np.ndarray) -> np.ndarray:
    """The symmetric Toeplitz matrix whose first row is offsets."""
    n = offsets.size
    # row i is offsets[|i - j|], j = 0..n-1: the window of offsets
    # mirrored about 0 that starts n - 1 - i entries in
    mirrored = np.concatenate((offsets[:0:-1], offsets))
    return np.lib.stride_tricks.sliding_window_view(mirrored, n)[::-1].copy()


def _phillips_fft_matvec(offsets: np.ndarray) -> Callable:
    """x -> K x for the Toeplitz K of offsets, by circulant embedding.

    Only the first w offsets are nonzero (positive inside the kernel's
    support, exactly 0 beyond it), so a circulant of length m >= n + w - 1
    whose first column is offsets[:w], then zeros, then offsets[w-1:0:-1],
    holds K as its leading n x n block.  Its spectrum is taken once; each
    product is one forward and one inverse real FFT of length m.
    """
    n = offsets.size
    w = int(np.count_nonzero(offsets))
    m = 1 << (n + w - 2).bit_length()   # a power of two, >= n + w - 1
    col = np.zeros(m)
    col[:w] = offsets[:w]
    col[m - w + 1:] = offsets[w - 1:0:-1]
    spectrum = np.fft.rfft(col)

    def matvec(x):
        # down axis 0: a vector, or each column of a block
        spec = spectrum.reshape(spectrum.shape + (1,) * (x.ndim - 1))
        return np.fft.irfft(np.fft.rfft(x, m, axis=0) * spec, m, axis=0)[:n]
    return matvec


def build_phillips(n: int) -> TestProblem:
    """Convolution equation on [-6, 6] with a cosine-bump kernel.

    The kernel k(tau, sigma) = x(tau - sigma) depends on the cell index
    difference only, so one integral per diagonal offset fills the whole
    (symmetric Toeplitz) matrix.  Integrating the triangular cell-overlap
    weight against the kernel reduces each entry to a single 1-d
    integral with a closed form; phillips_offsets evaluates them all in
    one vectorised expression.  Above DENSE_MAX_N, products go through
    the FFT of a circulant embedding.
    """
    if n < 4:
        raise BadDimension("phillips needs n >= 4")
    h = 12.0 / n
    offsets = phillips_offsets(n)
    mids = -6.0 + (np.arange(1, n + 1) - 0.5) * h
    x_hat = np.sqrt(h) * _phillips_solution(mids) + 1.0
    return _with_operator("phillips", x_hat, lambda: _phillips_matrix(offsets),
                          lambda: _phillips_fft_matvec(offsets))


def _deriv2_kernel(s, t):
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    return np.where(s < t, s * (t - 1.0), t * (s - 1.0))


def _deriv2_matrix(u: np.ndarray, v: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """The symmetric matrix with u_i v_j below the diagonal and diag on it."""
    lower = np.tril(np.outer(u, v), -1)
    K = lower + lower.T
    np.fill_diagonal(K, diag)
    return K


def _deriv2_matvec(u: np.ndarray, v: np.ndarray, diag: np.ndarray) -> Callable:
    """x -> K x for the semiseparable K of _deriv2_matrix(u, v, diag):
    (K x)_i = u_i sum_{j<i} v_j x_j + v_i sum_{j>i} u_j x_j + diag_i x_i,
    two cumulative sums and O(n) work, down axis 0 of a vector or of a
    block."""
    def matvec(x):
        uc, vc, dc = (a.reshape(a.shape + (1,) * (x.ndim - 1)) for a in (u, v, diag))
        below = np.cumsum(vc * x, axis=0)                 # sum over j <= i
        above = np.cumsum((uc * x)[::-1], axis=0)[::-1]   # sum over j >= i
        y = dc * x
        y[1:] += uc[1:] * below[:-1]
        y[:-1] += vc[:-1] * above[1:]
        return y
    return matvec


def build_deriv2(n: int) -> TestProblem:
    """Second-derivative Green's function problem on [0, 1].

    The kernel is s(t-1) above the diagonal and t(s-1) below, bilinear
    on each triangle, so every cell integral has a closed form.  For
    distinct cells the double integral factors into two one-dimensional
    ones; the diagonal cells integrate the kernel over a square split by
    the diagonal.  So K is semiseparable, with generators u and v below
    the diagonal, and above DENSE_MAX_N its products take two
    cumulative sums.
    """
    if n < 4:
        raise BadDimension("deriv2 needs n >= 4")
    h = 1.0 / n
    mids = (np.arange(1, n + 1) - 0.5) * h
    # i > j: s >= t throughout, kernel t(s-1); the factored integrals give
    # h * mid_j * (mid_i - 1) = u_i v_j; symmetry fills the upper triangle
    u, v = mids - 1.0, h * mids
    alpha = np.arange(n) * h
    beta = alpha + h
    diag = ((beta + alpha) * (beta ** 2 + alpha ** 2) / 4.0
            - (beta ** 2 + alpha * beta + alpha ** 2) / 3.0
            - alpha ** 2 * (beta + alpha) / 2.0
            + alpha ** 2)
    x_hat = np.sqrt(h) * np.exp(mids) + 1.0
    return _with_operator("deriv2", x_hat, lambda: _deriv2_matrix(u, v, diag),
                          lambda: _deriv2_matvec(u, v, diag))


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


# the largest norm whose square float64 still holds: the discrepancy
# principle's epsilon = ||e|| is a 2-norm and squares it
_MAX_SQUARABLE = float(np.sqrt(np.finfo(float).max))


def add_noise(problem: TestProblem, nu: float, seed: int) -> TestProblem:
    """Perturb b_hat with Gaussian noise rescaled to ||e|| = nu * ||b_hat||.

    The generator is counter-based (Philox) and fully determined by the
    seed, so realizations are reproducible across platforms and runs.
    The result shares the problem's operator and reads no dense K.
    """
    if not 0.0 <= nu < np.inf:
        raise ValueError(f"noise level must be finite and nonnegative, got {nu!r}")
    # in Python floats, which overflow to inf without a numpy warning
    e_norm = nu * float(np.linalg.norm(problem.b_hat))
    if not e_norm < _MAX_SQUARABLE:
        raise ValueError(f"noise level {nu!r} makes ||e|| = nu * ||b_hat|| = "
                         f"{e_norm:.3g}, whose square overflows float64")
    if nu == 0.0:
        e = np.zeros(problem.n)
    else:
        gen = np.random.Generator(np.random.Philox(seed))
        raw = gen.standard_normal(problem.n)
        e = raw * (e_norm / np.linalg.norm(raw))
    return replace(problem, b=problem.b_hat + e,
                   noise=NoiseInfo(nu=float(nu), seed=int(seed), e=e))


def relative_error(x_k: np.ndarray, x_hat: np.ndarray) -> float:
    x_k = np.asarray(x_k, dtype=float)
    x_hat = np.asarray(x_hat, dtype=float)
    if x_k.shape != x_hat.shape:
        raise ShapeMismatch(f"shape {x_k.shape} vs {x_hat.shape}")
    return float(np.linalg.norm(x_k - x_hat) / np.linalg.norm(x_hat))
