"""Galerkin discretizations of two classic first-kind integral equations.

Both problems project kernel and solution onto orthonormal box functions
(height 1/sqrt(h) on each of n equal cells), so matrix entries are cell
integrals of the kernel divided by h, and both builders evaluate them
exactly.  The convolution problem on [-6, 6] has one closed form per
diagonal offset, Hansen's row plus a term for the kernel's support
edge, evaluated for all offsets in one vectorised expression; the
Green's-function problem on [0, 1] has piecewise-bilinear kernel pieces
and exact entry formulas.  The *_by_quadrature oracles in
tests/oracles.py cross-check both.

K is handed on as an operator, linalg's counted LinearOperator, so a
problem loads neither the transformation nor the regularizers.  At or
below DENSE_MAX_N a builder stores dense K and a product is one GEMV, a
block product one GEMM.  Above it a builder allocates no n x n array:
phillips, symmetric Toeplitz, multiplies through a circulant embedding
and the FFT, and deriv2, semiseparable, through two cumulative sums of
its generators, in O(n log n) and O(n).  Both work down axis 0, so one
callable serves a vector and each column of a block.  Dense K is then
assembled from the same closed forms each time it is read.

The synthetic data are noise-free right-hand sides b_hat = K x_hat with
a constant vector added to x_hat, plus Gaussian noise rescaled to a
prescribed relative level.  The exact noise norm is recorded so the
discrepancy principle can use it.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import BadDimension, ShapeMismatch
from .linalg import LinearOperator, column_norms, frobenius_norm

# The largest order at which K is stored dense.  Up to about this n one
# GEMV is as fast as the structured product; see CHANGES.md for the
# measurement.
DENSE_MAX_N = 320


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


def _smooth_length(size: int) -> int:
    """The smallest m >= size of the form 2^a 3^b 5^c, a length at which
    numpy's mixed-radix FFT is fast: for each 3^b 5^c, the least 2^a
    that brings it to size."""
    powers = range(size.bit_length())
    return min(q << (-(-size // q) - 1).bit_length()
               for q in (3 ** b * 5 ** c for b in powers for c in powers))


def _phillips_fft_matvec(offsets: np.ndarray) -> Callable:
    """x -> K x for the Toeplitz K of offsets, by circulant embedding.

    Only the first w offsets are nonzero (positive inside the kernel's
    support, exactly 0 beyond it), so a circulant of length m >= n + w - 1
    whose first column is offsets[:w], then zeros, then offsets[w-1:0:-1],
    holds K as its leading n x n block.  m is the smallest 5-smooth
    length at or above n + w - 1 (_smooth_length); the next power of two
    can be nearly twice that.  Its spectrum is taken once; each product
    is one forward and one inverse real FFT of length m.
    """
    n = offsets.size
    w = int(np.count_nonzero(offsets))
    m = _smooth_length(n + w - 1)
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
    """||x_k - x_hat|| / ||x_hat|| of the vector x_k: relative_errors of
    x_k as one column."""
    return float(relative_errors(np.expand_dims(x_k, -1), x_hat)[0])


def relative_errors(X: np.ndarray, x_hat: np.ndarray) -> np.ndarray:
    """||x - x_hat|| / ||x_hat|| for each column x of the n x s array X,
    with norms that stay finite where the sum of squares overflows, as
    for an x near the noise guard: ||x_hat|| taken once and the column
    norms of X - x_hat in one call (linalg.column_norms).  ValueError
    for a zero x_hat, against which no error is relative."""
    X = np.asarray(X, dtype=float)
    x_hat = np.asarray(x_hat, dtype=float)
    if X.ndim != 2 or x_hat.ndim != 1 or X.shape[0] != x_hat.size:
        raise ShapeMismatch(f"shape {X.shape} vs {x_hat.shape}")
    if not x_hat.any():
        raise ValueError("relative error against a zero reference solution x_hat")
    norms = column_norms(X - x_hat[:, None])
    with np.errstate(over="ignore"):  # an error beyond the float range is inf
        return norms / frobenius_norm(x_hat)
