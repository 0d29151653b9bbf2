"""Plain numpy reference values the output checker compares against.

Nothing here imports regnear: the checker must not trust the code it
checks, and it must keep working when the package's internals change.
Each function restates the problem definition in the README and the
paper: Galerkin matrices on box functions for phillips and deriv2, the
rescaled Philox noise, and the nearness distances of the tridiagonal
second-difference matrix computed from an explicit dense projector.
"""
from __future__ import annotations

import numpy as np

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def _phillips_bump(u: np.ndarray) -> np.ndarray:
    return np.where(np.abs(u) < 3.0, 1.0 + np.cos(np.pi * u / 3.0), 0.0)


def _gauss_legendre(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Integrate f over each [lo_i, hi_i] with 20 nodes; empty intervals give 0."""
    half = np.maximum(hi - lo, 0.0)[:, None] / 2.0
    mid = (hi + lo)[:, None] / 2.0
    return (half * _GL_WEIGHTS * f(mid + half * _GL_NODES)).sum(axis=1)


def phillips(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense K and x_hat of the phillips problem on n cells of [-6, 6].

    K is symmetric Toeplitz; the entry at offset d is the kernel
    integrated against the triangular overlap weight of two cells d apart,
    divided by h.  The integrand is smooth on each side of the weight's
    kink, so a fixed 20-node rule on each side is exact to rounding.
    """
    h = 12.0 / n
    c = np.arange(n) * h
    lo = np.maximum(c - h, -3.0)
    hi = np.minimum(c + h, 3.0)
    cc = c[:, None]

    def weighted(u):
        return _phillips_bump(u) * (h - np.abs(u - cc))

    left = _gauss_legendre(weighted, lo, np.minimum(cc[:, 0], hi))
    right = _gauss_legendre(weighted, np.maximum(cc[:, 0], lo), hi)
    offsets = (left + right) / h
    idx = np.arange(n)
    K = offsets[np.abs(idx[:, None] - idx[None, :])]
    mids = -6.0 + (idx + 0.5) * h
    return K, np.sqrt(h) * _phillips_bump(mids) + 1.0


def deriv2(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense K and x_hat of the deriv2 Green's-function problem on [0, 1]."""
    h = 1.0 / n
    mids = (np.arange(n) + 0.5) * h
    lower = h * mids[None, :] * (mids[:, None] - 1.0)   # valid for i > j
    K = np.tril(lower, -1)
    K = K + K.T
    a = np.arange(n) * h
    b = a + h
    K[np.arange(n), np.arange(n)] = ((b + a) * (b ** 2 + a ** 2) / 4.0
                                     - (b ** 2 + a * b + a ** 2) / 3.0
                                     - a ** 2 * (b + a) / 2.0 + a ** 2)
    return K, np.sqrt(h) * np.exp(mids) + 1.0


PROBLEMS = {"phillips": phillips, "deriv2": deriv2}


def noisy_rhs(b_hat: np.ndarray, nu: float, seed: int) -> np.ndarray:
    """b_hat plus Philox Gaussian noise rescaled to norm nu * ||b_hat||."""
    raw = np.random.Generator(np.random.Philox(seed)).standard_normal(b_hat.size)
    return b_hat + raw * (nu * np.linalg.norm(b_hat) / np.linalg.norm(raw))


def distances_row(n: int) -> tuple[float, float, float]:
    """(||L2t - L20||_F, ||A - P A P||_F, ||A V||_F) for A = L2t at order n.

    V is an orthonormal basis of the constants and linear trends and
    P = I - V V^T, formed densely.
    """
    l2t = (np.diag(np.full(n, 0.5)) + np.diag(np.full(n - 1, -0.25), 1)
           + np.diag(np.full(n - 1, -0.25), -1))
    l20 = l2t.copy()
    l20[[0, -1], :] = 0.0
    t = np.arange(1.0, n + 1.0)
    V, _ = np.linalg.qr(np.column_stack([np.ones(n), t]))
    P = np.eye(n) - V @ V.T
    return (float(np.linalg.norm(l2t - l20)),
            float(np.linalg.norm(l2t - P @ l2t @ P)),
            float(np.linalg.norm(l2t @ V)))
