"""Closest matrices with a prescribed null space.

Given a matrix A and an orthonormal basis V of a target null space, the
Frobenius-closest matrix whose null space contains span(V) is A*P with
P the orthogonal projector onto the complement of span(V).  When the
perturbed matrix must stay symmetric the closest choice is P*A*P.
These operations and the associated distances live here, computed
without forming P; the dense projector is an oracle, in oracles.

A NullSpaceBasis is its V alone, checked orthonormal when it is made.
Vectors given from outside reach it through from_vectors, whose thin
QR is the one check on them: Householder QR leaves its input in span(Q)
to rounding, so the vectors are neither kept nor checked again.

Every entry point meets linalg's two rules for arrays from outside,
in one prologue (_scaled): a non-finite matrix, like a non-finite V,
raises ValueError, and input out of range is scaled by exact powers of
two (linalg.scale_exponents), never by a division.  The entry points
scale a where its largest magnitude lies outside [2**-1000, 2**1000],
and the distance scales the products a V as well, once each, before
any square is formed, so that the squares neither overflow nor
underflow; a result is scaled back by linalg.scaled_back, which raises
OutOfRange when it leaves the float range.  distance_from_products is
the formula alone, for products whose squares fit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadDimension, NotSymmetric, RankDeficient, ShapeMismatch
from .linalg import LARGE, _as_float_array, frobenius_norm, scale_exponents, scaled_back, thin_qr

_ORTHO_TOL = 1e-12
# the entry points scale a matrix whose largest entry lies above it, or
# below its reciprocal, by a power of two (linalg.scale_exponents): below
# it, every product and sum they form, at most (1 + 3n) max|a|, stays
# finite for any order that fits in memory
_LARGE = 2.0 ** 1000


@dataclass(frozen=True, eq=False)
class NullSpaceBasis:
    """Orthonormal basis of the null space to be enforced.

    V, an n x ell array with orthonormal columns and ell < n (or
    ell = 0), is the one fact a basis carries; n and ell are read from
    its shape.  A V with a non-finite entry raises ValueError, one that
    is not orthonormal RankDeficient.  Vectors from outside become a
    basis through from_vectors, whose thin QR keeps their span.
    """

    V: np.ndarray

    def __post_init__(self):
        V = _as_float_array(self.V, "basis")
        if V.ndim != 2:
            raise ShapeMismatch(f"basis array must be 2-d, got shape {V.shape}")
        object.__setattr__(self, "V", V)
        if self.ell and self.ell >= self.n:
            raise BadDimension("basis must span a proper subspace (ell < n)")
        # an entry above 2**511 makes a diagonal entry of V^T V inf, which
        # fails the test, as a NaN from inf - inf elsewhere does
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.abs(V.T @ V - np.eye(self.ell)).max(initial=0.0) <= _ORTHO_TOL:
                raise RankDeficient("basis columns are not orthonormal")

    @property
    def n(self) -> int:
        return self.V.shape[0]

    @property
    def ell(self) -> int:
        return self.V.shape[1]

    @classmethod
    def empty(cls, n: int) -> "NullSpaceBasis":
        if n < 0:
            raise BadDimension(f"basis dimension must be nonnegative, got {n}")
        return cls(np.zeros((n, 0)))

    @classmethod
    def from_vectors(cls, vectors) -> "NullSpaceBasis":
        """Build a basis from the columns of `vectors` (a 1-d array is one
        column), orthonormalized by thin QR (raising RankDeficient for
        dependent input); vectors whose largest entry lies above _LARGE,
        or below its reciprocal, are scaled by a power of two first,
        which keeps their span and keeps their norms finite and
        normal."""
        a = np.asarray(vectors, dtype=float)
        if a.ndim == 1:
            a = a[:, None]
        if a.ndim != 2:
            raise ShapeMismatch("expected a 2-d array of column vectors")
        q, _ = thin_qr(np.ldexp(a, -scale_exponents(a, _LARGE)))
        return cls(q)


def _scaled(a, basis: NullSpaceBasis, symmetric: bool = False) -> tuple[np.ndarray, int]:
    """The one prologue of the entry points: a as a finite float matrix
    (ValueError otherwise) whose column count is basis.n (ShapeMismatch
    otherwise), scaled by 2**-e where its largest magnitude lies outside
    [1/_LARGE, _LARGE], and e; scaled_back(result, e) undoes it.  With
    symmetric, a must be square (ShapeMismatch) and symmetric to
    _ORTHO_TOL in the Frobenius norm (NotSymmetric), whose own scaling
    keeps the squares of a - a^T from overflowing or vanishing."""
    a = _as_float_array(a, "matrix")
    if a.ndim != 2:
        raise ShapeMismatch("expected a matrix")
    if a.shape[1] != basis.n:
        raise ShapeMismatch(f"matrix has {a.shape[1]} columns, basis lives in dimension {basis.n}")
    e = int(scale_exponents(a, _LARGE))
    a = np.ldexp(a, -e)
    if symmetric:
        if a.shape[0] != a.shape[1]:
            raise ShapeMismatch("symmetric variant needs a square matrix")
        if not frobenius_norm(a - a.T) <= _ORTHO_TOL * frobenius_norm(a):
            raise NotSymmetric("input matrix is not symmetric")
    return a, e


def nearest_with_nullspace(a, basis: NullSpaceBasis) -> np.ndarray:
    """Frobenius-closest matrix to `a` that annihilates span(basis).

    Equals a @ P for the orthogonal projector P; computed without
    forming P.  An empty basis subtracts exact zeros, so a comes back
    bit for bit.  OutOfRange when an entry of the result exceeds the
    float range.
    """
    a, e = _scaled(a, basis)
    return scaled_back(a - (a @ basis.V) @ basis.V.T, e, "nearest matrix")


def nearest_symmetric_with_nullspace(a, basis: NullSpaceBasis) -> np.ndarray:
    """Closest symmetric matrix with the prescribed null space: P a P."""
    a, e = _scaled(a, basis, symmetric=True)
    if basis.ell == 0:
        # the general formula's + V vtav V^T adds +0.0, which would turn
        # a -0.0 entry into +0.0
        return scaled_back(a, e, "nearest matrix")
    V = basis.V
    av = a @ V            # n x ell
    vtav = V.T @ av       # ell x ell
    return scaled_back(a - V @ av.T - av @ V.T + V @ vtav @ V.T, e, "nearest matrix")


def distance_from_products(V, av, atv=None) -> float:
    """The nearness distance from the products of A with the orthonormal
    basis V: av = A V, and atv = A^T V for the symmetric variant.

    General case: ||A V||_F.  Symmetric case: the norm of the full
    update A - P A P, whose blocks against span(V) and its complement W
    are V^T A V, V^T A W and W^T A V (W^T A W is kept), so its square is
    ||A V||^2 + ||A^T V||^2 - ||V^T A^T V||^2.

    The formula alone: the squares of the products, and their sums,
    must neither overflow nor underflow.  The stencil products of the
    distances table, whose entries are at most 1 in magnitude and whose
    largest is far above 2**-400, always meet this; nearness_distance
    scales its products by a power of two to meet it.
    """
    right = np.linalg.norm(av)
    if atv is None:
        return float(right)
    # ||V^T A W||^2, clamped so that rounding cannot put the symmetric
    # distance below the general one.  Each square is a product, which
    # rounds alike in every binade: numpy's ** 2 calls the C pow, which
    # is not always correctly rounded, and 2**j a would not always give
    # 2**j times the distance
    left, inner = np.linalg.norm(atv), np.linalg.norm(V.T @ atv)
    cross = left * left - inner * inner
    return float(np.sqrt(right * right + max(cross, 0.0)))


def nearness_distance(a, basis: NullSpaceBasis, symmetric: bool = False) -> float:
    """Frobenius distance from `a` to its closest null-space-constrained matrix.

    General case: || a V V^T ||_F, which reduces to || a V ||_F for an
    orthonormal basis.  Symmetric case: the norm of the update a - P a P,
    from a V and a^T V by distance_from_products; P a P is never formed.
    Its V^T a V block enters as ||V^T (a^T V)||, equal to ||V^T (a V)||
    in exact arithmetic.  In this form the rounding of the entries of
    a V that vanish in exact arithmetic does not reach the last bit for
    the catalog's L2_TILDE: this dense route and distance_from_products
    on the stencil product L2_TILDE V agree bit for bit at every order
    from 4 to 2000, where the form V^T (a V) differs at n = 78.

    a is scaled by 2**-e where its largest entry lies outside
    [2**-1000, 2**1000], and the products by 2**-f where theirs lies
    outside [2**-400, 2**400] (linalg.LARGE), read over both products
    at once, so that their squares neither overflow nor underflow: a
    zero a V does not keep a tiny a^T V from being scaled.  The
    distance comes back scaled by 2**(e + f).  OutOfRange when it
    exceeds the float range.
    """
    a, e = _scaled(a, basis, symmetric)
    products = [a @ basis.V] + ([a.T @ basis.V] if symmetric else [])
    f = int(scale_exponents(np.vstack(products), LARGE))
    dist = distance_from_products(basis.V, *(np.ldexp(p, -f) for p in products))
    return float(scaled_back(dist, e + f, "distance"))
