"""Difference-operator catalog and composed regularizers.

Scaled first- and second-difference matrices, their square variants
(zero-padded or made invertible), the closed-form null-space bases for
constants and linear trends, and the catalog of the six
named regularizers the solver pipeline consumes, each a core composed
with the projector of its null space and fixed by its name alone.

Each kind is one row of _KINDS: its stencil, the rule for the rows
where the stencil overhangs, and its closed-form solve.  The identity
is the one-point stencil.  The cores solve in numpy alone: the
bidiagonal first-difference cores by one reverse cumulative sum, the
1/4 tridiag(-1, 2, -1) cores by the two cumulative sums of its Green's
function.  Each works down axis 0, so it solves a vector or every
column of a block at once.  No regularizer holds an n x n array: its
dense core is assembled only when asked for, and stencil_product
applies a catalog matrix to an n x k block from its stencil in O(n k).
A dense catalog matrix is its stencil applied to the identity.  One
closed form gives every null-space basis: stacked_n2_bases lays the N2
bases of many orders in one array, so that one stencil product serves
them all, and checks that each is orthonormal; make_nullspace_basis
reads its basis from that array for one order, and N1 is the first
column of N2.  A basis is its V alone.  The module needs numpy alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from .errors import BadDimension, RankDeficient, SingularCore
from .linalg import checked_operand, triangle_is_singular
from .nearness import (_ORTHO_TOL, NullSpaceBasis, nearest_symmetric_with_nullspace,
                       nearest_with_nullspace)


class RegularizerKind(str, Enum):
    IDENTITY = "IDENTITY"
    L1_RECT = "L1_RECT"
    L2_RECT = "L2_RECT"
    L1_DELTA = "L1_DELTA"
    L1_ZERO = "L1_ZERO"
    L2_ZERO = "L2_ZERO"
    L2_TILDE = "L2_TILDE"


class Mode(str, Enum):
    """How the core matrix and the projector combine into the regularizer.
    The identity is the RIGHT case with an empty basis, whose P is I."""

    RIGHT = "RIGHT"            # L = core @ P
    TWO_SIDED = "TWO_SIDED"    # L = P @ core @ P
    PLAIN = "PLAIN"            # L = core, used as-is (square, singular)


# The difference stencils, coefficients left to right; entry
# (len - 1) // 2 sits on the diagonal
_FIRST = (0.5, -0.5)
_SECOND = (-0.25, 0.5, -0.25)

def _check_catalog_args(kind: RegularizerKind, n: int, delta: float) -> None:
    if n < 3:
        raise BadDimension(f"{kind.value} needs n >= 3")
    if not np.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta!r}")
    if kind is RegularizerKind.L1_DELTA and not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta!r}")


def make_regularization_matrix(kind: RegularizerKind, n: int, delta: float = 1.0) -> np.ndarray:
    """Assemble one of the catalog matrices at dimension n: its stencil
    applied to the identity, stencil_product(kind, n, I, delta)."""
    kind = RegularizerKind(kind)
    # before np.eye, so that a bad n raises BadDimension, not numpy's error
    _check_catalog_args(kind, n, delta)
    return stencil_product(kind, n, np.eye(n), delta)


def stencil_product(kind: RegularizerKind, n: int, X, delta: float = 1.0) -> np.ndarray:
    """L X for the catalog matrix L of the kind at dimension n, in O(n k).

    X has n rows (or is a vector of length n).  Each row of L X is the
    stencil's weighted sum of neighbouring rows of X, taken left to
    right; the rows where the stencil overhangs are kept with their
    in-range terms, zeroed or dropped as the kind's row of _KINDS says,
    and L1_DELTA scales the last row of X by delta / 2.  The identity
    is the one-point stencil, so its product is a copy of X.  No n x n
    array is formed unless X is one.
    """
    kind = RegularizerKind(kind)
    _check_catalog_args(kind, n, delta)
    X = checked_operand(X, n)

    stencil, overhang, _ = _KINDS[kind]
    top = (len(stencil) - 1) // 2
    bottom = n - (len(stencil) - 1 - top)
    # X between zero rows, so that an overhanging row sums its in-range
    # terms alone
    padded = np.zeros((n + len(stencil) - 1,) + X.shape[1:])
    padded[top:top + n] = X
    Y = stencil[0] * padded[:n]
    for j, c in enumerate(stencil[1:], 1):
        Y += c * padded[j:j + n]
    if overhang == "drop":
        return Y[top:bottom]
    if overhang == "zero":
        Y[:top] = 0.0
        Y[bottom:] = 0.0
    if kind is RegularizerKind.L1_DELTA:
        Y[-1] = delta / 2.0 * X[-1]
    return Y


def make_nullspace_basis(which: str, n: int) -> NullSpaceBasis:
    """Closed-form orthonormal bases: N1 = constants, N2 = constants +
    linear.  Both are read from stacked_n2_bases([n]), as a C-contiguous
    copy: N1 is the first column of N2, bit for bit."""
    V, _ = stacked_n2_bases([n])
    ell = {"N1": 1, "N2": 2}.get(which)
    if ell is None:
        raise ValueError(f"unknown null-space basis {which!r} (use 'N1' or 'N2')")
    return NullSpaceBasis(V[:n, :ell].copy())


def _stacked_n2(orders: np.ndarray) -> tuple[np.ndarray, ...]:
    """The closed form of the N2 bases of orders, stacked as
    stacked_n2_bases lays them out: the columns (v1, v2) of the bases,
    +0.0 on the zero rows, and starts.

    Entry for entry the same arithmetic at every order: v1 = 1 / sqrt(n)
    and v2 = (t - (n + 1) / 2) / sqrt(n (n^2 - 1) / 12) for t = 1..n.
    """
    rows = orders + 1
    n = orders.astype(float)
    ends = np.cumsum(rows)
    starts = ends - rows
    t = np.arange(1.0, ends[-1] + 1.0) - np.repeat(starts, rows)
    v1 = np.repeat(1.0 / np.sqrt(n), rows)
    v2 = ((t - np.repeat((n + 1.0) / 2.0, rows))
          / np.repeat(np.sqrt(n * (n * n - 1.0) / 12.0), rows))
    for column in (v1, v2):
        column[ends - 1] = 0.0
    return v1, v2, starts


def stacked_n2_bases(orders) -> tuple[np.ndarray, np.ndarray]:
    """The orthonormal N2 bases (constants and linear trends) of many
    orders in one array, each followed by one zero row.

    Returns (V, starts): V has sum(n + 1) rows and 2 columns, and the
    basis of orders[i] is V[starts[i]:starts[i] + orders[i]], bit for
    bit make_nullspace_basis("N2", orders[i]).V.  The zero row after
    each basis is the padding a three-point stencil reads at its edge,
    so one stencil_product of L2_TILDE, which keeps its overhang rows,
    over all of V gives on each basis's rows that order's own product,
    bit for bit.  The orthonormality check of NullSpaceBasis runs over
    every order at once, with its tolerance: RankDeficient when a basis
    is not orthonormal.
    """
    orders = np.asarray(orders, dtype=np.int64).reshape(-1)
    if orders.size == 0:
        raise BadDimension("stacked_n2_bases needs at least one order")
    if orders.min() < 3:
        raise BadDimension("null-space bases need n >= 3")
    v1, v2, starts = _stacked_n2(orders)

    def per_order(x):
        """The sum of x over each order's rows."""
        return np.add.reduceat(x, starts)

    # V^T V of each order
    if np.max(np.abs([per_order(v1 * v1) - 1.0, per_order(v1 * v2),
                      per_order(v2 * v2) - 1.0])) > _ORTHO_TOL:
        raise RankDeficient("basis columns are not orthonormal")
    return np.column_stack((v1, v2)), starts


def _first_difference_solve(z: np.ndarray, corner: float) -> np.ndarray:
    """Solve with the bidiagonal core, (1/2, -1/2) on each row and corner
    as its last diagonal entry, down axis 0 of z.

    x_{n-1} = z_{n-1} / corner, then x_i = 2 z_i + x_{i+1}: one reverse
    cumulative sum.  Doubling is exact and the sum runs in sequence, so
    this rounds exactly as a banded back substitution does.
    """
    a = 2.0 * z
    a[-1] = z[-1] / corner
    return np.cumsum(a[::-1], axis=0)[::-1].copy()


def _second_difference_solve(r: np.ndarray) -> np.ndarray:
    """T^-1 r for T = tridiag(-1, 2, -1) of order m, down axis 0 of r.

    T^-1 is the Green's function min(i, j) (m + 1 - max(i, j)) / (m + 1),
    indices from 1, so the product is two cumulative sums: of j r_j up
    to row i and of (m + 1 - j) r_j beyond it.
    """
    m = r.shape[0]
    i = np.arange(1.0, m + 1.0).reshape((m,) + (1,) * (r.ndim - 1))
    up_to = np.cumsum(i * r, axis=0)
    beyond = np.zeros(r.shape)
    beyond[:-1] = np.cumsum(((m + 1.0 - i) * r)[:0:-1], axis=0)[::-1]
    return ((m + 1.0 - i) * up_to + i * beyond) / (m + 1.0)


def _completed_second_difference_solve(z: np.ndarray) -> np.ndarray:
    """Solve with L2_ZERO completed by unit rows 0 and n-1: x keeps z's
    end entries, and the interior rows are 1/4 T of order n-2 with the
    ends moved to the right-hand side."""
    r = 4.0 * z[1:-1]
    r[0] += z[0]
    r[-1] += z[-1]
    return np.concatenate((z[:1], _second_difference_solve(r), z[-1:]))


# One row per kind: its stencil; what becomes of the rows where the
# stencil overhangs the n columns (kept with their in-range entries,
# zeroed or dropped); and its closed-form solve of (z, delta) with the
# square core, completed by unit rows in place of its zero rows, or
# None for a rectangular core.  The identity is the one-point stencil;
# np.copy keeps z's memory order, by which the products downstream round.
_KINDS = {
    RegularizerKind.IDENTITY: ((1.0,), "keep", lambda z, delta: np.copy(z)),
    RegularizerKind.L1_RECT: (_FIRST, "drop", None),
    RegularizerKind.L2_RECT: (_SECOND, "drop", None),
    RegularizerKind.L1_DELTA: (_FIRST, "zero",
                               lambda z, delta: _first_difference_solve(z, delta / 2.0)),
    RegularizerKind.L1_ZERO: (_FIRST, "zero",
                              lambda z, delta: _first_difference_solve(z, 1.0)),
    RegularizerKind.L2_ZERO: (_SECOND, "zero",
                              lambda z, delta: _completed_second_difference_solve(z)),
    RegularizerKind.L2_TILDE: (_SECOND, "keep",
                               lambda z, delta: _second_difference_solve(4.0 * z)),
}


# The named regularizers, in canonical output order: the kind of each
# one's core, the mode that composes it and the null-space basis its
# projector removes (first differences annihilate constants, second
# differences affine trends, the identity nothing: its basis is
# empty).  A name fixes a ProjectedRegularizer.
_CATALOG = {
    "I": (RegularizerKind.IDENTITY, Mode.RIGHT, None),
    "L10": (RegularizerKind.L1_ZERO, Mode.PLAIN, "N1"),
    "L1dP1": (RegularizerKind.L1_DELTA, Mode.RIGHT, "N1"),
    "L20": (RegularizerKind.L2_ZERO, Mode.PLAIN, "N2"),
    "L2tP2": (RegularizerKind.L2_TILDE, Mode.RIGHT, "N2"),
    "P2L2tP2": (RegularizerKind.L2_TILDE, Mode.TWO_SIDED, "N2"),
}
REGULARIZER_NAMES = tuple(_CATALOG)


def catalog_entry(name: str) -> tuple:
    """The (kind, mode, basis name) of a named regularizer; an unknown
    name raises ValueError."""
    try:
        return _CATALOG[name]
    except KeyError:
        valid = ", ".join(REGULARIZER_NAMES)
        raise ValueError(f"unknown regularizer {name!r}; "
                         f"valid names: {valid}") from None


@dataclass(frozen=True, eq=False)
class ProjectedRegularizer:
    """A named regularizer of order n, ready for the standard-form
    transformation.

    The catalog name fixes the rest, which is read from the catalog
    when the regularizer is built: kind (its core's row of _KINDS),
    mode (how core and projector compose) and basis (the null space the
    projector enforces).  The kind's closed-form solve is bound to
    delta once, here, with no factorization, and no dense core is
    stored: Ltilde (the regularizer itself in PLAIN mode and for I) is
    assembled from (kind, n, delta) each time it is read.  An
    unknown name raises ValueError, and a numerically singular core
    raises SingularCore.
    """

    name: str
    n: int
    delta: float = 1.0

    def __post_init__(self):
        kind, mode, basis_name = catalog_entry(self.name)
        _check_catalog_args(kind, self.n, self.delta)
        basis = (NullSpaceBasis.empty(self.n) if basis_name is None
                 else make_nullspace_basis(basis_name, self.n))
        if kind is RegularizerKind.L1_DELTA:
            # the only core that can be singular: its pivots are its
            # diagonal, 1/2 and delta/2, while the 1/4 T cores pivot on
            # (i + 1) / (4 i) >= 1/4 and a completion's unit rows on 1
            corner = self.delta / 2.0
            pivot = min(0.5, corner)
            if triangle_is_singular(pivot, max(0.5, corner)):
                raise SingularCore(f"core of {kind.value} is numerically singular "
                                   f"(smallest pivot {pivot:.3g})")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_solve", partial(_KINDS[kind][2], delta=self.delta))

    @property
    def Ltilde(self) -> np.ndarray:
        return make_regularization_matrix(self.kind, self.n, self.delta)

    def core_solve(self, z: np.ndarray) -> np.ndarray:
        """Action of the core's inverse: the minimal-norm pseudoinverse in
        PLAIN mode.  On a vector, or on each column of an n x s block.
        Always a new array.

        The PLAIN action solves with the core completed by unit rows in
        place of its zero rows, then projects out the basis.  This equals
        pinv(Ltilde) @ z, because the catalog's basis spans the null
        space of each zero-row stencil: the entries of z on the replaced
        rows solve to a vector in the span of the basis, which the
        projection removes.
        """
        y = self._solve(checked_operand(z, self.n))
        if self.mode is not Mode.PLAIN:
            return y
        V = self.basis.V
        return y - V @ (V.T @ y)

    def effective_matrix(self) -> np.ndarray:
        """The regularizer itself, densely.

        In RIGHT mode it is the nearest matrix to the core whose null
        space contains span(basis), core @ P; in TWO_SIDED mode the
        nearest symmetric one, P @ core @ P.  Both are computed by
        nearness; for I, whose basis is empty, that is the core itself.
        In PLAIN mode it is the core.
        """
        if self.mode is Mode.RIGHT:
            return nearest_with_nullspace(self.Ltilde, self.basis)
        if self.mode is Mode.TWO_SIDED:
            return nearest_symmetric_with_nullspace(self.Ltilde, self.basis)
        return self.Ltilde


def regularizer_from_name(name: str, n: int, delta: float = 1.0) -> ProjectedRegularizer:
    return ProjectedRegularizer(name, n, delta)
