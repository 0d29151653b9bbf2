"""Difference-operator catalog and composed regularizers.

Scaled first- and second-difference matrices, their square variants
(zero-padded or made invertible), the closed-form null-space bases and
projectors for constants and linear trends, and the composition of an
invertible core with a projector into the regularizers the solver
pipeline consumes.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .errors import BadDimension, ShapeMismatch, SingularCore
from .linalg import RANK_TOL
from .nearness import NullSpaceBasis


class RegularizerKind(str, Enum):
    IDENTITY = "IDENTITY"
    L1_RECT = "L1_RECT"
    L2_RECT = "L2_RECT"
    L1_DELTA = "L1_DELTA"
    L1_ZERO = "L1_ZERO"
    L2_ZERO = "L2_ZERO"
    L2_TILDE = "L2_TILDE"


class Mode(str, Enum):
    """How the core matrix and the projector combine into the regularizer."""

    IDENTITY = "IDENTITY"      # L = I, no transformation needed
    RIGHT = "RIGHT"            # L = core @ P
    TWO_SIDED = "TWO_SIDED"    # L = P @ core @ P
    PLAIN = "PLAIN"            # L = core, used as-is (square, singular)


def make_regularization_matrix(kind: RegularizerKind, n: int, delta: float = 1.0) -> np.ndarray:
    """Assemble one of the catalog matrices at dimension n."""
    kind = RegularizerKind(kind)
    if n < 3:
        raise BadDimension(f"{kind.value} needs n >= 3")
    if not np.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta!r}")
    if kind is RegularizerKind.L1_DELTA and not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta!r}")

    if kind is RegularizerKind.IDENTITY:
        return np.eye(n)

    if kind is RegularizerKind.L1_RECT:
        L = np.zeros((n - 1, n))
        idx = np.arange(n - 1)
        L[idx, idx] = 0.5
        L[idx, idx + 1] = -0.5
        return L

    if kind is RegularizerKind.L2_RECT:
        L = np.zeros((n - 2, n))
        idx = np.arange(n - 2)
        L[idx, idx] = -0.25
        L[idx, idx + 1] = 0.5
        L[idx, idx + 2] = -0.25
        return L

    if kind in (RegularizerKind.L1_DELTA, RegularizerKind.L1_ZERO):
        if kind is RegularizerKind.L1_ZERO:
            delta = 0.0
        L = np.zeros((n, n))
        idx = np.arange(n - 1)
        L[idx, idx] = 0.5
        L[idx, idx + 1] = -0.5
        L[n - 1, n - 1] = delta / 2.0
        return L

    if kind is RegularizerKind.L2_ZERO:
        L = np.zeros((n, n))
        idx = np.arange(1, n - 1)
        L[idx, idx - 1] = -0.25
        L[idx, idx] = 0.5
        L[idx, idx + 1] = -0.25
        return L

    # L2_TILDE: full tridiagonal second difference, corner rows included
    L = np.zeros((n, n))
    idx = np.arange(n)
    L[idx, idx] = 0.5
    L[idx[:-1], idx[:-1] + 1] = -0.25
    L[idx[1:], idx[1:] - 1] = -0.25
    return L


def make_nullspace_basis(which: str, n: int) -> NullSpaceBasis:
    """Closed-form orthonormal bases: N1 = constants, N2 = constants + linear."""
    if n < 3:
        raise BadDimension("null-space bases need n >= 3")
    if which == "N1":
        raw = np.ones((n, 1))
        V = raw / np.sqrt(n)
        return NullSpaceBasis(n=n, ell=1, V=V, raw=raw)
    if which == "N2":
        t = np.arange(1.0, n + 1.0)
        raw = np.column_stack([np.ones(n), t])
        v1 = np.ones(n) / np.sqrt(n)
        centered = t - (n + 1.0) / 2.0
        v2 = centered / np.sqrt(n * (n * n - 1.0) / 12.0)
        return NullSpaceBasis(n=n, ell=2, V=np.column_stack([v1, v2]), raw=raw)
    raise ValueError(f"unknown null-space basis {which!r} (use 'N1' or 'N2')")


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


# Per composable kind: the null-space basis it pairs with (first
# differences annihilate constants, second differences affine trends)
# and the modes it may be composed in.
_KIND_TABLE = {
    RegularizerKind.IDENTITY: (None, {Mode.IDENTITY}),
    RegularizerKind.L1_DELTA: ("N1", {Mode.RIGHT, Mode.TWO_SIDED}),
    RegularizerKind.L1_ZERO: ("N1", {Mode.PLAIN}),
    RegularizerKind.L2_TILDE: ("N2", {Mode.RIGHT, Mode.TWO_SIDED}),
    RegularizerKind.L2_ZERO: ("N2", {Mode.PLAIN}),
}


@dataclass(frozen=True)
class ProjectedRegularizer:
    """A regularizer ready for the standard-form transformation.

    Ltilde is the square core matrix (the regularizer itself in PLAIN
    and IDENTITY modes); basis spans the null space that the projector
    enforces (empty in IDENTITY mode).

    Every non-identity core is LU-factored once, in banded storage, at
    construction; a numerically singular factor raises SingularCore.
    In PLAIN mode the zero rows of Ltilde are first replaced by unit
    rows, which completes the singular matrix to an invertible one.
    """

    n: int
    Ltilde: np.ndarray
    basis: NullSpaceBasis
    mode: Mode
    kind: RegularizerKind
    delta: float = 1.0

    def __post_init__(self):
        if self.Ltilde.shape != (self.n, self.n):
            raise ShapeMismatch("core matrix must be square of size n")
        if self.basis.n != self.n:
            raise ShapeMismatch("basis dimension does not match")
        if self.mode is Mode.IDENTITY:
            return
        core = np.asarray(self.Ltilde, dtype=float)
        free = None
        if self.mode is Mode.PLAIN:
            free = np.flatnonzero(~core.any(axis=1))
            core = core.copy()
            core[free, free] = 1.0
        rows, cols = np.nonzero(core)
        kl = int(np.max(rows - cols, initial=0))
        ku = int(np.max(cols - rows, initial=0))
        ab = np.zeros((2 * kl + ku + 1, self.n))
        ab[kl + ku + rows - cols, cols] = core[rows, cols]
        lu, piv, _ = dgbtrf(ab, kl, ku)
        pivot = np.min(np.abs(lu[kl + ku]))
        if not pivot > RANK_TOL * np.max(np.abs(ab)):
            raise SingularCore(f"core of {self.kind.value} is numerically singular "
                               f"(smallest pivot {pivot:.3g})")
        object.__setattr__(self, "_factor", (kl, ku, lu, piv, free))

    def core_solve(self, z: np.ndarray) -> np.ndarray:
        """Action of the core's inverse: the minimal-norm pseudoinverse in
        PLAIN mode, the identity in IDENTITY mode.

        The PLAIN action solves with the completed core after zeroing
        the entries of z on the replaced rows, then projects out the
        basis.  This equals pinv(Ltilde) @ z when the basis spans the
        null space of Ltilde and its nonzero rows have full rank, as for
        the catalog's zero-row stencils.
        """
        z = np.asarray(z, dtype=float)
        if self.mode is Mode.IDENTITY:
            return z.copy()
        kl, ku, lu, piv, free = self._factor
        if free is None:
            return dgbtrs(lu, kl, ku, z, piv)[0]
        z = z.copy()
        z[free] = 0.0
        y = dgbtrs(lu, kl, ku, z, piv)[0]
        V = self.basis.V
        return y - V @ (V.T @ y)

    def projector(self) -> np.ndarray:
        if self.basis.ell == 0:
            return np.eye(self.n)
        V = self.basis.V
        return np.eye(self.n) - V @ V.T

    def effective_matrix(self) -> np.ndarray:
        """Assemble the regularizer this object represents, densely."""
        if self.mode in (Mode.IDENTITY, Mode.PLAIN):
            return self.Ltilde.copy()
        P = self.projector()
        if self.mode is Mode.RIGHT:
            return self.Ltilde @ P
        return P @ self.Ltilde @ P


def compose_regularizer(kind: RegularizerKind, n: int, mode: Mode,
                        delta: float = 1.0) -> ProjectedRegularizer:
    """Combine a catalog matrix with its matching null-space projector.

    The basis is implied by the kind (first-difference kinds pair with
    the constant null space, second-difference kinds with the affine
    one).  A numerically singular core raises SingularCore.
    """
    kind = RegularizerKind(kind)
    mode = Mode(mode)
    basis_name, modes = _KIND_TABLE.get(kind, (None, set()))
    if mode not in modes:
        allowed = ", ".join(sorted(m.value for m in modes))
        raise ValueError(f"kind {kind.value} composes in modes {{{allowed}}}, "
                         f"not {mode.value}")
    core = make_regularization_matrix(kind, n, delta)
    basis = (NullSpaceBasis.empty(n) if basis_name is None
             else make_nullspace_basis(basis_name, n))
    return ProjectedRegularizer(n=n, Ltilde=core, basis=basis, mode=mode,
                                kind=kind, delta=delta)


# Names accepted on the command line, in canonical output order.
_NAME_TABLE = {
    "I": (RegularizerKind.IDENTITY, Mode.IDENTITY),
    "L10": (RegularizerKind.L1_ZERO, Mode.PLAIN),
    "L1dP1": (RegularizerKind.L1_DELTA, Mode.RIGHT),
    "L20": (RegularizerKind.L2_ZERO, Mode.PLAIN),
    "L2tP2": (RegularizerKind.L2_TILDE, Mode.RIGHT),
    "P2L2tP2": (RegularizerKind.L2_TILDE, Mode.TWO_SIDED),
}
REGULARIZER_NAMES = tuple(_NAME_TABLE)


def regularizer_from_name(name: str, n: int, delta: float = 1.0) -> ProjectedRegularizer:
    try:
        kind, mode = _NAME_TABLE[name]
    except KeyError:
        valid = ", ".join(REGULARIZER_NAMES)
        raise ValueError(f"unknown regularizer {name!r}; valid names: {valid}") from None
    return compose_regularizer(kind, n, mode, delta)
