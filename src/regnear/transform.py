"""Standard-form transformation for general-form regularized problems.

Folds a regularizer with known null space into the operator so the
iterative solver only ever sees a standard-form system.  The factored
pieces are computed once; afterwards every application of the
transformed operator costs exactly one product with K, and mapping a
transformed solution back costs one more (two for the nested variant).

Mode by mode:

* right-projected (core @ P): the null-space component is split off
  against the data via a thin QR of K V, and the invertible core is
  absorbed by a banded solve per application;
* two-sided (P @ core @ P): after the split and the core solve, the
  leftover projector is handled by a second split of the same shape,
  applied to the once-transformed operator and right-hand side.  The
  result is a nested context whose own split refits the null-space
  component against the data;
* plain singular square matrices: the split plus the minimal-norm
  pseudoinverse action of the full matrix, a banded solve with its
  invertible completion (zero rows replaced by unit rows) followed by
  the removal of the null-space component.

The two-sided refit trades the exact penalty bookkeeping for data fit,
which is the behaviour the iterative solver wants.  The exact fixed-mu
minimizer is still recoverable: tikhonov_minimizer_via_transform solves
the transformed problem on the subspace the substitution actually
reaches (right/plain modes) or through the effective regularizer's
pseudoinverse (two-sided), and maps back.  Both reproduce the dense
general-form solution to rounding error.

The work comes in two steps.  factor_transform(K, reg) does everything
that does not depend on the data: the thin QR of K V, the core's banded
LU (owned by the regularizer) and, in two-sided mode, the nested split.
It costs ell products with K (2*ell in two-sided mode) and records that
count.  project_rhs(factor, b) then computes the per-b pieces x0 and b1,
recursing into the nested split, with no product with K, so one factor
serves any number of right-hand sides.  prepare_context(K, b, reg) is
the two steps in a row.

Each routine states its matrix-vector product cost.  The context is
itself the transformed operator (shape, matvec) handed to the solver,
and its matvec_count is the count of products with K that the wrapped
LinearOperator keeps.  That count runs across every context made from
one factor, so a driver that shares a factor counts one run as the
factor's prepare_matvecs plus the products the run itself makes.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from .errors import ShapeMismatch, SingularCore
from .linalg import RANK_TOL, solve_upper_triangular, thin_qr
from .regops import Mode, ProjectedRegularizer, RegularizerKind


class LinearOperator:
    """Matrix-vector products with a running, thread-safe count."""

    def __init__(self, shape: tuple[int, int], matvec: Callable[[np.ndarray], np.ndarray]):
        m, n = shape
        if m < 1 or n < 1:
            raise ShapeMismatch("operator shape must be positive")
        self.shape = (int(m), int(n))
        self._matvec = matvec
        self._count = 0
        self._lock = threading.Lock()

    @classmethod
    def from_matrix(cls, a: np.ndarray) -> "LinearOperator":
        a = np.asarray(a, dtype=float)
        if a.ndim != 2:
            raise ShapeMismatch("from_matrix expects a 2-d array")
        return cls(a.shape, lambda v: a @ v)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.shape[1],):
            raise ShapeMismatch(
                f"operand has shape {v.shape}, operator expects ({self.shape[1]},)")
        with self._lock:
            self._count += 1
        return np.asarray(self._matvec(v), dtype=float)

    @property
    def matvec_count(self) -> int:
        with self._lock:
            return self._count


@dataclass
class StandardFormFactor:
    """What factor_transform computes from (K, regularizer) alone."""

    reg: ProjectedRegularizer
    op: LinearOperator
    m: int
    n: int
    ell: int
    Q: np.ndarray            # m x ell, thin QR factor of K V
    R: np.ndarray            # ell x ell upper triangular
    prepare_matvecs: int
    inner: Optional["StandardFormFactor"]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.m, self.n)

    def matvec(self, z: np.ndarray) -> np.ndarray:
        """The transformed operator; see apply_k2."""
        return apply_k2(self, z)

    @property
    def matvec_count(self) -> int:
        """Products with K made so far through the wrapped operator.

        The count is cumulative: it spans every factor and context that
        shares the operator, so with one factor serving several
        right-hand sides it covers all of their runs.
        """
        return self.op.matvec_count

    def core_solve(self, z: np.ndarray) -> np.ndarray:
        """Action of the core factor's inverse.  No products with K.

        Minimal-norm pseudoinverse action in plain mode; identity when
        the regularizer is the identity.
        """
        z = np.asarray(z, dtype=float)
        if z.shape != (self.n,):
            raise ShapeMismatch(f"expected shape ({self.n},), got {z.shape}")
        return self.reg.core_solve(z)


@dataclass
class StandardFormContext(StandardFormFactor):
    """A factor together with the per-b pieces project_rhs computed."""

    x0: np.ndarray           # null-space component of the solution
    b1: np.ndarray           # right-hand side with the range of K V removed

    @property
    def solver_rhs(self) -> np.ndarray:
        """Data vector of the standard-form system the solver iterates on."""
        if self.inner is not None:
            return self.inner.b1
        return self.b1


# the fields a context copies from its factor; inner is projected anew
_FACTOR_FIELDS = tuple(f.name for f in fields(StandardFormFactor) if f.name != "inner")


def _as_operator(K) -> LinearOperator:
    return K if isinstance(K, LinearOperator) else LinearOperator.from_matrix(K)


def _checked_rhs(b: np.ndarray, m: int) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    if b.shape != (m,):
        raise ShapeMismatch(f"right-hand side has shape {b.shape}, expected ({m},)")
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side must be finite")
    return b


def factor_transform(K, reg: ProjectedRegularizer) -> StandardFormFactor:
    """The factor step: all the work that does not depend on b.

    Costs ell products with K (2*ell in two-sided mode, whose nested
    split transforms the basis once more through the operator).
    """
    op = _as_operator(K)
    m, n = op.shape
    if reg.n != n:
        raise ShapeMismatch(f"regularizer built for n={reg.n}, operator has n={n}")

    ell = reg.basis.ell
    start = op.matvec_count
    if ell == 0:
        Q = np.zeros((m, 0))
        R = np.zeros((0, 0))
    else:
        V = reg.basis.V
        kv = np.column_stack([op.matvec(V[:, j]) for j in range(ell)])
        Q, R = thin_qr(kv)

    inner = None
    if reg.mode is Mode.TWO_SIDED:
        # Third step: the projector left of the core is split off the
        # same way the outer null space was, but against the operator
        # that already carries the first two steps.
        def once_transformed(z: np.ndarray) -> np.ndarray:
            t = op.matvec(reg.core_solve(z))
            if ell == 0:
                return t
            return t - Q @ (Q.T @ t)

        inner_reg = ProjectedRegularizer(
            n=n, Ltilde=np.eye(n), basis=reg.basis, mode=Mode.IDENTITY,
            kind=RegularizerKind.IDENTITY, delta=reg.delta)
        inner = factor_transform(LinearOperator((m, n), once_transformed), inner_reg)

    return StandardFormFactor(
        reg=reg, op=op, m=m, n=n, ell=ell, Q=Q, R=R,
        prepare_matvecs=op.matvec_count - start, inner=inner)


def project_rhs(factor: StandardFormFactor, b: np.ndarray) -> StandardFormContext:
    """The per-b step: x0 and b1, also for the nested split.

    Costs no products with K and leaves the factor as it was.
    """
    return _project(factor, _checked_rhs(b, factor.m))


def _project(factor: StandardFormFactor, b: np.ndarray) -> StandardFormContext:
    if factor.ell == 0:
        x0 = np.zeros(factor.n)
        b1 = b.copy()
    else:
        qtb = factor.Q.T @ b
        x0 = factor.reg.basis.V @ solve_upper_triangular(factor.R, qtb)
        b1 = b - factor.Q @ qtb
    inner = None if factor.inner is None else _project(factor.inner, b1)
    shared = {name: getattr(factor, name) for name in _FACTOR_FIELDS}
    return StandardFormContext(**shared, inner=inner, x0=x0, b1=b1)


def prepare_context(K, b: np.ndarray, reg: ProjectedRegularizer) -> StandardFormContext:
    """The factor step followed by the per-b step.

    Costs ell products with K (2*ell in two-sided mode); a right-hand
    side of the wrong shape or with non-finite entries is rejected
    before any of them.
    """
    op = _as_operator(K)
    b = _checked_rhs(b, op.shape[0])
    return _project(factor_transform(op, reg), b)


def apply_k2(ctx: StandardFormFactor, z: np.ndarray) -> np.ndarray:
    """Transformed operator on z.  Costs exactly one product with K."""
    if ctx.inner is not None:
        return apply_k2(ctx.inner, z)
    t = ctx.op.matvec(ctx.core_solve(z))
    if ctx.ell == 0:
        return t
    return t - ctx.Q @ (ctx.Q.T @ t)


def apply_pk_dagger(ctx: StandardFormFactor, y: np.ndarray) -> np.ndarray:
    """Oblique projector that restores the null-space component's slot.

    Costs one product with K when the null space is nontrivial, none
    otherwise.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (ctx.n,):
        raise ShapeMismatch(f"expected shape ({ctx.n},), got {y.shape}")
    if ctx.ell == 0:
        return y.copy()
    ky = ctx.op.matvec(y)
    coeff = solve_upper_triangular(ctx.R, ctx.Q.T @ ky)
    return y - ctx.reg.basis.V @ coeff


def back_transform(ctx: StandardFormContext, z: np.ndarray) -> np.ndarray:
    """Map a transformed-space solution back to the original variables.

    Costs one product with K when the null space is nontrivial (two in
    two-sided mode), none otherwise.  The residual is preserved exactly:
    for the returned x, ||K x - b|| equals the transformed residual.
    """
    if ctx.inner is not None:
        z = back_transform(ctx.inner, z)
    y = ctx.core_solve(z)
    return apply_pk_dagger(ctx, y) + ctx.x0


def k2_operator(ctx: StandardFormContext) -> StandardFormContext:
    """The transformed operator, which is the context itself."""
    return ctx


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
    two-sided mode the nested data refit breaks that bookkeeping, and
    the minimizer is routed through the effective regularizer's
    pseudoinverse instead.  Agrees with the dense normal-equations
    solution of the general-form problem to rounding error.
    """
    K = np.asarray(K, dtype=float)
    b = np.asarray(b, dtype=float)
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    ctx = prepare_context(LinearOperator.from_matrix(K), b, reg)
    n = ctx.n

    if reg.mode is Mode.IDENTITY:
        g = K.T @ K + mu * np.eye(n)
        return scipy.linalg.cho_solve(scipy.linalg.cho_factor(g), K.T @ b)

    if reg.mode in (Mode.RIGHT, Mode.PLAIN):
        lam = reg.effective_matrix()
        w = _orthonormal_range(lam, n - ctx.ell)
        k2w = np.column_stack([apply_k2(ctx, w[:, j]) for j in range(w.shape[1])])
        g = k2w.T @ k2w + mu * np.eye(w.shape[1])
        s = scipy.linalg.cho_solve(scipy.linalg.cho_factor(g), k2w.T @ ctx.b1)
        return back_transform(ctx, w @ s)

    # Two-sided: the pseudoinverse of P core P is solve(P core P + V V^T, P z),
    # because the shifted matrix acts as the core on the complement and as
    # the identity on the null space.
    V = reg.basis.V
    lam = reg.effective_matrix()
    shifted = lam + V @ V.T
    pinv_core = scipy.linalg.solve(shifted, reg.projector())
    k1 = K - ctx.Q @ (ctx.Q.T @ K)
    khat = k1 @ pinv_core
    g = khat.T @ khat + mu * np.eye(n)
    zeta = scipy.linalg.cho_solve(scipy.linalg.cho_factor(g), khat.T @ ctx.b1)
    return apply_pk_dagger(ctx, pinv_core @ zeta) + ctx.x0
