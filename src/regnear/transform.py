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

Each routine states its matrix-vector product cost; the operator
wrapper counts products with K so drivers can report totals honestly.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from .errors import ShapeMismatch, SingularCore
from .linalg import RANK_TOL, solve_upper_triangular, thin_qr
from .regops import Mode, ProjectedRegularizer


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
class StandardFormContext:
    """Everything prepare_context factored out of (K, b, regularizer)."""

    reg: ProjectedRegularizer
    op: LinearOperator
    m: int
    n: int
    ell: int
    Q: np.ndarray            # m x ell, thin QR factor of K V
    R: np.ndarray            # ell x ell upper triangular
    x0: np.ndarray           # null-space component of the solution
    b1: np.ndarray           # right-hand side with the range of K V removed
    prepare_matvecs: int
    inner: Optional["StandardFormContext"] = None

    @property
    def matvec_count(self) -> int:
        return self.op.matvec_count

    @property
    def solver_rhs(self) -> np.ndarray:
        """Data vector of the standard-form system the solver iterates on."""
        if self.inner is not None:
            return self.inner.b1
        return self.b1

    def core_solve(self, z: np.ndarray) -> np.ndarray:
        """Action of the core factor's inverse.  No products with K.

        Minimal-norm pseudoinverse action in plain mode; identity when
        the regularizer is the identity.
        """
        z = np.asarray(z, dtype=float)
        if z.shape != (self.n,):
            raise ShapeMismatch(f"expected shape ({self.n},), got {z.shape}")
        return self.reg.core_solve(z)


def prepare_context(K, b: np.ndarray, reg: ProjectedRegularizer) -> StandardFormContext:
    """Factor the transformation.

    Costs ell products with K (2*ell in two-sided mode, whose nested
    split transforms the basis once more through the operator).
    """
    op = K if isinstance(K, LinearOperator) else LinearOperator.from_matrix(K)
    m, n = op.shape
    b = np.asarray(b, dtype=float)
    if b.shape != (m,):
        raise ShapeMismatch(f"right-hand side has shape {b.shape}, expected ({m},)")
    if reg.n != n:
        raise ShapeMismatch(f"regularizer built for n={reg.n}, operator has n={n}")

    ell = reg.basis.ell
    start = op.matvec_count
    if ell == 0:
        Q = np.zeros((m, 0))
        R = np.zeros((0, 0))
        x0 = np.zeros(n)
        b1 = b.copy()
    else:
        V = reg.basis.V
        kv = np.column_stack([op.matvec(V[:, j]) for j in range(ell)])
        Q, R = thin_qr(kv)
        qtb = Q.T @ b
        x0 = V @ solve_upper_triangular(R, qtb)
        b1 = b - Q @ qtb

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
            n=n, Ltilde=np.eye(n), basis=reg.basis, mode=Mode.RIGHT,
            kind=reg.kind, delta=reg.delta)
        inner = prepare_context(
            LinearOperator((m, n), once_transformed), b1, inner_reg)

    return StandardFormContext(
        reg=reg, op=op, m=m, n=n, ell=ell, Q=Q, R=R, x0=x0, b1=b1,
        prepare_matvecs=op.matvec_count - start, inner=inner)


def apply_k2(ctx: StandardFormContext, z: np.ndarray) -> np.ndarray:
    """Transformed operator on z.  Costs exactly one product with K."""
    if ctx.inner is not None:
        return apply_k2(ctx.inner, z)
    z = np.asarray(z, dtype=float)
    if ctx.reg.mode is Mode.IDENTITY:
        return ctx.op.matvec(z)
    t = ctx.op.matvec(ctx.core_solve(z))
    if ctx.ell == 0:
        return t
    return t - ctx.Q @ (ctx.Q.T @ t)


def apply_pk_dagger(ctx: StandardFormContext, y: np.ndarray) -> np.ndarray:
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
    z = np.asarray(z, dtype=float)
    if ctx.reg.mode is Mode.IDENTITY:
        if z.shape != (ctx.n,):
            raise ShapeMismatch(f"expected shape ({ctx.n},), got {z.shape}")
        return z.copy()
    if ctx.inner is not None:
        z = back_transform(ctx.inner, z)
    y = ctx.core_solve(z)
    return apply_pk_dagger(ctx, y) + ctx.x0


class _TransformedOperator:
    """Adapter presenting apply_k2 with the LinearOperator interface.

    Deliberately does not keep its own counter: the underlying operator
    already counts the single product with K each application costs.
    """

    def __init__(self, ctx: StandardFormContext):
        self._ctx = ctx
        self.shape = (ctx.m, ctx.n)

    def matvec(self, z: np.ndarray) -> np.ndarray:
        return apply_k2(self._ctx, z)

    @property
    def matvec_count(self) -> int:
        return self._ctx.op.matvec_count


def k2_operator(ctx: StandardFormContext) -> _TransformedOperator:
    return _TransformedOperator(ctx)


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
