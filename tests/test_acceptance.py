"""Acceptance checks for the assembled toolkit.

One test per criterion, so `pytest -v` reports a pass/fail line for each:
exact distance identities, nearness optimality, projector closed forms,
transformation equivalence, solver correctness against a brute-force
oracle, benchmark error/iteration bands, matvec accounting, and
byte-level reproducibility of the run harness.
"""
import numpy as np
import pytest

from regnear.cli import main
from regnear.nearness import (NullSpaceBasis, nearest_symmetric_with_nullspace,
                              nearest_with_nullspace, nearness_distance)
from regnear.oracles import (build_projector, make_projector_closed,
                             tikhonov_direct_oracle, tikhonov_minimizer_via_transform)
from regnear.pipeline import run_single
from regnear.problems import build_deriv2, build_phillips
from regnear.regops import (RegularizerKind, make_nullspace_basis,
                            make_regularization_matrix, regularizer_from_name)
from regnear.solver import SolverConfig, StopReason, rrgmres_solve
from regnear.transform import LinearOperator

# Frobenius distance between the corner-corrected second-difference
# stencil and its zeroed-edge-rows variant, independent of n.
SECOND_DIFF_EDGE_DISTANCE = np.sqrt(10.0) / 4.0

NOISE_LEVELS = (1e-2, 1e-3, 1e-4)
SEEDS = tuple(range(1, 11))

# Reference iteration medians for the unregularized solver on the smooth
# bump benchmark at n=200, one per noise level.  The window absorbs
# orthogonalization differences and the unknown noise draws.
IDENTITY_ITERATION_REFERENCE = {1e-2: 4, 1e-3: 9, 1e-4: 10}
ITERATION_WINDOW = 3


@pytest.fixture(scope="module")
def phillips_sweep():
    base = build_phillips(200)
    runs = {}
    for nu in NOISE_LEVELS:
        for reg in ("I", "L1dP1"):
            runs[nu, reg] = [run_single(base, nu, seed, reg, eta=1.01,
                                        delta=1.0) for seed in SEEDS]
    return runs


@pytest.fixture(scope="module")
def deriv2_sweep():
    base = build_deriv2(200)
    plan = ((1e-4, ("I", "P2L2tP2")), (1e-2, ("L20", "L2tP2", "P2L2tP2")))
    runs = {}
    for nu, regs in plan:
        for reg in regs:
            runs[nu, reg] = [run_single(base, nu, seed, reg, eta=1.01,
                                        delta=1.0) for seed in SEEDS]
    return runs


def median_of(runs, field):
    return float(np.median([getattr(r, field) for r in runs]))


def krylov_brute_force(a, b, k):
    """Least-squares minimizer over span{Ab, A^2 b, ..., A^k b}."""
    cols = []
    v = b
    for _ in range(k):
        v = a @ v
        cols.append(v)
    mk = np.column_stack(cols)
    y, *_ = np.linalg.lstsq(a @ mk, b, rcond=None)
    return mk @ y


def test_criterion_01_closed_form_distances():
    for n in (10, 100, 200):
        for delta in (1.0, 0.1):
            l1d = make_regularization_matrix(RegularizerKind.L1_DELTA, n,
                                             delta=delta)
            expected = delta / (2.0 * np.sqrt(n))
            basis = make_nullspace_basis("N1", n)
            assert nearness_distance(l1d, basis) == pytest.approx(
                expected, rel=1e-12)
            p1 = make_projector_closed("P1", n)
            assert np.linalg.norm(l1d - l1d @ p1) == pytest.approx(
                expected, rel=1e-12)
        l2t = make_regularization_matrix(RegularizerKind.L2_TILDE, n)
        l20 = make_regularization_matrix(RegularizerKind.L2_ZERO, n)
        assert np.linalg.norm(l2t - l20) == pytest.approx(
            SECOND_DIFF_EDGE_DISTANCE, rel=1e-12)
    print("criterion 1 PASS: closed-form distances match to 1e-12")


def test_criterion_02_distance_ordering_over_sizes():
    # rank-2 factored evaluation keeps the sweep over all n cheap
    def distances(n):
        l2t = make_regularization_matrix(RegularizerKind.L2_TILDE, n)
        v = make_nullspace_basis("N2", n).V
        lv = l2t @ v
        d_right = np.linalg.norm(lv)
        drop = lv @ v.T + v @ (v.T @ l2t) - v @ (v.T @ lv) @ v.T
        return d_right, np.linalg.norm(drop)

    for n in range(4, 401):
        d_right, d_two = distances(n)
        assert d_right < d_two < SECOND_DIFF_EDGE_DISTANCE
    # spot-check the factored route against literal dense projector products
    for n in (4, 10, 50, 100, 211, 400):
        l2t = make_regularization_matrix(RegularizerKind.L2_TILDE, n)
        p2 = make_projector_closed("P2", n)
        d_right, d_two = distances(n)
        assert np.linalg.norm(l2t - l2t @ p2) == pytest.approx(
            d_right, rel=1e-10)
        assert np.linalg.norm(l2t - p2 @ l2t @ p2) == pytest.approx(
            d_two, rel=1e-10)
    print("criterion 2 PASS: strict distance ordering holds for n = 4..400")


def test_criterion_03_nearness_optimality():
    for i in range(50):
        rng = np.random.default_rng(300 + i)
        ell = 1 + (i % 2)
        n = int(rng.integers(ell + 2, 9))
        p = int(rng.integers(2, 9))
        basis = NullSpaceBasis.from_vectors(rng.standard_normal((n, ell)))
        v = basis.V

        a = rng.standard_normal((p, n))
        ahat = nearest_with_nullspace(a, basis)
        resid = a - ahat
        rnorm = np.linalg.norm(resid)
        for _ in range(100):
            c = rng.standard_normal((p, n))
            feas = c - (c @ v) @ v.T
            inner = float(np.sum(resid * feas))
            assert abs(inner) <= 1e-9 * rnorm * np.linalg.norm(feas)
            assert rnorm <= np.linalg.norm(a - feas) * (1.0 + 1e-12)

        s = rng.standard_normal((n, n))
        asym = s + s.T
        ahat_s = nearest_symmetric_with_nullspace(asym, basis)
        resid_s = asym - ahat_s
        rnorm_s = np.linalg.norm(resid_s)
        proj = np.eye(n) - v @ v.T
        for _ in range(100):
            c = rng.standard_normal((n, n))
            feas = proj @ (c + c.T) @ proj
            inner = float(np.sum(resid_s * feas))
            assert abs(inner) <= 1e-9 * rnorm_s * np.linalg.norm(feas)
            assert rnorm_s <= np.linalg.norm(asym - feas) * (1.0 + 1e-12)
    print("criterion 3 PASS: residual orthogonality and optimality on "
          "50 instances x 100 feasible competitors, general and symmetric")


def test_criterion_04_projector_closed_form():
    for n in (3, 10, 100, 200):
        closed = make_projector_closed("P2", n)
        built = build_projector(np.column_stack(
            [np.ones(n), np.arange(1.0, n + 1.0)]))
        assert np.max(np.abs(closed - built)) <= 1e-12
    print("criterion 4 PASS: closed-form projector matches the built one "
          "entrywise to 1e-12")


def test_criterion_05_transformation_equivalence():
    rng = np.random.default_rng(500)
    n = 30
    qu, _ = np.linalg.qr(rng.standard_normal((n, n)))
    qv, _ = np.linalg.qr(rng.standard_normal((n, n)))
    k = qu @ np.diag(np.logspace(0, -5, n)) @ qv.T
    b = rng.standard_normal(n)
    for name in ("L1dP1", "L2tP2", "P2L2tP2", "L10", "L20"):
        reg = regularizer_from_name(name, n)
        for mu in (1e-4, 1e-2, 1.0):
            x_t = tikhonov_minimizer_via_transform(k, b, reg, mu)
            x_d = tikhonov_direct_oracle(k, reg.effective_matrix(), b, mu)
            gap = np.linalg.norm(x_t - x_d) / np.linalg.norm(x_d)
            assert gap <= 1e-7, (name, mu, gap)
    print("criterion 5 PASS: penalized minimizer via transformation matches "
          "the dense oracle to 1e-7 for five regularizers and three weights")


def test_criterion_06_solver_against_brute_force():
    for n, seed in ((6, 11), (10, 12), (15, 13)):
        gen = np.random.default_rng(seed)
        a = gen.standard_normal((n, n)) / np.sqrt(n)
        b = gen.standard_normal(n)
        res = rrgmres_solve(LinearOperator.from_matrix(a), b,
                            SolverConfig(epsilon=0.0, max_iter=5),
                            keep_iterates=True)
        assert res.stop_reason is StopReason.MAX_ITER and res.k == 5
        bnorm = np.linalg.norm(b)
        for k in range(1, 6):
            zk = res.iterates[k - 1]
            ref = krylov_brute_force(a, b, k)
            assert np.linalg.norm(zk - ref) <= 1e-8 * max(
                np.linalg.norm(ref), 1.0)
            logged = res.log.entries[k][1]
            explicit = np.linalg.norm(a @ zk - b)
            assert abs(logged - explicit) <= 1e-8 * bnorm
        resids = res.log.residuals()
        drops = zip(resids, resids[1:])
        assert all(nxt <= cur + 1e-12 * bnorm for cur, nxt in drops)
    print("criterion 6 PASS: iterates match the brute-force subspace "
          "minimizer, residual log is explicit-correct and monotone")


def test_criterion_07_smooth_bump_benchmark(phillips_sweep):
    for nu in NOISE_LEVELS:
        err_reg = median_of(phillips_sweep[nu, "L1dP1"], "relative_error")
        err_id = median_of(phillips_sweep[nu, "I"], "relative_error")
        assert err_reg < err_id, (nu, err_reg, err_id)
    err_reg = median_of(phillips_sweep[1e-4, "L1dP1"], "relative_error")
    err_id = median_of(phillips_sweep[1e-4, "I"], "relative_error")
    assert 5e-4 <= err_reg <= 8e-3
    assert 2e-3 <= err_id <= 2e-2
    for nu in NOISE_LEVELS:
        med_iters = median_of(phillips_sweep[nu, "I"], "iterations")
        ref = IDENTITY_ITERATION_REFERENCE[nu]
        assert abs(med_iters - ref) <= ITERATION_WINDOW, (nu, med_iters)
    print(f"criterion 7 PASS: smooth bump medians in band "
          f"(reg {err_reg:.2e} < id {err_id:.2e} at nu=1e-4)")


def test_criterion_08_convex_source_benchmark(deriv2_sweep):
    err_two = median_of(deriv2_sweep[1e-4, "P2L2tP2"], "relative_error")
    err_id = median_of(deriv2_sweep[1e-4, "I"], "relative_error")
    assert err_two <= 1e-3
    assert err_two <= err_id / 10.0
    zero_counts = {}
    for reg in ("L20", "L2tP2", "P2L2tP2"):
        zero_counts[reg] = sum(
            1 for r in deriv2_sweep[1e-2, reg]
            if r.iterations == 0 and r.stop_reason == "INITIAL_RESIDUAL_OK")
    assert any(count >= 6 for count in zero_counts.values()), zero_counts
    print(f"criterion 8 PASS: convex source medians in band "
          f"(two-sided {err_two:.2e} vs id {err_id:.2e}), zero-iteration "
          f"stops {zero_counts}")


def test_criterion_09_matvec_accounting(phillips_sweep, tmp_path, capsys):
    for nu in NOISE_LEVELS:
        for r in phillips_sweep[nu, "L1dP1"]:
            assert r.iterations >= 1
            assert r.matvecs == r.iterations + 3
            assert r.matvecs_prepare == 1 and r.matvecs_back == 1
            line = r.breakdown_line()
            assert "prepare 1" in line
            assert f"solve {r.iterations + 1}" in line
            assert "back 1" in line
    code = main(["solve", "--n", "40", "--noise", "1e-2", "--reg", "L1dP1",
                 "--seed", "1", "--out", str(tmp_path / "acc")])
    assert code == 0
    out = capsys.readouterr().out
    assert "prepare" in out and "solve" in out and "back" in out
    print("criterion 9 PASS: single-direction runs cost iterations + 3 "
          "products and the harness prints the phase breakdown")


def test_criterion_10_deterministic_output(tmp_path):
    args = ["table", "--problem", "phillips", "--n", "60",
            "--noise", "1e-2,1e-3", "--regs", "I,L1dP1,P2L2tP2",
            "--seeds", "1..3", "--out"]
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert main(args + [str(first)]) == 0
    assert main(args + [str(second)]) == 0
    payload = first.read_bytes()
    assert payload and payload == second.read_bytes()
    print("criterion 10 PASS: repeated runs emit byte-identical tables")
