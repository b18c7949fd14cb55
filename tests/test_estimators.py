import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from precis_lab import estimators, matops
from precis_lab.diagnostics import glasso_objective
from precis_lab.errors import Infeasible, NotPositiveDefinite, NumericalDivergence
from precis_lab.estimators import (
    KKT_TOL,
    SUPPORT_EPSILON,
    EstimateResult,
    EstimatorConfig,
    _l1_quadratic,
    calibrate_lambda,
    clime,
    clime_columns,
    glasso,
    min_magnitude_symmetrize,
    naive,
    scio,
    scio_columns,
)
from precis_lab.matops import SupportSet, SymMatrix, invert, to_correlation
from precis_lab.simplex import solve_lp
from precis_lab.models import (
    LatentModelSpec,
    latent_covariance,
    latent_precision,
    random_a,
    rng_for,
    sample_covariance,
    sample_mvn,
    standardize,
)

from oracles import clime_lps_by_column


def random_correlation(p, seed, n_factor=1.5, ridge=0.2):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((int(p * n_factor) + 2, p))
    s = g.T @ g / g.shape[0] + ridge * np.eye(p)
    return to_correlation(SymMatrix(s))


def glasso_kkt_violation(omega, s, lam, penalize_diagonal):
    """Largest violation of inv(omega) - s = lam * subgradient over the
    penalised entries, and of inv(omega) - s = 0 over the others."""
    grad = np.linalg.inv(omega.values) - s.values
    ov = omega.values
    viol = np.where(ov != 0.0, np.abs(grad - lam * np.sign(ov)), np.abs(grad) - lam)
    if not penalize_diagonal:
        np.fill_diagonal(viol, np.abs(grad.diagonal()))
    return float(viol.max())


def latent_seed1_covariance():
    """The population covariance of ``generate --kind latent --seed 1``."""
    a = random_a(2, 10, 1.0, 0.0, rng_for(1, 0))
    return latent_precision(LatentModelSpec(2, 10, 1.0, 0.01, a)).covariance


def column_subgradient_violation(s, raw, lam):
    sv = s.values
    worst = 0.0
    for i in range(s.dim):
        e = np.zeros(s.dim)
        e[i] = 1.0
        r = sv @ raw[:, i] - e
        nz = raw[:, i] != 0.0
        if nz.any():
            worst = max(worst, np.abs(r[nz] + lam * np.sign(raw[:, i][nz])).max())
        if (~nz).any():
            worst = max(worst, np.abs(r[~nz]).max() - lam)
    return worst


def latent_draw(master_seed, grid_idx, rep, sigma_eps2, d2, d1=2, n=1000):
    """Sample covariance and model of one (grid point, replicate) task of a
    latent sweep, drawn as ``bench`` draws it on its first attempt."""
    rng = rng_for(master_seed, grid_idx, rep, 0)
    a = random_a(d1, d2, 1.0, 0.0, rng)
    model = latent_precision(LatentModelSpec(d1, d2, 1.0, sigma_eps2, a))
    return sample_covariance(standardize(sample_mvn(model.covariance, n, rng))), model


def latent_replicate(master_seed, rep, sigma_eps, d2, d1=2, n=1000):
    """One replicate of a one-point noise sweep (``bench.run_sweep``)."""
    return latent_draw(master_seed, 0, rep, sigma_eps**2, d2, d1, n)


def l1_quadratic_objective(v, u, lam, b):
    return 0.5 * b @ v @ b - u @ b + lam * np.abs(b).sum()


def l1_quadratic_oracle(v, u, lam):
    """Minimiser of 0.5 b'Vb - u'b + lam |b|_1 by enumerating sign patterns:
    the optimum solves V_AA b_A = u_A - lam * sign_A on its own pattern."""
    k = u.size
    best, best_b = 0.0, np.zeros(k)
    for signs in itertools.product((-1.0, 0.0, 1.0), repeat=k):
        theta = np.array(signs)
        on = theta != 0.0
        if not on.any():
            continue
        b = np.zeros(k)
        b[on] = np.linalg.solve(v[np.ix_(on, on)], u[on] - lam * theta[on])
        if np.all(np.sign(b[on]) == theta[on]):
            f = l1_quadratic_objective(v, u, lam, b)
            if f < best:
                best, best_b = f, b
    return best_b


def kkt_violation(resid, beta, lam):
    """KKT certificate of min 0.5 b'Vb - u'b + lam |b|_1 at beta, given the
    gradient resid = V beta - u of the smooth part."""
    nz = beta != 0.0
    viol = 0.0
    if nz.any():
        viol = float(np.abs(resid[nz] + lam * np.sign(beta[nz])).max())
    if not nz.all():
        viol = max(viol, float(np.abs(resid[~nz]).max()) - lam)
    return viol


def reference_l1_quadratic(v, u, lam, beta, tol):
    """The active-set solve as it stood before its steps were made cheaper,
    frozen as the bitwise reference for ``_l1_quadratic``: the same floating-
    point operations, so the same beta, steps and converged flag."""
    k = beta.size
    steps = 0
    while True:
        resid = v @ beta - u
        if kkt_violation(resid, beta, lam) <= tol:
            return beta, steps, True
        if steps >= 20 * k:
            return beta, steps, False
        steps += 1
        active = beta != 0.0
        sign = np.sign(beta)
        if not active.any() or np.abs(resid[active] + lam * sign[active]).max() <= tol:
            worst = int(np.argmax(np.where(active, -np.inf, np.abs(resid))))
            sign[worst] = -np.sign(resid[worst])
            active[worst] = True
        idx = np.flatnonzero(active)
        x = beta[idx]
        v_aa = v[np.ix_(idx, idx)]
        try:
            d = np.linalg.solve(v_aa, -(resid[idx] + lam * sign[idx]))
        except np.linalg.LinAlgError as exc:
            raise NumericalDivergence("singular active block") from exc
        if not np.isfinite(d).all():
            raise NumericalDivergence("active-set solve lost finiteness")
        with np.errstate(divide="ignore", invalid="ignore"):
            t = -x / d
        crossing = np.flatnonzero((x != 0.0) & (t > 0.0) & (t < 1.0))
        crossing = crossing[np.argsort(t[crossing], kind="stable")]
        points = x[:, None] + d[:, None] * np.append(t[crossing], 1.0)
        points[crossing, np.arange(crossing.size)] = 0.0
        moves = points - x[:, None]
        change = (
            resid[idx] @ moves
            + 0.5 * np.einsum("im,im->m", moves, v_aa @ moves)
            + lam * (np.abs(points).sum(axis=0) - np.abs(x).sum())
        )
        beta[idx] = points[:, int(np.argmin(change))]


def clime_oracle_vertex_enumeration(s, i, lam):
    """Optimal l1 norm by brute force over basic solutions of the lifted LP."""
    p = s.shape[0]
    e = np.zeros(p)
    e[i] = 1.0
    a = np.vstack([np.hstack([s, -s]), np.hstack([-s, s])])
    b = np.concatenate([lam + e, lam - e])
    m, n = a.shape
    a_eq = np.hstack([a, np.eye(m)])  # slacks
    best = np.inf
    cost = np.concatenate([np.ones(n), np.zeros(m)])
    for cols in itertools.combinations(range(n + m), m):
        basis = a_eq[:, cols]
        if abs(np.linalg.det(basis)) < 1e-12:
            continue
        x_b = np.linalg.solve(basis, b)
        if (x_b < -1e-9).any():
            continue
        best = min(best, cost[list(cols)] @ x_b)
    return best


@pytest.mark.parametrize("lam", [-0.1, math.nan, math.inf])
def test_penalty_weight_must_be_finite_and_nonnegative(lam):
    s = SymMatrix(np.eye(3))
    for solve in (lambda: EstimatorConfig(lam=lam), lambda: clime_columns(s, lam),
                  lambda: scio_columns(s, lam)):
        with pytest.raises(ValueError, match="lam must be finite and >= 0"):
            solve()


class TestGlasso:
    def test_identity_penalized_diagonal(self):
        r = glasso(SymMatrix(np.eye(4)), EstimatorConfig(lam=0.1, penalize_diagonal=True))
        np.testing.assert_allclose(r.omega.values, np.eye(4) / 1.1, atol=1e-10)
        assert r.converged and len(r.support) == 0

    def test_identity_unpenalized_diagonal(self):
        r = glasso(SymMatrix(np.eye(4)), EstimatorConfig(lam=0.1))
        np.testing.assert_allclose(r.omega.values, np.eye(4), atol=1e-12)

    def test_saturating_lambda_gives_diagonal(self):
        s = random_correlation(6, seed=0)
        lam = float(np.abs(s.values - np.eye(6)).max()) * 1.01
        r = glasso(s, EstimatorConfig(lam=lam))
        assert len(r.support) == 0
        np.testing.assert_allclose(
            r.omega.values.diagonal(), 1.0 / s.values.diagonal(), rtol=1e-8
        )

    def test_zero_lambda_is_plain_inverse(self):
        s = random_correlation(5, seed=1)
        r = glasso(s, EstimatorConfig(lam=0.0))
        np.testing.assert_allclose(r.omega.values, invert(s).values, atol=1e-10)

    def test_zero_lambda_rejects_singular(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((3, 6))  # rank deficient
        s = SymMatrix(g.T @ g / 3)
        with pytest.raises(NotPositiveDefinite):
            glasso(s, EstimatorConfig(lam=0.0))

    @pytest.mark.parametrize("lam", [0.01, 0.1, 0.3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_kkt_certificate(self, lam, seed):
        s = random_correlation(10, seed)
        r = glasso(s, EstimatorConfig(lam=lam))
        assert r.converged
        assert glasso_kkt_violation(r.omega, s, lam, False) < 1e-4

    def test_kkt_certificate_penalized_diagonal(self):
        s = random_correlation(8, seed=5)
        r = glasso(s, EstimatorConfig(lam=0.1, penalize_diagonal=True))
        assert glasso_kkt_violation(r.omega, s, 0.1, True) < 1e-4

    @pytest.mark.parametrize("lam", [0.1, 0.3])
    def test_converged_fit_meets_the_benchmark_kkt_bound(self, lam):
        # a sweep without a step certifies every block; the old stop on the
        # change in omega flagged these fits converged at 1.4e-4 and 1.6e-5
        # times lambda
        s = latent_seed1_covariance()
        r = glasso(s, EstimatorConfig(lam=lam))
        assert r.converged
        assert glasso_kkt_violation(r.omega, s, lam, False) <= 1e-5 * lam

    def test_sweep_cap_leaves_fit_unconverged(self, monkeypatch):
        monkeypatch.setattr(estimators, "GLASSO_MAX_SWEEPS", 2)
        r = glasso(random_correlation(10, 0), EstimatorConfig(lam=0.1))
        assert not r.converged
        assert r.iterations == 2

    def test_objective_terms_present(self):
        s = random_correlation(5, seed=3)
        r = glasso(s, EstimatorConfig(lam=0.1))
        terms = glasso_objective(r.omega, s, 0.1)
        assert terms.penalty_term >= 0.0
        assert np.isfinite(terms.total)

    def test_estimate_that_does_not_factor_is_unconverged(self, monkeypatch):
        s = random_correlation(6, seed=4)
        factors = glasso(s, EstimatorConfig(lam=0.1))
        assert factors.converged

        def singular(m):
            raise NotPositiveDefinite("forced")

        monkeypatch.setattr(matops, "cholesky", singular)
        r = glasso(s, EstimatorConfig(lam=0.1))
        assert not r.converged
        np.testing.assert_array_equal(r.omega.values, factors.omega.values)


class TestClime:
    def test_identity_shrinks_diagonal(self):
        r = clime(SymMatrix(np.eye(3)), EstimatorConfig(lam=0.1))
        np.testing.assert_allclose(r.omega.values, 0.9 * np.eye(3), atol=1e-9)

    def test_lambda_above_one_gives_zero(self):
        r = clime(random_correlation(4, seed=2), EstimatorConfig(lam=1.0))
        np.testing.assert_allclose(r.omega.values, np.zeros((4, 4)), atol=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_columns_feasible(self, seed):
        s = random_correlation(7, seed)
        lam = 0.08
        raw, _ = clime_columns(s, lam)
        resid = np.abs(s.values @ raw - np.eye(7)).max()
        assert resid <= lam + 1e-8

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_reference_lp(self, seed):
        p = 5
        s = random_correlation(p, seed + 20)
        lam = 0.05
        raw, _ = clime_columns(s, lam)
        a = np.vstack(
            [np.hstack([s.values, -s.values]), np.hstack([-s.values, s.values])]
        )
        for i in range(p):
            e = np.zeros(p)
            e[i] = 1.0
            ref = linprog(
                np.ones(2 * p),
                A_ub=a,
                b_ub=np.concatenate([lam + e, lam - e]),
                method="highs",
            )
            assert ref.status == 0
            assert np.abs(raw[:, i]).sum() == pytest.approx(ref.fun, abs=1e-6)

    def test_matches_vertex_enumeration_oracle(self):
        p = 3
        s = random_correlation(p, seed=42)
        lam = 0.05
        raw, _ = clime_columns(s, lam)
        for i in range(p):
            oracle = clime_oracle_vertex_enumeration(s.values, i, lam)
            assert np.abs(raw[:, i]).sum() == pytest.approx(oracle, abs=1e-6)

    def test_rejects_penalized_diagonal(self):
        with pytest.raises(ValueError, match="glasso only"):
            clime(random_correlation(4, 0), EstimatorConfig(lam=0.1, penalize_diagonal=True))


class TestScio:
    def test_identity_soft_threshold(self):
        r = scio(SymMatrix(np.eye(3)), EstimatorConfig(lam=0.1))
        np.testing.assert_allclose(r.omega.values, 0.9 * np.eye(3), atol=1e-12)

    def test_zero_lambda_is_inverse(self):
        s = random_correlation(6, seed=4)
        r = scio(s, EstimatorConfig(lam=0.0))
        assert np.abs(r.omega.values - invert(s).values).max() < 1e-6

    def test_lambda_at_one_gives_zero(self):
        r = scio(random_correlation(4, seed=6), EstimatorConfig(lam=1.0))
        np.testing.assert_allclose(r.omega.values, np.zeros((4, 4)), atol=1e-12)

    @pytest.mark.parametrize("lam", [0.01, 0.1, 0.3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_subgradient_certificate(self, lam, seed):
        s = random_correlation(10, seed + 30)
        raw, _, ok = scio_columns(s, lam)
        assert ok
        assert column_subgradient_violation(s, raw, lam) < 1e-6

    def test_low_noise_columns_certified_along_calibration(self, monkeypatch):
        # sigma_eps = 0.01: the sample covariance has condition number ~1e6
        s, model = latent_replicate(20243, 0, 0.01, d2=10)
        assert np.linalg.cond(s.values) > 1e5
        solves = []
        original = estimators.scio_columns

        def recording(s_, lam, **kwargs):
            raw, steps, ok = original(s_, lam, **kwargs)
            solves.append((lam, raw.copy(), ok))
            return raw, steps, ok

        monkeypatch.setattr(estimators, "scio_columns", recording)
        out = calibrate_lambda("scio", s, len(model.support))
        assert out.exact and out.result.converged
        assert len(solves) == out.evaluations
        for lam, raw, ok in solves:
            assert ok, lam
            assert column_subgradient_violation(s, raw, lam) <= 1e-9, lam

    @pytest.mark.parametrize("rep", [0, 1])
    def test_moderate_noise_calibration_converges(self, rep):
        # d2 = 30 at sigma_eps = 0.3 (condition number ~5e3 to 7e3)
        s, model = latent_replicate(7, rep, 0.3, d2=30)
        out = calibrate_lambda("scio", s, len(model.support))
        assert out.result.converged is True

    def test_rejects_penalized_diagonal(self):
        with pytest.raises(ValueError, match="glasso only"):
            scio(random_correlation(4, 0), EstimatorConfig(lam=0.1, penalize_diagonal=True))


class TestL1Quadratic:
    @given(st.integers(1, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_sign_pattern_enumeration(self, k, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((k + 3, k))
        v = g.T @ g / (k + 3) + 0.1 * np.eye(k)
        u = rng.standard_normal(k)
        lam = float(rng.uniform(0.01, 1.2) * np.abs(u).max())
        oracle = l1_quadratic_oracle(v, u, lam)
        cold = np.zeros(k)
        warm = rng.standard_normal(k) * (rng.random(k) < 0.6)
        # certified to 1e-10; a @given test cannot take monkeypatch
        for start in (cold, warm):
            with mock.patch.object(estimators, "KKT_TOL", 1e-10):
                beta, _, ok, vb = _l1_quadratic(v, u, lam, start)
            assert ok
            assert np.array_equal(vb, v @ beta)
            assert kkt_violation(v @ beta - u, beta, lam) <= 1e-10
            np.testing.assert_allclose(beta, oracle, atol=1e-8)
            assert np.array_equal(beta == 0.0, oracle == 0.0)
            assert l1_quadratic_objective(v, u, lam, beta) <= (
                l1_quadratic_objective(v, u, lam, oracle) + 1e-12
            )

    def test_zero_crossing_lands_on_exact_zero(self, monkeypatch):
        # the warm start has the wrong sign, so the first step stops where
        # it crosses zero; x + d * t rounds to -2.8e-17 there, and only an
        # exact zero lets the second step activate it with the right sign
        v = np.array([[0.5394311328730621]])
        u = np.array([0.532835732739602])
        lam = 0.23957404943078325
        monkeypatch.setattr(estimators, "KKT_TOL", 1e-12)
        beta, steps, ok, _ = _l1_quadratic(v, u, lam, np.array([-0.22052976193508567]))
        assert ok and steps == 2
        assert beta[0] == pytest.approx((u[0] - lam) / v[0, 0], rel=1e-14)

    @given(st.integers(1, 8), st.floats(0.0, 8.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_bitwise_equal_to_reference(self, k, log_cond, seed):
        # V's eigenvalues run from 1 down to 10**-log_cond, so the active
        # blocks reach a condition number of 1e8; every step must do the
        # reference's floating-point operations, so the results are equal
        # bit for bit, step counts and flags included
        rng = np.random.default_rng(seed)
        q = np.linalg.qr(rng.standard_normal((k, k)))[0]
        eig = 10.0 ** -np.linspace(0.0, log_cond, k)
        v = (q * eig) @ q.T
        v = (v + v.T) / 2
        u = rng.standard_normal(k)
        lam = float(rng.uniform(0.01, 1.2) * np.abs(u).max())
        cold = reference_l1_quadratic(v, u, lam, np.zeros(k), KKT_TOL)[0]
        # wrong-sign warm start: each nonzero of the cold solution flipped
        # and rescaled, and some of its zeros set
        wrong = -cold * rng.uniform(0.5, 2.0, k) + np.where(
            cold == 0.0, rng.standard_normal(k) * (rng.random(k) < 0.5), 0.0)
        for start in (np.zeros(k), wrong):
            expected = reference_l1_quadratic(v, u, lam, start.copy(), KKT_TOL)
            beta, steps, ok, vb = _l1_quadratic(v, u, lam, start.copy())
            assert np.array_equal(beta, expected[0])
            assert (steps, ok) == expected[1:]
            assert np.array_equal(vb, v @ beta)


class TestMinMagnitudeSymmetrize:
    def test_picks_smaller_magnitude_with_sign(self):
        raw = np.array([[2.0, 0.5], [-0.3, 1.0]])
        out = min_magnitude_symmetrize(raw)
        assert out[0, 1] == out[1, 0] == -0.3

    def test_zero_wins(self):
        raw = np.array([[1.0, 0.0], [0.7, 1.0]])
        out = min_magnitude_symmetrize(raw)
        assert out[0, 1] == 0.0

    def test_tie_keeps_upper_entry(self):
        raw = np.array([[1.0, 0.4], [-0.4, 1.0]])
        out = min_magnitude_symmetrize(raw)
        assert out[0, 1] == out[1, 0] == 0.4

    def test_diagonal_untouched(self):
        raw = np.array([[3.0, 1.0], [2.0, -4.0]])
        out = min_magnitude_symmetrize(raw)
        assert out[0, 0] == 3.0 and out[1, 1] == -4.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_magnitude_is_pairwise_minimum(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((4, 4))
        out = min_magnitude_symmetrize(raw)
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert abs(out[i, j]) == min(abs(raw[i, j]), abs(raw[j, i]))


class TestNaive:
    def test_zero_edges_is_diagonal(self):
        s = random_correlation(5, seed=7)
        r = naive(s, 0)
        assert len(r.support) == 0
        np.testing.assert_allclose(
            r.omega.values, np.diag(invert(s).values.diagonal()), atol=1e-12
        )

    def test_all_edges_is_full_inverse(self):
        s = random_correlation(5, seed=8)
        r = naive(s, 10)
        np.testing.assert_allclose(r.omega.values, invert(s).values, atol=1e-12)

    def test_latent_worked_example(self):
        cov = latent_covariance(LatentModelSpec(1, 1, 1.0, 1.0, np.array([[2.0]])))
        r = naive(cov, 1)
        assert r.support.pairs == frozenset({(0, 1)})

    def test_exact_edge_count(self):
        s = random_correlation(8, seed=9)
        for k in (1, 5, 13):
            assert len(naive(s, k).support) == k

    def test_rejects_out_of_range_target(self):
        with pytest.raises(ValueError):
            naive(SymMatrix(np.eye(3)), 4)

    def test_tied_magnitudes_match_sorted_reference(self, monkeypatch):
        # exact ties, signs included, so only the pair order can decide
        p = 5
        inv = np.eye(p) * 2.0
        mags = [0.5, -0.5, 0.25, 0.5, -0.25, 0.25, 0.5, -0.5, 0.25, 0.125]
        ii, jj = np.triu_indices(p, k=1)
        inv[ii, jj] = inv[jj, ii] = mags
        monkeypatch.setattr(estimators, "invert", lambda s: SymMatrix(inv))
        ref_order = sorted(
            range(ii.size),
            key=lambda k: (-abs(inv[ii[k], jj[k]]), int(ii[k]), int(jj[k])),
        )
        for target in range(ii.size + 1):
            r = naive(SymMatrix(np.eye(p)), target)
            chosen = ref_order[:target]
            assert r.support.pairs == {(int(ii[k]), int(jj[k])) for k in chosen}
            expected = np.diag(inv.diagonal())
            for k in chosen:
                expected[ii[k], jj[k]] = expected[jj[k], ii[k]] = inv[ii[k], jj[k]]
            assert np.array_equal(r.omega.values, expected)
            if target:
                assert r.lambda_used == abs(inv[ii[chosen[-1]], jj[chosen[-1]]])
            else:
                assert np.isnan(r.lambda_used)

    def test_tie_break_lexicographic(self):
        # equal off-diagonal magnitudes everywhere: the smallest pairs win
        v = np.full((3, 3), 0.2)
        np.fill_diagonal(v, 1.0)
        r = naive(SymMatrix(v), 1)
        inv = invert(SymMatrix(v)).values
        assert abs(inv[0, 1] - inv[0, 2]) < 1e-12  # genuine tie
        assert r.support.pairs == frozenset({(0, 1)})


class TestCalibration:
    def test_target_zero(self):
        # one fit, whose estimate is diagonal
        s = random_correlation(6, seed=10)
        for method in ("glasso", "clime", "scio", "naive"):
            out = calibrate_lambda(method, s, 0)
            assert len(out.result.support) == 0
            assert out.exact and out.evaluations == 1
            omega = out.result.omega.values
            np.testing.assert_array_equal(omega, np.diag(omega.diagonal()))

    def test_negative_target_rejected(self):
        s = random_correlation(6, seed=10)
        for method in ("glasso", "clime", "scio", "naive"):
            with pytest.raises(ValueError, match="target_edges must be >= 0"):
                calibrate_lambda(method, s, -3)

    def test_impossible_target_clamps_with_flag(self):
        cov = latent_covariance(
            LatentModelSpec(1, 4, 1.0, 0.5, np.random.default_rng(3).standard_normal((4, 1)))
        )
        s = to_correlation(cov)
        out = calibrate_lambda("glasso", s, 21)  # only 10 pairs exist
        assert not out.exact
        assert out.achieved_edges == 10

    def test_scio_hits_every_small_count(self):
        rng = np.random.default_rng(12)
        noise = rng.standard_normal((8, 8)) * 0.05
        s = SymMatrix(np.eye(8) + noise + noise.T)
        for k in range(1, 6):
            out = calibrate_lambda("scio", s, k)
            assert out.exact and len(out.result.support) == k

    def test_exact_count_matches_dense_sweep(self):
        # lambda from calibration is consistent with a brute-force scan
        rng = np.random.default_rng(13)
        noise = rng.standard_normal((6, 6)) * 0.05
        s = SymMatrix(np.eye(6) + noise + noise.T)
        target = 3
        out = calibrate_lambda("scio", s, target)
        counts = {}
        for lam in np.geomspace(1e-6, 0.2, 200):
            counts[lam] = len(scio(s, EstimatorConfig(lam=float(lam))).support)
        achievable = {c for c in counts.values()}
        assert target in achievable
        assert len(out.result.support) == target

    def test_edge_count_monotone_in_lambda(self):
        s = random_correlation(8, seed=14)
        for method in ("glasso", "scio", "clime"):
            prev = None
            for lam in (0.02, 0.05, 0.1, 0.2, 0.4):
                count = len(
                    {"glasso": glasso, "scio": scio, "clime": clime}[method](
                        s, EstimatorConfig(lam=lam)
                    ).support
                )
                if prev is not None:
                    assert count <= prev
                prev = count

    def test_identity_input_no_spurious_edges(self):
        s = SymMatrix(np.eye(5))
        for method in ("glasso", "clime", "scio"):
            for lam in (0.01, 0.3, 0.9):
                solver = {"glasso": glasso, "clime": clime, "scio": scio}[method]
                assert len(solver(s, EstimatorConfig(lam=lam)).support) == 0
            # no off-diagonal entry, so the search starts and stays at lambda 0
            assert calibrate_lambda(method, s, 0).exact
            out = calibrate_lambda(method, s, 3)
            assert out.achieved_edges == 0 and not out.exact

    def test_naive_calibration_exact(self):
        s = random_correlation(7, seed=15)
        out = calibrate_lambda("naive", s, 9)
        assert out.exact and len(out.result.support) == 9

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            calibrate_lambda("ridge", SymMatrix(np.eye(3)), 1)

    def test_prefers_converged_exact_hit(self, monkeypatch):
        # three edges on [0.06, 0.1], unconverged from 0.08 up; the search
        # starts at 1.1 * 0.5, so the descent stops at a converged hit
        # (0.069) and bisection visits larger unconverged ones
        p = 6
        pairs = [(i, j) for i in range(p) for j in range(i + 1, p)]
        visited = []

        def fake_scio(s, cfg, init):
            lam = cfg.lam
            count = 5 if lam < 0.06 else 3 if lam <= 0.1 else 1
            visited.append(lam)
            result = EstimateResult(
                omega=SymMatrix(np.eye(p)),
                support=SupportSet(p, frozenset(pairs[:count])),
                lambda_used=lam,
                iterations=1,
                converged=lam < 0.08,
            )
            return result, np.zeros((p, p))

        monkeypatch.setattr(estimators, "_scio_impl", fake_scio)
        s = np.eye(p)
        s[0, 1] = s[1, 0] = 0.5
        out = calibrate_lambda("scio", SymMatrix(s), 3)
        hits = [lam for lam in visited if 0.06 <= lam <= 0.1]
        assert any(lam < 0.08 for lam in hits) and any(lam >= 0.08 for lam in hits)
        assert out.exact and out.result.converged
        assert out.result.lambda_used == max(lam for lam in hits if lam < 0.08)

    @staticmethod
    def _scio_diverging_below(monkeypatch, floor):
        """SCIO raises NumericalDivergence below ``floor``; returns the lambdas tried."""
        real = estimators._scio_impl
        tried = []

        def scio_impl(s, cfg, init):
            tried.append(cfg.lam)
            if cfg.lam < floor:
                raise NumericalDivergence("forced")
            return real(s, cfg, init)

        monkeypatch.setattr(estimators, "_scio_impl", scio_impl)
        return tried

    def test_diverged_evaluations_still_find_exact_hit(self, monkeypatch):
        s = random_correlation(6, seed=17)
        expected = calibrate_lambda("scio", s, 4)
        assert expected.exact
        # the descent's last halving lies below the hit, so it diverges
        floor = expected.result.lambda_used
        tried = self._scio_diverging_below(monkeypatch, floor)
        out = calibrate_lambda("scio", s, 4)
        assert out.exact and out.achieved_edges == 4
        assert out.result.lambda_used >= floor
        assert any(lam < floor for lam in tried)
        assert out.evaluations == len(set(tried))

    @pytest.mark.parametrize("method", ["glasso", "scio", "clime"])
    def test_search_stays_near_the_answer(self, monkeypatch, method):
        # sigma_eps = 0.01: near-dense fits far below the answer are slow,
        # and neither glasso's start at lambda_g nor the halving descent
        # from the sparse end makes them
        s, model = latent_replicate(20243, 0, 0.01, d2=10)
        impl = f"_{method}_impl"
        real = getattr(estimators, impl)
        tried = []

        def recording(s_, cfg, init):
            tried.append(cfg.lam)
            return real(s_, cfg, init)

        monkeypatch.setattr(estimators, impl, recording)
        out = calibrate_lambda(method, s, len(model.support))
        assert out.exact
        assert len(tried) == out.evaluations
        assert min(tried) > out.result.lambda_used / 2

    @staticmethod
    def _recording_glasso(monkeypatch):
        """Record the (lambda, edge count, converged) of every glasso fit."""
        real = estimators._glasso_impl
        fits = []

        def recording(s, cfg, init):
            result, state = real(s, cfg, init)
            fits.append((cfg.lam, len(result.support), result.converged))
            return result, state

        monkeypatch.setattr(estimators, "_glasso_impl", recording)
        return fits

    def test_glasso_skips_the_dense_fit_of_a_halving_descent(self, monkeypatch):
        # bench-dim --axis outdim --seed 1 at d2 = 30 (grid index 13),
        # replicate 1: the 61 edges are hit just under max|s_ij| = 0.9986,
        # and a descent halving from 1.1 max|s_ij| takes 11 fits, one of
        # them a clamped, unconverged 196-edge fit at lambda = 0.549
        s, model = latent_draw(1, 13, 1, 0.01, d2=30)
        fits = self._recording_glasso(monkeypatch)
        out = calibrate_lambda("glasso", s, len(model.support))
        assert out.exact and out.result.converged
        assert out.evaluations == len(fits) <= 6
        assert all(converged for _, _, converged in fits)

    def test_glasso_brackets_the_target_on_both_sides(self, monkeypatch):
        # the start, the 10th largest |s_ij|, gives 11 edges, so the search
        # steps up until the count falls below 10 before it bisects
        s = random_correlation(8, seed=22, n_factor=3, ridge=0.0)
        target = 10
        fits = self._recording_glasso(monkeypatch)
        out = calibrate_lambda("glasso", s, target)
        mags = np.sort(np.abs(s.values[np.triu_indices(8, 1)]))
        assert fits[0][0] == mags[-target] and fits[0][1] > target
        lam = out.result.lambda_used
        assert out.exact and dict((l, c) for l, c, _ in fits)[lam] == target
        assert any(l > lam and c < target for l, c, _ in fits)

    def test_glasso_first_step_down_follows_the_thresholded_count(self, monkeypatch):
        # a dense target: 16 edges at lambda_g against 20, and thresholding
        # keeps 16 edges down from m_16 = 1.49 lambda_g, so the first step
        # down is by sqrt(1.49) rather than by 1.02, the next by its square
        s = random_correlation(8, seed=1)
        fits = self._recording_glasso(monkeypatch)
        out = calibrate_lambda("glasso", s, 20)
        mags = np.sort(np.abs(s.values[np.triu_indices(8, 1)]))
        (lam_g, count), (second, _), (third, _) = [(l, c) for l, c, _ in fits[:3]]
        assert lam_g == mags[-20] and count == 16
        factor = math.sqrt(mags[-count] / lam_g)
        assert factor > 1.2
        assert second == pytest.approx(lam_g / factor, rel=1e-12)
        assert third == pytest.approx(second / factor**2, rel=1e-12)
        assert out.exact

    def test_glasso_target_beyond_the_nonzero_pairs_stops(self):
        # two 3-variable blocks and exact zeros between them: glasso's graph
        # splits along the blocks at every lambda > 0, so no fit has more
        # than their 6 pairs; the 10th largest |s_ij| is 0
        block = np.array([[1.0, 0.5, 0.3], [0.5, 1.0, 0.4], [0.3, 0.4, 1.0]])
        s = SymMatrix(np.kron(np.eye(2), block))
        out = calibrate_lambda("glasso", s, 10)
        assert not out.exact and out.achieved_edges == 6
        assert out.evaluations == 1 and out.result.converged

    def test_glasso_with_penalized_diagonal_hits(self):
        s, model = latent_replicate(1, 0, 0.1, d2=10)
        out = calibrate_lambda("glasso", s, len(model.support), penalize_diagonal=True)
        assert out.exact and out.result.converged
        assert glasso_kkt_violation(out.result.omega, s, out.result.lambda_used,
                                    True) <= 1e-6 * out.result.lambda_used

    @pytest.mark.parametrize("method, lam, evaluations", [
        ("clime", 0.33327021141785335, 11),
        ("scio", 0.4287015464177853, 9),
    ])
    def test_clime_and_scio_keep_the_halving_descent(self, method, lam, evaluations):
        # glasso's start would cost them evaluations; these are the results
        # of the descent from 1.1 max|s_ij|, to the bit
        s, model = latent_replicate(20243, 0, 0.01, d2=10)
        out = calibrate_lambda(method, s, len(model.support))
        assert out.exact
        assert (out.result.lambda_used, out.evaluations) == (lam, evaluations)

    @pytest.mark.parametrize("sigma_eps", [1.0, 0.01])
    def test_clime_warm_start_matches_cold_columns(self, monkeypatch, sigma_eps):
        # every evaluation after the first runs from the latest fit's
        # tableaux, and the fit it returns is the cold fit at the same lambda
        s, model = latent_replicate(20243, 0, sigma_eps, d2=30)
        real = estimators._clime_lps
        calls = []

        def recording(s_, lam, init):
            raw, pivots, bases = real(s_, lam, init)
            calls.append((lam, init, raw))
            return raw, pivots, bases

        monkeypatch.setattr(estimators, "_clime_lps", recording)
        out = calibrate_lambda("clime", s, len(model.support))
        assert len(calls) == out.evaluations
        assert calls[0][1] is None
        assert all(init is not None for _, init, _ in calls[1:])
        lam = out.result.lambda_used
        warm_raw = next(raw for l, _, raw in calls if l == lam)
        cold_raw, _ = clime_columns(s, lam)
        # at sigma_eps = 0.01 cond(s) is about 4e6 and entries reach 1e4, so
        # the two pivot paths agree to 1e-10 of the largest entry
        np.testing.assert_allclose(warm_raw, cold_raw, rtol=0,
                                   atol=1e-10 * np.abs(cold_raw).max())
        assert out.result.support == clime(s, EstimatorConfig(lam=lam)).support

    @pytest.mark.parametrize("sigma_eps", [1.0, 0.01])
    def test_glasso_warm_start_matches_cold_fit(self, monkeypatch, sigma_eps):
        # every evaluation after the first runs from the latest fit's lasso
        # coefficients and working covariance, and the fit it returns is the
        # cold fit at the same lambda, so a cold re-solve can check it
        s, model = latent_replicate(20243, 0, sigma_eps, d2=30)
        real = estimators._glasso_impl
        inits = []

        def recording(s_, cfg, init):
            inits.append(init)
            return real(s_, cfg, init)

        monkeypatch.setattr(estimators, "_glasso_impl", recording)
        out = calibrate_lambda("glasso", s, len(model.support))
        assert len(inits) == out.evaluations
        assert inits[0] is None
        assert all(isinstance(init, tuple) and len(init) == 2 for init in inits[1:])
        cold = glasso(s, EstimatorConfig(lam=out.result.lambda_used))
        assert out.result.converged and cold.converged
        assert out.result.support == cold.support
        # the two fits stop at different block certificates: they differed
        # by 7.3e-10 of the largest entry here, and by at most 3.0e-9 over
        # 46 latent and gene-expression calibrations
        np.testing.assert_allclose(out.result.omega.values, cold.omega.values, rtol=0,
                                   atol=1e-8 * np.abs(cold.omega.values).max())

    @pytest.mark.parametrize("method", ["clime", "scio", "naive"])
    def test_penalize_diagonal_is_glasso_only(self, method):
        with pytest.raises(ValueError, match="glasso only"):
            calibrate_lambda(method, random_correlation(5, 0), 2, penalize_diagonal=True)

    def test_clime_routes_every_lp_through_the_module_solve_lp(self, monkeypatch):
        # the benchmark times LPs by replacing estimators.solve_lp and
        # re-solves fits through clime_columns(s, lam) -> (raw, pivots); an
        # evaluation is one call that stacks the p column programs
        s = random_correlation(6, seed=18)
        calls = []

        def counting(*args, **kwargs):
            calls.append((np.shape(args[2]), kwargs.get("start")))
            return solve_lp(*args, **kwargs)

        monkeypatch.setattr(estimators, "solve_lp", counting)
        out = calibrate_lambda("clime", s, 4)
        p = s.dim
        assert len(calls) == out.evaluations
        assert all(shape == (p, 2 * p) for shape, _ in calls)
        assert calls[0][1] is None
        assert all(start.basis.shape == (p, 2 * p) and start.tableau.shape == (p, 2 * p, 4 * p + 1)
                   for _, start in calls[1:])
        raw, pivots = clime_columns(s, out.result.lambda_used)
        assert raw.shape == (s.dim, s.dim) and isinstance(pivots, int)
        assert len(calls) == out.evaluations + 1

    @pytest.mark.parametrize("sigma_eps, d2", [(1.0, 10), (1.0, 30), (0.01, 10), (0.01, 30)])
    def test_clime_column_stack_matches_one_by_one_solves(self, monkeypatch, sigma_eps, d2):
        # every evaluation of a calibration, cold first and then warm from
        # an earlier lambda's tableaux, gives the bits of solving the
        # columns one at a time, each from its own column's tableau
        s, model = latent_replicate(20243, 0, sigma_eps, d2=d2)
        real = estimators._clime_lps
        calls = []

        def recording(s_, lam, init):
            out = real(s_, lam, init)
            calls.append((lam, init, out))
            return out

        monkeypatch.setattr(estimators, "_clime_lps", recording)
        calibrate_lambda("clime", s, len(model.support))
        assert calls[0][1] is None and len(calls) > 2
        for lam, init, (raw, pivots, lp) in calls:
            ref_raw, ref_pivots, ref_lp = clime_lps_by_column(s, lam, init)
            assert raw.tobytes() == ref_raw.tobytes()
            assert pivots == ref_pivots
            np.testing.assert_array_equal(lp.basis, ref_lp.basis)
            assert lp.tableau.tobytes() == ref_lp.tableau.tobytes()

    @staticmethod
    def rank_four_correlation():
        """The correlation of 5 draws of 8 variables, of rank 4."""
        x = np.random.default_rng(0).standard_normal((5, 8))
        r = np.corrcoef(x, rowvar=False)
        return SymMatrix(0.5 * (r + r.T))

    @pytest.mark.parametrize("method, input_, target", [
        ("glasso", "latent", None),
        ("scio", "latent", None),
        ("clime", "latent", None),
        ("clime", "latent-lownoise", None),
        ("clime", "rank-4", 5),
        ("clime", "rank-4", 10),
        ("clime", "rank-4", 20),
    ])
    def test_warm_state_comes_from_the_latest_usable_lambda(self, monkeypatch, method,
                                                            input_, target):
        # the search holds one warm state, that of the latest fit with a
        # result, and each fit must start from it. That fit must also be the
        # nearest evaluated lambda with a result, in log lambda, up to the
        # rounding of a bisection midpoint, which is equally near both ends
        # of its bracket. On the rank-4 input 31 of 56 evaluations are
        # infeasible and yield no state
        if input_ == "rank-4":
            s = self.rank_four_correlation()
        else:
            s, model = latent_replicate(20243, 0, 0.01 if input_ == "latent-lownoise" else 1.0,
                                        d2=10)
            target = len(model.support)
        name = {"glasso": "_glasso_impl", "clime": "_clime_impl", "scio": "_scio_impl"}[method]
        real = getattr(estimators, name)
        calls = []  # (lambda, the init passed, the state returned or None)

        def recording(s_, cfg, init):
            calls.append([cfg.lam, init, None])
            result, state = real(s_, cfg, init)
            calls[-1][2] = state
            return result, state

        monkeypatch.setattr(estimators, name, recording)
        out = calibrate_lambda(method, s, target)
        assert len(calls) == out.evaluations > 2
        # no lambda is evaluated twice, so the search needs no cache of fits
        assert len({lam for lam, _, _ in calls}) == len(calls)
        assert calls[0][1] is None
        for j, (lam, init, _) in enumerate(calls[1:], 1):
            usable = [(k, state) for k, _, state in calls[:j] if state is not None]
            if not usable:
                assert init is None
                continue
            assert init is usable[-1][1]
            distance = [abs(math.log(k) - math.log(lam)) for k, _ in usable]
            assert distance[-1] <= min(distance) * (1 + 1e-12)
        if input_ == "rank-4":
            assert sum(state is None for _, _, state in calls) == 31

    def test_clime_calibration_holds_at_most_four_stacks_of_tableaux(self):
        # latent-wide's pinned input, p = 32: one evaluation's column
        # programs hold 16p^2(4p + 1) bytes of tableaux (2.1 MB). The warm
        # state, the stack being solved and a pivot step's temporary make
        # three; a calibration that kept every lambda's tableaux would hold
        # one per evaluation
        s, model = latent_replicate(20243, 0, 1.0, d2=30)
        p = s.dim
        tracemalloc.start()
        try:
            out = calibrate_lambda("clime", s, len(model.support))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.exact and out.evaluations > 4
        assert peak <= 3.25 * 16 * p * p * (4 * p + 1)

    def test_every_evaluation_diverging_raises(self, monkeypatch):
        self._scio_diverging_below(monkeypatch, math.inf)
        with pytest.raises(NumericalDivergence):
            calibrate_lambda("scio", random_correlation(6, seed=17), 4)

    @pytest.mark.parametrize("target", [5, 10, 20])
    def test_clime_on_singular_input_stops_at_the_feasible_edge(self, target):
        # the correlation of 5 draws of 8 variables has rank 4; below a
        # lambda near 0.395 some column's program is infeasible, and those
        # evaluations steer the search like dense fits
        s = self.rank_four_correlation()
        out = calibrate_lambda("clime", s, target)
        assert not out.exact and out.achieved_edges == 4
        lam = out.result.lambda_used
        assert lam == pytest.approx(0.395, abs=5e-4)
        raw, _ = clime_columns(s, lam)
        assert np.abs(s.values @ raw - np.eye(8)).max() <= lam + 1e-9
        assert out.result.support == SupportSet.from_matrix(
            min_magnitude_symmetrize(raw), SUPPORT_EPSILON)
        with pytest.raises(Infeasible):
            clime_columns(s, lam / 2)

    @pytest.mark.parametrize("method, input_", [
        ("glasso", 1.0), ("clime", 1.0), ("scio", 1.0),
        ("glasso", 0.01), ("clime", 0.01), ("scio", 0.01),
        ("clime", "rank-4"), ("scio", "jump"),
    ])
    def test_outcome_is_the_first_ranked_of_every_fit(self, monkeypatch, method, input_):
        # the documented rank over every fit that gave a result: the closest
        # count, then one extra edge over one missing edge, then converged,
        # then the larger lambda. Each latent search hits its target once;
        # on the rank-4 input it mixes results and infeasible fits, and 22
        # fits tie on all but lambda
        name = f"_{method}_impl"
        real = getattr(estimators, name)
        if input_ == "rank-4":
            s, target = self.rank_four_correlation(), 10
        elif input_ == "jump":
            # a fake SCIO whose count jumps from 4 to 2 at lambda 0.06, its
            # 4-edge fits unconverged from 0.05 up, so that both tie-breaks
            # before lambda decide
            p = 6
            pairs = [(i, j) for i in range(p) for j in range(i + 1, p)]

            def jumping_scio(s_, cfg, init):
                support = SupportSet(p, frozenset(pairs[:4 if cfg.lam < 0.06 else 2]))
                return EstimateResult(omega=SymMatrix(np.eye(p)), support=support,
                                      lambda_used=cfg.lam, iterations=1,
                                      converged=cfg.lam < 0.05), np.zeros((p, p))

            real = jumping_scio
            s = np.eye(p)
            s[0, 1] = s[1, 0] = 0.5
            s, target = SymMatrix(s), 3
        else:
            s, model = latent_replicate(20243, 0, input_, d2=30)
            target = len(model.support)
        calls = []  # (lambda, the result or None)

        def recording(s_, cfg, init):
            calls.append((cfg.lam, None))
            result, state = real(s_, cfg, init)
            calls[-1] = (cfg.lam, result)
            return result, state

        def rank(call):
            lam, result = call
            count = len(result.support)
            return (abs(count - target), count < target, not result.converged, -lam)

        monkeypatch.setattr(estimators, name, recording)
        out = calibrate_lambda(method, s, target)
        assert out.evaluations == len(calls)
        fits = [call for call in calls if call[1] is not None]
        assert len({lam for lam, _ in fits}) == len(fits)
        assert out.result is min(fits, key=rank)[1]
        if input_ == "rank-4":
            assert 0 < len(fits) < len(calls)
        if input_ == "jump":
            assert out.achieved_edges == 4 and out.result.converged
            assert any(len(r.support) == 4 and not r.converged for _, r in fits)

    def test_every_evaluation_infeasible_raises_infeasible(self, monkeypatch):
        # Infeasible, unlike NumericalDivergence, is retried by the harness
        def infeasible(s, cfg, init):
            raise Infeasible("forced")

        monkeypatch.setattr(estimators, "_clime_impl", infeasible)
        with pytest.raises(Infeasible):
            calibrate_lambda("clime", random_correlation(6, seed=17), 4)


class TestSupportEpsilon:
    def test_numerical_dust_excluded(self):
        raw = np.eye(3)
        raw[0, 1] = raw[1, 0] = SUPPORT_EPSILON / 2
        from precis_lab.matops import SupportSet

        assert len(SupportSet.from_matrix(raw, SUPPORT_EPSILON)) == 0
