import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_solve

from precis_lab import bench, diagnostics
from precis_lab.diagnostics import (
    REPORT_COLUMNS,
    ObjectiveBreakdown,
    assumption1_gamma,
    assumption2_gamma,
    consistency_report,
    glasso_objective,
)
from precis_lab.errors import DimensionMismatch, NotPositiveDefinite, SingularGamma
from precis_lab.matops import (SupportSet, SymMatrix, cholesky, invert, kron_subblock,
                               norm_l1_all, to_correlation)
from precis_lab.models import (LatentModelSpec, latent_precision, random_a, rng_for,
                               synthetic_expression)

from oracles import brute_force_gamma


def sparse_random_precision(p, seed, density=0.3):
    rng = np.random.default_rng(seed)
    off = np.zeros((p, p))
    for i in range(p):
        for j in range(i + 1, p):
            if rng.random() < density:
                off[i, j] = off[j, i] = rng.uniform(-0.6, 0.6)
    m = off + np.eye(p) * (np.abs(off).sum(axis=1).max() + 1.0)
    return SymMatrix(m)


def dense_random_precision(p, seed):
    g = np.random.default_rng(seed).standard_normal((p, p))
    return SymMatrix(g @ g.T / p + np.eye(p))


def straightforward_gamma2(cov, precision, use_row_sums=False):
    sv, pv = cov.values, precision.values
    p = cov.dim
    worst = 0.0
    for i in range(p):
        s_i = [j for j in range(p) if pv[i, j] != 0.0]
        c_i = [j for j in range(p) if pv[i, j] == 0.0]
        if not c_i:
            continue
        m = sv[np.ix_(c_i, s_i)] @ np.linalg.inv(sv[np.ix_(s_i, s_i)])
        axis = 1 if use_row_sums else 0
        worst = max(worst, float(np.abs(m).sum(axis=axis).max()))
    return worst


def reference_assumption1_gamma(precision, support, use_row_sums=False):
    """assumption1_gamma as it stood when both halves were built whole,
    frozen as the bitwise reference: the same floating-point operations, so
    the same gamma. Each whole half is factored by the owned-array path of
    cholesky, whose LAPACK the row-block builder also uses."""
    p = precision.dim
    off = [(k, l) for k in range(p) for l in range(k + 1, p) if (k, l) not in support]
    if not off:
        return 0.0
    sigma = invert(precision)
    root_half = np.sqrt(0.5)
    on = sorted([(i, i) for i in range(p)] + support.sorted_pairs())
    swapped = [(j, i) for i, j in on]
    diag = np.array([i == j for i, j in on])
    edge = np.flatnonzero(~diag)

    def swap_halves(k, k_swap):
        anti = k.take(edge, axis=1)
        anti -= k_swap.take(edge, axis=1)
        k += k_swap
        k[:, diag] *= root_half
        return k, anti

    a_sym, a_anti = swap_halves(kron_subblock(sigma, on, on), kron_subblock(sigma, on, swapped))
    a_sym[diag] *= root_half
    try:
        lower_sym = cholesky(np.ascontiguousarray(a_sym))
        lower_anti = cholesky(np.ascontiguousarray(a_anti[~diag])) if len(support) else None
    except NotPositiveDefinite as exc:
        raise SingularGamma(str(exc)) from exc
    b_sym, b_anti = swap_halves(kron_subblock(sigma, off, on), kron_subblock(sigma, off, swapped))
    m_sym = cho_solve((lower_sym, True), b_sym.T, overwrite_b=True, check_finite=False)
    m_anti = (cho_solve((lower_anti, True), b_anti.T, overwrite_b=True, check_finite=False)
              if len(support) else b_anti.T)
    np.abs(m_sym, out=m_sym)
    np.abs(m_anti, out=m_anti)
    on_diag = m_sym[diag]
    on_edge = np.maximum(m_sym[~diag], m_anti, out=m_anti)
    if use_row_sums:
        sums = on_edge.sum(axis=0) + root_half * on_diag.sum(axis=0)
    else:
        sums = np.concatenate([2.0 * root_half * on_diag.sum(axis=1), on_edge.sum(axis=1)])
    return float(sums.max())


@pytest.fixture(scope="module")
def expression():
    return synthetic_expression(600, 150, rng=rng_for(20243, 9000))


def gene_model(expression, d, *key):
    return bench._gene_subset_model(expression, d, 0.1, rng_for(*key))[0]


class TestAssumption1:
    def test_diagonal_precision_gives_zero(self):
        assert assumption1_gamma(SymMatrix(np.diag([1.0, 2.0, 3.0])), SupportSet(3)) == 0.0

    @pytest.mark.parametrize("p,seed", [(3, 0), (4, 1), (4, 2), (4, 3), (4, 5),
                                        (5, 4), (6, 5), (6, 6), (7, 7), (7, 8)])
    def test_matches_materialized_kronecker(self, p, seed):
        prec = sparse_random_precision(p, seed)
        sup = SupportSet.from_matrix(prec, eps=0.0)
        for use_row_sums in (False, True):
            got = assumption1_gamma(prec, sup, use_row_sums=use_row_sums)
            want = brute_force_gamma(prec, sup, use_row_sums)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("p,pairs", [
        (6, {(0, 1), (1, 2), (2, 3)}),  # nodes 4 and 5 isolated
        (5, {(1, 3)}),                  # one edge: a 1 x 1 antisymmetric block
        (5, set()),                     # no edges: no antisymmetric block
    ], ids=["isolated-nodes", "single-edge", "empty"])
    def test_special_supports_match_materialized_kronecker(self, p, pairs):
        prec = dense_random_precision(p, seed=p + len(pairs))
        sup = SupportSet(p, frozenset(pairs))
        for use_row_sums in (False, True):
            got = assumption1_gamma(prec, sup, use_row_sums=use_row_sums)
            want = brute_force_gamma(prec, sup, use_row_sums)
            assert want > 0.0
            assert got == pytest.approx(want, rel=1e-10)

    def test_scale_invariance(self):
        prec = sparse_random_precision(5, seed=6)
        sup = SupportSet.from_matrix(prec, eps=0.0)
        g1 = assumption1_gamma(prec, sup)
        g2 = assumption1_gamma(SymMatrix(3.7 * prec.values), sup)
        assert g1 == pytest.approx(g2, rel=1e-10)

    def test_full_support_gives_zero(self):
        prec = sparse_random_precision(3, seed=7, density=1.0)
        sup = SupportSet(3, frozenset({(0, 1), (0, 2), (1, 2)}))
        assert assumption1_gamma(prec, sup) == 0.0

    def test_monotone_in_coupling_scale(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((6, 2))
        gammas = []
        for c in (0.1, 0.3, 1.0, 3.0, 10.0):
            model = latent_precision(LatentModelSpec(2, 6, 1.0, 0.01, c * a))
            gammas.append(assumption1_gamma(model.precision, model.support))
        assert all(g1 < g2 for g1, g2 in zip(gammas, gammas[1:]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            assumption1_gamma(SymMatrix(np.eye(3)), SupportSet(4))

    @staticmethod
    def nearly_singular(gap):
        r = 1.0 - gap
        prec = SymMatrix(np.array([[1.0, r, 0.0], [r, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        return prec, SupportSet.from_matrix(prec, eps=0.0)

    @pytest.mark.parametrize("gap", [1e-8, 1e-10])
    def test_nearly_singular_support_block_raises(self, gap):
        with pytest.raises(SingularGamma):
            assumption1_gamma(*self.nearly_singular(gap))

    def test_support_block_above_the_pivot_floor_factors(self):
        # the off-support pairs touch node 2 only, which sigma leaves uncoupled
        assert assumption1_gamma(*self.nearly_singular(1e-4)) == 0.0


def bitwise_cases():
    """Models for the bitwise tests: random sparse precisions and the
    special supports, whose blocks fit in one row block."""
    for p, seed in [(4, 1), (5, 4), (7, 7), (7, 8)]:
        prec = sparse_random_precision(p, seed)
        yield prec, SupportSet.from_matrix(prec, eps=0.0)
    for p, pairs in [(6, {(0, 1), (1, 2), (2, 3)}), (5, {(1, 3)}), (5, set())]:
        yield dense_random_precision(p, seed=p + len(pairs)), SupportSet(p, frozenset(pairs))


class TestAssumption1Bitwise:
    """Row blocks change how G's halves are built, never a bit of gamma."""

    @staticmethod
    def assert_same_bits(prec, support):
        for use_row_sums in (False, True):
            got = assumption1_gamma(prec, support, use_row_sums=use_row_sums)
            assert got == reference_assumption1_gamma(prec, support, use_row_sums)

    @pytest.mark.parametrize("block", [None, 1, 7])
    def test_small_models(self, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(diagnostics, "_BLOCK", block)
        for prec, support in bitwise_cases():
            self.assert_same_bits(prec, support)

    @pytest.mark.parametrize("block", [None, 1, 7])
    @pytest.mark.parametrize("d", [24, 40])
    def test_gene_subsets(self, expression, d, block, monkeypatch):
        # 191 support coordinates at d = 24; 443 support coordinates and 377
        # off-support pairs at d = 40: both blocks span several row blocks
        if block is not None:
            monkeypatch.setattr(diagnostics, "_BLOCK", block)
        model = gene_model(expression, d, 3, 0, 0)
        self.assert_same_bits(model.precision, model.support)

    def test_peak_memory_of_one_call(self, expression):
        # one half at a time, built in row blocks and factored and solved in
        # place, measures 1.6 units; both halves built whole measure 2.86
        model = gene_model(expression, 60, 3, 0, 0)
        p, edges = model.precision.dim, len(model.support)
        n_on, n_off = p + edges, p * (p - 1) // 2 - edges
        unit = 8 * (n_on ** 2 + n_on * n_off)
        tracemalloc.start()
        try:
            assumption1_gamma(model.precision, model.support)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * unit


class TestAssumption2:
    def test_diagonal_case_zero(self):
        prec = SymMatrix(np.diag([1.0, 0.5, 2.0]))
        cov = invert(prec)
        assert assumption2_gamma(cov, SupportSet.from_matrix(prec)) == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_straightforward_implementation(self, seed):
        prec = sparse_random_precision(5, seed + 10)
        cov = invert(prec)
        got = assumption2_gamma(cov, SupportSet.from_matrix(prec))
        assert got == pytest.approx(straightforward_gamma2(cov, prec), abs=1e-10)

    def test_latent_failure_regime_violates_condition(self):
        rng = np.random.default_rng(12)
        model = latent_precision(
            LatentModelSpec(2, 10, 1.0, 0.01, rng.standard_normal((10, 2)))
        )
        assert assumption2_gamma(model.covariance, model.support) > 1.0

    def test_reads_the_support_it_is_given(self):
        # the model of `generate --kind latent --seed 1 --d1 2 --d2 6`: at
        # eps 50 the support loses 3 of its 13 edges, and gamma2 moves as if
        # their entries of the precision were zero
        a = random_a(2, 6, 1.0, 0.0, rng_for(1, 0))
        model = latent_precision(LatentModelSpec(2, 6, 1.0, 0.01, a))
        prec, cov = model.precision, model.covariance
        support = SupportSet.from_matrix(prec, eps=50.0)
        assert (len(model.support), len(support)) == (13, 10)
        zeroed = np.where(np.abs(prec.values) > 50.0, prec.values, 0.0)
        np.fill_diagonal(zeroed, prec.values.diagonal())
        exact = consistency_report(prec, None, cov)
        report = consistency_report(prec, support, cov)
        assert report.gamma1 == assumption1_gamma(prec, support)
        assert report.gamma2 == pytest.approx(straightforward_gamma2(cov, SymMatrix(zeroed)),
                                              rel=1e-12)
        assert report.gamma2 == pytest.approx(25.10, abs=0.01)
        assert exact.gamma2 == pytest.approx(5.822, abs=0.001)


class TestGlassoObjective:
    def test_identity_case(self):
        b = glasso_objective(
            SymMatrix(np.eye(4)), SymMatrix(np.eye(4)), 0.1, penalize_diagonal=True
        )
        assert b.log_det_term == 0.0
        assert b.neg_trace_term == -4.0
        assert b.penalty_term == pytest.approx(0.4)
        assert b.total == pytest.approx(-4.4)

    def test_latent_worked_example(self):
        model = latent_precision(LatentModelSpec(1, 1, 1.0, 1.0, np.array([[2.0]])))
        b = glasso_objective(model.precision, model.covariance, 0.3, penalize_diagonal=True)
        assert b.neg_trace_term == pytest.approx(-2.0)
        assert b.log_det_term == pytest.approx(0.0, abs=1e-12)
        # full l1 mass of [[5,-2],[-2,1]] is 10, above the block bound
        # (1/noise_var) * (d2 + 2 * |coupling|_l1) = 5
        assert b.penalty_term / 0.3 == pytest.approx(10.0)
        assert b.penalty_term / 0.3 > 5.0

    def test_total_identity(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((5, 5))
        omega = SymMatrix(m @ m.T + np.eye(5))
        s = SymMatrix(np.eye(5) * 0.7)
        b = glasso_objective(omega, s, 0.2, penalize_diagonal=False)
        direct = (
            b.log_det_term + b.neg_trace_term - b.penalty_term
        )
        assert b.total == pytest.approx(direct, abs=1e-10)

    def test_rejects_indefinite_omega(self):
        with pytest.raises(NotPositiveDefinite):
            glasso_objective(
                SymMatrix(np.array([[1.0, 2.0], [2.0, 1.0]])),
                SymMatrix(np.eye(2)),
                0.1,
            )

    def test_log_det_identity_across_noise_grid(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((5, 2))
        for se2 in (1e-4, 1e-2, 1.0, 4.0):
            model = latent_precision(LatentModelSpec(2, 5, 1.0, se2, a))
            b = glasso_objective(model.precision, model.covariance, 0.0)
            assert b.log_det_term == pytest.approx(-5 * np.log(se2), abs=1e-8)

    def test_general_log_det_identity_with_x_variance(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 3))
        sx2, se2 = 2.5, 0.3
        model = latent_precision(LatentModelSpec(3, 4, sx2, se2, a))
        b = glasso_objective(model.precision, model.covariance, 0.0)
        expect = -(3 + 4) * np.log(sx2) - 4 * np.log(se2)
        assert b.log_det_term == pytest.approx(expect, abs=1e-8)


def trace_bound_check(c: SymMatrix, omega: SymMatrix) -> bool:
    """True when trace(c omega) <= ||omega||_1, valid whenever max |c| <= 1:
    the boundedness argument for normalised input, by which an estimate can
    always keep its trace term under its own l1 norm."""
    if c.dim != omega.dim:
        raise DimensionMismatch("c and omega dimensions disagree")
    if float(np.abs(c.values).max()) > 1.0 + 1e-12:
        raise ValueError("entries of c must not exceed 1 in magnitude")
    tr = float((c.values * omega.values).sum())
    return tr <= norm_l1_all(omega) + 1e-10


class TestTraceBound:
    def test_identity_c(self):
        omega = sparse_random_precision(4, seed=20)
        assert trace_bound_check(SymMatrix(np.eye(4)), omega)

    def test_zero_omega(self):
        assert trace_bound_check(SymMatrix(np.eye(3)), SymMatrix(np.zeros((3, 3))))

    def test_random_draws_always_hold(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            g = rng.standard_normal((10, 8))
            c = to_correlation(SymMatrix(g.T @ g / 10 + 0.1 * np.eye(8)))
            m = rng.standard_normal((8, 8))
            omega = SymMatrix(0.5 * (m + m.T))
            assert trace_bound_check(c, omega)

    def test_rejects_oversized_entries(self):
        with pytest.raises(ValueError):
            trace_bound_check(SymMatrix(np.array([[2.0]])), SymMatrix(np.eye(1)))


class TestConsistencyReport:
    def test_csv_row_shape(self):
        prec = sparse_random_precision(4, seed=30)
        report = consistency_report(prec)
        row = report.csv_row()
        assert len(row.split(",")) == len(REPORT_COLUMNS)
        assert report.support_size == len(SupportSet.from_matrix(prec, eps=0.0))

    def test_flags_follow_gammas(self):
        prec = SymMatrix(np.diag([1.0, 1.0, 1.0]))
        report = consistency_report(prec)
        assert report.gamma1 == 0.0 and report.gamma2 == 0.0
        assert report.satisfied1 and report.satisfied2
