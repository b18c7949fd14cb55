import numpy as np
import pytest
from scipy.optimize import linprog

from precis_lab import simplex
from precis_lab.errors import Infeasible
from precis_lab.simplex import _TOL, _pivot, solve_lp


def slack_start(c, a, b):
    """Tableau, basis and costs of min c @ x, a @ x <= b, x >= 0 in the
    all-slack basis."""
    c, a, b = (np.asarray(v, dtype=float) for v in (c, a, b))
    m, n = a.shape
    return np.hstack([a, np.eye(m), b[:, None]]), n + np.arange(m), np.concatenate([c, np.zeros(m)])


def primal_solve(c, a, b):
    """x from ``simplex._run_phase`` alone, started from the slack basis of
    a problem with b >= 0; costs may have any sign."""
    tableau, basis, cost = slack_start(c, a, b)
    simplex._run_phase(tableau, basis, cost, 10**6)
    x = np.zeros(cost.size)
    x[basis] = tableau[:, -1]
    return x[: len(c)]


# maximize 2x + 3y s.t. x+y <= 100, 6x+3y <= 360, x+2y <= 120
TEXTBOOK = ([-2.0, -3.0], [[1.0, 1.0], [6.0, 3.0], [1.0, 2.0]], [100.0, 360.0, 120.0])
# Beale's classic cycling-prone instance; the optimum value is -1/20
BEALE = (
    [-0.75, 150.0, -0.02, 6.0],
    [[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0], [0.0, 0.0, 1.0, 0.0]],
    [0.0, 0.0, 1.0],
)


def test_textbook_max_problem():
    # optimum 200 at (40, 40); minimize the negated objective
    x = primal_solve(*TEXTBOOK)
    np.testing.assert_allclose(x, [40.0, 40.0], atol=1e-9)
    assert TEXTBOOK[0] @ x == pytest.approx(-200.0)


def test_negative_rhs_needs_phase_one():
    # x >= 1 written as -x <= -1; minimize x. The slack basis is infeasible,
    # so the dual phase moves to the optimum
    res = solve_lp([1.0], [[-1.0]], [-1.0])
    assert res.x[0] == pytest.approx(1.0)
    assert res.iterations == 1


def test_infeasible():
    # x <= -1 with x >= 0
    with pytest.raises(Infeasible):
        solve_lp([1.0], [[1.0]], [-1.0])


def test_negative_cost_is_rejected():
    # minimize -x with only -x <= 0: unbounded, and the slack basis is not
    # dual feasible
    with pytest.raises(ValueError, match="nonnegative"):
        solve_lp([-1.0], [[-1.0]], [0.0])


def test_degenerate_cycling_example_terminates():
    x = primal_solve(*BEALE)
    assert BEALE[0] @ x == pytest.approx(-0.05, abs=1e-10)


def test_zero_objective_returns_feasible_point():
    res = solve_lp([0.0, 0.0], [[1.0, 1.0]], [5.0])
    assert (res.x >= -1e-12).all()
    assert res.x.sum() <= 5.0 + 1e-12


def test_equality_via_paired_inequalities():
    # x1 + x2 = 2 and minimize x1 -> (0, 2)
    a = [[1.0, 1.0], [-1.0, -1.0]]
    b = [2.0, -2.0]
    res = solve_lp([1.0, 0.0], a, b)
    np.testing.assert_allclose(res.x, [0.0, 2.0], atol=1e-9)


def random_instance(seed):
    rng = np.random.default_rng(seed)
    m, n = rng.integers(3, 9), rng.integers(2, 7)
    a = rng.standard_normal((m, n))
    b = rng.standard_normal(m) * 2.0
    c = rng.random(n) + 0.1  # positive costs keep the problem bounded
    return rng, c, a, b


@pytest.mark.parametrize("seed", range(12))
def test_random_instances_match_reference_solver(seed):
    _, c, a, b = random_instance(seed)
    ref = linprog(c, A_ub=a, b_ub=b, method="highs")
    if ref.status == 2:
        with pytest.raises(Infeasible):
            solve_lp(c, a, b)
        return
    assert ref.status == 0
    res = solve_lp(c, a, b)
    assert res.objective == pytest.approx(ref.fun, abs=1e-8)
    assert (a @ res.x <= b + 1e-8).all()
    assert (res.x >= -1e-10).all()


@pytest.mark.parametrize("seed", range(12))
def test_warm_start_after_rhs_change_matches_reference(seed):
    # solve at a right-hand side that is feasible by construction, then
    # move to the instance's own b from that basis; at half of the seeds
    # that b is infeasible, which the dual phase finds
    rng, c, a, b = random_instance(seed)
    m, n = a.shape
    b0 = a @ rng.random(n) + rng.random(m)
    first = solve_lp(c, a, b0)
    assert np.unique(first.basis).size == m
    ref = linprog(c, A_ub=a, b_ub=b, method="highs")
    # a usable basis is used: from its own b it takes no pivot
    again = solve_lp(c, a, b0, basis=first.basis)
    assert again.iterations == 0
    np.testing.assert_array_equal(again.basis, first.basis)
    np.testing.assert_allclose(again.x, first.x, atol=1e-12)
    if ref.status == 2:
        with pytest.raises(Infeasible):
            solve_lp(c, a, b, basis=first.basis)
        return
    assert ref.status == 0
    res = solve_lp(c, a, b, basis=first.basis)
    assert res.objective == pytest.approx(ref.fun, abs=1e-8)
    assert (a @ res.x <= b + 1e-8).all()
    assert (res.x >= -1e-10).all()


def test_dual_ratio_ties_go_to_the_smallest_column():
    # min x1 + x2 s.t. x1 + x2 >= 1 from the slack basis: x1 and x2 tie
    res = solve_lp([1.0, 1.0], [[-1.0, -1.0]], [-1.0], basis=[2])
    assert res.iterations == 1
    np.testing.assert_array_equal(res.x, [1.0, 0.0])


@pytest.mark.parametrize(
    "basis",
    [[1, 2], [2], [2, 2, 3], [2, 2], [2, 4], [-1, 2], [2.0, 3.0], [1, 3]],
    ids=["singular", "short", "long", "repeated", "past-end", "negative", "float",
         "dual-infeasible"],
)
def test_unusable_basis_solves_cold(basis):
    # min x1 + 2 x2 s.t. x1 + x2 >= 1, x1 <= 3; columns x1, x2, s1, s2.
    # x2 and s1 are both multiples of e1, and in {x2, s2} x1 prices at -1.
    # An unusable basis is ignored: the solve is the one from the slack basis
    c, a, b = [1.0, 2.0], [[-1.0, -1.0], [1.0, 0.0]], [-1.0, 3.0]
    cold = solve_lp(c, a, b)
    res = solve_lp(c, a, b, basis=basis)
    assert res.iterations == cold.iterations > 0
    assert res.x.tobytes() == cold.x.tobytes()
    np.testing.assert_allclose(res.x, [1.0, 0.0], atol=1e-12)


def run_phase_loop(tableau, basis, cost, max_iter):
    """Bland-rule primal phase written as plain loops: the reference for
    the vectorised ``simplex._run_phase``."""
    m = tableau.shape[0]
    iters = 0
    cost_ext = np.append(cost, 0.0)
    while True:
        reduced = cost_ext - cost[basis] @ tableau
        entering = next((j for j in range(tableau.shape[1] - 1) if reduced[j] < -_TOL), -1)
        if entering < 0:
            return iters
        col, rhs = tableau[:, entering], tableau[:, -1]
        eligible = [i for i in range(m) if col[i] > _TOL]
        assert eligible, "unbounded"
        ratios = {i: rhs[i] / col[i] for i in eligible}
        best = min(ratios.values())
        band = _TOL * (1.0 + abs(best))
        leaving = min((i for i in eligible if ratios[i] <= best + band), key=lambda i: basis[i])
        _pivot(tableau, basis, leaving, entering)
        iters += 1
        assert iters <= max_iter


def clime_column_lp(p, seed, lam):
    """Column 0 of CLIME on a random sample correlation: an l1 objective
    over degenerate, tie-prone constraints."""
    x = np.random.default_rng(seed).standard_normal((3 * p, p))
    s = np.corrcoef(x, rowvar=False)
    e = np.eye(p)[0]
    a = np.vstack([np.hstack([s, -s]), np.hstack([-s, s])])
    return np.ones(2 * p), a, np.concatenate([lam + e, lam - e])


@pytest.mark.parametrize("seed", range(8))
def test_vectorised_phases_pivot_like_the_loop(seed):
    # from the slack basis of a problem with b >= 0 and costs of both
    # signs, the primal phase takes the same pivots as the loop version
    # and ends on a bit-identical tableau. CLIME's constraints with |b| are
    # degenerate and tie-prone. Costs 1 + d on u and 1 - d on v sum to 2,
    # so u and v cannot grow together, and s is nonsingular, so u - v is
    # bounded; some 1 + d are negative, so the slack basis is not optimal
    rng = np.random.default_rng(seed)
    lps = [TEXTBOOK, BEALE]
    for lam in (0.05, 0.2, 0.6):
        _, a, b = clime_column_lp(5 + seed, seed, lam)
        d = rng.permutation(np.linspace(-1.8, 0.6, a.shape[1] // 2))
        lps.append((np.concatenate([1.0 + d, 1.0 - d]), a, np.abs(b)))
    a = np.vstack([rng.standard_normal((6, 5)), np.ones(5)])
    lps.append((rng.standard_normal(5), a, rng.random(7)))
    for lp in lps:
        tableau, basis, cost = slack_start(*lp)
        ref_tableau, ref_basis = tableau.copy(), basis.copy()
        pivots = simplex._run_phase(tableau, basis, cost, 10**6)
        assert pivots == run_phase_loop(ref_tableau, ref_basis, cost, 10**6) > 0
        assert tableau.tobytes() == ref_tableau.tobytes()
        np.testing.assert_array_equal(basis, ref_basis)


def dual_phase_loop(tableau, basis, cost):
    """The dual Bland rule written as plain loops: the reference for
    ``simplex._dual_phase``."""
    m = tableau.shape[0]
    pivots = []
    while True:
        negative = [i for i in range(m) if tableau[i, -1] < -_TOL]
        if not negative:
            return pivots
        leaving = min(negative, key=lambda i: basis[i])
        reduced = cost - cost[basis] @ tableau[:, :-1]
        ratios = {j: reduced[j] / -tableau[leaving, j]
                  for j in range(cost.size) if tableau[leaving, j] < -_TOL}
        best = min(ratios.values())
        entering = min(j for j in ratios if ratios[j] <= best + _TOL * (1.0 + abs(best)))
        pivots.append((leaving, entering))
        _pivot(tableau, basis, leaving, entering)


@pytest.mark.parametrize("seed", range(6))
def test_dual_phase_pivots_like_the_loop(monkeypatch, seed):
    # a CLIME column takes the pivots of the dual Bland rule, in order, both
    # from cold (the slack basis) and warm-started across a tenfold change
    # of lambda
    c, a, b = clime_column_lp(6 + seed, seed, 0.5)
    _, _, b_next = clime_column_lp(6 + seed, seed, 0.05)
    cold_tableau, slack_basis, cost = slack_start(c, a, b_next)
    warm = solve_lp(c, a, b).basis
    starts = [(cold_tableau, slack_basis), (simplex._warm_tableau(cold_tableau, cost, warm), warm)]
    taken = []
    real = simplex._pivot

    def recording(tab, bas, row, col):
        taken.append((row, col))
        real(tab, bas, row, col)

    monkeypatch.setattr(simplex, "_pivot", recording)
    for tableau, basis in starts:
        expected = dual_phase_loop(tableau.copy(), basis.copy(), cost)
        assert expected
        taken.clear()
        assert simplex._dual_phase(tableau, basis.copy(), cost, 10**6) == len(expected)
        assert taken == expected


def test_shape_validation():
    with pytest.raises(ValueError):
        solve_lp([1.0, 2.0], [[1.0]], [1.0])
