import numpy as np
import pytest
from scipy.optimize import linprog

from precis_lab import simplex
from precis_lab.errors import Infeasible, Unbounded
from precis_lab.simplex import _TOL, _pivot, solve_lp


def test_textbook_max_problem():
    # maximize 2x + 3y s.t. x+y <= 100, 6x+3y <= 360, x+2y <= 120
    # optimum 200 at (40, 40); minimize the negated objective
    c = np.array([-2.0, -3.0])
    a = np.array([[1.0, 1.0], [6.0, 3.0], [1.0, 2.0]])
    b = np.array([100.0, 360.0, 120.0])
    res = solve_lp(c, a, b)
    np.testing.assert_allclose(res.x, [40.0, 40.0], atol=1e-9)
    assert res.objective == pytest.approx(-200.0)


def test_negative_rhs_needs_phase_one():
    # x >= 1 written as -x <= -1; minimize x
    res = solve_lp([1.0], [[-1.0]], [-1.0])
    assert res.x[0] == pytest.approx(1.0)


def test_infeasible():
    # x <= -1 with x >= 0
    with pytest.raises(Infeasible):
        solve_lp([1.0], [[1.0]], [-1.0])


def test_unbounded():
    # minimize -x with only -x <= 0
    with pytest.raises(Unbounded):
        solve_lp([-1.0], [[-1.0]], [0.0])


def test_degenerate_cycling_example_terminates():
    # classic cycling-prone instance; the optimum value is -1/20
    c = np.array([-0.75, 150.0, -0.02, 6.0])
    a = np.array(
        [
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    b = np.array([0.0, 0.0, 1.0])
    res = solve_lp(c, a, b)
    assert res.objective == pytest.approx(-0.05, abs=1e-10)


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


def cold_only(*args, **kwargs):
    raise AssertionError("a usable warm basis fell back to the cold start")


@pytest.mark.parametrize("seed", range(12))
def test_warm_start_after_rhs_change_matches_reference(monkeypatch, seed):
    # solve at a right-hand side that is feasible by construction, then
    # move to the instance's own b from that basis by the dual phase alone;
    # at half of the seeds that b is infeasible, which the dual phase finds
    rng, c, a, b = random_instance(seed)
    m, n = a.shape
    b0 = a @ rng.random(n) + rng.random(m)
    first = solve_lp(c, a, b0)
    assert np.unique(first.basis).size == m
    ref = linprog(c, A_ub=a, b_ub=b, method="highs")
    monkeypatch.setattr(simplex, "_phase_one", cold_only)
    again = solve_lp(c, a, b0, basis=first.basis)
    assert again.iterations == 0
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
def test_unusable_basis_solves_cold(monkeypatch, basis):
    # min x1 + 2 x2 s.t. x1 + x2 >= 1, x1 <= 3; columns x1, x2, s1, s2.
    # x2 and s1 are both multiples of e1, and in {x2, s2} x1 prices at -1
    c, a, b = [1.0, 2.0], [[-1.0, -1.0], [1.0, 0.0]], [-1.0, 3.0]
    cold = solve_lp(c, a, b)
    cold_starts = []
    real = simplex._phase_one

    def recording(*args):
        cold_starts.append(args)
        return real(*args)

    monkeypatch.setattr(simplex, "_phase_one", recording)
    res = solve_lp(c, a, b, basis=basis)
    assert len(cold_starts) == 1
    assert res.iterations == cold.iterations > 0
    assert res.x.tobytes() == cold.x.tobytes()
    np.testing.assert_allclose(res.x, [1.0, 0.0], atol=1e-12)


def run_phase_loop(tableau, basis, cost, max_iter, iters_used):
    """Bland-rule primal phase written as plain loops: the reference for
    the vectorised ``simplex._run_phase``."""
    m = tableau.shape[0]
    iters = iters_used
    cost_ext = np.append(cost, 0.0)
    while True:
        reduced = cost_ext - cost[basis] @ tableau
        entering = next((j for j in range(tableau.shape[1] - 1) if reduced[j] < -_TOL), -1)
        if entering < 0:
            return iters, "optimal"
        col, rhs = tableau[:, entering], tableau[:, -1]
        eligible = [i for i in range(m) if col[i] > _TOL]
        if not eligible:
            return iters, "unbounded"
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
def test_vectorised_phases_pivot_like_the_loop(monkeypatch, seed):
    # both phases take the same pivots as the loop version and return
    # bit-identical solutions
    lps = [clime_column_lp(5 + seed, seed, lam) for lam in (0.05, 0.2, 0.6)]
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((7, 5))
    lps.append((rng.random(5) + 0.1, a, a @ rng.random(5) + 0.1))
    fast = [solve_lp(*lp) for lp in lps]
    monkeypatch.setattr(simplex, "_run_phase", run_phase_loop)
    for res, lp in zip(fast, lps):
        ref = solve_lp(*lp)
        assert res.iterations == ref.iterations > 0
        assert res.x.tobytes() == ref.x.tobytes()


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
    # a CLIME column warm-started across a tenfold change of lambda takes
    # the pivots of the dual Bland rule, in order
    c, a, b = clime_column_lp(6 + seed, seed, 0.5)
    _, _, b_next = clime_column_lp(6 + seed, seed, 0.05)
    basis = solve_lp(c, a, b).basis
    cost = np.concatenate([c, np.zeros(a.shape[0])])
    tableau = simplex._warm_tableau(a, b_next, cost, basis)
    expected = dual_phase_loop(tableau.copy(), basis.copy(), cost)
    assert expected
    taken = []
    real = simplex._pivot

    def recording(tab, bas, row, col):
        taken.append((row, col))
        real(tab, bas, row, col)

    monkeypatch.setattr(simplex, "_pivot", recording)
    assert simplex._dual_phase(tableau, basis.copy(), cost, 10**6) == len(expected)
    assert taken == expected


def test_shape_validation():
    with pytest.raises(ValueError):
        solve_lp([1.0, 2.0], [[1.0]], [1.0])
