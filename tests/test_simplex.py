import numpy as np
import pytest
from scipy.optimize import linprog

from precis_lab import simplex
from precis_lab.errors import Infeasible, LPNumericalFailure
from precis_lab.simplex import _TOL, LPResult, solve_lp

from oracles import program_of


def slack_start(c, a, b):
    """Tableau, basis and costs of min c @ x, a @ x <= b, x >= 0 in the
    all-slack basis."""
    c, a, b = (np.asarray(v, dtype=float) for v in (c, a, b))
    m, n = a.shape
    return np.hstack([a, np.eye(m), b[:, None]]), n + np.arange(m), np.concatenate([c, np.zeros(m)])


def start_at(a, bases):
    """A start for a_ub = ``a`` whose tableaux are those of ``bases``, one
    basis or a stack of them, each built by solving its basis columns;
    solve_lp rebuilds the right-hand side, which is left at zero."""
    a = np.asarray(a, dtype=float)
    m, n = a.shape
    full = np.hstack([a, np.eye(m), np.zeros((m, 1))])
    bases = np.asarray(bases)
    tableaux = np.array([np.linalg.solve(full[:, basis], full) for basis in np.atleast_2d(bases)])
    return LPResult(x=None, iterations=0, basis=bases,
                    tableau=tableaux[0] if bases.ndim == 1 else tableaux)


def dual_lp(c, a, b):
    """The dual of min c @ x, a @ x <= b, x >= 0, as min b @ y, -a.T @ y <= c,
    y >= 0: its costs are b, so for b >= 0 solve_lp takes it from the slack
    basis, and its optimum is minus the primal optimum."""
    return np.asarray(b, dtype=float), -np.asarray(a, dtype=float).T, np.asarray(c, dtype=float)


# maximize 2x + 3y s.t. x+y <= 100, 6x+3y <= 360, x+2y <= 120
TEXTBOOK = ([-2.0, -3.0], [[1.0, 1.0], [6.0, 3.0], [1.0, 2.0]], [100.0, 360.0, 120.0])
# Beale's classic cycling-prone instance; the optimum value is -1/20
BEALE = (
    [-0.75, 150.0, -0.02, 6.0],
    [[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0], [0.0, 0.0, 1.0, 0.0]],
    [0.0, 0.0, 1.0],
)


def test_textbook_max_problem():
    # the maximum 200 is the minimum of the dual, at the shadow prices
    # (0, 1/9, 4/3) of the three constraints
    c, a, b = dual_lp(*TEXTBOOK)
    res = solve_lp(c, a, b)
    np.testing.assert_allclose(res.x, [0.0, 1.0 / 9.0, 4.0 / 3.0], atol=1e-12)
    assert c @ res.x == pytest.approx(200.0)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["c", "a_ub", "b_ub"])
def test_non_finite_input_is_rejected(where, bad):
    # a nan never compares as negative, so it would pass the dual phase
    # and the certificate unseen
    lp = {"c": [1.0, 1.0], "a_ub": [[1.0, 2.0], [-1.0, 1.0]], "b_ub": [4.0, 1.0]}
    row = lp[where][0] if where == "a_ub" else lp[where]
    row[1] = bad
    with pytest.raises(ValueError, match="must be finite"):
        solve_lp(lp["c"], lp["a_ub"], lp["b_ub"])


def test_degenerate_cycling_example_terminates():
    # Beale's instance through its dual: two of its costs are zero, so the
    # first four pivots have dual ratio zero, two of them tied, and do not
    # move the objective; the dual Bland rule still ends at the optimum
    c, a, b = dual_lp(*BEALE)
    res = solve_lp(c, a, b)
    assert res.iterations == 6
    assert c @ res.x == pytest.approx(0.05, abs=1e-10)


def test_no_constraints():
    # with no rows, x = 0 is optimal at once
    res = solve_lp([1.0, 2.0], np.zeros((0, 2)), [])
    assert res.x.tolist() == [0.0, 0.0] and res.iterations == 0 and res.basis.size == 0


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
    assert c @ res.x == pytest.approx(ref.fun, abs=1e-8)
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
    assert first.tableau.shape == (m, n + m + 1)
    carried = first.tableau.copy()
    ref = linprog(c, A_ub=a, b_ub=b, method="highs")
    # a usable start is used: from its own b it takes no pivot
    again = solve_lp(c, a, b0, start=first)
    assert again.iterations == 0
    np.testing.assert_array_equal(again.basis, first.basis)
    np.testing.assert_allclose(again.x, first.x, atol=1e-12)
    if ref.status == 2:
        with pytest.raises(Infeasible):
            solve_lp(c, a, b, start=first)
        return
    assert ref.status == 0
    res = solve_lp(c, a, b, start=first)
    # the start is copied, never pivoted in place
    assert first.tableau.tobytes() == carried.tobytes()
    assert c @ res.x == pytest.approx(ref.fun, abs=1e-8)
    assert (a @ res.x <= b + 1e-8).all()
    assert (res.x >= -1e-10).all()


def test_dual_ratio_ties_go_to_the_smallest_column():
    # min x1 + x2 s.t. x1 + x2 >= 1 from the slack basis: x1 and x2 tie
    res = solve_lp([1.0, 1.0], [[-1.0, -1.0]], [-1.0])
    assert res.iterations == 1
    np.testing.assert_array_equal(res.x, [1.0, 0.0])


# min x1 + 2 x2 s.t. x1 + x2 >= 1, x1 <= 3; columns x1, x2, s1, s2
BASIS_LP = ([1.0, 2.0], [[-1.0, -1.0], [1.0, 0.0]], [-1.0, 3.0])


def malformed_starts():
    """Starts for ``BASIS_LP`` (m = 2 rows, n = 2 columns) of the wrong
    shape, by name."""
    good = solve_lp(*BASIS_LP)
    stack = solve_lp(*BASIS_LP[:2], [BASIS_LP[2]] * 2)
    return {
        "short": LPResult(good.x, 0, good.basis[:1], good.tableau),
        "long": LPResult(good.x, 0, np.append(good.basis, 0), good.tableau),
        "tableau-rows": LPResult(good.x, 0, good.basis, good.tableau[:1]),
        "tableau-columns": LPResult(good.x, 0, good.basis, good.tableau[:, 1:]),
        "stack": stack,
        "other-lp": solve_lp([1.0], [[1.0], [2.0]], [1.0, 1.0]),
    }


MALFORMED = malformed_starts()


@pytest.mark.parametrize("name", ["short", "long", "tableau-rows", "tableau-columns",
                                  "stack", "other-lp"])
def test_malformed_basis_is_refused(name):
    # a start is checked for its shapes: m basic columns and m tableau rows
    # of n + m + 1 entries, for one problem here. There is no fallback to
    # the slack basis
    with pytest.raises(ValueError, match="start must hold"):
        solve_lp(*BASIS_LP, start=MALFORMED[name])


def test_dual_infeasible_basis_fails_the_certificate():
    # {x2, s2} is primal feasible (x2 = 1, s2 = 3), so the dual phase takes
    # no pivot, but x1 prices at 1 - 2 = -1: the end check refuses the point
    with pytest.raises(LPNumericalFailure, match="reduced cost -1.000e"):
        solve_lp(*BASIS_LP, start=start_at(BASIS_LP[1], [1, 3]))
    assert solve_lp(*BASIS_LP).x.tolist() == [1.0, 0.0]


def test_start_from_another_a_ub_fails_the_feasibility_check():
    # the optimal tableau of 2 x1 + 2 x2 >= 1 is dual feasible, so it passes
    # the certificate, and its point x1 = 1/2 solves that program; a carried
    # tableau never reads a_ub, so only the check against the caller's
    # a_ub @ x <= b_ub sees that x1 + x2 >= 1 is broken
    c, a, b = BASIS_LP
    other = solve_lp(c, [[-2.0, -2.0], [1.0, 0.0]], b)
    assert other.x.tolist() == [0.5, 0.0]
    with pytest.raises(LPNumericalFailure, match="row 0 of a_ub @ x exceeds b_ub by 5.000e-01"):
        solve_lp(c, a, b, start=other)
    assert solve_lp(c, a, b, start=solve_lp(c, a, [-2.0, 3.0])).x.tolist() == [1.0, 0.0]


def clime_stack(p, seed, lam):
    """The p column programs of CLIME on a random sample correlation, an l1
    objective over degenerate, tie-prone constraints: shared costs and
    constraints, and one right-hand side per column."""
    x = np.random.default_rng(seed).standard_normal((3 * p, p))
    s = np.corrcoef(x, rowvar=False)
    e = np.eye(p)
    return (np.ones(2 * p), np.vstack([np.hstack([s, -s]), np.hstack([-s, s])]),
            np.hstack([lam + e, lam - e]))


def clime_column_lp(p, seed, lam):
    """Column 0 of ``clime_stack``."""
    c, a, b = clime_stack(p, seed, lam)
    return c, a, b[0]


def pivot_one(tableau, basis, row, col):
    """Pivot one tableau on (row, col), in place."""
    tableau[row] /= tableau[row, col]
    factor = tableau[:, col].copy()
    factor[row] = 0.0
    tableau -= np.outer(factor, tableau[row])
    basis[row] = col


def dual_phase_loop(tableau, basis, cost):
    """The dual Bland rule for one problem written as plain loops: the
    reference for ``simplex._dual_phase``."""
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
        pivot_one(tableau, basis, leaving, entering)


@pytest.mark.parametrize("seed", range(6))
def test_dual_phase_pivots_like_the_loop(monkeypatch, seed):
    # a CLIME column takes the pivots of the dual Bland rule, in order, both
    # from cold (the slack basis) and warm-started across a tenfold change
    # of lambda, and ends on the loop's tableau to the bit
    c, a, b = clime_column_lp(6 + seed, seed, 0.5)
    _, _, b_next = clime_column_lp(6 + seed, seed, 0.05)
    cold_tableau, slack_basis, cost = slack_start(c, a, b_next)
    warm = solve_lp(c, a, b)
    carried = warm.tableau.copy()
    carried[:, -1] = carried[:, a.shape[1]:-1] @ b_next
    starts = [(cold_tableau, slack_basis), (carried, warm.basis)]
    taken = []
    real = simplex._pivot

    def recording(tab, bas, rows, cols):
        taken.extend(zip(rows.tolist(), cols.tolist()))
        real(tab, bas, rows, cols)

    monkeypatch.setattr(simplex, "_pivot", recording)
    for tableau, basis in starts:
        expected_tableau, expected_basis = tableau.copy(), basis.copy()
        expected = dual_phase_loop(expected_tableau, expected_basis, cost)
        assert expected
        taken.clear()
        stack, bases = tableau[None].copy(), basis[None].copy()
        order, pivots, failures = simplex._dual_phase(stack, bases, cost, 10**6)
        assert (order.tolist(), pivots, failures) == ([0], len(expected), {})
        assert taken == expected
        assert stack[0].tobytes() == expected_tableau.tobytes()
        np.testing.assert_array_equal(bases[0], expected_basis)


def batch_cases():
    """(c, a, b of shape (k, m), a stacked start or None) of three kinds."""
    cases = {}
    rng = np.random.default_rng(5)
    m, n = 7, 5
    a = rng.standard_normal((m, n))
    # feasible by construction, with negative entries for the dual phase
    b = (a @ rng.random((n, 9))).T + rng.random((9, m)) - 0.5 * np.abs(a).sum(axis=1) * (
        rng.random((9, m)) < 0.3)
    cases["random"] = (rng.random(n) + 0.1, a, b, None)
    for seed in range(3):
        # all-one costs over tie-prone constraints: many degenerate pivots
        cases[f"degenerate-{seed}"] = (*clime_stack(6 + 3 * seed, seed, 0.05), None)
        c, a, b_far = clime_stack(6 + 3 * seed, seed, 0.5)
        cases[f"warm-{seed}"] = (*clime_stack(6 + 3 * seed, seed, 0.05), solve_lp(c, a, b_far))
    return cases


BATCHES = batch_cases()


@pytest.fixture(params=["one group"])
def grouping():
    """Every stack is pivoted as one group of programs, in one solve_lp call."""


@pytest.mark.parametrize("name", sorted(BATCHES))
def test_batch_equals_single_solves(name, grouping):
    # a stack of k problems gives each problem's single-solve x, basis and
    # tableau to the bit, and the sum of their pivot counts
    c, a, b, start = BATCHES[name]
    batch = solve_lp(c, a, b, start=start)
    singles = [solve_lp(c, a, row, start=None if start is None else program_of(start, i))
               for i, row in enumerate(b)]
    assert batch.x.shape == (len(b), len(c)) and batch.basis.shape == b.shape
    assert batch.tableau.shape == (*b.shape, len(c) + b.shape[1] + 1)
    assert batch.x.tobytes() == np.array([lp.x for lp in singles]).tobytes()
    assert batch.tableau.tobytes() == np.array([lp.tableau for lp in singles]).tobytes()
    np.testing.assert_array_equal(batch.basis, [lp.basis for lp in singles])
    assert batch.iterations == sum(lp.iterations for lp in singles)
    assert type(batch.iterations) is int
    assert sum(lp.iterations > 0 for lp in singles) > 1


# min x1 + 2 x2 s.t. x1 + x2 >= 1 and x1 <= b2, stacked over right-hand
# sides: x1 <= -1 cannot hold, so the dual phase finds it infeasible at once
GOOD, INFEASIBLE = [-1.0, 3.0], [-1.0, -1.0]
SLACK, DUAL_INFEASIBLE = [2, 3], [1, 3]


def test_batch_raises_the_failure_behind_a_good_problem(grouping):
    with pytest.raises(Infeasible) as single:
        solve_lp(*BASIS_LP[:2], INFEASIBLE)
    with pytest.raises(Infeasible) as batch:
        solve_lp(*BASIS_LP[:2], [GOOD, GOOD, INFEASIBLE])
    assert str(batch.value) == str(single.value)


@pytest.mark.parametrize("b, bases, raised", [
    # problem 1 fails the certificate, which is checked after the dual
    # phase; problem 2 is found infeasible before any pivot. The lower
    # index wins either way round
    ([GOOD, GOOD, INFEASIBLE], [SLACK, DUAL_INFEASIBLE, SLACK], LPNumericalFailure),
    ([GOOD, INFEASIBLE, GOOD], [SLACK, SLACK, DUAL_INFEASIBLE], Infeasible),
], ids=["certificate-first", "infeasible-first"])
def test_batch_raises_the_lowest_index_failure(b, bases, raised, grouping):
    with pytest.raises(raised):
        solve_lp(*BASIS_LP[:2], b, start=start_at(BASIS_LP[1], bases))


def test_certificate_is_checked_per_problem():
    # {x2, s2} prices x1 at -1 for every right-hand side; beside it the
    # same right-hand side solves from the slack basis
    a = BASIS_LP[1]
    with pytest.raises(LPNumericalFailure, match="reduced cost -1.000e"):
        solve_lp(*BASIS_LP[:2], [GOOD, GOOD], start=start_at(a, [SLACK, DUAL_INFEASIBLE]))
    both = solve_lp(*BASIS_LP[:2], [GOOD, GOOD], start=start_at(a, [SLACK, SLACK]))
    assert both.x.tolist() == [[1.0, 0.0], [1.0, 0.0]]


def test_budget_is_counted_per_problem():
    # with a budget of the median pivot count, the columns that need more
    # fail and the others finish: each column's count is its own
    c, a, b = clime_stack(8, 1, 0.05)
    needs = [solve_lp(c, a, row).iterations for row in b]
    budget = sorted(needs)[len(needs) // 2]
    tableaux, bases, costs = zip(*(slack_start(c, a, row) for row in b))
    _, _, failures = simplex._dual_phase(np.array(tableaux), np.array(bases), costs[0], budget)
    assert sorted(failures) == [i for i, need in enumerate(needs) if need > budget]
    assert all(isinstance(e, LPNumericalFailure) and f"exceeded {budget} pivots" in str(e)
               for e in failures.values())
    assert 0 < len(failures) < len(b)


def test_batch_shapes_are_checked():
    c, a, _ = BASIS_LP
    with pytest.raises(ValueError, match="inconsistent"):
        solve_lp(c, a, [[1.0, 2.0, 3.0]])
    with pytest.raises(ValueError, match="start must hold"):
        solve_lp(c, a, [GOOD, GOOD], start=start_at(a, SLACK))
    with pytest.raises(ValueError, match="start must hold"):
        solve_lp(c, a, [GOOD, GOOD], start=start_at(a, [SLACK] * 3))


def test_shape_validation():
    with pytest.raises(ValueError):
        solve_lp([1.0, 2.0], [[1.0]], [1.0])
