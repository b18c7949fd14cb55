"""Self-contained dense simplex for small linear programs with nonnegative costs.

Solves min c @ x subject to a_ub @ x <= b_ub and x >= 0, with c >= 0, on
a full dense tableau [a_ub | I | b_ub]. There is one algorithm: a dual
simplex from a dual-feasible basis, followed by an optimality check. The
start is the caller's basis when one is given, and otherwise the
all-slack basis, whose reduced costs are c itself and so are never
negative. A caller that re-solves the same c and a_ub with a new b_ub
passes the optimal basis of an earlier solve: its reduced costs do not
depend on b_ub, so it stays dual feasible, and the dual simplex usually
needs a few pivots from it.

The dual phase follows the dual Bland rule: the basic variable with the
smallest index among the negative rows leaves, and among the columns of
minimum dual ratio the smallest index enters. The rule makes cycling
impossible, which matters because the column subproblems this solver
exists for are frequently degenerate. A negative row with no negative
entry proves the problem infeasible. Each pivot keeps the basis dual
feasible in exact arithmetic, so once every basic value is nonnegative
the basis is optimal. The reduced costs are then computed once more as
the certificate: a reduced cost below -_TOL (or not a number) means the
start was not dual feasible, or rounding moved a reduced cost, and the
solve fails rather than return a point it cannot certify. With c >= 0,
c @ x is bounded below by zero, so the problem is never unbounded.
Problem sizes here are tiny (a few hundred variables at most), so the
dense tableau is the simplest thing that works.

Programs that differ only in b_ub (CLIME's columns) are solved as a stack,
in groups: each step pivots every unfinished program at once, and each
ends on the pivots and bits of a solve of its own.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, LPNumericalFailure

_TOL = 1e-9
# bytes of tableaux in a group, which bounds what a stack of many large
# programs holds (p = 200 CLIME columns would need 0.5 GB in one stack)
_GROUP_BYTES = 1 << 19


@dataclass(frozen=True)
class LPResult:
    """``basis`` holds the m basic columns of the optimal tableau, indices
    into the n structural columns followed by the m slacks; pass it back
    to ``solve_lp`` to warm-start a problem that differs only in b_ub.
    ``iterations`` counts the pivots of every problem of a stack."""

    x: np.ndarray
    iterations: int
    basis: np.ndarray


def _pivot(tableau, basis, rows, cols):
    """Pivot tableau i of the stack on (rows[i], cols[i]), in place."""
    at = np.arange(len(rows))
    tableau[at, rows] /= tableau[at, rows, cols][:, None]
    factor = tableau[at, :, cols]
    factor[at, rows] = 0.0
    tableau -= factor[:, :, None] * tableau[at, rows][:, None, :]
    basis[at, rows] = cols


def _dual_phase(tableau, basis, cost, max_iter):
    """Dual simplex under the dual Bland rule on a stack of (k, m, n + m + 1)
    tableaux with dual-feasible (k, m) bases. Each step pivots the first
    ``live`` problems, the unfinished ones; one that finishes or fails swaps
    places with the last of them. Returns ``order``, the problem at each
    position, the total pivot count and each failed problem's exception."""
    order = np.arange(len(tableau))
    failures = {}
    cost_ext = np.append(cost, 0.0)
    live, step, pivots = len(tableau), 0, 0

    def drop(positions):
        nonlocal live, pivots
        for i in positions[::-1]:
            live, pivots = live - 1, pivots + step
            if i < live:
                for stack in (tableau, basis, order):
                    stack[i], stack[live] = stack[live], stack[i].copy()

    while live:
        negative = tableau[:live, :, -1] < -_TOL
        pending = negative.any(axis=1)
        if not pending.all():
            drop(np.flatnonzero(~pending))
            continue
        tab, bas = tableau[:live], basis[:live]
        leaving = np.where(negative, bas, cost.size).argmin(axis=1)
        rows = tab[np.arange(live), leaving, :-1]
        eligible = rows < -_TOL
        can_rise = eligible.any(axis=1)
        if not can_rise.all():
            stuck = np.flatnonzero(~can_rise)
            for i in stuck:
                failures[order[i]] = Infeasible(
                    f"basic column {bas[i, leaving[i]]} is negative and cannot rise")
            drop(stuck)
            continue
        if step == max_iter:
            failures.update((i, LPNumericalFailure(f"simplex exceeded {max_iter} pivots"))
                            for i in order[:live])
            break
        reduced = cost_ext - (cost[bas][:, None, :] @ tab)[:, 0]
        ratios = np.divide(reduced[:, :-1], -rows, out=np.full(rows.shape, np.inf),
                           where=eligible)
        best = ratios.min(axis=1, keepdims=True)
        band = _TOL * (1.0 + np.abs(best))
        # columns are ascending, so the first minimum-ratio column is the smallest
        entering = (eligible & (ratios <= best + band)).argmax(axis=1)
        _pivot(tab, bas, leaving, entering)
        step += 1
    return order, pivots, failures


def _solve_group(cost, a, b, basis, warm, max_iter):
    """Solve the right-hand sides ``b`` (k, m) from ``basis`` (k, m), which
    ends optimal; returns (x, pivots) or raises the lowest-index failure."""
    (k, m), n = b.shape, a.shape[1]
    tableau = np.empty((k, m, n + m + 1))
    tableau[:, :, :n] = a
    tableau[:, :, n:-1] = np.eye(m)
    tableau[:, :, -1] = b
    if warm:
        try:
            tableau[...] = np.linalg.solve(
                np.take_along_axis(tableau, basis[:, None, :], axis=2), tableau)
        except np.linalg.LinAlgError:
            raise ValueError(f"a basis among {basis.tolist()} is singular") from None
    order, pivots, failures = _dual_phase(tableau, basis, cost, max_iter)
    reduced = cost - (cost[basis][:, None, :] @ tableau[:, :, :-1])[:, 0]
    for i in np.flatnonzero(~(reduced >= -_TOL).all(axis=1)):
        worst = int(np.argmin(reduced[i]))
        failures.setdefault(order[i], LPNumericalFailure(
            f"no optimality certificate: column {worst} has reduced cost {reduced[i, worst]:.3e}"))
    if failures:
        raise failures[min(failures)]
    x = np.zeros((k, n + m))
    np.put_along_axis(x, basis, tableau[:, :, -1], axis=1)
    by_problem = np.argsort(order)
    basis[:] = basis[by_problem]
    return x[by_problem, :n], pivots


def solve_lp(c, a_ub, b_ub, basis=None) -> LPResult:
    """Minimise c @ x subject to a_ub @ x <= b_ub, x >= 0, for c >= 0.

    A ``b_ub`` of shape (k, m) stacks k problems, with ``basis`` (k, m) or
    None; a 1-D ``b_ub`` is k = 1, with 1-D x and basis. The dual simplex
    starts from ``basis`` when it is given and from the all-slack basis
    otherwise (see the module docstring). Raises ValueError when the shapes
    disagree, when c, a_ub or b_ub has an entry that is nan or infinite,
    when c has a negative entry, or when a basis is not m distinct integer
    indices in [0, n + m) whose columns are nonsingular. A problem fails
    with Infeasible when the dual phase meets a row that cannot be made
    nonnegative, and with LPNumericalFailure when its budget of
    200 * (m + n + 1) pivots runs out or its final reduced costs fail the
    optimality certificate, which is what a basis that is not dual
    feasible leads to. The lowest-index failure is raised.
    """
    c = np.asarray(c, dtype=float).ravel()
    a = np.asarray(a_ub, dtype=float)
    b_in = np.asarray(b_ub, dtype=float)
    b = np.atleast_2d(b_in)
    if a.ndim != 2 or b.ndim != 2 or a.shape != (b.shape[1], c.size):
        raise ValueError(f"inconsistent LP shapes: A {a.shape}, b {b_in.shape}, c {c.shape}")
    if not (np.isfinite(c).all() and np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("c, a_ub and b_ub must be finite")
    if (c < 0).any():
        raise ValueError("costs must be nonnegative, so that the slack basis is dual feasible")
    (k, m), n = b.shape, c.size
    single, warm = b_in.ndim < 2, basis is not None
    if warm:
        basis = np.array(basis)
        if (basis.shape != ((m,) if single else (k, m)) or basis.dtype.kind not in "iu"
                or (np.diff(np.sort(basis), axis=-1) == 0).any()
                or basis.min() < 0 or basis.max() >= n + m):
            raise ValueError(f"basis must be {m} distinct integers in [0, {n + m}), "
                             f"got {basis.tolist()}")
        basis = basis.reshape(k, m)
    else:
        basis = np.tile(n + np.arange(m), (k, 1))
    cost = np.concatenate([c, np.zeros(m)])
    x, pivots = np.empty((k, n)), 0
    step = max(1, _GROUP_BYTES // max(1, 8 * m * (n + m + 1)))
    for lo in range(0, k, step):
        part = slice(lo, lo + step)
        x[part], group_pivots = _solve_group(cost, a, b[part], basis[part], warm,
                                             200 * (m + n + 1))
        pivots += group_pivots
    return LPResult(x=x[0] if single else x, iterations=pivots,
                    basis=basis[0] if single else basis)
