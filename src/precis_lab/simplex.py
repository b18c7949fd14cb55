"""Self-contained dense simplex for small linear programs with nonnegative costs.

Solves min c @ x subject to a_ub @ x <= b_ub and x >= 0, with c >= 0, on
a full dense tableau [a_ub | I | b_ub]. There is one algorithm: a dual
simplex from a dual-feasible tableau, followed by two checks. The start
is the all-slack tableau, whose reduced costs are c itself and so are
never negative, or the optimal tableau of an earlier solve of the same c
and a_ub. Its reduced costs do not depend on b_ub, so it stays dual
feasible, and only its right-hand side is rebuilt: its slack block is
inv(B), the inverse of its basis columns, so the new column is inv(B) @
b_ub (the right-hand-side parametric step of Pang, Liu & Vanderbei,
JMLR 2014). The dual simplex usually needs a few pivots from it.

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
solve fails rather than return a point it cannot certify. A carried
tableau never reads a_ub again, so the point is last checked against
the caller's a_ub and b_ub (``_FEASIBILITY_TOL``). With c >= 0, c @ x
is bounded below by zero, so the problem is never unbounded. Problem
sizes here are tiny (a few hundred variables at most), so the dense
tableau is the simplest thing that works.

Programs that differ only in b_ub (CLIME's columns) are solved as one
stack: each step pivots every unfinished program at once, in place, and
each ends on the pivots and bits of a solve of its own.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, LPNumericalFailure

_TOL = 1e-9
# relative slack of the final check a_ub @ x <= b_ub, against the scale
# |a_ub| @ |x| + |b_ub| of each row; CLIME's warm solves in latent
# calibrations break a row by at most 3.5e-14 of it
_FEASIBILITY_TOL = 1e-9


@dataclass(frozen=True)
class LPResult:
    """``basis`` holds the m basic columns of each optimal tableau, indices
    into the n structural columns followed by the m slacks, and
    ``tableau`` the tableaux themselves, (k, m, n + m + 1) for a stack and
    (m, n + m + 1) for one problem: 16p^2(4p + 1) bytes for CLIME's p
    column programs (2.1 MB at p = 32). Pass the result back to
    ``solve_lp`` as ``start`` to warm-start problems that differ only in
    b_ub. ``iterations`` counts the pivots of every problem of a stack."""

    x: np.ndarray
    iterations: int
    basis: np.ndarray
    tableau: np.ndarray


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


def solve_lp(c, a_ub, b_ub, start=None) -> LPResult:
    """Minimise c @ x subject to a_ub @ x <= b_ub, x >= 0, for c >= 0.

    A ``b_ub`` of shape (k, m) stacks k problems; a 1-D ``b_ub`` is k = 1,
    with 1-D x and basis and a 2-D tableau. The dual simplex starts from
    the tableaux of ``start``, an earlier result for the same c and a_ub
    and as many right-hand sides, when it is given, and from the
    all-slack tableau otherwise (see the module docstring). It pivots a
    copy of them as one stack, whose pivot steps take temporaries as large
    as the stack; ``start`` itself is left as it was. Raises
    ValueError when the shapes disagree, the start's included, when c,
    a_ub or b_ub has an entry that is nan or infinite, or when c has a
    negative entry. A problem fails with Infeasible when the dual phase
    meets a row that cannot be made nonnegative, and with
    LPNumericalFailure when its budget of 200 * (m + n + 1) pivots runs
    out, when its final reduced costs fail the optimality certificate,
    which is what a start that is not dual feasible leads to, or when its
    point breaks a_ub @ x <= b_ub, which is what a start from another
    a_ub leads to. The lowest-index failure is raised.
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
    single = b_in.ndim < 2
    if start is None:
        tableau = np.empty((k, m, n + m + 1))
        tableau[:, :, :n] = a
        tableau[:, :, n:-1] = np.eye(m)
        tableau[:, :, -1] = b
        basis = np.tile(n + np.arange(m), (k, 1))
    else:
        shape = (m, n + m + 1) if single else (k, m, n + m + 1)
        if np.shape(start.tableau) != shape or np.shape(start.basis) != shape[:-1]:
            raise ValueError(f"start must hold tableaux of shape {shape} and bases of shape "
                             f"{shape[:-1]}, got {np.shape(start.tableau)} and "
                             f"{np.shape(start.basis)}")
        tableau = start.tableau.reshape(k, m, n + m + 1).copy()
        basis = start.basis.reshape(k, m).copy()
        # the slack block is inv(B), so only the right-hand side moves
        tableau[:, :, -1] = (tableau[:, :, n:-1] @ b[:, :, None])[:, :, 0]
    cost = np.concatenate([c, np.zeros(m)])
    order, pivots, failures = _dual_phase(tableau, basis, cost, 200 * (m + n + 1))
    by_problem = np.argsort(order)
    tableau, basis = tableau[by_problem], basis[by_problem]
    reduced = cost - (cost[basis][:, None, :] @ tableau[:, :, :-1])[:, 0]
    for i in np.flatnonzero(~(reduced >= -_TOL).all(axis=1)):
        worst = int(np.argmin(reduced[i]))
        failures.setdefault(i, LPNumericalFailure(
            f"no optimality certificate: column {worst} has reduced cost {reduced[i, worst]:.3e}"))
    x = np.zeros((k, n + m))
    np.put_along_axis(x, basis, tableau[:, :, -1], axis=1)
    x = x[:, :n]
    excess = x @ a.T - b
    # written so that a nan fails too
    broken = ~(excess <= _FEASIBILITY_TOL * (np.abs(x) @ np.abs(a).T + np.abs(b)))
    for i in np.flatnonzero(broken.any(axis=1)):
        row = int(np.argmax(broken[i]))
        failures.setdefault(i, LPNumericalFailure(
            f"not feasible: row {row} of a_ub @ x exceeds b_ub by {excess[i, row]:.3e}"))
    if failures:
        raise failures[min(failures)]
    if single:
        return LPResult(x=x[0], iterations=pivots, basis=basis[0], tableau=tableau[0])
    return LPResult(x=x, iterations=pivots, basis=basis, tableau=tableau)
