"""Self-contained dense simplex for small linear programs.

Solves min c @ x subject to a_ub @ x <= b_ub and x >= 0 on a full dense
tableau. From cold it runs two phases: rows with a negative right-hand
side are flipped and given an artificial variable, so arbitrary signs in
b_ub are fine. Bland's smallest-index pivoting rule is used throughout;
it makes cycling impossible, which matters because the column
subproblems this solver exists for are frequently degenerate.

A caller that re-solves the same c and a_ub with a new b_ub can pass the
optimal basis of an earlier solve. Its reduced costs do not depend on
b_ub, so it stays dual feasible, and a dual simplex restores primal
feasibility from it, usually in a few pivots. The dual phase follows the
dual Bland rule: the basic variable with the smallest index among the
negative rows leaves, and among the columns of minimum dual ratio the
smallest index enters. The primal phase then runs once more as the
optimality certificate. A basis that cannot be used (wrong length,
repeated or out-of-range indices, singular, or not dual feasible) is
ignored and the problem is solved from cold. Problem sizes here are tiny
(a few hundred variables at most), so the dense tableau is the simplest
thing that works.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, LPNumericalFailure, Unbounded

_TOL = 1e-9


@dataclass(frozen=True)
class LPResult:
    """``basis`` holds the m basic columns of the optimal tableau, indices
    into the n structural columns followed by the m slacks; pass it back
    to ``solve_lp`` to warm-start a problem that differs only in b_ub."""

    x: np.ndarray
    objective: float
    iterations: int
    basis: np.ndarray


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factor = tableau[:, col].copy()
    factor[row] = 0.0
    tableau -= np.outer(factor, tableau[row])
    basis[row] = col


def _run_phase(tableau, basis, cost, max_iter, iters_used):
    """Bland-rule pivoting until optimal; returns (iterations, 'optimal'|'unbounded')."""
    iters = iters_used
    cost_ext = np.append(cost, 0.0)
    while True:
        reduced = cost_ext - cost[basis] @ tableau
        improving = np.flatnonzero(reduced[:-1] < -_TOL)
        if improving.size == 0:
            return iters, "optimal"
        entering = improving[0]
        col = tableau[:, entering]
        eligible = np.flatnonzero(col > _TOL)
        if eligible.size == 0:
            return iters, "unbounded"
        ratios = tableau[eligible, -1] / col[eligible]
        best_ratio = ratios.min()
        band = _TOL * (1.0 + abs(best_ratio))
        # Bland tie-break: among minimum-ratio rows the smallest basic index leaves
        ties = eligible[ratios <= best_ratio + band]
        leaving = ties[np.argmin(basis[ties])]
        _pivot(tableau, basis, leaving, entering)
        iters += 1
        if iters > max_iter:
            raise LPNumericalFailure(f"simplex exceeded {max_iter} pivots")


def _dual_phase(tableau, basis, cost, max_iter):
    """Dual simplex under the dual Bland rule until every basic value is
    nonnegative; the basis must be dual feasible. Returns the pivot count."""
    iters = 0
    cost_ext = np.append(cost, 0.0)
    while True:
        negative = np.flatnonzero(tableau[:, -1] < -_TOL)
        if negative.size == 0:
            return iters
        leaving = negative[np.argmin(basis[negative])]
        row = tableau[leaving, :-1]
        eligible = np.flatnonzero(row < -_TOL)
        if eligible.size == 0:
            raise Infeasible(f"basic column {basis[leaving]} is negative and cannot rise")
        reduced = cost_ext - cost[basis] @ tableau
        ratios = reduced[eligible] / -row[eligible]
        best_ratio = ratios.min()
        band = _TOL * (1.0 + abs(best_ratio))
        # eligible is ascending, so the first minimum-ratio column is the smallest
        entering = eligible[np.argmax(ratios <= best_ratio + band)]
        _pivot(tableau, basis, leaving, entering)
        iters += 1
        if iters > max_iter:
            raise LPNumericalFailure(f"simplex exceeded {max_iter} pivots")


def _phase_one(a, b, max_iter):
    """Cold start: a feasible tableau of [a | slacks | b] and its basis, and
    the pivots taken to reach it."""
    m, n = a.shape
    flip = b < 0
    a_eq = np.where(flip[:, None], -a, a)
    b_eq = np.where(flip, -b, b)
    slack = np.diag(np.where(flip, -1.0, 1.0))
    art_rows = np.flatnonzero(flip)
    n_art = art_rows.size
    art = np.zeros((m, n_art))
    art[art_rows, np.arange(n_art)] = 1.0
    tableau = np.hstack([a_eq, slack, art, b_eq[:, None]])
    basis = n + np.arange(m)
    basis[art_rows] = n + m + np.arange(n_art)
    if not n_art:
        return tableau, basis, 0

    cost1 = np.zeros(n + m + n_art)
    cost1[n + m :] = 1.0
    iters, state = _run_phase(tableau, basis, cost1, max_iter, 0)
    if state == "unbounded":  # cannot happen for a sum of nonnegatives
        raise LPNumericalFailure("phase one reported unbounded")
    residual = float(cost1[basis] @ tableau[:, -1])
    if residual > 1e-7 * max(1.0, float(np.abs(b).max())):
        raise Infeasible(f"phase one residual {residual:.3e}")
    # drive the artificials left at zero out of the basis; the slack of an
    # artificial's row is that artificial's column negated, so every such
    # row has a nonzero to pivot on and no row is ever redundant
    for r in np.flatnonzero(basis >= n + m):
        _pivot(tableau, basis, r, np.flatnonzero(np.abs(tableau[r, : n + m]) > _TOL)[0])
        iters += 1
    return np.hstack([tableau[:, : n + m], tableau[:, -1:]]), basis, iters


def _warm_tableau(a, b, cost, basis):
    """Tableau of [a | I | b] in ``basis``, or None when the basis is not a
    dual-feasible basis of this problem."""
    m, n = a.shape
    if (basis.shape != (m,) or basis.dtype.kind not in "iu"
            or np.unique(basis).size != m or basis.min() < 0 or basis.max() >= n + m):
        return None
    full = np.hstack([a, np.eye(m), b[:, None]])
    try:
        tableau = np.linalg.solve(full[:, basis], full)
    except np.linalg.LinAlgError:
        return None
    reduced = cost - cost[basis] @ tableau[:, :-1]
    if not np.isfinite(tableau).all() or (reduced < -_TOL).any():
        return None
    return tableau


def solve_lp(c, a_ub, b_ub, basis=None) -> LPResult:
    """Minimise c @ x subject to a_ub @ x <= b_ub, x >= 0.

    ``basis``, when given and usable, is the starting basis of a dual
    simplex (see the module docstring); otherwise the two-phase method
    runs from cold. Raises Infeasible when phase one cannot zero the
    artificials or the dual phase meets a row that cannot be made
    nonnegative, Unbounded when the objective has no finite minimum, and
    LPNumericalFailure when the budget of 200 * (m + n + 1) pivots runs
    out.
    """
    c = np.asarray(c, dtype=float).ravel()
    a = np.asarray(a_ub, dtype=float)
    b = np.asarray(b_ub, dtype=float).ravel()
    if a.ndim != 2 or a.shape != (b.size, c.size):
        raise ValueError(f"inconsistent LP shapes: A {a.shape}, b {b.shape}, c {c.shape}")
    m, n = a.shape
    max_iter = 200 * (m + n + 1)
    cost = np.concatenate([c, np.zeros(m)])

    tableau = None
    if basis is not None:
        basis = np.array(basis)
        tableau = _warm_tableau(a, b, cost, basis)
    if tableau is not None:
        iters = _dual_phase(tableau, basis, cost, max_iter)
    else:
        tableau, basis, iters = _phase_one(a, b, max_iter)

    iters, state = _run_phase(tableau, basis, cost, max_iter, iters)
    if state == "unbounded":
        raise Unbounded("objective decreases without bound")

    x_full = np.zeros(n + m)
    x_full[basis] = tableau[:, -1]
    x = x_full[:n]
    return LPResult(x=x, objective=float(c @ x), iterations=iters, basis=basis)
