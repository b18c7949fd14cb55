"""Self-contained dense two-phase simplex for small linear programs.

Solves min c @ x subject to a_ub @ x <= b_ub and x >= 0 on a full dense
tableau. Rows with a negative right-hand side are flipped and given an
artificial variable, so arbitrary signs in b_ub are fine. Bland's
smallest-index pivoting rule is used throughout; it makes cycling
impossible, which matters because the column subproblems this solver
exists for are frequently degenerate. Problem sizes here are tiny
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
    x: np.ndarray
    objective: float
    iterations: int


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factor = tableau[:, col].copy()
    factor[row] = 0.0
    tableau -= np.outer(factor, tableau[row])
    basis[row] = col


def _run_phase(tableau, basis, cost, max_iter, iters_used):
    """Bland-rule pivoting until optimal; returns (iterations, 'optimal'|'unbounded')."""
    m = tableau.shape[0]
    iters = iters_used
    cost_ext = np.append(cost, 0.0)
    while True:
        reduced = cost_ext - cost[basis] @ tableau
        entering = -1
        for j in range(tableau.shape[1] - 1):
            if reduced[j] < -_TOL:
                entering = j
                break
        if entering < 0:
            return iters, "optimal"
        col = tableau[:, entering]
        rhs = tableau[:, -1]
        eligible = [i for i in range(m) if col[i] > _TOL]
        if not eligible:
            return iters, "unbounded"
        ratios = {i: rhs[i] / col[i] for i in eligible}
        best_ratio = min(ratios.values())
        band = _TOL * (1.0 + abs(best_ratio))
        # Bland tie-break: among minimum-ratio rows the smallest basic index leaves
        leaving = min(
            (i for i in eligible if ratios[i] <= best_ratio + band),
            key=lambda i: basis[i],
        )
        _pivot(tableau, basis, leaving, entering)
        iters += 1
        if iters > max_iter:
            raise LPNumericalFailure(f"simplex exceeded {max_iter} pivots")


def solve_lp(c, a_ub, b_ub) -> LPResult:
    """Minimise c @ x subject to a_ub @ x <= b_ub, x >= 0.

    Raises Infeasible when phase one cannot zero the artificials, Unbounded
    when the objective has no finite minimum, and LPNumericalFailure when
    the budget of 200 * (m + n + 1) pivots runs out.
    """
    c = np.asarray(c, dtype=float).ravel()
    a = np.asarray(a_ub, dtype=float)
    b = np.asarray(b_ub, dtype=float).ravel()
    if a.ndim != 2 or a.shape != (b.size, c.size):
        raise ValueError(f"inconsistent LP shapes: A {a.shape}, b {b.shape}, c {c.shape}")
    m, n = a.shape
    max_iter = 200 * (m + n + 1)

    flip = b < 0
    a_eq = np.where(flip[:, None], -a, a)
    b_eq = np.where(flip, -b, b)
    slack = np.diag(np.where(flip, -1.0, 1.0))
    art_rows = np.flatnonzero(flip)
    n_art = art_rows.size
    art = np.zeros((m, n_art))
    art[art_rows, np.arange(n_art)] = 1.0
    tableau = np.hstack([a_eq, slack, art, b_eq[:, None]])

    basis = np.empty(m, dtype=int)
    k = 0
    for r in range(m):
        if flip[r]:
            basis[r] = n + m + k
            k += 1
        else:
            basis[r] = n + r

    iters = 0
    if n_art:
        cost1 = np.zeros(n + m + n_art)
        cost1[n + m :] = 1.0
        iters, state = _run_phase(tableau, basis, cost1, max_iter, iters)
        if state == "unbounded":  # cannot happen for a sum of nonnegatives
            raise LPNumericalFailure("phase one reported unbounded")
        residual = float(cost1[basis] @ tableau[:, -1])
        if residual > 1e-7 * max(1.0, float(np.abs(b).max())):
            raise Infeasible(f"phase one residual {residual:.3e}")
        # drive remaining artificials out of the basis; drop redundant rows
        drop = []
        for r in range(tableau.shape[0]):
            if basis[r] >= n + m:
                pivot_col = -1
                for j in range(n + m):
                    if abs(tableau[r, j]) > _TOL:
                        pivot_col = j
                        break
                if pivot_col < 0:
                    drop.append(r)
                else:
                    _pivot(tableau, basis, r, pivot_col)
                    iters += 1
        if drop:
            keep = [r for r in range(tableau.shape[0]) if r not in set(drop)]
            tableau = tableau[keep]
            basis = basis[keep]
        tableau = np.hstack([tableau[:, : n + m], tableau[:, -1:]])

    cost2 = np.concatenate([c, np.zeros(m)])
    iters, state = _run_phase(tableau, basis, cost2, max_iter, iters)
    if state == "unbounded":
        raise Unbounded("objective decreases without bound")

    x_full = np.zeros(n + m)
    x_full[basis] = tableau[:, -1]
    x = x_full[:n]
    return LPResult(x=x, objective=float(c @ x), iterations=iters)
