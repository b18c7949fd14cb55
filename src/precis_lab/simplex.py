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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, LPNumericalFailure

_TOL = 1e-9


@dataclass(frozen=True)
class LPResult:
    """``basis`` holds the m basic columns of the optimal tableau, indices
    into the n structural columns followed by the m slacks; pass it back
    to ``solve_lp`` to warm-start a problem that differs only in b_ub."""

    x: np.ndarray
    iterations: int
    basis: np.ndarray


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factor = tableau[:, col].copy()
    factor[row] = 0.0
    tableau -= np.outer(factor, tableau[row])
    basis[row] = col


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


def solve_lp(c, a_ub, b_ub, basis=None) -> LPResult:
    """Minimise c @ x subject to a_ub @ x <= b_ub, x >= 0, for c >= 0.

    The dual simplex starts from ``basis`` when it is given and from the
    all-slack basis otherwise (see the module docstring). Raises
    ValueError when the shapes disagree, when c, a_ub or b_ub has an
    entry that is nan or infinite, when c has a negative entry, or
    when ``basis`` is not m distinct integer indices in [0, n + m) whose
    columns are nonsingular; Infeasible when the dual phase meets a row
    that cannot be made nonnegative; and LPNumericalFailure when the
    budget of 200 * (m + n + 1) pivots runs out or the final reduced
    costs fail the optimality certificate, which is what a basis that is
    not dual feasible leads to.
    """
    c = np.asarray(c, dtype=float).ravel()
    a = np.asarray(a_ub, dtype=float)
    b = np.asarray(b_ub, dtype=float).ravel()
    if a.ndim != 2 or a.shape != (b.size, c.size):
        raise ValueError(f"inconsistent LP shapes: A {a.shape}, b {b.shape}, c {c.shape}")
    if not (np.isfinite(c).all() and np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("c, a_ub and b_ub must be finite")
    if (c < 0).any():
        raise ValueError("costs must be nonnegative, so that the slack basis is dual feasible")
    m, n = a.shape
    max_iter = 200 * (m + n + 1)
    cost = np.concatenate([c, np.zeros(m)])
    full = np.hstack([a, np.eye(m), b[:, None]])

    if basis is None:
        tableau, basis = full, n + np.arange(m)
    else:
        basis = np.array(basis)
        if (basis.shape != (m,) or basis.dtype.kind not in "iu"
                or np.unique(basis).size != m or basis.min() < 0 or basis.max() >= n + m):
            raise ValueError(f"basis must be {m} distinct integers in [0, {n + m}), "
                             f"got {basis.tolist()}")
        try:
            tableau = np.linalg.solve(full[:, basis], full)
        except np.linalg.LinAlgError:
            raise ValueError(f"basis {basis.tolist()} has singular columns") from None
    iters = _dual_phase(tableau, basis, cost, max_iter)
    reduced = cost - cost[basis] @ tableau[:, :-1]
    if not (reduced >= -_TOL).all():
        worst = int(np.argmin(reduced))
        raise LPNumericalFailure(f"no optimality certificate: column {worst} "
                                 f"has reduced cost {reduced[worst]:.3e}")

    x_full = np.zeros(n + m)
    x_full[basis] = tableau[:, -1]
    return LPResult(x=x_full[:n], iterations=iters, basis=basis)
