"""Dense linear-program solver for small problems.

Everything solved here is tiny (tens of variables, tens of constraints),
dense, and must behave deterministically, so a self-contained two-phase
tableau simplex with Bland's anti-cycling rule is used instead of an
external solver.  Variables are free (unrestricted in sign): internally
each is split into a difference of two nonnegative variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericalFailure

TOL_LP = 1e-8

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_PIVOT_TOL = 1e-10
_RATIO_TIE = 1e-12      # ratio-test values closer than this tie (Bland's rule breaks it)
_MAX_ITERS = 50_000
_SLACK_CAP = 1.0        # upper bound of the slack variable in max_slack_feasibility


@dataclass(frozen=True)
class LinearProgram:
    """min objective.x  s.t.  ineq_lhs x <= ineq_rhs,  eq_lhs x == eq_rhs."""

    objective: np.ndarray
    ineq_lhs: np.ndarray
    ineq_rhs: np.ndarray
    eq_lhs: Optional[np.ndarray] = None
    eq_rhs: Optional[np.ndarray] = None


@dataclass(frozen=True)
class LPOutcome:
    status: str
    x: Optional[np.ndarray]
    value: Optional[float]


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    for r in range(T.shape[0]):
        if r != row and abs(T[r, col]) > 0.0:
            T[r] -= T[r, col] * T[row]


def _run_simplex(T: np.ndarray, basis: list[int], ncols: int) -> str:
    """Iterate to optimality with Bland's rule.  Objective row is last,
    written as z-row with reduced costs; we minimize, so we pivot while a
    reduced cost is negative."""
    for _ in range(_MAX_ITERS):
        enter = -1
        for j in range(ncols):
            if T[-1, j] < -TOL_LP:
                enter = j
                break
        if enter < 0:
            return OPTIMAL
        leave, best = -1, np.inf
        for i in range(T.shape[0] - 1):
            a = T[i, enter]
            if a > _PIVOT_TOL:
                ratio = T[i, -1] / a
                if ratio < best - _RATIO_TIE or (abs(ratio - best) <= _RATIO_TIE and (leave < 0 or basis[i] < basis[leave])):
                    best, leave = ratio, i
        if leave < 0:
            return UNBOUNDED
        _pivot(T, leave, enter)
        basis[leave] = enter
    raise NumericalFailure("simplex iteration limit exceeded")


def solve(lp: LinearProgram) -> LPOutcome:
    """Solve a small dense LP; statuses are exact (optimal / infeasible /
    unbounded) up to TOL_LP."""
    c = np.asarray(lp.objective, dtype=float)
    G = np.atleast_2d(np.asarray(lp.ineq_lhs, dtype=float)) if lp.ineq_lhs is not None else np.zeros((0, len(c)))
    h = np.asarray(lp.ineq_rhs, dtype=float).ravel() if lp.ineq_rhs is not None else np.zeros(0)
    if G.size == 0:
        G = G.reshape(0, len(c))
    E = np.atleast_2d(np.asarray(lp.eq_lhs, dtype=float)) if lp.eq_lhs is not None else np.zeros((0, len(c)))
    f = np.asarray(lp.eq_rhs, dtype=float).ravel() if lp.eq_rhs is not None else np.zeros(0)
    if E.size == 0:
        E = E.reshape(0, len(c))

    n = len(c)
    mi, me = G.shape[0], E.shape[0]
    m = mi + me

    # columns: x+ (n), x- (n), slacks (mi); rows: inequalities then equalities
    A = np.zeros((m, 2 * n + mi))
    b = np.concatenate([h, f])
    A[:mi, :n] = G
    A[:mi, n:2 * n] = -G
    A[:mi, 2 * n:] = np.eye(mi)
    A[mi:, :n] = E
    A[mi:, n:2 * n] = -E

    flip = b < 0
    A[flip] *= -1.0
    b = np.abs(b)

    # identity columns available from un-flipped slack rows
    basis: list[int] = [-1] * m
    for i in range(mi):
        if not flip[i]:
            basis[i] = 2 * n + i
    art_rows = [i for i in range(m) if basis[i] < 0]
    na = len(art_rows)
    ncols = 2 * n + mi + na
    T = np.zeros((m + 1, ncols + 1))
    T[:m, :2 * n + mi] = A
    T[:m, -1] = b
    for k, i in enumerate(art_rows):
        T[i, 2 * n + mi + k] = 1.0
        basis[i] = 2 * n + mi + k

    if na:
        # phase 1: minimize sum of artificials
        T[-1, 2 * n + mi:ncols] = 1.0
        for i in art_rows:
            T[-1] -= T[i]
        status = _run_simplex(T, basis, ncols)
        if status != OPTIMAL:
            raise NumericalFailure("phase-1 simplex did not reach optimality")
        if T[-1, -1] < -TOL_LP:
            return LPOutcome(INFEASIBLE, None, None)
        # drive remaining artificials out of the basis
        for i in range(m):
            if basis[i] >= 2 * n + mi:
                for j in range(2 * n + mi):
                    if abs(T[i, j]) > _PIVOT_TOL:
                        _pivot(T, i, j)
                        basis[i] = j
                        break
        keep = [i for i in range(m) if basis[i] < 2 * n + mi]
        rows = keep + [m]
        T = T[rows][:, list(range(2 * n + mi)) + [ncols]]
        basis = [basis[i] for i in keep]
        m = len(basis)
        ncols = 2 * n + mi

    # phase 2 objective
    T[-1, :] = 0.0
    T[-1, :n] = c
    T[-1, n:2 * n] = -c
    for i, bi in enumerate(basis):
        if abs(T[-1, bi]) > 0.0:
            T[-1] -= T[-1, bi] * T[i]
    status = _run_simplex(T, basis, ncols)
    if status == UNBOUNDED:
        return LPOutcome(UNBOUNDED, None, None)

    xfull = np.zeros(ncols)
    for i, bi in enumerate(basis):
        xfull[bi] = T[i, -1]
    x = xfull[:n] - xfull[n:2 * n]
    return LPOutcome(OPTIMAL, x, float(c @ x))


def solve_lp(c, G=None, h=None, E=None, f=None) -> LPOutcome:
    """Convenience wrapper around :func:`solve`."""
    return solve(LinearProgram(np.asarray(c, dtype=float), G, h, E, f))


def max_slack_feasibility(ineq_lhs, ineq_rhs) -> tuple[float, np.ndarray]:
    """Largest uniform slack of the system g.x <= h.

    Solves max t s.t. g.x <= h - t, with t capped at ``_SLACK_CAP`` to keep
    the LP finite.  Positive slack certifies strict feasibility, zero
    means the system is tight, negative means infeasible.
    """
    G = np.atleast_2d(np.asarray(ineq_lhs, dtype=float))
    h = np.asarray(ineq_rhs, dtype=float).ravel()
    if G.shape[0] == 0:
        raise ValueError("need at least one constraint")
    n = G.shape[1]
    # variables (x, t): minimize -t  s.t.  G x + t <= h,  t <= _SLACK_CAP
    c = np.zeros(n + 1)
    c[-1] = -1.0
    lhs = np.hstack([G, np.ones((G.shape[0], 1))])
    lhs = np.vstack([lhs, np.concatenate([np.zeros(n), [1.0]])])
    rhs = np.concatenate([h, [_SLACK_CAP]])
    out = solve_lp(c, lhs, rhs)
    if out.status != OPTIMAL:
        raise NumericalFailure(f"slack LP ended with status {out.status}")
    return float(out.x[-1]), out.x[:n].copy()
