"""Dense linear-program solver for small problems.

Everything solved here is tiny (tens of variables, tens of constraints),
dense, and must behave deterministically, so a self-contained two-phase
tableau simplex with Bland's anti-cycling rule is used instead of an
external solver.  Variables are free (unrestricted in sign): internally
each is split into a difference of two nonnegative variables.

Two callers remain, both in ``geometry``: ``point_in_hull``, for the
points its closed-form certificates leave open, and ``hrep_to_vrep``,
whose coordinate LPs certify that caller input is bounded.  The vertex
controls of synthesis (``synth.vertex_controls_lp``) enumerate their
LPs' bases instead and keep only ``TOL_LP`` from here.
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
_PHASE1_ZERO = 1e-12    # a phase-1 objective this close to 0 is feasible: phase 1 stops
_MAX_ITERS = 50_000


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


def _run_simplex(T: np.ndarray, basis: list[int], ncols: int, bounded: bool = False) -> str:
    """Iterate to optimality with Bland's rule.  Objective row is last,
    written as z-row with reduced costs; we minimize, so we pivot while a
    reduced cost is negative.

    A pivot must exceed ``_PIVOT_TOL`` times the largest entry of its
    column (or 1): on degenerate tableaus, a tie of zero ratios would
    otherwise pick entries of 1e-10 and blow the tableau up to 1e20.  A
    row whose entry is positive but below that floor still bounds the
    step: a column whose step would take such a row's right-hand side
    below -``TOL_LP`` is passed over, so the basis stays primal feasible
    within ``TOL_LP``; when every column with a negative reduced cost is
    passed over so, no pivot above the floor improves the tableau, and
    NumericalFailure is raised.  A column with a negative reduced cost
    but no pivot proves the LP unbounded, unless the caller knows it is
    ``bounded``: phase 1, whose objective is bounded below by 0, where
    such a reduced cost is roundoff and the column is passed over.
    Phase 1 stops once its objective is 0 within ``_PHASE1_ZERO``: any
    pivot after that is degenerate, and on degenerate clouds such pivots
    went on through ever smaller entries until the tableau lost the
    constraints.  (``TOL_LP`` is too coarse a zero there: the artificials
    it leaves, scaled by the vertices of a hull 1e3 wide, move the point
    by more than ``TOL_GEOM``.)"""
    for _ in range(_MAX_ITERS):
        if bounded and T[-1, -1] >= -_PHASE1_ZERO:
            return OPTIMAL
        costs, rhs = T[-1, :ncols].tolist(), T[:-1, -1].tolist()
        blocked = False
        for enter in (j for j, cost in enumerate(costs) if cost < -TOL_LP):
            column = T[:-1, enter].tolist()
            least = _PIVOT_TOL * max([1.0] + column)
            leave, best = -1, np.inf
            for i, (a, b) in enumerate(zip(column, rhs)):
                if a > least:
                    ratio = b / a
                    if ratio < best - _RATIO_TIE or (abs(ratio - best) <= _RATIO_TIE and (leave < 0 or basis[i] < basis[leave])):
                        best, leave = ratio, i
            if leave < 0:
                if not bounded:
                    return UNBOUNDED
                continue
            if any(0.0 < a <= least and b - a * best < -TOL_LP for a, b in zip(column, rhs)):
                blocked = True
                continue
            break
        else:
            if blocked:
                raise NumericalFailure("simplex blocked by pivots below the floor")
            return OPTIMAL
        _pivot(T, leave, enter)
        basis[leave] = enter
    raise NumericalFailure("simplex iteration limit exceeded")


def solve(c, G, h, E=None, f=None) -> LPOutcome:
    """Solve the small dense LP  min c.x  s.t.  G x <= h,  E x == f;
    statuses are exact (optimal / infeasible / unbounded) up to TOL_LP.
    An optimal x is checked against every constraint, within TOL_LP
    times the largest |h|, |f| or 1; raises NumericalFailure where it
    breaks one."""
    c = np.asarray(c, dtype=float)
    n = len(c)
    G = np.asarray(G, dtype=float).reshape(-1, n)
    h = np.asarray(h, dtype=float).ravel()
    E = np.zeros((0, n)) if E is None else np.asarray(E, dtype=float).reshape(-1, n)
    f = np.zeros(0) if f is None else np.asarray(f, dtype=float).ravel()

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
        _run_simplex(T, basis, ncols, bounded=True)
        if T[-1, -1] < -TOL_LP:
            return LPOutcome(INFEASIBLE, None, None)
        # drive remaining artificials out of the basis; each is 0 within
        # TOL_LP, and set to 0 first, so that no pivot moves a right-hand
        # side
        for i in range(m):
            if basis[i] >= 2 * n + mi:
                T[i, -1] = 0.0
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
    tol = TOL_LP * max(1.0, np.abs(b).max(initial=0.0))
    if np.any(G @ x - h > tol) or np.any(np.abs(E @ x - f) > tol):
        raise NumericalFailure("simplex optimum breaks its constraints")
    return LPOutcome(OPTIMAL, x, float(c @ x))
