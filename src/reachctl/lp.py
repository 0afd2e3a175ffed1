"""Dense linear-program solver for small problems.

Everything solved here is tiny (tens of variables, tens of constraints),
dense, and must behave deterministically, so a self-contained one-phase
tableau simplex with Bland's anti-cycling rule is used instead of an
external solver.  Variables are free (unrestricted in sign): internally
each is split into a difference of two nonnegative variables.  Every LP
is stated so that the origin is feasible (h >= 0), so the slack basis
starts the simplex and no phase 1 is needed.

Two functions solve LPs here, both in ``geometry``, and each states its
LP so: ``point_in_hull``, for the points its closed-form certificates
leave open, measures its weights and its distance from the first
vertex's, and ``hrep_to_vrep`` checks caller input by one feasibility
LP, whose violation bound starts at the largest violation of the origin,
and by coordinate LPs over the recession cone, whose right-hand sides
are 0.  No other code calls ``solve``: the vertex controls of synthesis
(``synth.vertex_controls_lp``) enumerate their LPs' bases instead and
keep only ``TOL_LP`` from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericalFailure

TOL_LP = 1e-8

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"

_PIVOT_TOL = 1e-10
_RATIO_TIE = 1e-12      # ratio-test values closer than this tie (Bland's rule breaks it)
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


def _run_simplex(T: np.ndarray, basis: list[int]) -> str:
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
    NumericalFailure is raised.  The pivot row's right-hand side, which
    rounding can leave a few ulps below 0, is set to 0 before the pivot
    divides it: divided by a pivot near the floor, -1e-15 became -4e-8.
    A column with a negative reduced cost but no pivot proves the LP
    unbounded."""
    for _ in range(_MAX_ITERS):
        costs, rhs = T[-1, :-1].tolist(), T[:-1, -1].tolist()
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
                return UNBOUNDED
            if any(0.0 < a <= least and b - a * best < -TOL_LP for a, b in zip(column, rhs)):
                blocked = True
                continue
            break
        else:
            if blocked:
                raise NumericalFailure("simplex blocked by pivots below the floor")
            return OPTIMAL
        T[leave, -1] = max(T[leave, -1], 0.0)
        _pivot(T, leave, enter)
        basis[leave] = enter
    raise NumericalFailure("simplex iteration limit exceeded")


def solve(c, G, h) -> LPOutcome:
    """Solve the small dense LP  min c.x  s.t.  G x <= h  over free x,
    from the origin, which ``h >= 0`` makes feasible (ValueError
    otherwise); statuses are exact (optimal / unbounded) up to TOL_LP.
    An optimal x is checked against every constraint, within TOL_LP
    times the largest h or 1; raises NumericalFailure where it breaks
    one."""
    c = np.asarray(c, dtype=float)
    n = len(c)
    G = np.asarray(G, dtype=float).reshape(-1, n)
    h = np.asarray(h, dtype=float).ravel()
    if np.any(h < 0.0):
        raise ValueError("the origin must be feasible: h >= 0")
    m = len(h)

    # columns: x+ (n), x- (n), slacks (m); the objective row last
    ncols = 2 * n + m
    T = np.zeros((m + 1, ncols + 1))
    T[:m, :n] = G
    T[:m, n:2 * n] = -G
    T[:m, 2 * n:ncols] = np.eye(m)
    T[:m, -1] = h
    T[-1, :n] = c
    T[-1, n:2 * n] = -c
    basis = list(range(2 * n, ncols))
    if _run_simplex(T, basis) == UNBOUNDED:
        return LPOutcome(UNBOUNDED, None, None)

    xfull = np.zeros(ncols)
    xfull[basis] = T[:m, -1]
    x = xfull[:n] - xfull[n:2 * n]
    if np.any(G @ x - h > TOL_LP * max(1.0, h.max(initial=0.0))):
        raise NumericalFailure("simplex optimum breaks its constraints")
    return LPOutcome(OPTIMAL, x, float(c @ x))
