import numpy as np
import pytest
from scipy.optimize import linprog

from reachctl import geometry as geo
from reachctl import lp
from reachctl.errors import NumericalFailure

from helpers import TIGHT_HIGHS, vertex_cloud


def brute_force_2d_lp(c, G, h):
    """Independent oracle: evaluate the objective at every feasible
    intersection of a constraint pair."""
    best = None
    m = len(h)
    for i in range(m):
        for j in range(i + 1, m):
            M = np.array([G[i], G[j]])
            if abs(np.linalg.det(M)) < 1e-12:
                continue
            x = np.linalg.solve(M, np.array([h[i], h[j]]))
            if np.all(G @ x - h <= 1e-9):
                val = float(c @ x)
                if best is None or val < best:
                    best = val
    return best


def square_constraints():
    G = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    h = np.array([1.0, 0.0, 1.0, 0.0])
    return G, h


def test_min_x1_over_unit_square():
    G, h = square_constraints()
    out = lp.solve([1.0, 0.0], G, h)
    assert out.status == lp.OPTIMAL
    assert out.value == pytest.approx(0.0, abs=1e-9)
    assert out.x[0] == pytest.approx(0.0, abs=1e-9)


def test_triangle_hypotenuse_optimum():
    # triangle (0,0),(2,0),(0,2): min -x1-x2 attained on the hypotenuse
    G = np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
    h = np.array([0.0, 0.0, 2.0])
    out = lp.solve([-1.0, -1.0], G, h)
    assert out.status == lp.OPTIMAL
    assert out.value == pytest.approx(-2.0, abs=1e-9)


def test_an_infeasible_origin_raises():
    """``solve`` starts at the origin, so it needs h >= 0: a negative
    right-hand side is a caller's error, whether or not the LP is
    feasible elsewhere."""
    G = np.array([[1.0], [-1.0]])
    for h in ([-1.0, 0.0], [0.0, -1.0]):  # x <= -1 and x >= 0; x <= 0 and x >= 1
        with pytest.raises(ValueError, match="origin"):
            lp.solve([1.0], G, h)
    with pytest.raises(ValueError, match="origin"):
        lp.solve([1.0], G, [2.0, -1.0])  # 1 <= x <= 2


def test_unbounded_detected():
    out = lp.solve([1.0, 0.0], np.array([[0.0, 1.0]]), np.array([1.0]))
    assert out.status == lp.UNBOUNDED


def test_random_lps_match_vertex_enumeration():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(200):
        G = rng.normal(size=(5, 2))
        # push constraints outward from the origin so feasibility is common
        h = rng.uniform(0.2, 1.5, size=5)
        c = rng.normal(size=2)
        oracle = brute_force_2d_lp(c, G, h)
        out = lp.solve(c, G, h)
        if oracle is None:
            continue
        # the oracle only sees bounded directions; skip unbounded cases
        if out.status != lp.OPTIMAL:
            continue
        assert out.value <= oracle + 1e-8
        # solver optimum must be attained at a feasible point
        assert np.all(G @ out.x - h <= 1e-8)
        # and cannot beat the best vertex when the optimum is a vertex
        assert out.value == pytest.approx(oracle, abs=1e-8)
        checked += 1
    assert checked >= 100


def highs(c, G, h):
    """scipy's HiGHS on the same LP over free x, at tight tolerances and
    without presolve, which calls some unbounded LPs with repeated rows
    infeasible."""
    return linprog(c, A_ub=G, b_ub=h, bounds=[(None, None)] * len(c), method="highs",
                   options={**TIGHT_HIGHS, "presolve": False})


def origin_feasible_lp(rng, n):
    """A random LP in n variables whose origin is feasible, with ties:
    about a third of the rows pass through the origin (h = 0), some rows
    repeat an earlier one scaled by a power of two, and the entries are
    small integers half of the time, so zero ratios and equal ratios
    meet in the ratio test."""
    m = int(rng.integers(n + 1, 3 * n + 3))
    G = rng.integers(-3, 4, size=(m, n)).astype(float) if rng.random() < 0.5 else \
        rng.normal(size=(m, n))
    h = np.where(rng.random(m) < 1 / 3, 0.0, rng.integers(1, 4, size=m).astype(float))
    copies = rng.integers(0, m, size=int(rng.integers(0, 3)))
    scale = 2.0 ** rng.integers(-2, 3, size=(len(copies), 1))
    G, h = np.vstack([G, scale * G[copies]]), np.concatenate([h, scale[:, 0] * h[copies]])
    c = rng.integers(-3, 4, size=n).astype(float) if rng.random() < 0.5 else rng.normal(size=n)
    return c, G, h


@pytest.mark.parametrize("n", [2, 3, 4])
def test_origin_feasible_lps_match_highs(n):
    """Random origin-feasible LPs with degenerate ties end as HiGHS ends
    them: unbounded where it finds them unbounded, else optimal at its
    value within 1e-7 and at a point that holds every constraint within
    TOL_LP."""
    rng = np.random.default_rng(40 + n)
    statuses = []
    for _ in range(150):
        c, G, h = origin_feasible_lp(rng, n)
        out, ref = lp.solve(c, G, h), highs(c, G, h)
        assert ref.status in (0, 3)
        statuses.append(out.status)
        assert out.status == (lp.OPTIMAL if ref.status == 0 else lp.UNBOUNDED)
        if ref.status == 0:
            assert out.value == pytest.approx(ref.fun, abs=1e-7)
            assert np.all(G @ out.x - h <= lp.TOL_LP)
    assert 20 <= statuses.count(lp.OPTIMAL) <= 130


def test_weak_duality_spot_check():
    rng = np.random.default_rng(11)
    for _ in range(50):
        G = rng.normal(size=(6, 3))
        h = rng.uniform(0.5, 2.0, size=6)
        c = rng.normal(size=3)
        out = lp.solve(c, G, h)
        if out.status != lp.OPTIMAL:
            continue
        for _ in range(20):
            x = rng.normal(size=3) * 0.2
            if np.all(G @ x - h <= 0.0):
                assert out.value <= c @ x + 1e-8


def test_determinism_bit_for_bit():
    rng = np.random.default_rng(3)
    G = rng.normal(size=(8, 3))
    h = rng.uniform(0.5, 2.0, size=8)
    c = rng.normal(size=3)
    a = lp.solve(c, G, h)
    b = lp.solve(c, G, h)
    assert a.status == b.status
    assert a.value == b.value
    assert np.array_equal(a.x, b.x)


@pytest.mark.parametrize("seed", [6, 7, 10, 20])
def test_degenerate_cloud_lps_match_highs(seed, monkeypatch):
    """The LPs ``point_in_hull`` solves on the degenerate 4-D clouds of
    ``TestPointInHull.test_clouds_match_distance_oracle`` (points 3
    TOL_GEOM off the facets of a simplex): no pivot takes a right-hand
    side below -TOL_LP, and each LP ends as scipy's HiGHS ends it, at its
    optimal value within 1e-7 and at a point that holds every constraint
    within TOL_LP.  The ratio test once passed over rows whose entries lay
    below the pivot floor, and such rows' right-hand sides fell to -8e-8;
    at seed 20 an optimum of 0 had a weight of -1.  At seeds 7 and 10 a
    pivot row's right-hand side, -1.6e-15 and -6.0e-16 by rounding,
    divided by a pivot of 3.9e-8 and 3.8e-8, fell to -4.0e-8 and -1.6e-8
    until the pivot set it to 0 first."""
    solved, lows = [], []
    solve, pivot = lp.solve, lp._pivot

    def recording(c, G, h):
        out = solve(c, G, h)
        solved.append((c, G, h, out))
        return out

    def watched(T, row, col):
        pivot(T, row, col)
        lows.append(T[:-1, -1].min())

    monkeypatch.setattr(lp, "solve", recording)
    monkeypatch.setattr(lp, "_pivot", watched)
    pts = geo.dedupe_points(vertex_cloud(np.random.default_rng(seed), 4, 4, 3 * geo.TOL_GEOM))
    for i, x in enumerate(pts):
        geo.point_in_hull(x, np.delete(pts, i, axis=0))
    assert solved and min(lows) >= -lp.TOL_LP
    for c, G, h, out in solved:
        ref = highs(c, G, h)
        assert ref.status == 0 and out.status == lp.OPTIMAL
        assert out.value == pytest.approx(ref.fun, abs=1e-7)
        assert np.all(G @ out.x - h <= lp.TOL_LP)


def test_an_optimum_that_breaks_a_constraint_raises(monkeypatch):
    """``solve`` checks its optimum against the constraints: a tableau
    whose right-hand sides drift after a pivot ends in NumericalFailure,
    not in an OPTIMAL that breaks one."""
    G = np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
    h = np.array([0.0, 0.0, 2.0])
    pivot = lp._pivot

    def drifting(T, row, col):
        pivot(T, row, col)
        T[:-1, -1] += 1.0

    monkeypatch.setattr(lp, "_pivot", drifting)
    with pytest.raises(NumericalFailure, match="breaks its constraints"):
        lp.solve([-1.0, -1.0], G, h)
