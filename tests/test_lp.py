import numpy as np
import pytest

from reachctl import lp


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


def test_infeasible_detected():
    G = np.array([[1.0], [-1.0]])
    h = np.array([-1.0, 0.0])  # x <= -1 and x >= 0
    out = lp.solve([1.0], G, h)
    assert out.status == lp.INFEASIBLE


def test_unbounded_detected():
    out = lp.solve([1.0, 0.0], np.array([[0.0, 1.0]]), np.array([1.0]))
    assert out.status == lp.UNBOUNDED


def test_equality_constraints():
    # min x1 + x2 s.t. x1 + x2 = 1, x >= 0  -> value 1
    G = -np.eye(2)
    h = np.zeros(2)
    out = lp.solve([1.0, 1.0], G, h, np.array([[1.0, 1.0]]), np.array([1.0]))
    assert out.status == lp.OPTIMAL
    assert out.value == pytest.approx(1.0, abs=1e-9)


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
