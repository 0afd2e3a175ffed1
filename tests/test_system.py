import numpy as np
import pytest

from reachctl import geometry as geo
from reachctl.errors import DegenerateO, SignAmbiguous
from reachctl.system import (AffineSystem, check_assumptions, compute_geometry,
                             equilibrium_plane, interior_clear_of_equilibria)


def double_integrator():
    return AffineSystem(A=[[0.0, 1.0], [0.0, 0.0]], a=[0.0, 0.0], B=[[0.0], [1.0]])


def upper_box():
    return geo.convex_hull([(0, 0), (2, 0), (2, 1), (0, 1)])


def right_edge_face(p):
    for h in p.halfspaces:
        if np.allclose(h.normal, [1, 0]):
            tight = p.vertices[np.abs(p.vertices @ h.normal - h.offset) <= 1e-9]
            return geo.Face(geo.lex_sorted(tight), h, 1)
    raise AssertionError


class TestAssumptions:
    def test_double_integrator_ranks(self):
        sys = double_integrator()
        p = upper_box()
        rep = check_assumptions(sys, p, right_edge_face(p))
        assert rep.a1_input_rank
        assert rep.a2_controllable

    def test_boundary_touching_equilibria_ok(self):
        sys = double_integrator()
        p = upper_box()
        rep = check_assumptions(sys, p, right_edge_face(p))
        assert rep.a3_interior_clear
        assert rep.a4_target_valid
        assert rep.ok

    def test_full_rank_input_fails_a1(self):
        sys = AffineSystem(A=np.zeros((2, 2)), a=np.zeros(2), B=np.eye(2))
        p = upper_box()
        rep = check_assumptions(sys, p, right_edge_face(p))
        assert not rep.a1_input_rank

    def test_crossing_equilibria_fails_a3(self):
        sys = double_integrator()
        p = geo.convex_hull([(0, -1), (2, -1), (2, 1), (0, 1)])
        rep = check_assumptions(sys, p, right_edge_face(p))
        assert not rep.a3_interior_clear
        assert not interior_clear_of_equilibria(sys, p)

    @pytest.mark.parametrize("scale", [0.1, 1.0, 10.0])
    def test_a3_fails_exactly_when_the_plane_splits_p(self, scale):
        """|beta A| = scale; one vertex sits +-0.5 or +-3 TOL_GEOM off the
        equilibrium plane and the others on one side of it.  A3 reads the
        plane at the scale the cover's split does."""
        rng = np.random.default_rng(int(10 * scale))
        for offset in (0.5, -0.5, 3.0, -3.0):
            for side in (1.0, -1.0):
                Q = np.linalg.qr(rng.normal(size=(2, 2)))[0]
                r = rng.normal(size=2)
                # in the rotated frame x1' = scale x2 and the input drives x2,
                # so the equilibrium plane is x2 = 0
                A = Q @ np.array([[0.0, scale], [0.0, 0.0]]) @ Q.T
                sys = AffineSystem(A, -A @ r, Q @ np.array([[0.0], [1.0]]))
                pts = [(0.0, offset * geo.TOL_GEOM), (2, side * 0.5), (2, side), (0, side)]
                p = geo.convex_hull(np.array(pts) @ Q.T + r)
                rep = check_assumptions(sys, p, geo.Face.from_vertices(p.vertices[:2]))
                lo, hi = geo.split_by_hyperplane(p, equilibrium_plane(sys))
                assert rep.a3_interior_clear == (lo.is_empty or hi.is_empty)
                assert rep.a3_interior_clear == (offset * side > -1)

    def test_low_dim_target_fails_a4(self):
        sys = double_integrator()
        p = upper_box()
        f = geo.Face(np.array([[2.0, 0.5]]), None, 0)
        rep = check_assumptions(sys, p, f)
        assert not rep.a4_target_valid


class TestGeometry:
    def test_double_integrator_planes(self):
        sys = double_integrator()
        geom = compute_geometry(sys, upper_box())
        # input span is the x2 axis, equilibria on the x1 axis
        assert abs(geom.input_basis[:, 0] @ np.array([1.0, 0.0])) < 1e-12
        assert np.allclose(np.abs(geom.equilibrium_plane.normal), [0, 1], atol=1e-12)
        assert geom.equilibrium_plane.offset == pytest.approx(0.0, abs=1e-12)

    def test_beta_sign_from_polytope(self):
        sys = double_integrator()
        geom = compute_geometry(sys, upper_box())
        assert np.allclose(geom.beta, [-1.0, 0.0], atol=1e-12)
        # lower half-plane flips the sign
        p_low = geo.convex_hull([(0, -1), (2, -1), (2, 0), (0, 0)])
        geom_low = compute_geometry(sys, p_low)
        assert np.allclose(geom_low.beta, [1.0, 0.0], atol=1e-12)

    def test_sign_ambiguous_raises(self):
        sys = double_integrator()
        p = geo.convex_hull([(0, -1), (2, -1), (2, 1), (0, 1)])
        with pytest.raises(SignAmbiguous):
            compute_geometry(sys, p)

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(0)
        sys = double_integrator()
        p = upper_box()
        geom = compute_geometry(sys, p)
        for _ in range(10):
            th = rng.uniform(0, 2 * np.pi)
            Q = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
            r = rng.normal(size=2)
            # x' = Q x + r transforms the system matrices accordingly
            sys2 = AffineSystem(Q @ sys.A @ Q.T, Q @ sys.a - Q @ sys.A @ Q.T @ r, Q @ sys.B)
            p2 = geo.convex_hull(p.vertices @ Q.T + r)
            geom2 = compute_geometry(sys2, p2)
            assert np.allclose(geom2.beta, Q @ geom.beta, atol=1e-9)
            # transformed equilibrium plane contains images of old plane points
            for x in [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]:
                y = Q @ np.array(x) + r
                assert abs(geom2.equilibrium_plane.value(y)) < 1e-9


class TestProperties:
    def random_hypersurface_system(self, rng, n=2):
        while True:
            A = rng.normal(size=(n, n))
            a = rng.normal(size=n)
            B = rng.normal(size=(n, n - 1))
            sys = AffineSystem(A, a, B)
            if sys.input_rank() == n - 1 and sys.controllability_rank() == n:
                return sys

    def test_beta_annihilates_input_span(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(2, 4))
            sys = self.random_hypersurface_system(rng, n)
            # any polytope on one side of the equilibrium plane will do:
            # build a box far from it
            beta0 = np.linalg.svd(sys.B, full_matrices=True)[0][:, -1]
            normal = beta0 @ sys.A
            if np.linalg.norm(normal) < 1e-9:
                continue
            x0 = np.linalg.lstsq(sys.A, -sys.a, rcond=None)[0] if abs(np.linalg.det(sys.A)) > 1e-9 else np.zeros(n)
            shift = 3.0 * normal / np.linalg.norm(normal)
            p = geo.convex_hull(x0 + shift + rng.uniform(0.0, 0.5, size=(n + 3, n)))
            try:
                geom = compute_geometry(sys, p)
            except SignAmbiguous:
                continue
            assert np.abs(geom.beta @ sys.B).max() < 1e-12

    def test_equilibrium_plane_characterizes_input_span(self):
        rng = np.random.default_rng(2)
        count = 0
        for _ in range(100):
            sys = self.random_hypersurface_system(rng, 2)
            beta0 = np.linalg.svd(sys.B, full_matrices=True)[0][:, -1]
            normal = beta0 @ sys.A
            if np.linalg.norm(normal) < 1e-6:
                continue
            plane = geo.Hyperplane(normal, -float(beta0 @ sys.a))
            B = sys.B
            proj = B @ np.linalg.pinv(B)
            for _ in range(10):
                t = rng.normal(size=2)
                # sample a point on the plane
                x_on = t - plane.normal * plane.value(t)
                d = sys.drift(x_on)
                assert np.linalg.norm(d - proj @ d) < 1e-9
                x_off = x_on + plane.normal * 0.5
                d2 = sys.drift(x_off)
                assert np.linalg.norm(d2 - proj @ d2) > 1e-6
            count += 1
        assert count >= 80


class TestStoredInvariants:
    def test_invariants_match_their_definitions(self):
        """The stored input rank, controllability rank, drift normal,
        input basis and equilibrium plane are those of their definitions,
        computed from scratch, bit for bit."""
        rng = np.random.default_rng(8)
        for n in (2, 3, 4):
            for _ in range(10):
                A, a, B = rng.normal(size=(n, n)), rng.normal(size=n), rng.normal(size=(n, n - 1))
                sys = AffineSystem(A, a, B)
                ctrb = np.hstack([np.linalg.matrix_power(A, j) @ B for j in range(n)])
                assert sys.input_rank() == geo.rank(B) == n - 1
                assert sys.controllability_rank() == geo.rank(ctrb)
                beta = np.linalg.svd(B, full_matrices=True)[0][:, -1]
                plane = equilibrium_plane(sys)
                ref = geo.Hyperplane(beta @ A, -float(beta @ a))
                assert plane.normal.tobytes() == ref.normal.tobytes() and plane.offset == ref.offset
                p = geo.Polytope.box(-np.ones(n), np.ones(n))
                p = geo.convex_hull(p.vertices + (plane.offset + 3.0) * plane.normal)
                geom = compute_geometry(sys, p)
                assert np.array_equal(np.abs(geom.beta), np.abs(beta))
                basis = np.linalg.svd(B, full_matrices=False)[0]
                assert np.array_equal(geom.input_basis, basis)

    def test_degenerate_o_is_raised_on_every_read(self):
        """Without an equilibrium plane (beta.A = 0) the system stores
        that there is none: every read of the plane raises DegenerateO,
        A3 holds, and the geometry, which needs the plane, raises too."""
        sys = AffineSystem(A=np.zeros((2, 2)), a=[0.0, -1.0], B=[[1.0], [0.0]])
        p = upper_box()
        for _ in range(2):
            with pytest.raises(DegenerateO):
                equilibrium_plane(sys)
            assert interior_clear_of_equilibria(sys, p)
            assert check_assumptions(sys, p, right_edge_face(p)).a3_interior_clear
            with pytest.raises(DegenerateO):
                compute_geometry(sys, p)
