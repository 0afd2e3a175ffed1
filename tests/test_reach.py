import contextlib
import itertools

import numpy as np
import pytest

from reachctl import geometry as geo
from reachctl import lp, reach
from reachctl.errors import CutConstructionFailed, EpsTooLarge
from reachctl.system import compute_geometry

from helpers import (box4d_fixture, box_fixture, box_left_fixture, cube_fixture, face_from,
                     facet_face, ill1_fixture, ill2_fixture, ill3_fixture, integrator_3d,
                     interior_grid, lp_hull_meets_planes, oracle_reaches,
                     pinned_corner_fixture, right_target_polygons, top_edge_fixture,
                     uncovered_samples, wedge_fixture)


def analysis_for(sys, p, f):
    geom = compute_geometry(sys, p)
    return geom, reach.analyze(geom, p, f)


class TestAnalyze:
    def test_box_right_edge_reachable(self):
        sys, p, f = box_fixture()
        geom, ra = analysis_for(sys, p, f)
        assert ra.condition_a and ra.condition_b and ra.reachable
        # sub-level block degenerates to the target itself
        assert ra.h_minus.dim == 1
        for v in ra.h_minus.vertices:
            assert geo.point_in_hull(v, f.vertices, 1e-8)
        # top face is the left edge, off the equilibrium line
        assert np.allclose(ra.p_plus.vertices, [[0, 0], [0, 1]])
        # sampled open-loop check: every interior grid state reaches
        grid = interior_grid(p, k=5)
        assert oracle_reaches(sys, p, f, grid, full=True).all()

    def test_box_left_edge_not_reachable(self):
        sys, p, _ = box_fixture()
        f = face_from([(0, 0), (0, 1)])
        geom, ra = analysis_for(sys, p, f)
        assert not ra.condition_a
        assert not ra.reachable
        # the whole box is the failure closure: drift pushes right, away
        # from the target
        assert ra.a_minus.volume() == pytest.approx(p.volume(), rel=1e-9)

    def test_wedge_failure_shapes(self):
        sys, p, f = wedge_fixture()
        geom, ra = analysis_for(sys, p, f)
        assert not ra.reachable
        # solid failure block past the target's low end: the triangle
        # (2.5,0),(3,0),(2.5,1)
        assert ra.a_minus.is_full_dim
        assert ra.a_minus.volume() == pytest.approx(0.25, rel=1e-6)
        # pinned equilibrium corner is a single point
        assert ra.a_plus.dim == 0
        assert np.allclose(ra.a_plus.vertices, [[0, 0]])

    def test_failure_points_cannot_reach(self):
        sys, p, f = wedge_fixture()
        geom, ra = analysis_for(sys, p, f)
        # sample strictly inside the failure block
        c = ra.a_minus.centroid()
        pts = [c] + [0.7 * v + 0.3 * c for v in ra.a_minus.vertices]
        assert not oracle_reaches(sys, p, f, np.array(pts), full=True).any()

    @pytest.mark.parametrize("fixture, target, failing", [
        (cube_fixture, [(1, 0, 0), (1, 1, 0), (1, 0, 1)], [(1, 1, 1)]),
        (box_fixture, [(2, 0.25), (2, 0.75)], [(2, 0), (2, 1)]),
    ])
    def test_level_face_probes_are_tested_once(self, monkeypatch, fixture, target, failing):
        """A target inside the level face leaves corners of that face
        uncovered: condition (a) fails on a vertex.  Each vertex is tested
        once against each hull, within an LP budget of one per test."""
        sys, p, _ = fixture()
        tests, lps = [], []
        in_hull, solve = reach.point_in_hull, lp.solve

        def counting_hull(x, V, tol):
            tests.append((np.asarray(x).tobytes(), np.asarray(V).tobytes()))
            return in_hull(x, V, tol)

        def counting_solve(*args):
            lps.append(1)
            return solve(*args)

        monkeypatch.setattr(reach, "point_in_hull", counting_hull)
        monkeypatch.setattr(lp, "solve", counting_solve)
        geom, ra = analysis_for(sys, p, face_from(target))
        assert not ra.condition_a and ra.notes == ()
        assert np.array_equal(ra.a_minus.vertices, failing)
        assert len(tests) == len(set(tests)) >= len(ra.h_minus.vertices)
        assert len(lps) <= len(tests)

    @pytest.mark.parametrize("fixture, target, cut_fails", [
        (cube_fixture, [(1, 0, 0), (1, 1, 0), (1, 0, 1)], False),
        # the uncovered corners lie on both sides of the flat target
        (box_fixture, [(2, 0.25), (2, 0.75)], True),
    ])
    def test_cut_reads_the_uncovered_vertices(self, monkeypatch, fixture, target, cut_fails):
        """The margin cut takes its offending points from the analysis, so
        the two together test each (point, vertex set) pair once."""
        sys, p, _ = fixture()
        tests = []
        in_hull = reach.point_in_hull

        def counting_hull(x, V, tol):
            tests.append((np.asarray(x).tobytes(), np.asarray(V).tobytes()))
            return in_hull(x, V, tol)

        monkeypatch.setattr(reach, "point_in_hull", counting_hull)
        f = face_from(target)
        geom, ra = analysis_for(sys, p, f)
        assert np.array_equal(ra.uncovered, ra.a_minus.vertices)
        with pytest.raises(CutConstructionFailed) if cut_fails else contextlib.nullcontext():
            reach.epsilon_cut(geom, p, f, 0.1, analysis=ra)
        assert len(tests) == len(set(tests))

    @pytest.mark.parametrize("fixture, lps", [
        (wedge_fixture, 0), (pinned_corner_fixture, 0), (box_fixture, 0), (cube_fixture, 0),
        (box4d_fixture, 0)])
    def test_lp_budget(self, monkeypatch, fixture, lps):
        """The analysis solves LPs only in ``point_in_hull``, and none on
        these fixtures: each vertex of their level faces is settled in
        closed form."""
        calls = []
        solve = lp.solve

        def counting_solve(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(lp, "solve", counting_solve)
        analysis_for(*fixture())
        assert len(calls) == lps

    @pytest.mark.parametrize("fixture", [cube_fixture, box4d_fixture])
    def test_level_face_in_the_target_is_not_probed(self, monkeypatch, fixture):
        """Every vertex of the level face lies in the target, which is
        convex, so condition (a) holds on them alone: ``point_in_hull``
        is called once per vertex, on the target's vertices alone."""
        sys, p, f = fixture()
        tests = []
        in_hull = reach.point_in_hull

        def counting_hull(x, V, tol):
            tests.append((np.asarray(x).tobytes(), np.asarray(V).tobytes()))
            return in_hull(x, V, tol)

        monkeypatch.setattr(reach, "point_in_hull", counting_hull)
        geom, ra = analysis_for(sys, p, f)
        assert ra.condition_a and ra.b_minus_active
        assert sorted(x for x, _ in tests) == sorted(v.tobytes() for v in ra.h_minus.vertices)
        assert {V for _, V in tests} == {f.vertices.tobytes()}

    NOTE = "sub-level face not convexly covered by target and equilibrium slice"

    def test_condition_a_matches_the_sampled_level_face(self):
        """Targets in the cube's level face that hold its top corners and
        reach its bottom edge, which is ``b_minus``, at points near or far
        from the bottom corners: condition (a) fails exactly where a
        sample of the level face finds a point that neither the target
        nor ``b_minus`` covers.  Where the bottom corners lie in
        ``b_minus`` alone, the whole level face is the failure closure,
        with the note; the five targets that miss a corner by 1.5e-8 at
        most leave no probe of an edge midpoint or the centroid
        uncovered, yet leave uncovered points near that corner, such as
        (1, 0, 0.005)."""
        sys, p, _ = cube_fixture()
        geom = compute_geometry(sys, p)
        band = 0
        for d0, d1 in itertools.product([0.0, 5e-9, 1.5e-8, 3e-8, 0.2], repeat=2):
            f = face_from([(1, d0, 0), (1, 1 - d1, 0), (1, 0, 1), (1, 1, 1)])
            ra = reach.analyze(geom, p, f)
            uncovered = uncovered_samples(f, ra)
            assert ra.condition_a == (len(uncovered) == 0)
            assert not len(ra.uncovered)
            if ra.condition_a:
                assert ra.a_minus.is_empty and ra.notes == ()
            else:
                assert ra.a_minus is ra.h_minus and ra.notes == (self.NOTE,)
            if max(d0, d1) == 1.5e-8:
                band += 1
                if d0 == 1.5e-8:
                    assert (np.abs(uncovered - [1, 0, 0.005]).max(axis=1) <= 1e-15).any()
        assert band == 5

    def test_level_face_in_the_equilibrium_plane(self):
        """A prism whose level face is a bottom edge along beta x A^T beta,
        so it lies in the equilibrium plane and ``b_minus`` is all of it:
        the target, a facet, holds one end of the edge and the slice
        holds both, so condition (a) holds."""
        sys = integrator_3d()
        p = geo.convex_hull([(0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 0)])
        f = facet_face(p, [0, -1, 0])
        geom, ra = analysis_for(sys, p, f)
        edge = np.cross(geom.beta, sys.A.T @ geom.beta)
        assert ra.h_minus.dim == 1 and ra.b_minus_active
        assert np.allclose(np.abs(ra.h_minus.vertices[1] - ra.h_minus.vertices[0]), np.abs(edge))
        assert np.array_equal(ra.b_minus.vertices, ra.h_minus.vertices)
        assert not geo.point_in_hull(ra.h_minus.vertices[1], f.vertices, geo.TOL_INCIDENCE)
        assert ra.condition_a and ra.reachable and ra.a_minus.is_empty and ra.notes == ()
        assert not len(uncovered_samples(f, ra))

    @pytest.mark.parametrize("fixture", [box_fixture, wedge_fixture, pinned_corner_fixture,
                                         cube_fixture, box4d_fixture, ill1_fixture])
    def test_only_vertices_of_the_level_face_are_tested(self, monkeypatch, fixture):
        """``analyze`` hands ``point_in_hull`` no point but a vertex of
        ``h_minus``: on the fixtures and on the cube's targets above."""
        sys, p, f = fixture()
        geom = compute_geometry(sys, p)
        targets = [f]
        if fixture is cube_fixture:
            targets += [face_from([(1, d, 0), (1, 1 - d, 0), (1, 0, 1), (1, 1, 1)])
                        for d in (5e-9, 1.5e-8, 0.2)]
        points = []
        in_hull = reach.point_in_hull

        def recording(x, V, tol):
            points.append(np.asarray(x))
            return in_hull(x, V, tol)

        monkeypatch.setattr(reach, "point_in_hull", recording)
        for target in targets:
            del points[:]
            ra = reach.analyze(geom, p, target)
            assert points
            assert all((ra.h_minus.vertices == x).all(axis=1).any() for x in points)


class TestEquilibriumSlice:
    """``b_minus_active`` against the LP it replaced: does the target's
    hull meet the target's lowest drift level and the equilibrium plane
    in one point?"""

    @staticmethod
    def lp_active(geom, ra, f):
        level = geo.Hyperplane(geom.beta, float(geom.beta @ ra.v_minus))
        return lp_hull_meets_planes(f.vertices, [level, geom.equilibrium_plane])

    @pytest.mark.parametrize("fixture", [box_fixture, wedge_fixture, pinned_corner_fixture,
                                         cube_fixture, ill1_fixture, ill2_fixture,
                                         ill3_fixture, top_edge_fixture])
    def test_fixtures(self, fixture):
        sys, p, f = fixture()
        geom, ra = analysis_for(sys, p, f)
        assert ra.b_minus_active == self.lp_active(geom, ra, f)

    def test_random_polygons(self):
        for _, _, f, geom, ra in right_target_polygons(20):
            assert ra.b_minus_active == self.lp_active(geom, ra, f)

    @pytest.mark.parametrize("fixture, target, active", [
        # the lowest vertex touches the plane x2 = 0
        (box_fixture, [(2, 0), (1.5, 1)], True),
        # the plane holds a vertex above the lowest level only
        (box_fixture, [(2, 0.5), (1.5, 0)], False),
        # the lowest edge crosses the plane x3 = 0
        (cube_fixture, [(1, 0, -0.5), (1, 0, 0.5), (0.5, 1, 0)], True),
        # the lowest edge lies above the plane
        (cube_fixture, [(1, 0, 0.5), (1, 1, 0.5), (0.5, 1, 0)], False),
    ])
    def test_crafted_targets(self, fixture, target, active):
        sys, p, _ = fixture()
        f = face_from(target)
        geom, ra = analysis_for(sys, p, f)
        assert ra.b_minus_active == self.lp_active(geom, ra, f) == active
        assert ra.b_minus.is_empty != active


class TestEpsilonCut:
    @staticmethod
    def assert_beyond(plane, kept, failing):
        """``kept`` lies on one side of ``plane`` and every point of
        ``failing`` on the other, up to the tolerance of a closed cut."""
        side = 1.0 if np.all(plane.value(kept.vertices) <= 1e-9) else -1.0
        assert np.all(side * plane.value(kept.vertices) <= 1e-9)
        assert np.all(side * plane.value(failing) >= -1e-7)

    def test_no_failure_sets_returns_whole(self):
        sys, p, f = box_fixture()
        geom, ra = analysis_for(sys, p, f)
        cut = reach.epsilon_cut(geom, p, f, 0.1, analysis=ra)
        assert cut.reach_eps is p and cut.cut_planes == ()

    def test_wedge_cut_shape(self):
        sys, p, f = wedge_fixture()
        geom, ra = analysis_for(sys, p, f)
        eps = 0.1
        cut = reach.epsilon_cut(geom, p, f, eps, analysis=ra)
        assert len(cut.reach_eps.vertices) == 5
        expected = np.array([(eps, 0), (2.5 - eps, 0), (2.5, 1), (1, 1), (eps, eps)])
        assert np.allclose(geo.lex_sorted(expected), cut.reach_eps.vertices, atol=1e-9)
        # each failure set lies beyond its cut plane, low cut first
        low, top = cut.cut_planes
        self.assert_beyond(low, cut.reach_eps, ra.a_minus.vertices)
        self.assert_beyond(top, cut.reach_eps, ra.a_plus.vertices)
        # target survives
        for v in f.vertices:
            assert cut.reach_eps.contains(v, 1e-7)

    def test_each_cut_is_one_clip_of_the_kept_side(self, monkeypatch):
        """The wedge has both failure sets, and each cut clips the polytope
        kept so far once: the failure sides are never built."""
        sys, p, f = wedge_fixture()
        geom, ra = analysis_for(sys, p, f)
        calls = []
        clip = geo._clip_across
        monkeypatch.setattr(geo, "_clip_across", lambda *a: calls.append(a) or clip(*a))
        cut = reach.epsilon_cut(geom, p, f, 0.1, analysis=ra)
        assert len(cut.cut_planes) == 2 and len(calls) == 2

    def test_convergence_of_gap(self):
        sys, p, f = wedge_fixture()
        geom, ra = analysis_for(sys, p, f)
        # exact solvable volume: everything left of the target's low level
        lo, _ = geo.split_by_hyperplane(p, geo.Hyperplane(np.array([1.0, 0.0]), 2.5))
        exact = lo.volume()
        gaps = []
        for eps in (0.2, 0.1, 0.05, 0.025):
            cut = reach.epsilon_cut(geom, p, f, eps, analysis=ra)
            gaps.append(exact - cut.reach_eps.volume())
        assert all(g > 0 for g in gaps)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_monotone_nesting(self):
        sys, p, f = wedge_fixture()
        geom, ra = analysis_for(sys, p, f)
        small = reach.epsilon_cut(geom, p, f, 0.05, analysis=ra)
        large = reach.epsilon_cut(geom, p, f, 0.2, analysis=ra)
        for v in large.reach_eps.vertices:
            assert small.reach_eps.contains(v, 1e-8)

    def test_pinned_corner_sliver(self):
        sys, p, f = pinned_corner_fixture()
        geom, ra = analysis_for(sys, p, f)
        assert ra.a_minus.is_empty and not ra.a_plus.is_empty
        eps = 0.1
        cut = reach.epsilon_cut(geom, p, f, eps, analysis=ra)
        (top,) = cut.cut_planes
        self.assert_beyond(top, cut.reach_eps, ra.a_plus.vertices)
        # the margin set the top cut removes spans eps in drift level
        _, a_eps_plus = geo.split_by_hyperplane(p, top)
        assert a_eps_plus.contains([0, 0], 1e-9)
        levels = a_eps_plus.vertices @ geom.beta
        assert levels.max() - levels.min() == pytest.approx(eps, abs=1e-9)

    def test_eps_too_large(self):
        sys, p, f = wedge_fixture()
        geom, ra = analysis_for(sys, p, f)
        with pytest.raises(EpsTooLarge):
            reach.epsilon_cut(geom, p, f, 5.0, analysis=ra)

    def test_margin_into_the_target_top_level_raises(self):
        """The pinned corner's only failure is at the top drift level 0,
        and the target's top level is -2.5: a margin of 3 would put the
        cut below the target."""
        sys, p, f = pinned_corner_fixture()
        geom, ra = analysis_for(sys, p, f)
        assert ra.a_minus.is_empty and not ra.a_plus.is_empty
        with pytest.raises(EpsTooLarge, match="^margin would cut into the target's top level$"):
            reach.epsilon_cut(geom, p, f, 3.0, analysis=ra)

    def test_total_failure_keeps_nothing(self):
        """A target on the top drift level fails everywhere: the whole
        polytope is the low failure set, nothing remains to reach from,
        and no plane is cut."""
        sys, p, f = box_left_fixture()
        geom, ra = analysis_for(sys, p, f)
        cut = reach.epsilon_cut(geom, p, f, 0.1, analysis=ra)
        assert cut.reach_eps.is_empty and cut.reach_eps.n == p.n
        assert cut.cut_planes == () and cut.eps == 0.1


class TestFlatTargetPivot:
    """The pivot of the margin cut for a target at one drift level: the
    face of the target whose outer side holds every offending point."""

    @staticmethod
    def segment_offenders(rng, a, b, sides):
        """Points beyond the end b (side 1) or a (side 0) of the segment,
        along its line, each moved off it by a perpendicular offset."""
        out = []
        for side in sides:
            t = rng.uniform(1.05, 2.0) if side else rng.uniform(-1.0, -0.05)
            off = rng.normal(size=len(a))
            off -= (off @ (b - a)) / ((b - a) @ (b - a)) * (b - a)
            out.append(a + t * (b - a) + off)
        return np.array(out)

    @pytest.mark.parametrize("n", [2, 3])
    def test_segment_pivots_on_the_end_beyond_which_the_offenders_lie(self, n):
        rng = np.random.default_rng(70 + n)
        for _ in range(20):
            f = face_from(rng.normal(size=(2, n)))
            a, b = f.vertices
            for side, end in ((1, b), (0, a)):
                offenders = self.segment_offenders(rng, a, b, [side] * 3)
                pivot = reach._flat_target_pivot(f, offenders)
                assert pivot.shape == (1, n)
                assert np.allclose(pivot[0], end, rtol=0.0, atol=1e-12)
            with pytest.raises(CutConstructionFailed):
                reach._flat_target_pivot(f, self.segment_offenders(rng, a, b, [0, 1, 1]))

    def test_polygon_pivots_on_the_edge_facing_the_offenders(self):
        # a triangle in a tilted plane of R^3, offenders in that plane
        frame = np.linalg.qr(np.random.default_rng(72).normal(size=(3, 3)))[0][:, :2]

        def lift(pts):
            return np.asarray(pts, dtype=float) @ frame.T + np.array([0.3, -0.2, 0.5])

        f = face_from(lift([(0, 0), (1, 0), (0, 1)]))
        pivot = reach._flat_target_pivot(f, lift([(1, 1), (2, 0.5), (0.5, 0.6)]))
        assert np.allclose(geo.lex_sorted(pivot), geo.lex_sorted(lift([(1, 0), (0, 1)])),
                           rtol=0.0, atol=1e-12)
        pivot = reach._flat_target_pivot(f, lift([(-1, 0.5), (-0.1, 0.9)]))
        assert np.allclose(geo.lex_sorted(pivot), geo.lex_sorted(lift([(0, 0), (0, 1)])),
                           rtol=0.0, atol=1e-12)
        with pytest.raises(CutConstructionFailed):
            reach._flat_target_pivot(f, lift([(1, 1), (-1, -1)]))


class TestInvariance:
    def test_sublevel_sets_trap_trajectories(self):
        # drift component along beta is nonpositive, so the level of any
        # trajectory never rises while it stays inside
        sys, p, f = box_fixture()
        geom = compute_geometry(sys, p)
        rng = np.random.default_rng(0)
        from helpers import affine_stepper
        E, M = affine_stepper(sys.A, 1e-3)
        for _ in range(20):
            x = np.array([rng.uniform(0, 2), rng.uniform(0, 1)])
            z0 = geom.beta @ x
            level = z0
            for _ in range(500):
                u = rng.uniform(-10, 10)
                x = E @ x + M @ (sys.a + sys.B.ravel() * u)
                if not p.contains(x, 1e-6):
                    break
                level = geom.beta @ x
                assert level <= z0 + 1e-8
