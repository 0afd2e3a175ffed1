import itertools
import math

import numpy as np
import pytest
from scipy.linalg import null_space
from scipy.spatial import ConvexHull

from helpers import (all_candidates_hull_facets, halfspace_key, hull_distance,
                     rank_clip_facets, rank_edges,
                     rank_facets, random_simplices, reference_fan, reference_maximal_sets,
                     reference_simplex_table, uncovered_volume, vertex_cloud)
from reachctl import geometry as geo
from reachctl import lp
from reachctl.errors import GeometryError, Unbounded


@pytest.fixture
def lp_calls(monkeypatch):
    """A list that gains one entry per ``lp.solve`` call."""
    calls = []
    solve = lp.solve

    def counting(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(lp, "solve", counting)
    return calls


@pytest.fixture
def hull_calls(monkeypatch):
    """A list that gains one entry per ``geometry.convex_hull`` call."""
    calls = []
    hull = geo.convex_hull

    def counting(points):
        calls.append(1)
        return hull(points)

    monkeypatch.setattr(geo, "convex_hull", counting)
    return calls


def random_polygon(rng, nmax=8):
    """Random full-dimensional 2-D polytope from a point cloud."""
    pts = rng.normal(size=(rng.integers(4, nmax + 1), 2))
    return geo.convex_hull(pts)


def random_polytope_3d(rng, nmax=10):
    pts = rng.normal(size=(rng.integers(5, nmax + 1), 3))
    return geo.convex_hull(pts)


def mc_volume(p, rng, nsamples=200_000):
    lo, hi = p.bounding_box()
    pts = rng.uniform(lo, hi, size=(nsamples, p.n))
    A = np.array([h.normal for h in p.halfspaces])
    b = np.array([h.offset for h in p.halfspaces])
    inside = np.all(pts @ A.T - b <= 0.0, axis=1)
    box = np.prod(hi - lo)
    return box * inside.mean()


def greedy_dedupe(points):
    """Keep each point unless an earlier kept one is within TOL_MERGE."""
    keep = []
    for p in points:
        if not any(np.max(np.abs(p - q)) <= geo.TOL_MERGE for q in keep):
            keep.append(p)
    return np.array(keep).reshape(-1, points.shape[1])


class TestDedupe:
    def test_matches_greedy_loop(self):
        rng = np.random.default_rng(0)
        for k in (0, 1, 2, 5, 12):
            base = rng.normal(size=(k, 3))
            # half the draws repeat earlier points moved by under TOL_MERGE
            for pts in (base, np.vstack([base, base[: k // 2] + 5e-8])):
                pts = pts[rng.permutation(len(pts))]
                out = geo.dedupe_points(pts)
                assert np.array_equal(out, greedy_dedupe(pts))
                assert np.array_equal(geo.dedupe_points(out), out)

    def test_chain_keeps_point_near_dropped_one_only(self):
        # the middle point is dropped, so the last one, within TOL_MERGE of
        # the middle but not of the first, is kept
        pts = np.outer([0.0, 0.6, 1.2], [geo.TOL_MERGE, 0.0])
        out = geo.dedupe_points(pts)
        assert np.array_equal(out, pts[[0, 2]])
        assert np.array_equal(out, greedy_dedupe(pts))

    def test_returns_a_copy(self):
        pts = np.eye(3)
        out = geo.dedupe_points(pts)
        assert np.array_equal(out, pts) and not np.shares_memory(out, pts)

    def test_cloud_without_near_duplicates_comes_back_whole(self):
        """Clouds whose points are pairwise farther apart than TOL_MERGE,
        the closest pair just past it: every point stays, in order, as a
        copy the caller may change without changing the input."""
        rng = np.random.default_rng(1)
        for n in (1, 2, 3, 4):
            for k in (0, 1, 2, 7, 30):
                pts = rng.normal(size=(k, n))
                if k > 1:
                    pts[1] = pts[0] + 1.5 * geo.TOL_MERGE * rng.choice((-1.0, 1.0), size=n)
                before = pts.copy()
                out = geo.dedupe_points(pts)
                assert np.array_equal(out, pts) and np.array_equal(out, greedy_dedupe(pts))
                assert not np.shares_memory(out, pts)
                out += 1.0
                assert np.array_equal(pts, before)


# offsets of the facet points from their facet, along its outward normal:
# on it, inside and past the TOL_GEOM band on either side, and clearly past
FACET_OFFSETS = [0.0, 0.5 * geo.TOL_GEOM, -0.5 * geo.TOL_GEOM,
                 3 * geo.TOL_GEOM, -3 * geo.TOL_GEOM, 1e-6]


class TestEmptyInput:
    """An empty list is no point, not one point of R^0."""

    def test_affine_dimension(self):
        assert geo.affine_dimension([]) == geo.affine_dimension(np.zeros((0, 3))) == -1

    def test_point_in_no_hull(self):
        assert not geo.point_in_hull([0.0, 0.0], [])
        assert not geo.point_in_hull([0.0, 0.0], np.zeros((0, 2)))

    def test_convex_hull(self):
        with pytest.raises(geo.GeometryError, match="no hull"):
            geo.convex_hull([])
        empty = geo.convex_hull(np.zeros((0, 3)))
        assert empty.is_empty and empty.n == 3


class TestConvexHull:
    def test_unit_square(self):
        p = geo.convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert len(p.vertices) == 4
        assert len(p.halfspaces) == 4
        assert p.dim == 2

    def test_interior_point_removed(self):
        p = geo.convex_hull([(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)])
        assert len(p.vertices) == 4

    def test_random_points_match_membership_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            pts = rng.normal(size=(5, 2))
            if geo.affine_dimension(pts) < 2:
                continue
            p = geo.convex_hull(pts)
            # oracle: a point is extreme iff it is not a convex combination
            # of the other points
            expected = []
            for i in range(5):
                others = np.delete(pts, i, axis=0)
                if not geo.point_in_hull(pts[i], others):
                    expected.append(pts[i])
            expected = geo.lex_sorted(np.array(expected))
            assert len(p.vertices) == len(expected)
            assert np.allclose(p.vertices, expected, atol=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_vertices_match_distance_oracle(self, n):
        # a deduplicated point is a vertex exactly when it lies more than
        # TOL_GEOM from the hull of the others
        rng = np.random.default_rng(40 + n)
        for d in range(1, n + 1):
            for offset in FACET_OFFSETS:
                pts = geo.dedupe_points(vertex_cloud(rng, n, d, offset))
                far = [hull_distance(x, np.delete(pts, i, axis=0)) > geo.TOL_GEOM
                       for i, x in enumerate(pts)]
                hull = geo.convex_hull(pts)
                assert hull.dim == d
                assert np.array_equal(hull.vertices, geo.lex_sorted(pts[far]))

    def test_hull_solves_no_lp(self, lp_calls):
        rng = np.random.default_rng(50)
        for n in (2, 3, 4):
            for d in range(1, n + 1):
                assert geo.convex_hull(vertex_cloud(rng, n, d, 3 * geo.TOL_GEOM)).dim == d
        assert len(lp_calls) == 0

    def test_degenerate_lower_allowed(self):
        p = geo.convex_hull([(0, 0), (1, 1), (2, 2)])
        assert p.dim == 1
        assert len(p.vertices) == 2

    def test_thin_triangle_keeps_the_incidence_of_its_hull(self):
        """A triangle 5e-9 high: its apex is past TOL_GEOM from the long
        facet, though within TOL_INCIDENCE, so each vertex lies on the two
        facets the hull's table gives it, and the fan sees a triangle.
        Read off the planes at TOL_INCIDENCE, every vertex lay on every
        facet and the volume was 0."""
        p = geo.convex_hull([(0, 0), (1, 1), (0.5, 0.5 + 5e-9)])
        assert p.dim == 2 and len(p.vertices) == 3
        assert p.incidence.sum(axis=1).tolist() == [2, 2, 2]
        assert p.volume() == pytest.approx(2.5e-9, rel=1e-6)


def simplex_probes(rng, n, d, tol):
    """The vertices V of a random d-simplex in R^n and probe points with
    the verdict ``point_in_hull(x, V, tol)`` must give: points of the
    simplex moved by up to tol / 2 per coordinate (in), and points at
    inf-norm distance exactly tol (1 -+ 1e-3) from it (in, then out), with
    that distance.  Such a point is y + delta sign(g), for a row g whose
    maximum over the simplex is attained at y: a facet's outward
    direction within the affine hull plus any normal of the hull.  Then
    g.x - max g.V = delta |g|_1 bounds the distance below by delta, and y
    bounds it above."""
    frame, _ = np.linalg.qr(rng.normal(size=(n, n)))
    W = rng.normal(size=(d + 1, d))
    V = W @ frame[:, :d].T + rng.normal(size=n)
    inside = rng.dirichlet(np.ones(d + 1), size=10) @ V
    near = inside + rng.uniform(-0.5, 0.5, size=inside.shape) * tol
    probes = [(x, True, None) for x in near]
    grads = np.linalg.inv(np.vstack([W.T, np.ones(d + 1)]))[:, :d] @ frame[:, :d].T
    for _ in range(6):
        g = frame[:, d:] @ rng.normal(size=n - d)
        y = V[0]
        if d:
            j = rng.integers(d + 1)
            g = g - grads[j]
            y = rng.dirichlet(np.ones(d)) @ np.delete(V, j, axis=0)
        for delta in (tol * (1 - 1e-3), tol * (1 + 1e-3)):
            probes.append((y + delta * np.sign(g), delta <= tol, delta))
    return V, probes


class TestPointInHull:
    def test_degenerate_lp_reaches_its_optimum(self, lp_calls):
        """Point 18 of this 4-D cloud lies in the hull of the others.  Its
        LP is degenerate: two of its six pivots take a step of 0.  No
        closed form settles the point, so the tableau decides it."""
        pts = geo.dedupe_points(vertex_cloud(np.random.default_rng(0), 4, 4, 3 * geo.TOL_GEOM))
        rest = np.delete(pts, 18, axis=0)
        assert hull_distance(pts[18], rest) <= geo.TOL_GEOM
        assert geo.point_in_hull(pts[18], rest)
        assert len(lp_calls) == 1

    def test_lp_optimum_off_the_simplex_is_no_proof(self, lp_calls):
        """The tableau's optimum for this point puts weight -1.5e-8 on a
        vertex, breaking lam >= 0, at an objective within tol.  The point
        is 1.5e-8 from the hull, so the verdict is out: no weights,
        clipped at 0, give a hull point within 1e-8."""
        x = np.array([1.0, 0.0, 0.0])
        V = np.array([(1, 0, 1), (1, 1.5e-8, 0), (1, 1, 0), (1, 1, 1)], dtype=float)
        assert hull_distance(x, V) > 1e-8
        assert not geo.point_in_hull(x, V, 1e-8)
        assert len(lp_calls) == 1

    @pytest.mark.parametrize("x, inside", [
        ((0.4, 0.2, 0.5, 0.5), True),
        ((0.5 + 3e-9, 0.5 + 3e-9, 0.5, 0.5), False),
    ], ids=["in", "out"])
    def test_uncertified_optimum_falls_back_to_simplices(self, monkeypatch, x, inside):
        """An LP answer of distance 0 whose weights, clipped at 0, give a
        point far off decides nothing: the point is in exactly when a
        simplex of the vertices certifies it.  The hull of 12 corners of
        the 4-cube is x0 + x1 <= 1 in the cube; the second point is 3e-9
        (inf-norm) past that facet, inside the bounding box.  The LP
        measures its distance from the first vertex's, s0, so distance 0
        is the value -s0; its weights are those of the other vertices, -1
        each, which leave the first vertex 12."""
        V = np.array(list(itertools.product((0.0, 1.0), repeat=4))[:12])
        assert (hull_distance(x, V) <= geo.TOL_GEOM) == inside
        s0 = np.abs(V[0] - np.array(x)).max()

        def uncertified(c, G, h):
            return lp.LPOutcome(lp.OPTIMAL, np.append(np.full(len(c) - 1, -1.0), -s0), -s0)

        monkeypatch.setattr(lp, "solve", uncertified)
        assert geo.point_in_hull(x, V) == inside

    @pytest.mark.parametrize("tol", [1e-6, 1e-4])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_simplex_certificates_match_distance_oracle(self, n, tol, lp_calls):
        """Affinely independent vertex sets of every dimension d <= n, with
        points just inside and at tol (1 -+ 1e-3) from their hull: the
        verdict is the constructed distance's, which the oracle confirms,
        and the LP runs at most once per point at the tol boundary."""
        rng = np.random.default_rng(70 + n)
        probes = 0
        for d in range(n + 1):
            for _ in range(2):
                V, points = simplex_probes(rng, n, d, tol)
                for x, expect, delta in points:
                    dist = hull_distance(x, V)
                    assert dist <= 0.5 * tol if delta is None else \
                        dist == pytest.approx(delta, abs=1e-4 * tol)
                    assert geo.point_in_hull(x, V, tol) == expect
                    probes += 1
        assert len(lp_calls) <= probes - 20 * (n + 1)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rank_of_its_own_svd(self, n):
        """The rank ``point_in_hull`` reads off the singular values of its
        full SVD is ``rank``'s, for difference matrices of every rank at
        scales from 1e-5 to 1e5; ``rank`` takes the matrix or its singular
        values, not both."""
        rng = np.random.default_rng(60 + n)
        for k in range(1, n + 2):
            for d in range(min(k, n) + 1):
                D = rng.normal(size=(k, d)) @ rng.normal(size=(d, n)) * 10.0 ** rng.uniform(-5, 5)
                _, sv, _ = np.linalg.svd(D)
                assert geo.rank(sv=sv) == geo.rank(D) == d
        with pytest.raises(TypeError):
            geo.rank(D, sv=sv)

    @pytest.mark.parametrize("V", [
        [(0, 0), (1000, 0), (500, 1e-7)],
        [(0, 0, 0), (1000, 0, 0), (0, 1000, 0), (300, 300, 1e-7)],
    ], ids=["2d", "3d"])
    def test_sliver_below_the_rank_tolerance(self, V):
        """A vertex 1e-7 off the plane of the others, 1000 long, is below
        the rank tolerance, so the set counts as flat; but 1e-7 is 100
        TOL_GEOM, so a bound on that plane's equation must come from the
        vertices themselves.  Points of the sliver are in, points
        3 TOL_GEOM below its base are out."""
        V = np.array(V, dtype=float)
        assert geo.rank(V[1:] - V[0]) < len(V) - 1
        for lam in np.random.default_rng(7).dirichlet(np.ones(len(V)), size=10):
            x = lam @ V
            below = np.append(x[:-1], -3 * geo.TOL_GEOM)
            assert hull_distance(x, V) == 0.0 and geo.point_in_hull(x, V)
            assert hull_distance(below, V) > geo.TOL_GEOM and not geo.point_in_hull(below, V)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_lower_dimensional_clouds_match_distance_oracle(self, n):
        """Each point of clouds that span a d-plane, d < n, against the
        rest, and the same points moved off the plane by 3 TOL_GEOM or
        0.5 TOL_GEOM per coordinate (so, for a point in the hull, its
        distance is at most that)."""
        rng = np.random.default_rng(90 + n)
        for d in range(1, n):
            for offset in (0.0, 3 * geo.TOL_GEOM, -3 * geo.TOL_GEOM):
                pts = geo.dedupe_points(vertex_cloud(rng, n, d, offset))
                for i, x in enumerate(pts):
                    rest = np.delete(pts, i, axis=0)
                    for shift in (0.0, 0.5, 3.0):
                        y = x + shift * geo.TOL_GEOM * rng.choice((-1.0, 1.0), size=n)
                        dist = hull_distance(y, rest)
                        if abs(dist - geo.TOL_GEOM) <= 0.2 * geo.TOL_GEOM:
                            continue
                        assert geo.point_in_hull(y, rest) == (dist <= geo.TOL_GEOM)

    def test_clouds_match_distance_oracle(self):
        # each point of 40 clouds with facet points 3 TOL_GEOM out, tested
        # against the rest; the distances are 0 or above 1.5 TOL_GEOM
        for seed in range(40):
            pts = geo.dedupe_points(vertex_cloud(np.random.default_rng(seed), 4, 4,
                                                 3 * geo.TOL_GEOM))
            for i, x in enumerate(pts):
                rest = np.delete(pts, i, axis=0)
                assert geo.point_in_hull(x, rest) == (hull_distance(x, rest) <= geo.TOL_GEOM)


class TestNonsingular:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_row_scaling_keeps_the_verdict(self, n):
        """Well-conditioned matrices pass and rank-deficient ones (a row a
        combination of the others, or zero) fail, whatever factor from
        1e-5 to 1e5 scales each row; the rank rule agrees."""
        rng = np.random.default_rng(90 + n)
        for _ in range(20):
            M = rng.normal(size=(n, n))
            deficient = M.copy()
            deficient[-1] = rng.normal(size=n - 1) @ deficient[:-1]
            zero_row = M.copy()
            zero_row[rng.integers(n)] = 0.0
            stack = np.stack([M, deficient, zero_row])
            expected = geo.rank(stack) == n
            assert expected.tolist() == [True, False, False]
            for _ in range(5):
                scale = 10.0 ** rng.uniform(-5, 5, size=(3, n, 1))
                assert geo.nonsingular(stack * scale).tolist() == expected.tolist()
                assert bool(geo.nonsingular(M * scale[0])) is True


class TestRepConversion:
    def test_triangle_hrep(self):
        p = geo.convex_hull([(0, 0), (2, 0), (0, 2)])
        assert len(p.halfspaces) == 3
        # {-x1<=0, -x2<=0, (x1+x2)/sqrt2 <= sqrt2}
        normals = sorted(tuple(np.round(h.normal, 6)) for h in p.halfspaces)
        assert (-1.0, -0.0) in [tuple(np.round(h.normal, 6)) for h in p.halfspaces] or \
               (-1.0, 0.0) in normals
        diag = [h for h in p.halfspaces if np.all(h.normal > 0.1)]
        assert len(diag) == 1
        assert diag[0].offset == pytest.approx(np.sqrt(2.0), abs=1e-9)

    def test_cube_vertices(self):
        hs = []
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1.0
            hs.append(geo.HalfSpace(e.copy(), 1.0))
            hs.append(geo.HalfSpace(-e, 0.0))
        verts = geo.hrep_to_vrep(hs)
        assert len(verts) == 8

    def test_hexagon_round_trip(self):
        ang = np.linspace(0, 2 * np.pi, 7)[:-1] + 0.3
        pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        p = geo.convex_hull(pts)
        back = geo.hrep_to_vrep(p.halfspaces)
        assert len(back) == 6
        assert np.allclose(geo.lex_sorted(back), p.vertices, atol=1e-9)

    def test_round_trip_random(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p = random_polygon(rng) if rng.random() < 0.5 else random_polytope_3d(rng)
            back = geo.lex_sorted(geo.hrep_to_vrep(p.halfspaces))
            assert back.shape == p.vertices.shape
            assert np.allclose(back, p.vertices, atol=1e-7)


def box_halfspaces(low, high):
    """The halfspaces low <= x_i <= high of a box in len(low) dimensions."""
    eye = np.eye(len(low))
    return [geo.HalfSpace(e, hi) for e, hi in zip(eye, high)] + \
        [geo.HalfSpace(-e, -lo) for e, lo in zip(eye, low)]


class TestHrepVerdicts:
    """``hrep_to_vrep`` gives no vertices for an infeasible system, whether
    or not its recession cone is 0, and raises ``Unbounded`` for a
    nonempty unbounded one; a box away from the origin, whose feasibility
    LP starts at the origin's violation, keeps its corners."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_a_box_away_from_the_origin(self, n):
        verts = geo.hrep_to_vrep(box_halfspaces(np.full(n, 2.0), np.full(n, 3.0)))
        corners = np.array(list(itertools.product((2.0, 3.0), repeat=n)))
        assert np.array_equal(verts, geo.lex_sorted(corners))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_infeasible_bounded_system(self, n):
        """The box [2, 3]^n cut by sum x <= 1: the cone A d <= 0 is 0."""
        hs = box_halfspaces(np.full(n, 2.0), np.full(n, 3.0)) + [geo.HalfSpace(np.ones(n), 1.0)]
        assert geo.hrep_to_vrep(hs).shape == (0, n)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_infeasible_system_with_a_recession_cone(self, n):
        """1 <= x_0 <= -1, with and without x_i <= 1: every -e_i, i > 0, is
        a recession direction, yet there is no point, also where the two
        constraints on x_0 are all there are."""
        eye = np.eye(n)
        slab = [geo.HalfSpace(eye[0], -1.0), geo.HalfSpace(-eye[0], -1.0)]
        assert geo.hrep_to_vrep(slab + [geo.HalfSpace(e, 1.0) for e in eye[1:]]).shape == (0, n)
        assert geo.hrep_to_vrep(slab).shape == (0, n)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_nonempty_unbounded_system(self, n):
        """The orthant shifted to 2 with x_0 <= 3, and the halfspace
        x_0 <= 3 alone: x_1 grows without bound."""
        eye = np.eye(n)
        for hs in ([geo.HalfSpace(-e, -2.0) for e in eye] + [geo.HalfSpace(eye[0], 3.0)],
                   [geo.HalfSpace(eye[0], 3.0)]):
            with pytest.raises(Unbounded):
                geo.hrep_to_vrep(hs)


class TestSplit:
    def test_square_split_volumes(self):
        p = geo.convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])
        lo, hi = geo.split_by_hyperplane(p, geo.Hyperplane(np.array([1.0, 0.0]), 0.5))
        assert lo.volume() == pytest.approx(0.5, abs=1e-12)
        assert hi.volume() == pytest.approx(0.5, abs=1e-12)

    def test_triangle_split_against_mc_oracle(self):
        p = geo.convex_hull([(0, 0), (2, 0), (0, 2)])
        plane = geo.Hyperplane(np.array([-1.0, 1.0]) / np.sqrt(2), 0.0)
        lo, hi = geo.split_by_hyperplane(p, plane)
        assert lo.volume() == pytest.approx(1.0, abs=1e-9)
        assert hi.volume() == pytest.approx(1.0, abs=1e-9)
        rng = np.random.default_rng(2)
        assert mc_volume(lo, rng, 1_000_000) == pytest.approx(lo.volume(), abs=1e-2)

    def test_split_misses_polytope(self):
        p = geo.convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])
        lo, hi = geo.split_by_hyperplane(p, geo.Hyperplane(np.array([1.0, 0.0]), 2.0))
        assert not lo.is_empty and np.allclose(lo.vertices, p.vertices)
        assert hi.is_empty

    def test_split_conservation_random(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            p = random_polygon(rng) if rng.random() < 0.5 else random_polytope_3d(rng)
            c = p.centroid()
            normal = rng.normal(size=p.n)
            normal /= np.linalg.norm(normal)
            plane = geo.Hyperplane(normal, float(normal @ c))
            lo, hi = geo.split_by_hyperplane(p, plane)
            total = lo.volume() + hi.volume()
            assert total == pytest.approx(p.volume(), rel=1e-8, abs=1e-10)


class TestSplitSharesCrossings:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_pieces_are_the_two_clips_bit_for_bit(self, n):
        """A split computes its crossing points once for both pieces; each
        piece is still exactly the clip to its halfspace: vertices, facet
        normals and offsets, on random hulls, for planes through an
        interior point, through a vertex and near a vertex (the shifts of
        ``TestClip``)."""
        rng = np.random.default_rng(40 + n)
        crossed = 0
        for _ in range(6):
            p = random_hull(rng, n)
            for h, _ in clip_cases(rng, p):
                plane = geo.Hyperplane(h.normal, h.offset)
                lo, hi = geo.split_by_hyperplane(p, plane)
                if lo.is_empty or hi.is_empty:
                    continue
                crossed += 1
                for piece, half in ((lo, plane.lower()), (hi, plane.upper())):
                    ref = geo.clip_to_halfspace(p, half)
                    assert piece.dim == ref.dim
                    assert np.array_equal(piece.vertices, ref.vertices)
                    assert [g.normal.tobytes() for g in piece.halfspaces] == \
                        [g.normal.tobytes() for g in ref.halfspaces]
                    assert [g.offset for g in piece.halfspaces] == \
                        [g.offset for g in ref.halfspaces]
        assert crossed >= 30


class TestFacetOrder:
    def test_matches_sorting_by_the_rounded_key(self):
        """The one-lexsort order of facet tables is the order of sorting by
        each halfspace's rounded key: ties (copies, and normals that agree
        to ``HALFSPACE_KEY_DECIMALS``) keep their order, and -0.0 ties
        with 0.0."""
        rng = np.random.default_rng(5)
        for n in (1, 2, 3, 4):
            for _ in range(50):
                base = [geo.HalfSpace(rng.normal(size=n), rng.normal()) for _ in range(4)]
                grid = [geo.HalfSpace(np.append(1.0, rng.integers(-1, 2, size=n - 1)),
                                      float(rng.integers(-1, 2))) for _ in range(4)]
                signed = [geo.HalfSpace(np.where(rng.random(n) < 0.5, -0.0, 0.0)
                                        + np.eye(n)[rng.integers(n)], -0.0) for _ in range(3)]
                close = [geo.HalfSpace(h.normal + 1e-12 * rng.normal(size=n), h.offset)
                         for h in base[:2]]
                copies = [geo.HalfSpace(h.normal, h.offset) for h in base[:2] + signed[:1]]
                hs = base + grid + signed + close + copies
                hs = [hs[i] for i in rng.permutation(len(hs))]
                expect = sorted(hs, key=halfspace_key)
                order = geo._facet_order(np.array([h.normal for h in hs]),
                                         np.array([h.offset for h in hs]))
                assert [id(hs[i]) for i in order] == [id(h) for h in expect]


def fan_volume(simplices):
    return sum(geo.simplex_volume(s) for s in simplices)


def random_hull(rng, n):
    while True:
        pts = rng.normal(size=(n + 3, n))
        if geo.affine_dimension(pts) == n:
            return geo.convex_hull(pts)


# offsets of the clip plane from a vertex: inside the on-plane band of
# TOL_GEOM, past it, and far enough past it that crossing points merge with
# the vertex by the TOL_MERGE rule
SHIFTS = [0.5 * geo.TOL_GEOM, -0.5 * geo.TOL_GEOM, 3 * geo.TOL_GEOM, -3 * geo.TOL_GEOM,
          0.5 * geo.TOL_MERGE, -0.5 * geo.TOL_MERGE]


def clip_cases(rng, p, shifts=SHIFTS):
    """(halfspace, shift) pairs: halfspaces through an interior point and
    through a vertex (shift 0), and halfspaces shifted off a vertex by each
    of ``shifts``, whose planes cut through ``p``."""
    for shift in [None, 0.0] + shifts:
        while True:
            normal = rng.normal(size=p.n)
            normal /= np.linalg.norm(normal)
            v = p.vertices[rng.integers(len(p.vertices))]
            vals = (p.vertices - v) @ normal
            if shift in (None, 0.0) or (vals.min() < -1e-3 and vals.max() > 1e-3):
                break
        point = p.centroid() + 0.3 * (v - p.centroid()) if shift is None else v
        yield geo.HalfSpace(normal, float(normal @ point) + (shift or 0.0)), shift or 0.0


def same_points(a, b, atol=1e-9):
    return a.shape == b.shape and np.allclose(a, b, atol=atol, rtol=0)


def near_points(a, b, atol):
    """Every point of either set within ``atol`` (inf-norm) of one of the
    other: two tolerance rules may keep different points of a cluster."""
    if len(a) == 0 or len(b) == 0:
        return len(a) == len(b)
    gaps = np.abs(a[:, None, :] - b[None, :, :]).max(axis=2)
    return gaps.min(axis=0).max() <= atol and gaps.min(axis=1).max() <= atol


def matches(out, ref, shift):
    """Off a vertex by less than TOL_GEOM, the vertices agree one for one;
    farther off, the crossing points near the vertex merge by TOL_MERGE, in
    the clip and in the enumeration, each keeping its own point."""
    if abs(shift) < geo.TOL_GEOM:
        return same_points(out, geo.lex_sorted(ref))
    return near_points(out, ref, 10 * geo.TOL_MERGE)


def describes_clip(out, p, h, rng):
    """The facets of ``out`` cut out p and h: sample points around ``p``,
    away from every plane of p and h, are inside ``out`` exactly when they
    are inside both."""
    planes = p.halfspaces + [h]
    lo, hi = p.bounding_box()
    for x in rng.uniform(lo - 0.5, hi + 0.5, size=(200, p.n)):
        vals = np.array([g.value(x) for g in planes])
        if np.abs(vals).min() > 1e-4 and out.contains(x) != bool(np.all(vals < 0)):
            return False
    return True


def random_tight_table(rng):
    """A boolean (candidate, point) table whose rows repeat, contain one
    another or are empty, in random order."""
    rows, cols = rng.integers(1, 10), rng.integers(1, 9)
    base = rng.random((rows, cols)) < rng.uniform(0.2, 0.8)
    picks = rng.integers(0, rows, size=rng.integers(0, 2 * rows))
    subsets = base[picks] & (rng.random((len(picks), cols)) < 0.6)
    copies = base[rng.integers(0, rows, size=rng.integers(0, rows + 1))]
    empty = np.zeros((rng.integers(0, 3), cols), dtype=bool)
    table = np.vstack([base, subsets, copies, empty])
    return table[rng.permutation(len(table))]


class TestMaximalSets:
    def test_matches_the_distinct_row_reference(self):
        """The one-product rule picks the rows the ``np.unique`` rule
        picks: the first row of each nonempty set in no larger set."""
        rng = np.random.default_rng(21)
        for _ in range(1500):
            tight = random_tight_table(rng)
            assert geo._maximal_sets(tight).tolist() == reference_maximal_sets(tight)

    def test_tables_without_rows_or_points(self):
        assert geo._maximal_sets(np.zeros((0, 4), dtype=bool)).tolist() == []
        assert geo._maximal_sets(np.zeros((3, 0), dtype=bool)).tolist() == []


def _pyramid(rng, n, base):
    """``base`` random points of the facet x_n = 0 of the unit n-box,
    its corners among them, and an apex above it: the hull that
    ``triangulation_wrt_F`` builds over a carrying facet, whose n-subsets
    of base points all span the base's plane."""
    corners = np.array(list(itertools.product((0.0, 1.0), repeat=n - 1)))
    pts = np.vstack([corners, rng.uniform(size=(base - len(corners), n - 1))])
    return np.vstack([np.column_stack([pts, np.zeros(base)]),
                      np.append(rng.uniform(size=n - 1), 1.0)])


def _box_with_facet_points(rng, n, extra):
    """The unit n-box's corners and ``extra`` random points on its facets."""
    corners = np.array(list(itertools.product((0.0, 1.0), repeat=n)))
    pts = rng.uniform(size=(extra, n))
    pts[np.arange(extra), rng.integers(n, size=extra)] = rng.integers(2, size=extra)
    return np.vstack([corners, pts])


class TestHullFacets:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_coplanar_points_give_the_rows_of_every_candidate(self, n, monkeypatch):
        """Candidates with equal tight sets go to the facet rule once, the
        first of each: on hulls where many n-subsets span one plane, the
        facet rows equal, bit for bit, those of the rule given every
        candidate, and the rule gets no two equal rows."""
        tables = []
        rule = geo._maximal_sets
        monkeypatch.setattr(geo, "_maximal_sets", lambda tight: tables.append(tight) or rule(tight))
        rng = np.random.default_rng(60 + n)
        # a pyramid over the (n-1)-box has 2n - 1 facets, the box 2n
        clouds = ([(_pyramid(rng, n, 12), 2 * n - 1) for _ in range(2)]
                  + [(_box_with_facet_points(rng, n, {2: 10, 3: 12, 4: 4}[n]), 2 * n)
                     for _ in range(2)])
        for V, facets in clouds:
            V = geo.dedupe_points(V)
            tables.clear()
            normals, offsets = geo._hull_facets(V)
            (tight,) = tables
            assert len(np.unique(tight, axis=0)) == len(tight)
            want = all_candidates_hull_facets(V)
            assert np.array_equal(normals, want[0]) and np.array_equal(offsets, want[1])
            assert len(offsets) == facets


class TestClip:
    """The incidence clip against the n-subset enumeration of
    ``hrep_to_vrep`` on the same halfspaces."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_full_dimensional_clip_matches_enumeration(self, n):
        rng = np.random.default_rng(10 + n)
        for _ in range(4):
            p = random_hull(rng, n)
            for h, shift in clip_cases(rng, p):
                out = geo.clip_to_halfspace(p, h)
                assert matches(out.vertices, geo.hrep_to_vrep(p.halfspaces + [h]), shift)
                if not out.is_full_dim:
                    continue
                assert describes_clip(out, p, h, rng)
                if abs(shift) <= 3 * geo.TOL_GEOM:
                    # farther off, the vertices lie up to 1.6e-7 off the
                    # clip's planes, and their hull has extra thin facets
                    assert len(out.halfspaces) == len(geo.vrep_to_hrep(out.vertices))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_facet_clip_matches_enumeration(self, n):
        rng = np.random.default_rng(20 + n)
        for _ in range(2 if n < 4 else 1):
            p = random_hull(rng, n)
            for h, shift in clip_cases(rng, p):
                for face in p.facets():
                    vals = face.vertices @ h.normal - h.offset
                    if shift and geo.TOL_GEOM < vals.min() <= geo.TOL_INCIDENCE:
                        # a face past the plane by under TOL_INCIDENCE: the
                        # clip drops it, the enumeration keeps its vertex
                        continue
                    out = geo.clip_to_halfspace(face, h)
                    ref = geo.hrep_to_vrep(p.halfspaces + [h, face.supporting.flipped()])
                    assert matches(out.vertices, ref, shift)
                    assert out.halfspaces == [] and out.dim == geo.affine_dimension(ref)

    @staticmethod
    def clip_points(face, vals):
        """The points that the clip of ``face`` keeps, by its three cases: the
        face whole, its face on the plane, or the points on the plane and
        the vertices strictly inside."""
        if vals.max() <= geo.TOL_GEOM:
            return face.vertices
        if vals.min() >= -geo.TOL_GEOM:
            return face.vertices[vals <= geo.TOL_GEOM]
        return np.vstack([geo._plane_points(face, vals)[0], face.vertices[vals < -geo.TOL_GEOM]])

    @pytest.mark.parametrize("n", [3, 4])
    def test_facet_clips_and_sections_hull_only_merged_points(self, n, hull_calls):
        """On every facet of seeded hulls, the clip and the section read the
        facet's edges off its table: neither hulls unless two of its points
        merged (``TOL_MERGE``), and both give, bit for bit, the vertices of
        ``convex_hull`` of the same points, and the edges of that hull."""
        rng = np.random.default_rng(90 + n)
        merged = hulled = 0
        for _ in range(3 if n < 4 else 2):
            p = random_hull(rng, n)
            for h, _ in clip_cases(rng, p):
                plane = geo.Hyperplane(h.normal, h.offset)
                for face in p.facets():
                    vals = face.vertices @ h.normal - h.offset
                    for cut, pts in [(geo.clip_to_halfspace, self.clip_points(face, vals)),
                                     (geo.section, geo._plane_points(face, vals)[0])]:
                        hull_calls.clear()
                        out = cut(face, h if cut is geo.clip_to_halfspace else plane)
                        joined = len(geo.dedupe_points(pts)) < len(pts)
                        assert len(hull_calls) == joined
                        merged += joined
                        if joined or not len(pts):
                            continue
                        ref = geo.convex_hull(pts)
                        hulled += 1
                        assert np.array_equal(out.vertices, ref.vertices)
                        assert out.dim == ref.dim and out.halfspaces == []
                        assert np.array_equal(out.edges, ref.edges)
        assert merged and hulled

    def test_caller_built_polygon_clips_right(self, hull_calls):
        """A hexagon in 3-D built from its vertices alone gets its table at
        construction, without a hull, and clips by its sides: the crossing
        points of the two sides the plane cuts, with the vertices inside."""
        rng = np.random.default_rng(7)
        frame = np.linalg.qr(rng.normal(size=(3, 3)))[0][:, :2]
        ang = np.sort(rng.uniform(0, 2 * np.pi, 6))
        ring = np.stack([np.cos(ang), np.sin(ang)], axis=1) @ frame.T + [0.3, -0.2, 0.5]
        poly = geo.Polytope(geo.lex_sorted(ring), [], 2)
        normal = np.array([1.0, 0.4, -0.3])
        half = geo.HalfSpace(normal, float(normal @ ring.mean(axis=0)))
        out = geo.clip_to_halfspace(poly, half)
        assert len(hull_calls) == 0 and len(poly.edges) == 6
        vals = ring @ half.normal - half.offset
        cross = [ring[i] + vals[i] / (vals[i] - vals[j]) * (ring[j] - ring[i])
                 for i, j in zip(range(6), np.roll(range(6), -1)) if vals[i] * vals[j] < 0]
        assert len(cross) == 2
        ref = geo.convex_hull(np.vstack([cross, ring[vals < 0]]))
        assert out.dim == 2 and out.halfspaces == [] and same_points(out.vertices, ref.vertices)
        assert np.array_equal(out.edges, ref.edges)

    def test_clip_near_a_vertex_keeps_every_facet(self):
        # the crossing points on the edges from the z = 0 vertices merge
        # into them; the slanted facet stays
        cube = geo.Polytope.box([0, 0, 0], [1, 1, 1])
        out = geo.clip_to_halfspace(cube, geo.HalfSpace(np.array([1.0, 0.0, -0.5]), 5e-8))
        assert out.is_full_dim and len(out.vertices) == 6 and len(out.halfspaces) == 5
        assert not out.contains(np.array([0.4, 0.5, 0.1]))

    def test_sliver_clip_is_lower_dimensional(self):
        square = geo.Polytope.box([0, 0], [1, 1])
        half = geo.HalfSpace(np.array([1.0, 0.0]), 5e-8)
        out = geo.clip_to_halfspace(square, half)
        # the vertices at x = 0 merge into the crossing points on the plane
        section = geo.section(square, geo.Hyperplane(half.normal, half.offset))
        assert out.dim == 1 and same_points(out.vertices, section.vertices)
        assert same_points(out.vertices, np.array([[5e-8, 0.0], [5e-8, 1.0]]))
        assert not out.contains(np.array([5.0, 0.5]))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_incidence_rules_match_rank_oracles(self, n, hull_calls):
        """Edges, facets and the clip's facets by incidence against the
        rank rules, on the clouds of
        test_full_dimensional_clip_matches_enumeration.  Off a vertex by
        TOL_GEOM or more, a clip whose points merged is hulled, its
        vertices lie up to 4e-7 off its planes, and both rules read an
        incidence that tolerances decide: neither is a reference.  A clip
        that keeps the rows of its points is checked wherever the rank
        rules, which read the planes at TOL_INCIDENCE, see its table."""
        rng = np.random.default_rng(10 + n)
        far = 0
        for _ in range(4):
            p = random_hull(rng, n)
            assert np.array_equal(p.edges, rank_edges(p))
            for h, shift in clip_cases(rng, p):
                hull_calls.clear()
                out = geo.clip_to_halfspace(p, h)
                if not out.is_full_dim:
                    continue
                if abs(shift) >= geo.TOL_GEOM:
                    normals, offsets = out.rows
                    seen = np.abs(out.vertices @ normals.T - offsets) <= geo.TOL_INCIDENCE
                    if hull_calls or not np.array_equal(seen, out.incidence):
                        continue
                    far += 1
                assert np.array_equal(out.edges, rank_edges(out))
                for face, (ref, dim) in zip(out.facets(), rank_facets(out)):
                    assert np.array_equal(face.vertices, ref) and face.dim == dim == n - 1
                assert [halfspace_key(g) for g in out.halfspaces] == \
                    [halfspace_key(g) for g in rank_clip_facets(p, h, out.vertices)]
        assert far, "no clip off a vertex was checked"

    def test_faces_and_clip_hull_nothing(self, monkeypatch):
        p = random_hull(np.random.default_rng(32), 4)
        normal = np.array([1.0, 0.5, 0.0, -0.5])
        half = geo.HalfSpace(normal, float(normal @ p.centroid()))

        def refuse(*args, **kwargs):
            raise AssertionError("a face was hulled or ranked")

        for name in ("convex_hull", "affine_basis", "affine_dimension", "rank"):
            monkeypatch.setattr(geo, name, refuse)
        assert len(p.edges) and geo.whole_facet(p, p.facets()[0]) == 0
        assert len(geo.fan(p, p.vertices[-1])) and geo.clip_to_halfspace(p, half).is_full_dim

    def test_full_dimensional_split_solves_no_lp(self, lp_calls):
        p = random_hull(np.random.default_rng(30), 4)
        normal = np.array([1.0, 0.5, 0.0, -0.5])
        lo, hi = geo.split_by_hyperplane(p, geo.Hyperplane(normal, float(normal @ p.centroid())))
        assert lo.is_full_dim and hi.is_full_dim
        assert len(lp_calls) == 0


class TestSection:
    """The incidence section against the n-subset enumeration of
    ``hrep_to_vrep`` with both halfspaces of the plane, and, for a
    full-dimensional ``p`` cut into two pieces, against ``intersect`` of
    the pieces.

    Through an interior point or a vertex all three agree within 1e-9.
    Off a vertex by less than ``TOL_GEOM`` the section keeps the vertex,
    and the enumeration keeps the crossing points of its edges, which lie
    up to ``TOL_GEOM`` over the edge's slope from it (4.7e-7 on an edge
    of slope 1e-3); farther off, both merge the crossing points near the
    vertex, each keeping its own.  Both cases agree within 10
    ``TOL_MERGE``.  The intersection of the pieces, whose faces on the
    plane are the section, agrees with it within 1e-9 in every case."""

    @staticmethod
    def cases(rng, p):
        for h, shift in clip_cases(rng, p, SHIFTS[:4]):
            yield geo.Hyperplane(h.normal, h.offset), shift

    @staticmethod
    def agree(out, ref, shift):
        if shift:
            return near_points(out, ref, 10 * geo.TOL_MERGE)
        return same_points(out, ref)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_full_dimensional_section_matches_references(self, n):
        rng = np.random.default_rng(40 + n)
        for _ in range(4):
            p = random_hull(rng, n)
            for plane, shift in self.cases(rng, p):
                out = geo.section(p, plane)
                ref = geo.hrep_to_vrep(p.halfspaces + [plane.lower(), plane.upper()])
                assert self.agree(out.vertices, ref, shift) and out.halfspaces == []
                lo, hi = geo.split_by_hyperplane(p, plane)
                if lo.is_empty or hi.is_empty:
                    continue  # a plane touching p at a vertex
                assert out.dim == n - 1
                assert same_points(out.vertices, geo.intersect(lo, hi).vertices)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_facet_section_matches_enumeration(self, n):
        rng = np.random.default_rng(50 + n)
        for _ in range(2 if n < 4 else 1):
            p = random_hull(rng, n)
            for plane, shift in self.cases(rng, p):
                for face in p.facets():
                    vals = face.vertices @ plane.normal - plane.offset
                    if geo.TOL_GEOM < np.abs(vals).min() <= geo.TOL_INCIDENCE \
                            and (vals.min() > 0 or vals.max() < 0):
                        # a face missing the plane by under TOL_INCIDENCE:
                        # the section is empty, the enumeration keeps its vertex
                        continue
                    out = geo.section(face, plane)
                    ref = geo.hrep_to_vrep(p.halfspaces + [face.supporting.flipped(),
                                                           plane.lower(), plane.upper()])
                    assert self.agree(out.vertices, ref, shift)
                    assert out.dim == geo.affine_dimension(ref)

    def test_intersect_of_pieces_cut_near_a_vertex(self):
        # the 4-D hull of test_full_dimensional_section_matches_references
        # cut 3 TOL_GEOM off a vertex: the pieces' planes meet at tiny
        # angles, where an n-subset enumeration of their halfspaces admits
        # points far outside (30 points, one 0.26 from every vertex)
        rng = np.random.default_rng(44)
        p = random_hull(rng, 4)
        plane, shift = list(itertools.islice(self.cases(rng, p), 5))[-1]
        assert shift == pytest.approx(3 * geo.TOL_GEOM)
        ref = geo.section(p, plane)
        out = geo.intersect(*geo.split_by_hyperplane(p, plane))
        assert len(ref.vertices) == 8 and same_points(out.vertices, ref.vertices)

    def test_plane_missing_p_gives_empty(self):
        square = geo.Polytope.box([0, 0], [1, 1])
        assert geo.section(square, geo.Hyperplane(np.array([1.0, 1.0]), 3.0)).is_empty

    def test_section_solves_no_lp(self, lp_calls):
        p = random_hull(np.random.default_rng(31), 4)
        normal = np.array([1.0, 0.5, 0.0, -0.5])
        assert geo.section(p, geo.Hyperplane(normal, float(normal @ p.centroid()))).dim == 3
        assert len(lp_calls) == 0


class TestVolume:
    def test_unit_square(self):
        assert geo.convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)]).volume() == pytest.approx(1.0)

    def test_simplex_half(self):
        assert geo.convex_hull([(0, 0), (1, 0), (0, 1)]).volume() == pytest.approx(0.5)

    def test_hexagon_mc(self):
        ang = np.linspace(0, 2 * np.pi, 7)[:-1] + 0.1
        p = geo.convex_hull(np.stack([np.cos(ang), np.sin(ang)], axis=1))
        rng = np.random.default_rng(4)
        assert mc_volume(p, rng, 1_000_000) == pytest.approx(p.volume(), abs=1e-2)

    def test_cube(self):
        assert geo.Polytope.box([0, 0, 0], [1, 1, 1]).volume() == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_simplex_volume_needs_n_plus_1_points(self, n):
        corner = np.vstack([np.zeros(n), 2.0 * np.eye(n)])
        assert geo.simplex_volume(corner) == pytest.approx(2.0 ** n / math.factorial(n))
        for k in (n, n + 2):
            with pytest.raises(GeometryError):
                geo.simplex_volume(np.vstack([corner, np.ones((1, n))])[:k])

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_stacked_volumes_are_the_simplices_own(self, n):
        """A stack of simplices gives each one's volume bit for bit, and a
        polytope's volume is their left-to-right sum over its fan, as a
        sum of one determinant per simplex gives it."""
        rng = np.random.default_rng(40 + n)
        for _ in range(10):
            p = random_hull(rng, n)
            stack = p.vertices[geo.fan(p, p.vertices[0])]
            one_by_one = [geo.simplex_volume(s) for s in stack]
            assert geo.simplex_volume(stack).tolist() == one_by_one
            assert p.volume() == sum(one_by_one)
        with pytest.raises(GeometryError):
            geo.simplex_volume(np.zeros((3, n + 2, n)))


class TestFaces:
    def test_a_face_is_a_lower_dimensional_polytope(self):
        cube = geo.Polytope.box([0, 0, 0], [1, 1, 1])
        facet = cube.facets()[0]
        assert isinstance(facet, geo.Polytope) and facet.dim == 2 and facet.halfspaces == []
        assert np.array_equal(facet.supporting.normal, cube.rows[0][0])
        assert facet.supporting.offset == cube.rows[1][0]
        half = geo.clip_to_halfspace(facet, geo.HalfSpace(np.array([0.0, 1.0, 0.0]), 0.5))
        assert half.dim == 2 and len(half.vertices) == 4
        assert geo.carrying_facet(cube, half) == 0

    def test_halfspaces_are_views_of_the_rows(self):
        """The facet table ``rows`` is the polytope's storage, C-contiguous,
        and ``halfspaces`` is derived from it: each halfspace holds its row
        bit for bit, as a view, not renormalized."""
        for p in (random_hull(np.random.default_rng(9), 3), geo.Polytope.box([0] * 4, [1] * 4)):
            normals, offsets = p.rows
            assert normals.flags.c_contiguous and offsets.flags.c_contiguous
            assert len(p.halfspaces) == len(offsets) == len(normals)
            for h, a, b in zip(p.halfspaces, normals, offsets):
                assert np.shares_memory(h.normal, normals)
                assert h.normal.tobytes() == a.tobytes() and h.offset == b

    def test_shared_edge(self):
        a = geo.convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])
        b = geo.convex_hull([(1, 0), (2, 0), (2, 1), (1, 1)])
        f = geo.intersect(a, b)
        assert f.dim == 1
        assert np.allclose(f.vertices, [[1, 0], [1, 1]])

    def test_corner_touch(self):
        a = geo.convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])
        b = geo.convex_hull([(1, 1), (2, 1), (2, 2), (1, 2)])
        f = geo.intersect(a, b)
        assert f.dim == 0

    def test_fan_shared_diagonal(self):
        square = geo.convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])
        tris = square.vertices[geo.fan(square, square.vertices[0])]
        assert len(tris) == 2
        s1 = geo.convex_hull(tris[0])
        s2 = geo.convex_hull(tris[1])
        f = geo.intersect(s1, s2)
        assert f.dim == 1

    def test_faces_of_cube(self):
        cube = geo.Polytope.box([0, 0, 0], [1, 1, 1])
        assert len(cube.facets()) == 6
        assert len(cube.edges) == 12
        assert len(cube.vertices) == 8
        assert len(geo.Polytope.box([0] * 4, [1] * 4).edges) == 32


class TestTriangulationValidity:
    def check_valid(self, p, simplices):
        total = sum(geo.simplex_volume(s) for s in simplices)
        assert total == pytest.approx(p.volume(), rel=1e-8, abs=1e-10)
        polys = [geo.convex_hull(s) for s in simplices]
        for a, b in itertools.combinations(polys, 2):
            f = geo.intersect(a, b)
            if f.is_empty:
                continue
            # intersection vertices must be vertices of both simplices
            for v in f.vertices:
                assert any(np.allclose(v, w, atol=1e-7) for w in a.vertices)
                assert any(np.allclose(v, w, atol=1e-7) for w in b.vertices)

    def test_random_fans_are_valid(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = random_polygon(rng)
            self.check_valid(p, p.vertices[geo.fan(p, p.vertices[0])])
        for _ in range(10):
            p = random_polytope_3d(rng)
            self.check_valid(p, p.vertices[geo.fan(p, p.vertices[0])])

    def test_cube_fan_from_corner(self):
        cube = geo.Polytope.box([0, 0, 0], [1, 1, 1])
        tris = cube.vertices[geo.fan(cube, np.zeros(3))]
        assert len(tris) == 6
        self.check_valid(cube, tris)


class TestPairs:
    @pytest.mark.parametrize("k", range(9))
    def test_pairs_are_the_upper_triangle_in_order(self, k):
        assert np.array_equal(geo._pairs(k), np.transpose(np.triu_indices(k, 1)))
        assert geo._pairs(k).shape == (k * (k - 1) // 2, 2)


class TestFan:
    @pytest.mark.parametrize("n", [3, 4])
    def test_simplices_are_rows_of_the_vertices(self, n):
        rng = np.random.default_rng(60 + n)
        for _ in range(3):
            p = random_hull(rng, n)
            for i, anchor in enumerate(p.vertices):
                rows = geo.fan(p, anchor)
                assert rows.shape[1] == n + 1 and np.all(rows[:, 0] == i)
                assert np.all((0 <= rows) & (rows < len(p.vertices)))
                assert fan_volume(p.vertices[rows]) == pytest.approx(p.volume(), rel=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_equals_the_full_recursion(self, n):
        """The fan ends its recursion at the faces that are simplices, and
        its rows equal, row for row, those of coning every face down to
        its vertices (``helpers.reference_fan``), from every anchor: on
        random hulls, whose faces are simplices, and on the box and a box
        clipped across a corner, whose faces are not."""
        rng = np.random.default_rng(70 + n)
        box = geo.Polytope.box([0] * n, [1] * n)
        corner = geo.HalfSpace(np.ones(n), n - 0.5)
        polytopes = [random_hull(rng, n) for _ in range(4)] + [
            box, geo.clip_to_halfspace(box, corner)]
        for p in polytopes:
            for anchor in p.vertices:
                assert np.array_equal(geo.fan(p, anchor), reference_fan(p, anchor))

    def test_anchor_off_the_vertices_raises(self):
        cube = geo.Polytope.box([0, 0, 0], [1, 1, 1])
        with pytest.raises(GeometryError):
            geo.fan(cube, np.array([0.5, 0.0, 0.0]))

    @pytest.mark.parametrize("seed, n, case, hull_volume", [
        (33, 3, 6, 0.068046), (6, 4, 7, 0.018028)], ids=["3d", "4d"])
    def test_near_vertex_clip_fans_to_the_hull_volume(self, seed, n, case, hull_volume):
        """Clips TOL_MERGE/2 off a vertex whose vertices lie off their own
        facet planes by about TOL_INCIDENCE.  Read off the planes at
        TOL_INCIDENCE, the incidence gave the fan a cone of more than n+1
        rows (5 in 3-D, 6 in 4-D), and ``fan`` raised (``volume`` once
        read 0.06592 and 0.00836).  With the rows the clip carries, the fan
        from every vertex sums to scipy's hull volume."""
        rng = np.random.default_rng(seed)
        p = random_hull(rng, n)
        h, shift = list(clip_cases(rng, p))[case]
        out = geo.clip_to_halfspace(p, h)
        assert abs(shift) == 0.5 * geo.TOL_MERGE and out.is_full_dim
        ref = ConvexHull(out.vertices).volume
        assert ref == pytest.approx(hull_volume, abs=1e-6)
        for anchor in out.vertices:
            assert fan_volume(out.vertices[geo.fan(out, anchor)]) == pytest.approx(ref, rel=1e-6)

    @pytest.mark.parametrize("n", [3, 4])
    def test_near_vertex_clips_by_incidence_fan_to_the_hull_volume(self, n, hull_calls):
        """Every clip off a vertex by TOL_GEOM or more whose points did not
        merge (the clip hulls nothing) fans, from every vertex, to scipy's
        hull volume, on 40 seeded hulls.  Read off the planes at
        TOL_INCIDENCE, the incidence gave 5 of these clips a fan that
        raised or summed to another volume from some vertex."""
        checked = 0
        for s in range(40):
            rng = np.random.default_rng(1000 + s)
            p = random_hull(rng, n)
            for h, shift in clip_cases(rng, p):
                hull_calls.clear()
                out = geo.clip_to_halfspace(p, h)
                if hull_calls or not out.is_full_dim or abs(shift) < geo.TOL_GEOM:
                    continue
                checked += 1
                ref = ConvexHull(out.vertices).volume
                for anchor in out.vertices:
                    assert fan_volume(out.vertices[geo.fan(out, anchor)]) == \
                        pytest.approx(ref, rel=1e-6)
        assert checked >= 40


def pyramid_bases(rng, n, count):
    """(apex, base) pairs: the sections of ``count`` random hulls by
    planes through an interior point, and the clips of their facets by
    those planes' halfspaces that keep an (n-1)-dimensional piece, each
    with the vertex of the hull farthest from the base's plane as apex."""
    for _ in range(count):
        p = random_hull(rng, n)
        h, _ = next(clip_cases(rng, p))
        bases = [geo.section(p, geo.Hyperplane(h.normal, h.offset))]
        bases += [geo.clip_to_halfspace(face, h) for face in p.facets()]
        for base in bases:
            if base.dim != n - 1:
                continue
            origin, basis = geo.affine_basis(base.vertices)
            normal = null_space(basis.T)[:, 0]
            yield p.vertices[np.abs((p.vertices - origin) @ normal).argmax()], base


class TestPyramid:
    """``pyramid`` and ``pyramid_rows`` cone an apex over an
    (n-1)-dimensional base from the base's own table, against the volume
    of the pyramid and the rows of its hull."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_simplex_volumes_sum_to_the_pyramid(self, n):
        """|base| height / n, the base's volume by scipy in its own plane."""
        checked = 0
        for apex, base in pyramid_bases(np.random.default_rng(110 + n), n, 6):
            V = geo.pyramid(apex, base)
            assert V.shape[1:] == (n + 1, n) and np.all(V[:, 0] == apex)
            origin, basis = geo.affine_basis(base.vertices)
            area = ConvexHull((base.vertices - origin) @ basis).volume
            height = abs((apex - origin) @ null_space(basis.T)[:, 0])
            assert fan_volume(V) == pytest.approx(area * height / n, rel=1e-9)
            checked += 1
        assert checked >= 20

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rows_are_the_hulls_rows_through_the_apex(self, n):
        """In the hull's order, within 1e-12."""
        for apex, base in pyramid_bases(np.random.default_rng(120 + n), n, 4):
            normals, offsets = geo.pyramid_rows(apex, base)
            hull = geo.convex_hull(np.vstack([apex, base.vertices]))
            top = np.flatnonzero((hull.vertices == apex).all(axis=1))
            through = hull.incidence[top[0]]
            assert normals.shape == (through.sum(), n) and through.sum() >= n
            assert np.allclose(normals, hull.rows[0][through], rtol=0, atol=1e-12)
            assert np.allclose(offsets, hull.rows[1][through], rtol=0, atol=1e-12)


class TestSimplex:
    def test_normal_conventions(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            V = rng.normal(size=(3, 2))
            if geo.affine_dimension(V) < 2:
                continue
            s = geo.Simplex(V)
            for j in range(3):
                for i in range(3):
                    val = s.normals[j] @ s.vertices[i] - s.offsets[j]
                    if i == j:
                        assert val < -1e-12
                    else:
                        assert abs(val) <= 1e-9
            assert abs(np.linalg.norm(s.normals, axis=1) - 1).max() < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_table_matches_the_per_facet_reference(self, n):
        """The normalized barycentric inverse gives the normals and offsets
        of the per-facet SVD construction within 1e-12 relative, at any
        scale and for slivers; each vertex lies on its n facets and strictly
        inside the one it omits."""
        rng = np.random.default_rng(70 + n)
        for V in random_simplices(rng, n):
            table = geo.Simplex(V).table
            ref = reference_simplex_table(V)
            assert np.array_equal(table[:, :n], V)
            assert np.abs(table[:, n:-1] - ref[:, n:-1]).max() <= 1e-12
            assert np.abs(table[:, -1] - ref[:, -1]).max() <= 1e-12 * np.abs(V).max()
            vals = table[:, n:-1] @ V.T - table[:, -1:]
            assert np.abs(vals[~np.eye(n + 1, dtype=bool)]).max() <= 1e-12 * np.abs(V).max()
            assert np.all(np.diag(vals) < 0.0)

    def test_affinely_dependent_vertices_raise(self):
        with pytest.raises(GeometryError):
            geo.Simplex([(0, 0), (1, 1), (2, 2)])

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_stacked_tables_equal_each_simplex_bit_for_bit(self, n):
        """One ``simplex_tables`` call over simplices of every scale and
        thinness gives each member's ``Simplex`` table, bit for bit, and
        the per-facet reference within 1e-12 relative."""
        rng = np.random.default_rng(90 + n)
        V = np.stack(list(random_simplices(rng, n)))
        tables = geo.simplex_tables(V)
        assert tables.shape == (len(V), n + 1, 2 * n + 1)
        for vertices, table in zip(V, tables):
            assert np.array_equal(table, geo.Simplex(vertices).table)
            ref = reference_simplex_table(vertices)
            assert np.abs(table[:, n:-1] - ref[:, n:-1]).max() <= 1e-12
            assert np.abs(table[:, -1] - ref[:, -1]).max() <= 1e-12 * np.abs(vertices).max()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_one_degenerate_member_fails_the_stack(self, n):
        rng = np.random.default_rng(95 + n)
        V = rng.normal(size=(6, n + 1, n))
        geo.simplex_tables(V)
        V[3, -1] = V[3, :-1].mean(axis=0)
        with pytest.raises(GeometryError, match="affinely dependent"):
            geo.simplex_tables(V)
        with pytest.raises(GeometryError, match="needs"):
            geo.simplex_tables(V[:, 1:])

    def test_contains(self):
        s = geo.Simplex([(0, 0), (1, 0), (0, 1)])
        assert s.contains((0.2, 0.2))
        assert not s.contains((0.8, 0.8))


class TestUncoveredVolume:
    def test_exact_cover(self):
        p = geo.convex_hull([(0, 0), (2, 0), (2, 1), (0, 1)])
        plane = geo.Hyperplane(np.array([1.0, 0.0]), 1.0)
        lo, hi = geo.split_by_hyperplane(p, plane)
        assert uncovered_volume(p, [lo, hi], [plane]) == pytest.approx(0.0, abs=1e-12)

    def test_gap_detected(self):
        p = geo.convex_hull([(0, 0), (2, 0), (2, 1), (0, 1)])
        plane = geo.Hyperplane(np.array([1.0, 0.0]), 1.0)
        lo, _ = geo.split_by_hyperplane(p, plane)
        gap = uncovered_volume(p, [lo], [plane])
        assert gap == pytest.approx(1.0, abs=1e-9)
