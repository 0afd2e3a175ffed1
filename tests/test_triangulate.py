import itertools

import numpy as np
import pytest
from scipy.linalg import null_space

from reachctl import geometry as geo
from reachctl import reach, triangulate as tri
from reachctl.errors import (CoverIncomplete, GeometryError, NoQualifyingVertex,
                             VStarInFbar)
from reachctl.system import compute_geometry

from helpers import (box_fixture, cube_fixture, diamond_fixture, direct_cut_fixture,
                     double_integrator, face_from, facet_face, ill1_fixture,
                     interface_cut_fixture,
                     ill2_fixture, ill3_fixture, lp_target_exits,
                     o_cross_fixture, pinned_corner_fixture,
                     plane_cones_off_facet, plane_target_exits,
                     reference_facet_adjacency, reference_wrt_F, sweep_problem, top_edge_fixture,
                     uncovered_volume, wedge_fixture)


def simplices_valid(p, simplices):
    total = sum(s.volume() for s in simplices)
    assert total == pytest.approx(p.volume(), rel=1e-8, abs=1e-10)


def random_triangulations(rng, n, count):
    """Anchored fans of random hulls from a random vertex, and the
    triangulations w.r.t. a random target inside a random facet."""
    for _ in range(count):
        p = geo.convex_hull(rng.normal(size=(n + 4, n)))
        anchor = p.vertices[rng.integers(len(p.vertices))]
        k = rng.integers(len(p.halfspaces))
        yield tri.basic_triangulation(p, anchor, k)
        on = p.incidence[:, k]
        weights = rng.dirichlet(np.ones(on.sum()), size=n + 1)
        yield tri.triangulation_wrt_F(p, face_from(weights @ p.vertices[on]),
                                      p.vertices[~on][rng.integers((~on).sum())])


class TestTriangulationTables:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_simplices_in_rounded_key_order(self, n):
        """The simplices come sorted by their rounded vertices in
        lexicographic order, compared as tuples, ties in fan order."""
        for t in random_triangulations(np.random.default_rng(60 + n), n, 8):
            keys = [tuple(map(tuple, np.round(geo.lex_sorted(s.vertices), geo.KEY_DECIMALS)))
                    for s in t.simplices]
            assert keys == sorted(keys)
            assert np.shares_memory(t.simplices[-1].table, t.tables)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_adjacency_matches_the_pairwise_reference(self, n):
        """Facet-key matching gives the pairwise test's tuples in its
        order, in key order and with the simplices shuffled."""
        rng = np.random.default_rng(65 + n)
        pairs = 0
        for t in random_triangulations(rng, n, 8):
            assert t.adjacency == reference_facet_adjacency(t.simplices)
            shuffled = tri.Triangulation(t.tables[rng.permutation(len(t.tables))], t.vstar, {})
            assert shuffled.adjacency == reference_facet_adjacency(shuffled.simplices)
            pairs += len(t.adjacency)
        assert pairs >= 16

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_levels_equal_each_facets_product(self, n):
        """The stacked levels are, bit for bit, the products over each
        simplex's rows and over each facet's rows, which the greedy
        tie-break once took one facet at a time."""
        rng = np.random.default_rng(75 + n)
        for t in random_triangulations(rng, n, 4):
            direction = rng.normal(size=n)
            levels = t.levels(direction)
            for s, row in zip(t.simplices, levels):
                assert np.array_equal(s.vertices @ direction, row)
                for k in range(n + 1):
                    assert np.array_equal(np.delete(s.vertices, k, axis=0) @ direction,
                                          np.delete(row, k))


class TestSelectVstar:
    def test_wedge_cut_anchor_unique(self):
        sys, p, f = wedge_fixture()
        geom = compute_geometry(sys, p)
        ra = reach.analyze(geom, p, f)
        cut = reach.epsilon_cut(geom, p, f, 0.1, analysis=ra)
        vstar = tri.select_vstar(cut.reach_eps, f, geom)
        assert np.allclose(vstar, [0.1, 0.1], atol=1e-12)
        # the other top-face vertex sits on the equilibrium line and off
        # the target, so the qualifier is unique
        quals = tri.qualifying_vertices(cut.reach_eps, f, geom)
        assert len(quals) == 1 and np.array_equal(cut.reach_eps.vertices[quals[0]], vstar)

    def test_box_lex_tiebreak(self):
        sys = double_integrator()
        p = geo.convex_hull([(0, 0.5), (2, 0.5), (2, 1.5), (0, 1.5)])
        f = facet_face(p, [1, 0])
        geom = compute_geometry(sys, p)
        vstar = tri.select_vstar(p, f, geom)
        assert np.allclose(vstar, [0, 0.5])

    def test_pinned_top_face_rejected(self):
        sys, p, f = wedge_fixture()
        geom = compute_geometry(sys, p)
        with pytest.raises(NoQualifyingVertex):
            tri.select_vstar(p, f, geom)


class TestBasicTriangulation:
    def test_square_two_triangles(self):
        p = geo.convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])
        t = tri.basic_triangulation(p, np.array([0.0, 0.0]), 0)
        assert len(t.simplices) == 2
        simplices_valid(p, t.simplices)

    def test_all_contain_anchor(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            pts = rng.normal(size=(6, 2))
            if geo.affine_dimension(pts) < 2:
                continue
            p = geo.convex_hull(pts)
            anchor = p.vertices[0]
            t = tri.basic_triangulation(p, anchor, 0)
            simplices_valid(p, t.simplices)
            for s in t.simplices:
                assert any(np.allclose(v, anchor, atol=1e-9) for v in s.vertices)

    def test_pentagon_three_simplices(self):
        sys, p, f = wedge_fixture()
        geom = compute_geometry(sys, p)
        cut = reach.epsilon_cut(geom, p, f, 0.1)
        vstar = tri.select_vstar(cut.reach_eps, f, geom)
        t = tri.basic_triangulation(cut.reach_eps, vstar, geo.whole_facet(cut.reach_eps, f))
        assert len(t.simplices) == 3
        simplices_valid(cut.reach_eps, t.simplices)

    def test_cube_from_corner(self):
        cube = geo.Polytope.box([0, 0, 0], [1, 1, 1])
        t = tri.basic_triangulation(cube, np.zeros(3), 0)
        assert len(t.simplices) == 6
        simplices_valid(cube, t.simplices)

    @pytest.mark.parametrize("n", [3, 4])
    def test_simplices_are_rows_of_the_vertices(self, n):
        rng = np.random.default_rng(70 + n)
        for _ in range(3):
            p = geo.convex_hull(rng.normal(size=(n + 4, n)))
            rows = {v.tobytes() for v in p.vertices}
            for anchor in p.vertices:
                t = tri.basic_triangulation(p, anchor, 0)
                assert all(v.tobytes() in rows for s in t.simplices for v in s.vertices)
                simplices_valid(p, t.simplices)

    def test_anchor_off_the_vertices_raises(self):
        cube = geo.Polytope.box([0, 0, 0], [1, 1, 1])
        with pytest.raises(GeometryError):
            tri.basic_triangulation(cube, np.array([0.5, 0.5, 1.0]), 0)


def _marked_leaf(fixture, eps):
    """The triangulation ``synth_polytope`` builds for a whole-facet target,
    after the margin cut when the target is not reachable."""
    sys, p, f = fixture()
    geom = compute_geometry(sys, p)
    ra = reach.analyze(geom, p, f)
    if not ra.reachable:
        p = reach.epsilon_cut(geom, p, f, eps, analysis=ra).reach_eps
        geom = compute_geometry(sys, p)
    k = geo.whole_facet(p, f)
    assert k is not None
    return tri.basic_triangulation(p, tri.select_vstar(p, f, geom), k), f, p.halfspaces[k]


class TestMarkTarget:
    """The target exits that ``basic_triangulation`` reads off column k of
    the incidence, against the plane rule (``plane_target_exits``) and the
    LP rule."""

    @pytest.mark.parametrize("fixture,eps", [(box_fixture, None), (wedge_fixture, 0.1),
                                             (pinned_corner_fixture, None),
                                             (cube_fixture, None), (top_edge_fixture, None)])
    def test_plane_rule_matches_lp_rule(self, fixture, eps):
        t, f, h = _marked_leaf(fixture, eps)
        assert t.target_exits
        assert t.target_exits == lp_target_exits(t, f) == plane_target_exits(t, h)

    def test_anchor_on_target_exits_elsewhere(self):
        t, f, h = _marked_leaf(top_edge_fixture, None)
        assert geo.point_in_hull(t.vstar, f.vertices, 1e-9)
        assert list(t.target_exits) == [1] and t.target_exits == plane_target_exits(t, h)
        # the exit omits the one vertex off the target's line, not the anchor
        j = t.target_exits[1]
        off = [abs(f.supporting.value(v)) > 1e-9 for v in t.simplices[1].vertices]
        assert j != 0 and off == [i == j for i in range(3)]


def simplex_keys(V):
    """The sorted keys of a stack of simplices: each one's vertices, rounded
    and sorted lexicographically."""
    return sorted(tuple(map(tuple, np.round(geo.lex_sorted(s), geo.KEY_DECIMALS))) for s in V)


class TestExitsByIncidence:
    """The exits and the cones that the triangulations read off the
    incidence, column k of the rows of the fan, against the plane rules
    at TOL_INCIDENCE (``plane_target_exits``, ``plane_cones_off_facet``)."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_basic_exits_match_the_plane_rule(self, n):
        rng = np.random.default_rng(80 + n)
        marked = 0
        for _ in range(3):
            p = geo.convex_hull(rng.normal(size=(n + 4, n)))
            for anchor in p.vertices:
                for k, h in enumerate(p.halfspaces):
                    t = tri.basic_triangulation(p, anchor, k)
                    assert t.target_exits == plane_target_exits(t, h)
                    marked += len(t.target_exits)
        assert marked

    @staticmethod
    def cones_off(t, h):
        """The simplices of ``t`` whose base does not lie on h's plane."""
        off = [np.abs(s.vertices[1:] @ h.normal - h.offset).max() > geo.TOL_INCIDENCE
               for s in t.simplices]
        return t.tables[off, :, :t.tables.shape[1] - 1]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_wrt_F_cones_match_the_plane_rule(self, n):
        """Off the carrying facet, a triangulation w.r.t. a target inside
        it keeps exactly the fan's cones that the plane rule keeps."""
        rng = np.random.default_rng(85 + n)
        for _ in range(6):
            p = geo.convex_hull(rng.normal(size=(n + 4, n)))
            k = rng.integers(len(p.halfspaces))
            h, on = p.halfspaces[k], p.incidence[:, k]
            f = face_from(rng.dirichlet(np.ones(on.sum()), size=n + 1) @ p.vertices[on])
            vstar = p.vertices[~on][rng.integers((~on).sum())]
            t = tri.triangulation_wrt_F(p, f, vstar)
            assert simplex_keys(self.cones_off(t, h)) == \
                simplex_keys(plane_cones_off_facet(p, vstar, h))

    @pytest.mark.parametrize("fixture, anchor", [(ill1_fixture, (0.0, 1.0)),
                                                 (box_fixture, (0.0, 1.0))])
    def test_wrt_F_cones_on_the_fixtures(self, fixture, anchor):
        sys, p, f = fixture()
        h = p.halfspaces[geo.carrying_facet(p, f)]
        t = tri.triangulation_wrt_F(p, f, np.array(anchor))
        ref = plane_cones_off_facet(p, np.array(anchor), h)
        assert len(ref) and simplex_keys(self.cones_off(t, h)) == simplex_keys(ref)


class TestWholeFacet:
    def test_perturbed_facet_is_whole(self):
        p = geo.Polytope.box([0, 0, 0], [1, 1, 1])
        k = next(i for i, h in enumerate(p.halfspaces) if h.normal[0] > 0.9)
        verts = p.facets()[k].vertices
        jitter = np.random.default_rng(0).choice([-5e-8, 5e-8], size=verts.shape)
        assert geo.whole_facet(p, geo.Face(verts + jitter, None, 2)) == k

    def test_strict_sub_segment_is_not(self):
        sys, p, f = box_fixture()
        k = geo.whole_facet(p, f)
        assert np.array_equal(p.rows[0][k], f.supporting.normal)
        assert p.rows[1][k] == f.supporting.offset
        assert geo.whole_facet(p, face_from([(2, 0), (2, 0.5)])) is None
        assert geo.whole_facet(p, face_from([(2, 0.5), (2, 1)])) is None
        # no facet plane holds both ends
        assert geo.whole_facet(p, face_from([(1, 0), (2, 0.5)])) is None


class TestTriangulationWrtF:
    def test_ill1_refinement(self):
        sys, p, f = ill1_fixture()
        geom = compute_geometry(sys, p)
        quals = p.vertices[tri.qualifying_vertices(p, f, geom)]
        assert any(np.allclose(q, [0, 1]) for q in quals)
        t = tri.triangulation_wrt_F(p, f, np.array([0.0, 1.0]))
        assert len(t.simplices) == 3
        assert list(t.target_exits.values()) == [0]
        assert t.target_exits == lp_target_exits(t, f)
        simplices_valid(p, t.simplices)
        # every simplex base on the carrying facet is inside or outside
        for idx, s in enumerate(t.simplices):
            tagged = idx in t.target_exits
            c = np.delete(s.vertices, 0, axis=0).mean(axis=0)
            on_fbar = abs(c @ np.array([1, 1]) / np.sqrt(2) - 3 / np.sqrt(2)) < 1e-9
            if tagged:
                assert geo.point_in_hull(c, f.vertices, 1e-8)
            elif on_fbar:
                assert not geo.point_in_hull(c, f.vertices, 1e-8)

    def test_full_facet_reduces_to_basic(self):
        sys, p, f = box_fixture()
        t = tri.triangulation_wrt_F(p, f, np.array([0.0, 1.0]))
        b = tri.basic_triangulation(p, np.array([0.0, 1.0]), geo.whole_facet(p, f))
        assert len(t.simplices) == len(b.simplices)
        simplices_valid(p, t.simplices)

    def test_half_bottom_edge(self):
        p = geo.convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])
        f = face_from([(0, 0), (0.5, 0)])
        t = tri.triangulation_wrt_F(p, f, np.array([1.0, 1.0]))
        assert len(t.simplices) == 3
        assert list(t.target_exits.values()) == [0]
        s = t.simplices[next(iter(t.target_exits))]
        for v in np.delete(s.vertices, 0, axis=0):
            assert geo.point_in_hull(v, f.vertices, 1e-9)

    @pytest.mark.parametrize("target, count, exits", [
        ([(1, 0, 0), (1, 0.5, 0), (1, 0.5, 1), (1, 0, 1)], 8, 2),
        ([(1, 0.2, 0.2), (1, 0.7, 0.3), (1, 0.4, 0.8)], 12, 1),
    ], ids=["half_facet", "inner_triangle"])
    def test_unit_cube(self, target, count, exits):
        """In 3-D the anchor (0, 1, 1) fans over the three facets that miss
        it, over the pieces of the facet x = 1 outside the target, and over
        the target, whose cones are the exits."""
        cube = geo.Polytope.box([0, 0, 0], [1, 1, 1])
        f = face_from(target)
        t = tri.triangulation_wrt_F(cube, f, np.array([0.0, 1.0, 1.0]))
        assert len(t.simplices) == count
        assert len(t.target_exits) == exits
        assert t.target_exits == lp_target_exits(t, f)
        simplices_valid(cube, t.simplices)

    @pytest.mark.parametrize("n", [3, 4])
    def test_random_targets_inside_a_facet(self, n):
        """Random hulls, a random facet, a target hulled from random convex
        combinations of its vertices and an anchor off it: the simplices
        fill the hull, the anchor is row 0 of each, the exits are the LP
        rule's, and each base on the facet lies inside the target exactly
        when its simplex exits."""
        rng = np.random.default_rng(40 + n)
        for _ in range(20):
            p = geo.convex_hull(rng.normal(size=(n + 4, n)))
            k = rng.integers(len(p.halfspaces))
            h, on = p.halfspaces[k], p.incidence[:, k]
            weights = rng.dirichlet(np.ones(on.sum()), size=n + rng.integers(0, 3))
            f = face_from(weights @ p.vertices[on])
            assert f.dim == n - 1
            vstar = p.vertices[~on][rng.integers((~on).sum())]
            t = tri.triangulation_wrt_F(p, f, vstar)
            simplices_valid(p, t.simplices)
            assert all(np.array_equal(s.vertices[0], vstar) for s in t.simplices)
            assert t.target_exits == lp_target_exits(t, f)
            for idx, s in enumerate(t.simplices):
                base = s.vertices[1:]
                if np.abs(base @ h.normal - h.offset).max() <= 1e-9:
                    inside = geo.point_in_hull(base.mean(axis=0), f.vertices, 1e-8)
                    assert inside == (idx in t.target_exits)

    def test_anchor_on_fbar_rejected(self):
        sys, p, f = ill1_fixture()
        with pytest.raises(VStarInFbar):
            tri.triangulation_wrt_F(p, f, np.array([2.0, 1.0]))


def wrt_F_cases(rng, n, count):
    """(polytope, target, anchor) triples as ``random_triangulations``
    draws them for its triangulations w.r.t. a target inside a facet."""
    for _ in range(count):
        p = geo.convex_hull(rng.normal(size=(n + 4, n)))
        rng.integers(len(p.vertices))
        k = rng.integers(len(p.halfspaces))
        on = p.incidence[:, k]
        f = face_from(rng.dirichlet(np.ones(on.sum()), size=n + 1) @ p.vertices[on])
        yield p, f, p.vertices[~on][rng.integers((~on).sum())]


def same_triangulation(t, ref):
    """Simplex count, exits and adjacency equal, vertex rows within 1e-11."""
    n = t.tables.shape[1] - 1
    return (t.tables.shape == ref.tables.shape and t.target_exits == ref.target_exits
            and t.adjacency == ref.adjacency
            and np.allclose(t.tables[..., :n], ref.tables[..., :n], rtol=0, atol=1e-11))


class TestWrtFByIncidence:
    """``triangulation_wrt_F`` cuts facet k by the planes through the
    anchor and the target's facets, and cones with ``geometry.pyramid``,
    against the pyramid hulls it once took (``helpers.reference_wrt_F``)."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_the_hull_reference(self, n):
        for seed in range(60, 75):
            for p, f, vstar in wrt_F_cases(np.random.default_rng(seed), n, 8):
                assert same_triangulation(tri.triangulation_wrt_F(p, f, vstar),
                                          reference_wrt_F(p, f, vstar))

    @pytest.mark.parametrize("fixture, anchor", [
        (ill1_fixture, (0.0, 1.0)), (box_fixture, (0.0, 1.0)),
        (lambda: (None, geo.Polytope.box([0, 0], [1, 1]), face_from([(0, 0), (0.5, 0)])),
         (1.0, 1.0))], ids=["ill1", "box", "half_bottom_edge"])
    def test_matches_the_hull_reference_on_the_fixtures(self, fixture, anchor):
        _, p, f = fixture()
        t = tri.triangulation_wrt_F(p, f, np.array(anchor))
        assert t.target_exits and same_triangulation(t, reference_wrt_F(p, f, np.array(anchor)))

    def test_the_plane_order_decides_the_cells(self, monkeypatch):
        """In 4-D the order of the cuts decides the cells: on this case
        the facet order gives the reference's 34 simplices, and the
        planes in reverse order give 38."""
        p, f, vstar = next(wrt_F_cases(np.random.default_rng(60), 4, 1))
        t = tri.triangulation_wrt_F(p, f, vstar)
        assert len(t.simplices) == 34 and same_triangulation(t, reference_wrt_F(p, f, vstar))
        rows = geo.pyramid_rows
        monkeypatch.setattr(tri, "pyramid_rows",
                            lambda apex, base: tuple(x[::-1] for x in rows(apex, base)))
        assert len(tri.triangulation_wrt_F(p, f, vstar).simplices) == 38

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_no_hull(self, monkeypatch, n):
        cases = list(wrt_F_cases(np.random.default_rng(90 + n), n, 6))
        calls = []
        hull = geo.convex_hull

        def counting(points):
            calls.append(1)
            return hull(points)

        monkeypatch.setattr(geo, "convex_hull", counting)
        monkeypatch.setattr(tri, "convex_hull", counting)
        for p, f, vstar in cases:
            tri.triangulation_wrt_F(p, f, vstar)
        assert calls == []


def split_plane_candidates(p, a, b):
    """Every plane through a, b and n-2 vertices of p, and in 3-D through
    a, b and a + e for each coordinate direction e, each the null space
    of its points' differences from a."""
    n = p.n
    spans = [np.vstack([b - a] + [v - a for v in extra])
             for extra in itertools.combinations(p.vertices, n - 2)]
    if n == 3:
        spans += [np.vstack([b - a, e]) for e in np.eye(n)]
    for D in spans:
        N = null_space(D)
        if N.shape[1] == 1:
            yield geo.Hyperplane(N[:, 0], float(N[:, 0] @ a))


def smaller_piece(p, plane):
    """Volume of the smaller piece of p split by the plane, None unless
    both pieces are full-dimensional."""
    lo, hi = geo.split_by_hyperplane(p, plane)
    if lo.is_empty or hi.is_empty or not (lo.is_full_dim and hi.is_full_dim):
        return None
    return min(lo.volume(), hi.volume())


class TestSplitPlaneThrough:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_best_plane_through_the_segment(self, n):
        rng = np.random.default_rng(60 + n)
        checked = 0
        while checked < 4:
            p = geo.convex_hull(rng.normal(size=(n + 4, n)))
            i, j = rng.choice(len(p.vertices), size=2, replace=False)
            a, b = p.vertices[i], p.vertices[j]
            scores = [s for s in (smaller_piece(p, c) for c in split_plane_candidates(p, a, b))
                      if s is not None]
            if not scores:
                with pytest.raises(NoQualifyingVertex):
                    tri._split_plane_through(p, a, b)
                continue
            plane = tri._split_plane_through(p, a, b)
            assert abs(plane.value(a)) <= 1e-9 and abs(plane.value(b)) <= 1e-9
            score = smaller_piece(p, plane)
            assert score is not None
            assert score >= max(scores) - 1e-9 * p.volume()
            checked += 1

    def test_line_through_the_segment_in_2d(self):
        p = geo.convex_hull([(0, 0), (2, 0), (3, 1), (1.5, 2), (0, 1)])
        plane = tri._split_plane_through(p, np.array([0.0, 0.0]), np.array([3.0, 1.0]))
        assert np.allclose(np.abs(plane.normal), np.array([1.0, 3.0]) / np.sqrt(10.0))
        assert plane.offset == pytest.approx(0.0, abs=1e-12)

    def test_tetrahedron_splits_along_a_coordinate_direction(self):
        sys, p, f = ill3_fixture()
        geom = compute_geometry(sys, p)
        levels = f.vertices @ geom.beta
        a, b = f.vertices[levels.argmin()], f.vertices[levels.argmax()]
        plane = tri._split_plane_through(p, a, b)
        assert min(abs(plane.value(a + e)) for e in np.eye(3)) <= 1e-9
        assert smaller_piece(p, plane) >= max(
            s for s in (smaller_piece(p, c) for c in split_plane_candidates(p, a, b))
            if s is not None) - 1e-12


class TestCoverWrtF:
    def test_full_facet_degenerate(self):
        sys, p, f = box_fixture()
        geom = compute_geometry(sys, p)
        cover = tri.cover_wrt_F(p, f, geom)
        assert len(cover.pieces) == 1
        assert cover.pieces[0].polytope is p

    def test_ill3_three_pieces(self):
        sys, p, f = ill3_fixture()
        geom = compute_geometry(sys, p)
        ra = reach.analyze(geom, p, f)
        assert ra.reachable
        cover = tri.cover_wrt_F(p, f, geom)
        assert len(cover.pieces) == 3
        roles = [cp.role for cp in cover.pieces]
        assert roles.count("target") == 1 and roles.count("feeder") == 2
        p1 = cover.pieces[0].polytope
        # the target is a facet of the lead piece
        hit = False
        for face in p1.facets():
            if all(geo.point_in_hull(v, face.vertices, 1e-7) for v in f.vertices) and \
               all(geo.point_in_hull(v, f.vertices, 1e-7) for v in face.vertices):
                hit = True
        assert hit
        # pieces cover the polytope
        gap = uncovered_volume(p, [cp.polytope for cp in cover.pieces], list(cover.cut_planes))
        assert gap <= 1e-8 * p.volume()

    def test_ill3_pieces_reachable(self):
        sys, p, f = ill3_fixture()
        geom = compute_geometry(sys, p)
        cover = tri.cover_wrt_F(p, f, geom)
        for cp in cover.pieces:
            g = compute_geometry(sys, cp.polytope)
            ra = reach.analyze(g, cp.polytope, cp.target)
            assert ra.reachable
        # interface endpoints: drift-low end matches the target's, top end
        # is the anchor vertex
        f23 = cover.pieces[1].target
        beta = geom.beta
        lv = f23.vertices @ beta
        assert lv.min() == pytest.approx(float(beta @ np.array([3, 0.5, 0.5])))
        assert lv.max() == pytest.approx(0.0)


class TestSplitFarCase:
    def test_ill2_split(self):
        sys, p, f = ill2_fixture()
        geom = compute_geometry(sys, p)
        cover = tri.split_far_case(p, f, geom)
        p1, p2 = cover.pieces
        assert (p1.role, p2.role) == ("target", "feeder")
        assert p1.target is f and len(cover.cut_planes) == 1
        # the target lives in the low piece
        for v in f.vertices:
            assert p1.polytope.contains(v, 1e-8)
        assert p2.target.dim == 1
        # both sub-problems are solvable
        for cp in cover.pieces:
            g = compute_geometry(sys, cp.polytope)
            assert reach.analyze(g, cp.polytope, cp.target).reachable
        # volumes add up
        assert p1.polytope.volume() + p2.polytope.volume() == pytest.approx(p.volume())

    def test_guard_passthrough(self):
        sys, p, _ = box_fixture()
        f = facet_face(p, [1, 0])
        geom = compute_geometry(sys, p)
        # the right edge holds the drift-low end; craft a target touching
        # the top face instead
        f_top = face_from([(0, 0), (0, 1)])
        cover = tri.split_far_case(p, f_top, geom)
        assert len(cover.pieces) == 1 and cover.cut_planes == ()
        assert cover.pieces[0].polytope is p and cover.pieces[0].role == "target"


class TestCoverWrtO:
    @pytest.mark.parametrize("fixture, message", [
        (direct_cut_fixture,
         "direct cut on side 1 failed: margin would cut into the target's top level"),
        (interface_cut_fixture,
         "interface cut on side 0 failed: margin exceeds the drift extent of the polytope"),
    ], ids=["direct", "interface"])
    def test_failed_cut_leaves_the_cover_incomplete(self, fixture, message):
        """A side's margin cut that raises ends the cover with an infinite
        gap and the cut's reason, at the default margin."""
        sys, p, f = fixture()
        with pytest.raises(CoverIncomplete) as ei:
            tri.cover_wrt_O(sys, p, f)
        assert str(ei.value) == message and ei.value.gap_volume == np.inf
    def test_pentagon_cover_exact(self):
        sys, p, f = o_cross_fixture()
        cover = tri.cover_wrt_O(sys, p, f, 0.1)
        assert len(cover.pieces) == 2
        roles = {cp.role for cp in cover.pieces}
        assert roles == {"target", "feeder"}
        gap = uncovered_volume(p, [cp.polytope for cp in cover.pieces], list(cover.cut_planes))
        assert gap <= 1e-8 * p.volume()

    def test_no_crossing_passthrough(self):
        sys, p, f = box_fixture()
        cover = tri.cover_wrt_O(sys, p, f, 0.1)
        assert len(cover.pieces) == 1
        assert cover.pieces[0].polytope is p

    def test_halving_flips_incomplete_to_success(self):
        sys, p, f = diamond_fixture()
        statuses = []
        for eps in (2e-3, 1e-3, 5e-4, 2.5e-4, 1.25e-4, 6.25e-5):
            try:
                tri.cover_wrt_O(sys, p, f, eps)
                statuses.append(True)
            except CoverIncomplete:
                statuses.append(False)
        assert statuses[0] is False
        assert statuses[-1] is True
        seen = False
        for ok in statuses:
            seen = seen or ok
            if seen:
                assert ok


class TestCoverGap:
    """``cover_wrt_O`` reads its gap off its pieces (``_cover_gap``): |p|
    less, per side of the equilibrium plane, |direct| + |feeder| - |their
    intersection|.  It equals the arrangement of every cut plane
    (``helpers.uncovered_volume``), the rule it replaced."""

    @staticmethod
    def gap_and_sides(monkeypatch, sys, p, f, eps):
        """The cover, the gap it read and its (direct, feeder) pieces per
        side, with the gap test off so that every cover comes back."""
        monkeypatch.setattr(tri, "TOL_VOLUME", np.inf)
        seen = []
        gap = tri._cover_gap

        def recording(volume, sides):
            seen.append((gap(volume, sides), sides))
            return seen[-1][0]

        monkeypatch.setattr(tri, "_cover_gap", recording)
        cover = tri.cover_wrt_O(sys, p, f, eps)
        assert len(seen) == 1
        return (cover, *seen[0])

    @pytest.mark.parametrize("fixture, eps", [(o_cross_fixture, 0.1), (diamond_fixture, 2e-3),
                                              (diamond_fixture, 6.25e-5), (diamond_fixture, None)])
    def test_gap_on_the_fixtures(self, monkeypatch, fixture, eps):
        sys, p, f = fixture()
        cover, gap, _ = self.gap_and_sides(monkeypatch, sys, p, f, eps)
        ref = uncovered_volume(p, [cp.polytope for cp in cover.pieces], list(cover.cut_planes))
        assert gap == pytest.approx(ref, rel=1e-9, abs=1e-12 * max(p.volume(), 1.0))

    @pytest.mark.parametrize("n, k, r", [(3, 6, 3), (3, 6, 19), (3, 8, 12), (4, 5, 11),
                                         (4, 6, 4), (4, 7, 7)])
    def test_gap_with_two_pieces_per_side(self, monkeypatch, n, k, r):
        """Hulls of the seeded sweep whose covers hold a direct piece and a
        feeder on each side, so both intersections are read.  Where the
        feeder's halfspaces hold the direct piece, the intersection is the
        direct piece itself, whose volume the gap does not take again."""
        sys, p, f = sweep_problem(n, k, r)
        cover, gap, sides = self.gap_and_sides(monkeypatch, sys, p, f, None)
        assert len(cover.pieces) == 4
        assert all(direct is not None and feeder is not None for direct, feeder in sides)
        ref = uncovered_volume(p, [cp.polytope for cp in cover.pieces], list(cover.cut_planes))
        assert ref > 0.0
        assert gap == pytest.approx(ref, rel=1e-9, abs=1e-12 * max(p.volume(), 1.0))
        whole, volume, fans = p.volume(), geo.Polytope.volume, []
        monkeypatch.setattr(geo.Polytope, "volume", lambda q: fans.append(q) or volume(q))
        assert tri._cover_gap(whole, sides) == gap
        assert len(fans) == 4 + sum(geo.intersect(a, b) is not a for a, b in sides)
