import gc
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linprog

from reachctl import geometry as geo
from reachctl import lp, reach, synth
from reachctl import triangulate as tri
from reachctl.errors import (AssumptionViolated, CoverIncomplete, CutConstructionFailed,
                             NotReachable, ReachctlError, SingularVertexMatrix, Stuck,
                             SynthesisFailed)
from reachctl.sim import sample_states
from reachctl.system import (AffineSystem, AssumptionReport, SystemGeometry,
                             compute_geometry, equilibrium_plane)

import output_digest
from helpers import (box4d_fixture, box_fixture, box_left_fixture, cube_fixture,
                     diamond_fixture, direct_cut_fixture, double_integrator, face_from,
                     facet_face, flow_margin, general_problem, hull_distance, ill1_fixture,
                     ill2_fixture, ill3_fixture, interface_cut_fixture, lp_target_exits,
                     o_cross_fixture, pinned_corner_fixture, random_simplices,
                     reference_midlevel_split, reference_no_equilibrium,
                     reference_synth_polytope, right_target_polygons, simplex_levels,
                     sweep_problem, synth_simplices, tet_cover_f_fixture, top_edge_fixture,
                     wedge_fixture)


def split_case_simplex():
    """Exit facet on the equilibrium line with the apex above its whole
    drift range."""
    s = geo.Simplex([(1.0, 0.0), (2.0, 0.0), (0.0, 1.0)])
    exit_facet = 2  # facet opposite the apex (0,1)
    return double_integrator(), s, exit_facet


def controls(sys, s, exit_facet):
    """The vertex controls of one simplex, a leaf of one, with its least
    vertex margin as the slack."""
    u, margins = synth.vertex_controls_lp(sys, s.table[None], [exit_facet])
    return synth.VertexControls(u[0], float(margins[0].min()))


def random_reachable_simplex(rng, n=2):
    """Random n-D hypersurface system and simplex with a reachable exit
    facet (checked by the exact verdict)."""
    while True:
        A = rng.normal(size=(n, n))
        a = rng.normal(size=n)
        B = rng.normal(size=(n, n - 1))
        sys = AffineSystem(A, a, B)
        if sys.input_rank() != n - 1 or sys.controllability_rank() != n:
            continue
        V = rng.normal(size=(n + 1, n)) * rng.uniform(0.5, 2.0)
        if geo.affine_dimension(V) < n:
            continue
        s = geo.Simplex(V)
        p = geo.convex_hull(s.vertices)
        try:
            geom = compute_geometry(sys, p)
        except Exception:
            continue
        for e in range(n + 1):
            f = s.facet(e)
            ra = reach.analyze(geom, p, geo.Face(f.vertices, None, n - 1))
            if ra.reachable:
                return sys, geom, s, e
        # no reachable exit facet for this draw; try again


def random_closed_loop(rng, n, singular):
    """A random system with n-1 inputs, simplex, gain and offset whose
    closed loop is stationary at a random point of the simplex's affine
    hull: inside it, or outside with one barycentric coordinate in
    [-1, -0.05], as often as not.  ``singular`` makes beta.A = 0 (beta the
    left normal of B), so A + B K is singular for every gain K and the
    stationary set is a line through that point; a quarter of those draws
    shift a along beta, which leaves no stationary point at all."""
    V = rng.normal(size=(n + 1, n))
    B = rng.normal(size=(n, n - 1))
    beta = np.linalg.svd(B.T)[2][-1]
    A = rng.normal(size=(n, n))
    if singular:
        A -= np.outer(beta, beta @ A)
    gain = rng.normal(size=(n - 1, n))
    offset = rng.normal(size=n - 1)
    lam = rng.dirichlet(np.ones(n + 1))
    if rng.random() < 0.5:
        k = rng.integers(n + 1)
        lam *= (1.0 + rng.uniform(0.05, 1.0)) / (1.0 - lam[k])
        lam[k] = 1.0 - (lam.sum() - lam[k])
    x0 = lam @ V
    a = -(A + B @ gain) @ x0 - B @ offset
    if singular and rng.random() < 0.25:
        a += beta
    return AffineSystem(A, a, B), geo.Simplex(V), gain, offset


class TestVertexControlsLP:
    def test_box_triangle_feasible(self):
        sys = double_integrator()
        s = geo.Simplex([(0.0, 0.0), (2.0, 0.0), (0.0, 1.0)])
        vc = controls(sys, s, 2)
        # the corner on the equilibrium line can only block the side facet
        # tangentially, so the certified margin is exactly zero
        assert vc.slack == pytest.approx(0.0, abs=1e-9)
        margin = synth.invariance_margin(sys, s, vc, 2)
        assert margin >= -1e-10

    def test_slack_hits_cap_off_equilibria(self):
        # away from the equilibrium line every blocked row is satisfiable
        # with margin, so the capped slack variable reaches its bound
        sys = double_integrator()
        s = geo.Simplex([(0.0, 1.0), (1.0, 1.0), (0.0, 2.0)])
        vc = controls(sys, s, 0)
        assert vc.slack == pytest.approx(1.0, abs=1e-8)

    def test_blocked_residuals(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            sys, geom, s, e = random_reachable_simplex(rng)
            vc = controls(sys, s, e)
            assert synth.invariance_margin(sys, s, vc, e) >= -1e-8

    def test_apex_on_the_equilibrium_plane_is_pushed_to_the_exit(self):
        """At the apex (0, 0) the blocking margin is 0 for every control
        u >= 0, and a max-margin LP alone may pick u = 0: a zero field, a
        closed-loop equilibrium at the vertex.  The exit push picks a
        control that leaves across the exit facet instead."""
        sys = double_integrator()
        s = geo.Simplex([(0.0, 1.0), (0.0, 0.0), (2.0, 0.0)])
        vc = controls(sys, s, 1)
        assert vc.slack == pytest.approx(0.0, abs=1e-9)
        field = sys.field(s.vertices[1], vc.u[1])
        assert s.normals[1] @ field > 0.1
        law, _ = synth.affine_laws(s.table, vc.u)
        assert synth.check_no_equilibrium(sys, s, law[:, :-1], law[:, -1])

    def test_infeasible_vertex_raises(self):
        # at (1, 1) the facet x1 = 1 is blocked, but the field's x1
        # component is x2 = 1 whatever the control
        sys = double_integrator()
        s = geo.Simplex([(0.0, 1.0), (1.0, 1.0), (1.0, 2.0)])
        _, margins = synth.vertex_controls_lp(sys, s.table[None], [2])
        assert np.flatnonzero(margins[0] < -lp.TOL_LP)[0] == 1
        geom = compute_geometry(sys, geo.convex_hull(s.vertices))
        with pytest.raises(SynthesisFailed) as ei:
            synth_simplices(sys, geom, [s], [2])
        assert ei.value.certificate == {"simplex": s.vertices.tolist(), "exit_facet": 2,
                                        "error": "invariance conditions infeasible at vertex 1"}

    def test_margin_matches_the_plain_max_margin_lp(self):
        """The push breaks ties only: each vertex's blocking margin is the
        optimum of the LP without it, max t s.t. G u + t <= h, t <= 1."""
        rng = np.random.default_rng(5)
        for _ in range(10):
            sys, geom, s, e = random_reachable_simplex(rng)
            vc = controls(sys, s, e)
            for i in range(s.n + 1):
                blocked = s.normals[[j for j in range(s.n + 1) if j not in (i, e)]]
                G = np.hstack([blocked @ sys.B, np.ones((len(blocked), 1))])
                h = -(blocked @ sys.drift(s.vertices[i]))
                res = linprog([0.0] * sys.m + [-1.0], A_ub=G, b_ub=h,
                              bounds=[(None, None)] * sys.m + [(None, 1.0)], method="highs")
                margin = min(-(blocked @ sys.field(s.vertices[i], vc.u[i])).min(), 1.0)
                assert margin == pytest.approx(-res.fun, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_controls_attain_the_highs_optimum(self, n):
        """Each vertex's t_b, then its t_e, read off its control, is the
        lexicographic optimum scipy's HiGHS finds for its LP in two
        stages: max t_b, then max t_e with t_b held at its optimum.  The
        returned slack holds on every blocked row within lp.TOL_LP.  The
        2-D draws add the apex on the equilibrium plane, where the caps do
        not bind."""
        rng = np.random.default_rng(60 + n)
        cases = [random_reachable_simplex(rng, n) for _ in range(10)]
        if n == 2:
            cases.append((double_integrator(), None,
                          geo.Simplex([(0.0, 1.0), (0.0, 0.0), (2.0, 0.0)]), 1))
        for sys, _, s, e in cases:
            vc = controls(sys, s, e)
            m, n_exit = sys.m, s.normals[e]
            margins = []
            for i in range(n + 1):
                blocked = s.normals[[j for j in range(n + 1) if j not in (i, e)]]
                drift = sys.drift(s.vertices[i])
                A_ub = np.vstack([np.column_stack([blocked @ sys.B, np.ones(len(blocked)),
                                                   np.zeros(len(blocked))]),
                                  np.append(-(n_exit @ sys.B), (0.0, 1.0))])
                b_ub = np.append(-(blocked @ drift), n_exit @ drift)
                bounds = [(None, None)] * m + [(None, synth._CAP)] * 2
                first = linprog(np.append(np.zeros(m), (-1.0, 0.0)), A_ub=A_ub, b_ub=b_ub,
                                bounds=bounds, method="highs")
                bounds[m] = (-first.fun, synth._CAP)
                second = linprog(np.append(np.zeros(m), (0.0, -1.0)), A_ub=A_ub, b_ub=b_ub,
                                 bounds=bounds, method="highs")
                field = sys.field(s.vertices[i], vc.u[i])
                t_b = min(-(blocked @ field).max(), synth._CAP)
                t_e = min(n_exit @ field, synth._CAP)
                assert t_b == pytest.approx(-first.fun, abs=1e-9)
                assert t_e == pytest.approx(-second.fun, abs=1e-9)
                assert (blocked @ field).max() <= -vc.slack + lp.TOL_LP
                margins.append(t_b)
            assert vc.slack == pytest.approx(min(margins), abs=1e-9)

    @pytest.mark.parametrize("fixture", [box_fixture, cube_fixture, box4d_fixture])
    def test_synthesis_solves_no_vertex_control_lp(self, fixture, monkeypatch):
        """The vertex controls enumerate their LPs' bases: synthesis of
        the box, the cube and the 4-D box never reaches the tableau from
        them, and solves each one's leaf in one call."""
        lps, inside, calls = [], [], []
        solve, vertex_controls = lp.solve, synth.vertex_controls_lp

        def counting_solve(*args):
            lps.append(len(inside))
            return solve(*args)

        def counting_controls(*args):
            calls.append(1)
            inside.append(1)
            out = vertex_controls(*args)
            inside.pop()
            return out

        monkeypatch.setattr(lp, "solve", counting_solve)
        monkeypatch.setattr(synth, "vertex_controls_lp", counting_controls)
        ctrl = synth.synth_polytope(*fixture())
        assert ctrl.pieces and not any(lps)
        assert len(calls) == 1

    @pytest.mark.parametrize("fixture", [box_fixture, wedge_fixture, pinned_corner_fixture,
                                         cube_fixture, box4d_fixture])
    def test_synthesis_solves_no_lp(self, fixture, monkeypatch):
        """The whole synthesis of each fixture, with its analyses, cuts
        and covers, solves no LP: condition (a) is settled on vertices in
        closed form, and the vertex controls enumerate bases."""
        lps = []
        solve = lp.solve

        def counting_solve(*args):
            lps.append(1)
            return solve(*args)

        monkeypatch.setattr(lp, "solve", counting_solve)
        assert synth.synth_polytope(*fixture()).pieces
        assert lps == []


class TestAffineInterpolation:
    def test_constant_controls(self):
        s = geo.Simplex([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        law, _ = synth.affine_laws(s.table, np.full((3, 1), 4.2))
        assert np.allclose(law[:, :-1], 0.0, atol=1e-12)
        assert law[0, -1] == pytest.approx(4.2)

    def test_recovers_fabricated_affine_law(self):
        rng = np.random.default_rng(0)
        s = geo.Simplex(rng.normal(size=(3, 2)))
        K = rng.normal(size=(1, 2))
        d = rng.normal(size=1)
        u = np.array([K @ v + d for v in s.vertices])
        law, _ = synth.affine_laws(s.table, u)
        assert np.allclose(law[:, :-1], K, atol=1e-10)
        assert np.allclose(law[:, -1], d, atol=1e-10)

    def test_random_interpolation_residual(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            V = rng.normal(size=(3, 2))
            if geo.affine_dimension(V) < 2:
                continue
            s = geo.Simplex(V)
            u = rng.normal(size=(3, 1))
            law, resid = synth.affine_laws(s.table, u)
            for v, ui in zip(s.vertices, u):
                assert np.linalg.norm(law[:, :-1] @ v + law[:, -1] - ui) < 1e-9
            assert resid < 1e-9

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_law_reproduces_vertex_controls_at_any_scale(self, n):
        """Each law meets its vertex controls within TOL_GEOM, and the
        laws of a stack of simplices are those of each one alone."""
        rng = np.random.default_rng(80 + n)
        simplices = [geo.Simplex(V) for V in random_simplices(rng, n)]
        U = rng.normal(size=(len(simplices), n + 1, n - 1))
        laws, resid = synth.affine_laws(np.stack([s.table for s in simplices]), U)
        for s, u, law, r in zip(simplices, U, laws, resid):
            one, one_resid = synth.affine_laws(s.table, u)
            assert np.abs(law - one).max() <= 1e-12 * max(1.0, np.abs(one).max())
            assert r == pytest.approx(one_resid, rel=1e-9, abs=1e-15)
            assert np.abs(s.vertices @ law[:, :-1].T + law[:, -1] - u).max() <= geo.TOL_GEOM

    def test_corrupt_table_raises(self):
        # a facet row that no longer passes through its vertices: the law
        # read from it misses the vertex controls
        table = geo.Simplex([(0.0, 1.0), (1.0, 1.0), (0.0, 2.0)]).table.copy()
        table[0, -1] += 0.1
        s = geo.Simplex.of_table(table)
        _, resid = synth.affine_laws(table, np.array([[1.0], [2.0], [3.0]]))
        assert resid > geo.TOL_GEOM
        sys = double_integrator()
        geom = compute_geometry(sys, geo.convex_hull(s.vertices))
        with pytest.raises(SingularVertexMatrix):
            synth_simplices(sys, geom, [s], [0])


def near_zero_closed_loop(rng, n, singular):
    """A random closed loop, built like ``random_closed_loop``, whose field
    at one vertex of the simplex is within 1e-9 (inf-norm) of 0."""
    V = rng.normal(size=(n + 1, n))
    B = rng.normal(size=(n, n - 1))
    beta = np.linalg.svd(B.T)[2][-1]
    A = rng.normal(size=(n, n))
    if singular:
        A -= np.outer(beta, beta @ A)
    gain = rng.normal(size=(n - 1, n))
    offset = rng.normal(size=n - 1)
    A_cl = A + B @ gain
    a = -A_cl @ V[rng.integers(n + 1)] - B @ offset - rng.uniform(-0.9e-9, 0.9e-9, size=n)
    return AffineSystem(A, a, B), geo.Simplex(V), gain, offset


@pytest.mark.parametrize("n", [2, 3, 4])
def test_closed_loop_of_a_stack_is_each_law_s(n):
    """``closed_loop`` of a law stack gives each law the loop it has
    alone, bit for bit: A + B gain and a + B offset."""
    rng = np.random.default_rng(90 + n)
    sys = AffineSystem(rng.normal(size=(n, n)), rng.normal(size=n), rng.normal(size=(n, n - 1)))
    laws = rng.normal(size=(6, n - 1, n + 1))
    A_cl, b_cl = synth.closed_loop(sys, laws)
    for law, A, b in zip(laws, A_cl, b_cl):
        one_A, one_b = synth.closed_loop(sys, law)
        assert np.array_equal(one_A, A) and np.array_equal(one_b, b)
        assert np.allclose(A, sys.A + sys.B @ law[:, :-1], rtol=0, atol=1e-12)
        assert np.allclose(b, sys.a + sys.B @ law[:, -1], rtol=0, atol=1e-12)


class TestNoEquilibrium:
    def test_spiral_outside(self):
        sys = AffineSystem([[0.0, 1.0], [-1.0, 0.0]], [1.0, 0.0], [[0.0], [1.0]])
        s = geo.Simplex([(5.0, 5.0), (6.0, 5.0), (5.0, 6.0)])
        assert synth.check_no_equilibrium(sys, s, np.array([[-1.0, 0.0]]), np.array([0.0]))

    def test_pinned_vertex(self):
        sys = double_integrator()
        s = geo.Simplex([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        # zero feedback leaves the whole equilibrium line, through (0,0)
        assert not synth.check_no_equilibrium(sys, s, np.zeros((1, 2)), np.zeros(1))

    def test_singular_closed_loop_line(self):
        sys = double_integrator()
        s = geo.Simplex([(-1.0, -0.5), (1.0, -0.5), (0.0, 0.5)])
        # gain cancelling the drift row keeps x2 constant: stationary set
        # is the x1 axis, which crosses the simplex
        gain = np.array([[0.0, 0.0]])
        assert not synth.check_no_equilibrium(sys, s, gain, np.zeros(1))
        assert not reference_no_equilibrium(sys, s, gain, np.zeros(1))
        assert flow_margin(s.vertices @ sys.A.T) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("singular", [False, True], ids=["regular", "singular"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_reference_and_flow_oracle(self, n, singular):
        """Outside a band of 1e-6 around the boundary, in the flow margin
        mu, the hull test agrees with the three-path reference, and both
        find an equilibrium exactly when mu is 0."""
        rng = np.random.default_rng(20 + n)
        verdicts = []
        for _ in range(60):
            sys, s, gain, offset = random_closed_loop(rng, n, singular)
            A_cl, b_cl = sys.A + sys.B @ gain, sys.a + sys.B @ offset
            mu = flow_margin(s.vertices @ A_cl.T + b_cl)
            band = 1e-6 * max(1.0, np.abs(A_cl).max())
            if 1e-12 < mu < band:
                continue
            got = synth.check_no_equilibrium(sys, s, gain, offset)
            assert got == reference_no_equilibrium(sys, s, gain, offset) == (mu >= band)
            verdicts.append(got)
        assert 10 <= sum(verdicts) <= len(verdicts) - 10

    @pytest.mark.parametrize("singular", [False, True], ids=["regular", "singular"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_screen_never_clears_an_equilibrium(self, n, singular):
        """The exclusion rule (``geometry.hull_rows``) on one stack of
        random closed loops' vertex fields, against 0, says "no
        equilibrium" only where the three-path reference finds none (the
        draws within the reference's tolerance band of mu = 0 aside) and
        ``point_in_hull`` puts 0 outside the fields' hull, and gives each
        member the verdict of its fields alone; it leaves open every loop
        with a vertex field within 1e-9 of 0, and settles at least a third
        of the others.  Singular draws have affinely dependent fields,
        which only the affine-hull rows can settle."""
        rng = np.random.default_rng(80 + n)
        draws = [random_closed_loop(rng, n, singular) for _ in range(60)]
        near = [near_zero_closed_loop(rng, n, singular) for _ in range(30)]
        fields = np.stack([s.vertices @ (sys.A + sys.B @ gain).T + sys.a + sys.B @ offset
                           for sys, s, gain, offset in draws + near])
        origin = np.zeros((1, n))
        clear = geo.hull_rows(fields).excludes(origin, geo.TOL_GEOM)[:, 0]
        for F, cleared, (sys, s, gain, offset) in zip(fields, clear, draws + near):
            A_cl = sys.A + sys.B @ gain
            # a stack's member gets the verdict of its hull alone
            assert geo.hull_rows(F).excludes(origin, geo.TOL_GEOM)[0] == cleared
            if cleared:
                assert not geo.point_in_hull(np.zeros(n), F, geo.TOL_GEOM)
                assert synth.check_no_equilibrium(sys, s, gain, offset)
                mu = flow_margin(F)
                if not 1e-12 < mu < 1e-6 * max(1.0, np.abs(A_cl).max()):
                    assert reference_no_equilibrium(sys, s, gain, offset)
        assert not clear[len(draws):].any()
        assert not any(synth.check_no_equilibrium(*draw) for draw in near)
        assert clear.sum() >= len(draws) // 3

    @pytest.mark.parametrize("singular", [False, True], ids=["regular", "singular"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_field_hulls_match_the_distance_oracle(self, n, singular):
        """The hull test on every draw of the test above, the band around
        mu = 0 included: the singular draws (rng 22 for n = 2) have
        affinely dependent fields.  It agrees with the inf-norm distance
        from 0 to the fields' hull outside 0.2 TOL_GEOM of TOL_GEOM."""
        rng = np.random.default_rng(20 + n)
        for _ in range(60):
            sys, s, gain, offset = random_closed_loop(rng, n, singular)
            fields = s.vertices @ (sys.A + sys.B @ gain).T + (sys.a + sys.B @ offset)
            dist = hull_distance(np.zeros(n), fields)
            if abs(dist - geo.TOL_GEOM) <= 0.2 * geo.TOL_GEOM:
                continue
            assert geo.point_in_hull(np.zeros(n), fields) == (dist <= geo.TOL_GEOM)

    @pytest.mark.parametrize("fixture", [box_fixture, wedge_fixture, pinned_corner_fixture,
                                         cube_fixture, o_cross_fixture, ill1_fixture,
                                         ill2_fixture, ill3_fixture, diamond_fixture])
    def test_fixture_pieces_carry_a_flow_certificate(self, fixture, monkeypatch):
        """Every piece's closed loop has a flow direction xi with
        xi.f(v_i) >= mu > 0 at its vertices.  The diamond's cover misses a
        region, so its pieces are taken with the gap test off."""
        if fixture is diamond_fixture:
            monkeypatch.setattr(tri, "_cover_gap", lambda *args: 0.0)
        sys, p, f = fixture()
        ctrl = synth.synth_polytope(sys, p, f, eps=0.1 if fixture is wedge_fixture else None)
        for piece in ctrl.pieces:
            A_cl, b_cl = synth.closed_loop(sys, piece.law)
            assert flow_margin(piece.region.vertices @ A_cl.T + b_cl) > 1e-3
            assert reference_no_equilibrium(sys, piece.region, piece.gain, piece.offset)


class TestSynthSimplex:
    def test_single_piece_cases(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            sys, geom, s, e = random_reachable_simplex(rng)
            tables, laws, _, _ = synth_simplices(sys, geom, [s], [e])
            for table, law in zip(tables, laws):
                assert synth.check_no_equilibrium(sys, geo.Simplex.of_table(table),
                                                  law[:, :-1], law[:, -1])

    def test_split_case_two_pieces(self):
        sys, s, e = split_case_simplex()
        geom = compute_geometry(sys, geo.convex_hull(s.vertices))
        tables, _, scalars, sources = synth_simplices(sys, geom, [s], [e])
        assert sources.tolist() == [0, 0] and scalars["sub_rank"].tolist() == [0, 1]
        assert scalars["path_len"].tolist() == [0, 0]
        regions = [geo.Simplex.of_table(table) for table in tables]
        # pieces tile the simplex
        total = sum(r.volume() for r in regions)
        assert total == pytest.approx(s.volume(), rel=1e-9)
        # the shared facet contains the split point on the apex segment
        v_prime = np.array([1.5, 0.25])
        for region in regions:
            assert region.contains(v_prime, 1e-9)

    def test_unreachable_exit_fails(self):
        sys = double_integrator()
        s = geo.Simplex([(0.0, 0.0), (2.0, 0.0), (0.0, 1.0)])
        geom = compute_geometry(sys, geo.convex_hull(s.vertices))
        # exit through the facet opposite (2,0): dragging everything
        # against the drift is infeasible
        f = s.facet(1)
        ra = reach.analyze(geom, geo.convex_hull(s.vertices), geo.Face(f.vertices, None, 1))
        assert not ra.reachable
        with pytest.raises(SynthesisFailed):
            synth_simplices(sys, geom, [s], [1])


def fixture_leaf(fixture):
    """The system, geometry, and greedy-ordered simplices and exit facets
    of a facet-target fixture's leaf triangulation."""
    sys, p, f = fixture()
    geom = compute_geometry(sys, p)
    t = tri.basic_triangulation(p, tri.select_vstar(p, f, geom), geo.whole_facet(p, f))
    res = synth.greedy_paths(t, geom)
    return sys, geom, [t.simplices[i] for i in res.order], [res.exit_facet[i] for i in res.order]


# a leaf per dimension, and a simplex whose exit facet 0 lies on the
# equilibrium plane below the apex, which synth_simplex splits in two
LEAVES = {2: box_fixture, 3: cube_fixture, 4: box4d_fixture}
SPLIT_SIMPLICES = {
    2: [(0, 1), (1, 0), (2, 0)],
    3: [(0, 0, 1), (1, 0, 0), (2, 0, 0), (1, 1, 0)],
    4: [(0, 0, 0, 1), (1, 0, 0, 0), (2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0)],
}


def one_at_a_time(sys, geom, simplices, exits):
    return [synth_simplices(sys, geom, [s], [e]) for s, e in zip(simplices, exits)]


def first_error(fn):
    """The class of the error ``fn`` raises and its certificate (its
    message where it carries none), or None."""
    try:
        fn()
    except ReachctlError as exc:
        return type(exc), getattr(exc, "certificate", str(exc))
    return None


def failing_simplex(kind, S, E):
    """A simplex of the leaf S, with exit facets E, and an exit facet on
    which it fails: an infeasible vertex LP, a corrupt table whose law
    misses the vertex controls, or (the 2-D box) a closed-loop
    equilibrium."""
    if kind == "infeasible":
        return S[0], 1
    if kind == "equilibrium":
        return S[1], 2
    table = S[1].table.copy()
    table[0, -1] += 0.1
    return geo.Simplex.of_table(table), E[1]


class TestLeafBatching:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_batched_leaf_matches_one_simplex_at_a_time(self, n):
        """A leaf in one call gives every piece that one call per simplex
        gives, the midlevel split included."""
        sys, geom, S, E = fixture_leaf(LEAVES[n])
        S, E = S[:1] + [geo.Simplex(SPLIT_SIMPLICES[n])] + S[1:], E[:1] + [0] + E[1:]
        tables, laws, scalars, sources = synth_simplices(sys, geom, S, E)
        single = one_at_a_time(sys, geom, S, E)
        assert sources.tolist() == [j for j, one in enumerate(single) for _ in one[3]]
        assert np.bincount(sources)[1] == 2

        def joined(position):
            return np.concatenate([one[position] for one in single])

        assert np.array_equal(tables, joined(0))
        for name in ("exit_facet", "path_len", "sub_rank"):
            assert np.array_equal(scalars[name], joined(2)[name])
        for a, b in zip(laws, joined(1)):
            assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(b).max())
        for name in ("slack", "exit_margin"):
            assert scalars[name] == pytest.approx(joined(2)[name], rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("n, kind", [(2, "infeasible"), (2, "singular"), (2, "equilibrium"),
                                         (3, "infeasible"), (3, "singular"),
                                         (4, "infeasible"), (4, "singular")])
    def test_the_first_failing_simplex_raises(self, n, kind):
        """The third simplex of a leaf fails, and so does one after it in
        another way: the leaf raises the third one's error, as the loop
        over the simplices does."""
        sys, geom, S, E = fixture_leaf(LEAVES[n])
        bad, bad_exit = failing_simplex(kind, S, E)
        later, later_exit = failing_simplex("singular" if kind == "infeasible" else "infeasible",
                                            S, E)
        S, E = S[:2] + [bad] + S[2:] + [later], E[:2] + [bad_exit] + E[2:] + [later_exit]
        got = first_error(lambda: synth_simplices(sys, geom, S, E))
        assert got is not None
        assert got == first_error(lambda: one_at_a_time(sys, geom, S, E))
        assert got == first_error(lambda: synth_simplices(sys, geom, [bad], [bad_exit]))
        expected = {"infeasible": "invariance conditions infeasible at vertex",
                    "equilibrium": "closed-loop stationary point inside the simplex"}
        if kind == "singular":
            assert got[0] is SingularVertexMatrix
        else:
            assert got[0] is SynthesisFailed
            assert got[1]["simplex"] == bad.vertices.tolist()
            assert got[1]["error"].startswith(expected[kind])

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_solved_bases_do_not_depend_on_scale(self, n, monkeypatch):
        """x -> k x, k from 1e-5 to 1e5, leaves the bases that the
        vertex controls of each leaf solve as they are: the determinant
        test is relative to the rows' norms."""
        sys, _, S, E = fixture_leaf(LEAVES[n])
        verdicts = []
        nonsingular = synth.nonsingular

        def recording(M):
            verdicts.append(nonsingular(M))
            return verdicts[-1]

        monkeypatch.setattr(synth, "nonsingular", recording)
        synth.vertex_controls_lp(sys, np.stack([s.table for s in S]), E)
        solved = verdicts.pop()
        assert 0 < solved.sum() < len(solved)
        for k in (1e-5, 1e-4, 1e-3, 1e-2, 0.1, 10.0, 100.0, 1e3, 1e4, 1e5):
            synth.vertex_controls_lp(sys, geo.simplex_tables([s.vertices * k for s in S]), E)
            assert np.array_equal(verdicts.pop(), solved)


class TestGreedyPaths:
    def test_single_simplex(self):
        sys, p, f = box_fixture()
        geom = compute_geometry(sys, p)
        s = geo.Simplex([(0.0, 0.0), (2.0, 0.0), (2.0, 1.0)])
        t = tri.Triangulation(s.table[None], np.array([0.0, 0.0]), {0: 0})
        res = synth.greedy_paths(t, geom)
        assert res.order == [0]
        assert res.path_len[0] == 1

    def test_pentagon_chain(self):
        sys, p, f = wedge_fixture()
        geom = compute_geometry(sys, p)
        cut = reach.epsilon_cut(geom, p, f, 0.1)
        vstar = tri.select_vstar(cut.reach_eps, f, geom)
        t = tri.basic_triangulation(cut.reach_eps, vstar, geo.whole_facet(cut.reach_eps, f))
        res = synth.greedy_paths(t, geom)
        # finish order follows a chain of increasing path lengths
        assert [res.path_len[i] for i in res.order] == [1, 2, 3]
        first, second, third = res.order
        assert res.successor[first] == -1
        assert res.successor[second] == first
        assert res.successor[third] == second
        # greedy levels never decrease
        assert all(b >= a - 1e-12 for a, b in zip(res.w_levels, res.w_levels[1:]))

    def test_random_fixtures_terminate(self):
        for sys, p, f, geom, ra in right_target_polygons(20):
            vstar = tri.select_vstar(p, f, geom)
            t = tri.basic_triangulation(p, vstar, geo.whole_facet(p, f))
            assert t.target_exits == lp_target_exits(t, f)
            res = synth.greedy_paths(t, geom)
            assert len(res.order) == len(t.simplices)

    def test_levels_come_from_the_simplex_vertices(self):
        # at scales whose levels need more than 9 decimals, a level read
        # from rounded vertex keys differs from the raw one
        for scale in (1.2345678901, np.pi, 1 / 3, np.sqrt(2)):
            sys, p, f = box_fixture()
            p = geo.convex_hull(p.vertices * scale)
            f = facet_face(p, [1, 0])
            geom = compute_geometry(sys, p)
            t = tri.basic_triangulation(p, tri.select_vstar(p, f, geom), geo.whole_facet(p, f))
            res = synth.greedy_paths(t, geom)
            raw = [(np.delete(t.simplices[i].vertices, res.exit_facet[i], axis=0) @ geom.beta).min()
                   for i in res.order]
            assert res.w_levels == raw

    @pytest.mark.parametrize("fixture", [box_fixture, cube_fixture])
    def test_marking_and_ordering_solve_no_lp(self, fixture, monkeypatch):
        sys, p, f = fixture()
        geom = compute_geometry(sys, p)
        vstar, k = tri.select_vstar(p, f, geom), geo.whole_facet(p, f)
        calls = []
        solve = lp.solve

        def counting(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(lp, "solve", counting)
        t = tri.basic_triangulation(p, vstar, k)
        res = synth.greedy_paths(t, geom)
        assert len(calls) == 0
        assert t.target_exits and len(res.order) == len(t.simplices)


    @pytest.mark.parametrize("fixture", [box_fixture, top_edge_fixture, cube_fixture,
                                         box4d_fixture])
    def test_each_facet_level_is_evaluated_once(self, fixture, monkeypatch):
        """A (simplex, facet) pair becomes a candidate once, when its
        neighbour finishes or, for a target exit, at the start: the facet
        levels read through ``at_level`` are distinct and number at most
        the target exits plus the adjacent pairs."""
        sys, p, f = fixture()
        geom = compute_geometry(sys, p)
        t = tri.basic_triangulation(p, tri.select_vstar(p, f, geom), geo.whole_facet(p, f))
        seen = []
        at_level = SystemGeometry.at_level

        def recording(self, points, level):
            seen.append((np.asarray(points).tobytes(), level))
            return at_level(self, points, level)

        monkeypatch.setattr(SystemGeometry, "at_level", recording)
        res = synth.greedy_paths(t, geom)
        assert len(res.order) == len(t.simplices)
        assert len(seen) == len(set(seen)) <= len(t.target_exits) + len(t.adjacency)


# one case per branch of synth_polytope: fixture, eps, piece count (None:
# not pinned), ranks (None: all empty), notes, whether the domain shrinks
BRANCH_CASES = {
    "box": (box_fixture, None, 2, None, (), False),
    "wedge": (wedge_fixture, 0.1, 3, None, ("failure sets cut off with margin 0.1",), True),
    "ill1": (ill1_fixture, None, 3, None, (), False),
    "ill3": (ill3_fixture, None, None, [(0,), (1,), (1,)],
             ("covered around the non-facet target",), False),
    "ill2": (ill2_fixture, None, None, [(0,), (1,), (1,)],
             ("split away from the far target",), False),
    "o_cross": (o_cross_fixture, None, None, [(0,), (0,), (1,), (1,)],
                ("covered along the equilibrium plane",), False),
}


class TestSynthPolytope:
    @pytest.mark.parametrize("case", list(BRANCH_CASES))
    def test_branch(self, case):
        fixture, eps, npieces, ranks, notes, shrinks = BRANCH_CASES[case]
        sys, p, f = fixture()
        ctrl = synth.synth_polytope(sys, p, f, eps=eps)
        if npieces is not None:
            assert len(ctrl.pieces) == npieces
        assert [piece.rank for piece in ctrl.pieces] == (ranks or [()] * len(ctrl.pieces))
        assert ctrl.notes == notes
        if shrinks:
            assert ctrl.domain.volume() < p.volume()
        else:
            assert ctrl.domain is p
        for piece in ctrl.pieces:
            vc = synth.VertexControls(
                np.array([piece.control(v) for v in piece.region.vertices]), 0.0)
            assert synth.invariance_margin(sys, piece.region, vc, piece.exit_facet) >= -1e-8
            assert synth.check_no_equilibrium(sys, piece.region, piece.gain, piece.offset)
        # lookup is total on the domain
        rng = np.random.default_rng(2)
        for x in sample_states(ctrl.domain, 50, rng):
            assert ctrl.lookup(x) is not None

    @pytest.mark.parametrize("eps", [float("nan"), 0.0, -1.0])
    @pytest.mark.parametrize("fixture", [box_fixture, wedge_fixture], ids=["box", "wedge"])
    def test_bad_margin_raises(self, fixture, eps):
        """A margin that is not positive is refused where synthesis takes
        it and where the cut takes it, whether or not a cut is needed (the
        box needs none); NaN compares false and is refused too."""
        sys, p, f = fixture()
        with pytest.raises(ValueError, match="eps must be positive"):
            synth.synth_polytope(sys, p, f, eps=eps)
        with pytest.raises(ValueError, match="eps must be positive"):
            reach.epsilon_cut(compute_geometry(sys, p), p, f, eps)

    def test_vertex_near_the_scaled_equilibrium_plane_terminates(self):
        """Under A = [[0, 10], [0, 0]], beta.(A x + a) is 10 x2: the vertex
        (0, -1.5e-10) lies 1.5e-9 below zero on that scale but 1.5e-10
        from the equilibrium plane.  A3 and the cover's split read the
        plane at one scale, so synthesis ends in a controller or a typed
        error; it used to hand the whole polytope to itself without end."""
        sys = AffineSystem(A=[[0.0, 10.0], [0.0, 0.0]], a=[0.0, 0.0], B=[[0.0], [1.0]])
        p = geo.convex_hull([(0, -1.5e-10), (2, 0.5), (2, 1), (0, 1)])
        try:
            ctrl = synth.synth_polytope(sys, p, facet_face(p, [1, 0]))
        except ReachctlError:
            return
        assert ctrl.pieces

    @pytest.mark.parametrize("k", [0.1, 1.0, 10.0, 100.0, 1000.0])
    @pytest.mark.parametrize("vertices, target, pieces", [
        ([(0, 5e-10), (3, 5e-10), (2.5, 1), (1, 1)], [(3, 5e-10), (2.5, 1)], 3),
        ([(1, 5e-10), (2, 5e-10), (0, 1)], [(1, 5e-10), (2, 5e-10)], 2),
    ], ids=["quad", "triangle"])
    def test_vertices_near_the_equilibrium_plane_at_any_scale(self, k, vertices, target, pieces):
        """Under A = [[0, k], [0, 0]] the vertices at x2 = 5e-10 lie
        5e-10 from the equilibrium plane x2 = 0 whatever k is, but k 5e-10
        from zero on the unnormalized scale beta.(A x + a).  The simplex
        split reads the plane itself, so the piece count does not depend
        on k."""
        sys = AffineSystem(A=[[0.0, k], [0.0, 0.0]], a=[0.0, 0.0], B=[[0.0], [1.0]])
        p = geo.convex_hull(vertices)
        ctrl = synth.synth_polytope(sys, p, face_from(target))
        assert len(ctrl.pieces) == pieces

    @pytest.mark.parametrize("case, failing", [("input_rank", "A1"), ("target_dim", "A4")])
    def test_a_failed_assumption_raises_with_its_report(self, case, failing):
        """A1: the 3-D chain x1' = x2, x2' = x3, x3' = u is controllable,
        but its one input spans less than n-1 = 2 dimensions.  A4: the
        cube's edge is a target of dimension 1, not 2."""
        sys, p, f = cube_fixture()
        if case == "input_rank":
            sys = AffineSystem(A=np.eye(3, k=1), a=np.zeros(3), B=[[0.0], [0.0], [1.0]])
        else:
            f = face_from([(1, 0, 0), (1, 1, 0)])
        with pytest.raises(AssumptionViolated) as ei:
            synth.synth_polytope(sys, p, f)
        rep = ei.value.report
        assert isinstance(rep, AssumptionReport) and not rep.ok
        flags = {"A1": rep.a1_input_rank, "A2": rep.a2_controllable,
                 "A4": rep.a4_target_valid}
        assert [k for k, ok in flags.items() if not ok] == [failing]
        assert f"{failing}=FAIL" in str(ei.value)
        assert all(f"{k}=pass" in str(ei.value) for k in flags if k != failing)

    def test_unreachable_target_raises_with_its_analysis(self):
        """Nothing full-dimensional survives the cut of a total failure, so
        the branch raises NotReachable carrying the analysis."""
        sys, p, f = box_left_fixture()
        with pytest.raises(NotReachable) as ei:
            synth.synth_polytope(sys, p, f)
        ra = ei.value.analysis
        assert str(ei.value) == "target not reachable from the given polytope"
        assert not ra.reachable and ra.a_minus.volume() == pytest.approx(p.volume(), rel=1e-9)

    def test_cover_wrt_O_incomplete(self):
        sys, p, f = diamond_fixture()
        with pytest.raises(CoverIncomplete):
            synth.synth_polytope(sys, p, f)

    def test_invariance_residuals_all_pieces(self):
        sys, p, f = wedge_fixture()
        ctrl = synth.synth_polytope(sys, p, f, eps=0.1)
        for piece in ctrl.pieces:
            vc = synth.VertexControls(
                np.array([piece.control(v) for v in piece.region.vertices]), 0.0)
            assert synth.invariance_margin(sys, piece.region, vc, piece.exit_facet) >= -1e-8
            assert synth.check_no_equilibrium(sys, piece.region, piece.gain, piece.offset)

    @pytest.mark.parametrize("fixture", [box_fixture, wedge_fixture, pinned_corner_fixture,
                                         cube_fixture, ill3_fixture, box4d_fixture])
    def test_piece_count_does_not_depend_on_scale(self, fixture):
        """x -> k x maps each fixture's problem (a = 0) to itself with
        u -> k u, so every scale keeps the piece count of scale 1.  An
        absolute determinant threshold on the vertex matrix refused the
        cube and ill3 at 1e-5 and the 4-D box at 1e-5 and 1e-4."""
        sys, p, f = fixture()
        counts = {}
        for k in (1e-5, 1e-4, 1e-3, 1.0, 1e3, 1e4, 1e5):
            pk = geo.convex_hull(p.vertices * k)
            fk = facet_face(pk, f.supporting.normal) if f.supporting else face_from(f.vertices * k)
            eps = 0.1 * k if fixture is wedge_fixture else None
            counts[k] = len(synth.synth_polytope(sys, pk, fk, eps=eps).pieces)
        assert counts == dict.fromkeys(counts, counts[1.0])

    @pytest.mark.parametrize("k", [1e7, 1e8])
    @pytest.mark.parametrize("case", ["ill3", "cube_vertex_target"])
    def test_hulls_that_lose_vertices_end_in_a_typed_error(self, case, k):
        """At 1e7 and beyond, hull tightness read at the absolute TOL_GEOM
        drops vertices: ill3's polytope and the cube's square target, given
        by its vertices, kept fewer than d+1.  Synthesis then ended in an
        untyped ValueError or TypeError; it ends in a controller or a
        ReachctlError."""
        sys, p, f = ill3_fixture() if case == "ill3" else cube_fixture()
        try:
            pk = geo.convex_hull(p.vertices * k)
            ctrl = synth.synth_polytope(sys, pk, face_from(f.vertices * k))
        except ReachctlError:
            return
        assert ctrl.pieces

    def test_a_vertex_lp_without_a_basis_ends_in_a_typed_error(self, monkeypatch):
        """The 4-D box at 1e8: a vertex LP finds no feasible basis and
        leaves NaN controls.  The stacked equilibrium screen took the SVD
        of their NaN fields before the pieces were checked in order, and
        numpy raised LinAlgError; it screens only finite fields, so the
        ordered checks end synthesis in a ReachctlError."""
        sys, p, f = box4d_fixture()
        pk = geo.convex_hull(p.vertices * 1e8)
        margins = []
        solve = synth.vertex_controls_lp

        def recording(*args):
            u, m = solve(*args)
            margins.append(m)
            return u, m

        monkeypatch.setattr(synth, "vertex_controls_lp", recording)
        with pytest.raises(ReachctlError):
            synth.synth_polytope(sys, pk, facet_face(pk, f.supporting.normal))
        assert any(np.isneginf(m).any() for m in margins)


def assert_controller_holds(sys, ctrl, seed=2):
    """Every piece blocks its non-exit facets (margin >= -1e-8) and has
    no closed-loop equilibrium, and ``lookup`` finds a piece at samples
    of the domain."""
    for piece in ctrl.pieces:
        vc = synth.VertexControls(np.array([piece.control(v) for v in piece.region.vertices]),
                                  0.0)
        assert synth.invariance_margin(sys, piece.region, vc, piece.exit_facet) >= -1e-8
        assert synth.check_no_equilibrium(sys, piece.region, piece.gain, piece.offset)
    for x in sample_states(ctrl.domain, 20, np.random.default_rng(seed)):
        assert ctrl.lookup(x) is not None


# (n, k, r) items of the seeded sweep of crossing-plane hulls
# (``helpers.sweep_problem``): items that ended in SingularVertexMatrix
# (an absolute interpolation residual) or SynthesisFailed (margin traded for
# push) before, the one that ends in CutConstructionFailed, and covers that
# end in CoverIncomplete or finish
STRESS = [(3, 6, 0), (3, 6, 1), (3, 6, 9), (3, 6, 10), (3, 8, 0), (3, 10, 3), (3, 12, 2),
          (3, 12, 13), (4, 5, 0), (4, 5, 1), (4, 5, 19), (4, 6, 2), (4, 6, 4), (4, 6, 9),
          (4, 7, 0), (4, 7, 2), (4, 8, 3), (4, 8, 6), (4, 8, 8), (4, 10, 6), (4, 10, 9),
          (4, 12, 2), (4, 12, 3)]


class TestStressSet:
    @pytest.mark.parametrize("n, k, r", STRESS)
    def test_outcomes_are_controllers_or_cover_failures(self, n, k, r):
        """Synthesis on a sweep hull ends in a controller that holds, or in
        an unreachable target or a failed cover, nothing else."""
        sys, p, f = sweep_problem(n, k, r)
        try:
            ctrl = synth.synth_polytope(sys, p, f)
        except (NotReachable, CoverIncomplete, CutConstructionFailed):
            return
        assert_controller_holds(sys, ctrl)

    def test_a_sliver_synthesizes_at_a_relative_residual(self, monkeypatch):
        """Item (3, 6, 9) has a sliver whose vertex controls reach about
        950: its law misses them by 1.6e-9, more than TOL_GEOM, but by
        4e-12 of the largest control.  It raised SingularVertexMatrix
        under the absolute residual; the residual is read against
        TOL_GEOM max(1, max|U|), and it gives a controller that holds."""
        misses = []
        laws = synth.affine_laws

        def recording(tables, u):
            out = laws(tables, u)
            misses.append((out[1], np.maximum(1.0, np.abs(u).max(axis=(-2, -1)))))
            return out

        monkeypatch.setattr(synth, "affine_laws", recording)
        sys, p, f = sweep_problem(3, 6, 9)
        ctrl = synth.synth_polytope(sys, p, f)
        resid = np.concatenate([r for r, _ in misses])
        scale = np.concatenate([u for _, u in misses])
        assert resid.max() > geo.TOL_GEOM
        assert np.all(resid <= geo.TOL_GEOM * scale)
        assert_controller_holds(sys, ctrl)

    def test_the_margin_comes_first(self):
        """Item (4, 7, 2) has a vertex of drift exactly 0, where u = 0
        gives margin 0.  The weighted objective t_b + 1e-3 t_e gave up
        2.1e-4 of margin for push there, and synthesis raised
        SynthesisFailed; the lexicographic choice keeps the margin and
        gives a controller that holds."""
        sys, p, f = sweep_problem(4, 7, 2)
        ctrl = synth.synth_polytope(sys, p, f)
        assert min(piece.slack for piece in ctrl.pieces) >= -synth.TOL_INV
        assert_controller_holds(sys, ctrl)


# the problems of the general population (``helpers.general_problem``)
# pinned here, r < 24 at n = 3 and r < 12 at n = 4: those that give a
# controller, and those whose cover raises for a failed cut, with an
# infinite gap; the others end in CoverIncomplete with a finite gap
GENERAL = [(3, r) for r in range(24)] + [(4, r) for r in range(12)]
GENERAL_CONTROLLERS = {(3, r) for r in (0, 1, 7, 10, 11, 12, 14, 17, 19, 21, 22)} | \
    {(4, r) for r in (1, 2, 3, 4, 6, 8, 9)}
GENERAL_CUT_FAILURES = {(3, 5), (3, 20), (4, 10), (4, 11)}


class TestGeneralSystems:
    @pytest.mark.parametrize("n, r", GENERAL)
    def test_a_controller_holds_or_the_cover_names_its_gap(self, n, r):
        """On a system whose drift direction and equilibrium plane are
        oblique, synthesis gives a controller that holds and round-trips
        through its stored form, or a CoverIncomplete whose gap is a
        finite part of the polytope's volume, or infinite where a cut of
        the cover failed, as its message says."""
        sys, p, f = general_problem(n, r)
        try:
            ctrl = synth.synth_polytope(sys, p, f)
        except CoverIncomplete as exc:
            assert (n, r) not in GENERAL_CONTROLLERS
            if (n, r) in GENERAL_CUT_FAILURES:
                assert exc.gap_volume == np.inf and re.search(r"cut .* failed", str(exc))
            else:
                assert 0.0 < exc.gap_volume < p.volume()
            return
        assert (n, r) in GENERAL_CONTROLLERS
        assert_controller_holds(sys, ctrl)
        assert_round_trip(ctrl)


def synthesis_record(sys, p, f, eps, synthesize=None):
    """Everything ``synthesize`` (``synth.synth_polytope`` by default)
    returns, bit for bit: the controller's stacked table and its
    order, its stacks (laws; exit facets, path lengths, sub-ranks,
    slacks and exit margins; ranks), each piece's table, law, exit facet,
    ranks, path length, sub-rank, index and margins as its view reads
    them, the domain's vertices and rows and the notes; or the error's
    type and message."""
    try:
        ctrl = (synthesize or synth.synth_polytope)(sys, p, f, eps=eps)
    except ReachctlError as exc:
        return type(exc).__name__, str(exc)
    pieces = [(pc.region.table.tobytes(), pc.law.tobytes(), pc.exit_facet, pc.rank,
               pc.sub_rank, pc.path_len, pc.index, float(pc.slack).hex(),
               float(pc.exit_margin).hex()) for pc in ctrl.pieces]
    stacks = [(stack.dtype.descr, stack.tobytes()) for stack in (ctrl.laws, ctrl.scalars)]
    normals, offsets = ctrl.domain.rows
    return (pieces, ctrl._table.tobytes(), ctrl._order.tobytes(), stacks, ctrl.ranks,
            ctrl.domain.vertices.tobytes(), normals.tobytes(), offsets.tobytes(), ctrl.notes)


NAMED_FIXTURES = [(box_fixture, None), (wedge_fixture, 0.1), (pinned_corner_fixture, None),
                  (top_edge_fixture, None), (ill1_fixture, None), (ill2_fixture, None),
                  (ill3_fixture, None), (o_cross_fixture, None), (diamond_fixture, None),
                  (cube_fixture, None), (box4d_fixture, None)]


class TestStoredInvariants:
    @pytest.mark.parametrize("fixture, eps", NAMED_FIXTURES,
                             ids=[fx.__name__ for fx, _ in NAMED_FIXTURES])
    def test_a_reused_system_synthesizes_as_a_fresh_one(self, fixture, eps):
        """A system stores its invariants on first use; synthesizing again
        on it, whose invariants exist, and on a fresh copy gives the same
        controller (or error) and notes, bit for bit."""
        sys, p, f = fixture()
        first = synthesis_record(sys, p, f, eps)
        reused = synthesis_record(sys, p, f, eps)
        fresh = synthesis_record(AffineSystem(sys.A.copy(), sys.a.copy(), sys.B.copy()), p, f, eps)
        assert reused == first and fresh == first

    @pytest.mark.parametrize("fixture", [cube_fixture, box4d_fixture])
    def test_no_svd_of_B_once_the_invariants_exist(self, fixture, monkeypatch):
        """A synthesis visits many polytopes but takes B's SVD once per
        system: once on a fresh system, and never on one whose invariants
        exist."""
        sys, p, f = fixture()
        calls = []
        svd = np.linalg.svd

        def counting(a, *args, **kwargs):
            a = np.asarray(a)
            calls.append(a.shape == sys.B.shape and np.array_equal(a, sys.B))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        synth.synth_polytope(sys, p, f)
        assert sum(calls) == 1 and len(calls) > 1
        calls.clear()
        synth.synth_polytope(sys, p, f)
        assert sum(calls) == 0 and len(calls) > 0


def both_records(sys, p, f, eps=None):
    """The synthesis records of ``synth_polytope`` and of its recursive
    reference, ``reference_synth_polytope``."""
    return (synthesis_record(sys, p, f, eps),
            synthesis_record(sys, p, f, eps, synthesize=reference_synth_polytope))


ONE_PASS_FIXTURES = NAMED_FIXTURES + [(tet_cover_f_fixture, None), (box_left_fixture, None),
                                      (direct_cut_fixture, None), (interface_cut_fixture, None)]


def corrupt(t):
    """The leaf triangulation ``t`` with each simplex's first facet row
    moved off its vertices, so every law misses its vertex controls."""
    t.tables[:, 0, -1] += 0.1
    return t


def patch_cover(monkeypatch, first_leaf_fails, later):
    """Make the crossing cover of ``o_cross_fixture`` (a split into two
    leaves) fail: its first leaf in synthesis, when ``first_leaf_fails``,
    and its second sub-problem by ``later``, a CoverIncomplete from
    ``_branch`` or a Stuck from ``greedy_paths``.  Each call starts the
    counts afresh, so it is made once per synthesis."""
    branch, greedy = synth._branch, synth.greedy_paths
    calls = {"branch": 0, "greedy": 0}

    def patched_branch(sys, p, f, eps):
        calls["branch"] += 1
        if later == "CoverIncomplete" and calls["branch"] == 3:
            raise CoverIncomplete(0.25)
        out = branch(sys, p, f, eps)
        if first_leaf_fails and calls["branch"] == 2:
            out = corrupt(out[0]), out[1]
        return out

    def patched_greedy(t, geom):
        calls["greedy"] += 1
        if later == "Stuck" and calls["greedy"] == 2:
            raise Stuck([0])
        return greedy(t, geom)

    monkeypatch.setattr(synth, "_branch", patched_branch)
    monkeypatch.setattr(synth, "greedy_paths", patched_greedy)


def screen_simplices(rng, n, geoms):
    """Random simplices whose exit vertices lie 0, ±(1 ∓ 1e-9) and ±2
    times ``TOL_INCIDENCE`` off the equilibrium plane, some moved by
    single ulps to the last point inside that band or the first outside
    it, with the apex above or below them along the drift normal of a
    geometry drawn from ``geoms``: (geometry, simplex, exit facet) each."""
    plane = geoms[0].equilibrium_plane
    basis = np.linalg.svd(plane.normal[None])[2][1:].T
    tol = geo.TOL_INCIDENCE
    inside = tol * np.array([0.0, 1 - 1e-9, -(1 - 1e-9)])
    outside = tol * np.array([1 + 1e-9, -(1 + 1e-9), 2.0, -2.0])
    out = []
    for _ in range(60):
        d = rng.choice(inside, size=n)
        if rng.random() < 0.5:
            d[rng.integers(n)] = rng.choice(outside)
        W = plane.normal * plane.offset + 0.2 * rng.normal(size=(n, n - 1)) @ basis.T \
            + d[:, None] * plane.normal
        for j in np.flatnonzero(rng.random(n) < 0.3):
            W[j] = to_band_edge(plane, W[j], bool(rng.integers(2)))
        geom = geoms[rng.integers(len(geoms))]
        apex = W.mean(axis=0) + rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0) * geom.beta
        e = int(rng.integers(n + 1))
        out.append((geom, geo.Simplex(np.insert(W, e, apex, axis=0)), e))
    return out


def to_band_edge(plane, v, inside, tol=geo.TOL_INCIDENCE):
    """``v`` moved along the plane's normal to ``tol`` off the plane, on
    its side, and then along one coordinate by single ulps, away from the
    plane to the first point past ``tol`` by ``plane.value``, and then,
    when ``inside``, back to the first point within it."""
    side = 1.0 if plane.value(v) >= 0 else -1.0
    v = v + (side * tol - plane.value(v)) * plane.normal
    k = int(np.argmax(np.abs(plane.normal)))
    away = np.sign(plane.normal[k]) * side
    while abs(plane.value(v)) <= tol:
        v[k] = np.nextafter(v[k], away * np.inf)
    while inside and abs(plane.value(v)) > tol:
        v[k] = np.nextafter(v[k], -away * np.inf)
    return v


class TestOnePass:
    @pytest.mark.parametrize("fixture, eps", ONE_PASS_FIXTURES,
                             ids=[fx.__name__ for fx, _ in ONE_PASS_FIXTURES])
    def test_fixtures_match_the_recursion(self, fixture, eps):
        """One walk and one leaf pass give the controller, or the error,
        of the recursion that solves each leaf as it reaches it, bit for
        bit: tables, laws, exits, ranks, path lengths, sub-ranks, indices,
        margins, domain and notes."""
        new, ref = both_records(*fixture(), eps)
        assert new == ref

    @pytest.mark.parametrize("n, k, r", STRESS)
    def test_stress_items_match_the_recursion(self, n, k, r):
        new, ref = both_records(*sweep_problem(n, k, r))
        assert new == ref

    @pytest.mark.parametrize("workload", ["synth2d", "synth3d"])
    def test_benchmark_items_match_the_recursion(self, workload):
        """Every synthesis item of the benchmark's problem set at seed 1."""
        for item in output_digest.synth_items(workload, 1):
            new, ref = both_records(item.sys, item.p, item.f, item.eps)
            assert new == ref, item.name

    @pytest.mark.parametrize("later", ["CoverIncomplete", "Stuck"])
    @pytest.mark.parametrize("first_leaf_fails", [True, False])
    def test_the_walks_error_raises_before_any_leaf_is_solved(self, monkeypatch, later,
                                                              first_leaf_fails):
        """The cover's second sub-problem fails in the walk, after its first
        leaf, sound or failing, was collected: the walk's error raises as
        it is met, and no leaf is solved.  With a sound first leaf, the
        recursion raises the same error."""
        sys, p, f = o_cross_fixture()
        calls = []
        solve = synth.synth_simplex
        monkeypatch.setattr(synth, "synth_simplex",
                            lambda *args: calls.append(1) or solve(*args))
        patch_cover(monkeypatch, first_leaf_fails, later)
        new = synthesis_record(sys, p, f, None)
        assert new[0] == later and calls == []
        patch_cover(monkeypatch, first_leaf_fails, later)
        ref = synthesis_record(sys, p, f, None, synthesize=reference_synth_polytope)
        assert ref[0] == ("SingularVertexMatrix" if first_leaf_fails else later)
        assert (ref == new) is not first_leaf_fails

    @pytest.mark.parametrize("fixture", [box_fixture, cube_fixture, tet_cover_f_fixture,
                                         o_cross_fixture])
    def test_one_solve_and_one_controller_per_synthesis(self, fixture, monkeypatch):
        """A leaf, a leaf in 3-D, a cover around a non-facet target and a
        crossing cover each take one ``synth_simplex`` call and build one
        controller."""
        calls = {"synth_simplex": 0, "PWAController": 0}
        solve = synth.synth_simplex

        def counting(*args):
            calls["synth_simplex"] += 1
            return solve(*args)

        class Counted(synth.PWAController):
            def __init__(self, *args):
                calls["PWAController"] += 1
                super().__init__(*args)

        monkeypatch.setattr(synth, "synth_simplex", counting)
        monkeypatch.setattr(synth, "PWAController", Counted)
        assert synth.synth_polytope(*fixture()).pieces
        assert calls == {"synth_simplex": 1, "PWAController": 1}

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_the_screen_splits_as_the_exact_test(self, n, monkeypatch):
        """Simplices at the edge of the on-plane band (``screen_simplices``),
        on both sides of it and with the apex above and below, reach the
        vertex controls as the regions that the per-simplex reference
        (``reference_midlevel_split``) gives each of them, table for
        table: the stacked split tests each vertex on the plane as it
        tests the vertex alone."""
        rng = np.random.default_rng(70 + n)
        while True:
            A, a, B = rng.normal(size=(n, n)), rng.normal(size=n), rng.normal(size=(n, n - 1))
            sys = AffineSystem(A, a, B)
            if sys.input_rank() == n - 1 and sys.controllability_rank() == n:
                break
        plane = equilibrium_plane(sys)
        side = geo.convex_hull(plane.normal * (plane.offset + 2.0)
                               + 0.1 * rng.normal(size=(n + 1, n)))
        geom = compute_geometry(sys, side)
        cases = screen_simplices(rng, n, [geom, replace(geom, beta=-geom.beta)])
        seen = []

        class Stop(Exception):
            pass

        def capture(sys, tables, exits):
            seen.extend(tables)
            raise Stop

        monkeypatch.setattr(synth, "vertex_controls_lp", capture)
        geoms, simplices, exits = zip(*cases)
        levels = np.concatenate([simplex_levels(g, [s]) for g, s in zip(geoms, simplices)])
        with pytest.raises(Stop):
            synth.synth_simplex(sys, geom, np.stack([s.table for s in simplices]), exits,
                                levels)
        parts = [reference_midlevel_split(g, s, e) for g, s, e in cases]
        assert [t.tobytes() for t in seen] == \
            [r.table.tobytes() for part in parts for r in part]
        assert 0 < sum(len(part) == 2 for part in parts) < len(cases)


def retained(build):
    """What ``build()`` returns and the bytes allocated while it ran that
    are still held once it has returned (tracemalloc)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = build()
        gc.collect()
        return out, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def crossing_hull_fixture():
    """A 3-D hull crossed by the equilibrium plane, like the benchmark's
    ``hull3d`` items: a cover with two leaf ranks."""
    return sweep_problem(3, 6, 9)


STACK_FIXTURES = [cube_fixture, box4d_fixture, crossing_hull_fixture]
STACKS = ("_vertices", "_table", "_order", "laws", "scalars")


class TestControllerStacks:
    @pytest.mark.parametrize("fixture", STACK_FIXTURES, ids=lambda fx: fx.__name__)
    def test_a_kept_controller_holds_its_stacks_and_little_more(self, fixture):
        """A controller that was never located holds per piece its region's
        vertices, its law and at most 48 B more (its 28 B scalars and a
        reference to its rank), and at most 2 KiB of its own, as
        tracemalloc sees controllers of one piece and of all the pieces
        stacked anew: no order and no places.  Its first ``locate`` adds
        the facet rows, (n+1)(2n+1) floats per piece, the order and the
        places, once, and a second adds nothing."""
        sys, p, f = fixture()
        ctrl = synth.synth_polytope(sys, p, f)
        pieces = list(ctrl.pieces)
        n, m, count = p.n, sys.m, len(pieces)
        assert count > 1 and (fixture is not crossing_hull_fixture
                              or len(set(ctrl.ranks)) > 1)
        per_piece = 8 * (n + 1) * n + 8 * m * (n + 1) + 48
        X = np.array([pc.region.centroid() for pc in pieces])
        # numpy keeps freed shape and small data buffers for reuse, and
        # tracemalloc counts them: one untimed build and locate fill those
        # caches first
        synth.PWAController.from_pieces(pieces, ctrl.domain, ctrl.notes).locate(X)
        _, one = retained(lambda: synth.PWAController.from_pieces(pieces[:1], ctrl.domain))
        kept, every = retained(lambda: synth.PWAController.from_pieces(pieces, ctrl.domain,
                                                                       ctrl.notes))
        assert len(kept.pieces) == count and kept._derived is None
        assert one <= per_piece + 2048
        assert every <= count * per_piece + 2048
        assert (every - one) / (count - 1) <= per_piece
        # the facet rows, the order (ending in -1) and the places
        derived = 8 * count * (n + 1) * (2 * n + 1) + 8 * (count + 1) + 8 * count
        _, first = retained(lambda: kept.locate(X) is None)
        rows = kept._derived
        _, second = retained(lambda: kept.locate(X) is None)
        assert derived <= first <= derived + 1024
        # at most one block of numpy's shape cache, allocated while traced
        assert second <= 64 and kept._derived is rows
        assert kept.locate(X).tolist() == ctrl.locate(X).tolist()

    @pytest.mark.parametrize("fixture", STACK_FIXTURES, ids=lambda fx: fx.__name__)
    def test_the_derived_table_is_the_synthesized_one(self, fixture, monkeypatch):
        """A controller stores its regions' vertices by index, as the stack
        ``synth_simplex`` returned, not their tables and no order.  Its
        order of preference, derived on first read, sorts the pieces by
        rank, path length, sub-rank and index; its facet rows are the
        tables of that stack in this order, byte for byte; both are kept
        from then on, read-only."""
        stacks = []
        solve = synth.synth_simplex
        monkeypatch.setattr(synth, "synth_simplex",
                            lambda *args: stacks.append(solve(*args)) or stacks[-1])
        sys, p, f = fixture()
        ctrl = synth.synth_polytope(sys, p, f)
        assert len(stacks) == 1 and ctrl._derived is None and ctrl._runners is None
        by_index = stacks[0][0]
        assert ctrl._vertices.tobytes() == np.ascontiguousarray(by_index[..., :p.n]).tobytes()
        keys = [(pc.rank, pc.path_len, pc.sub_rank, pc.index) for pc in ctrl.pieces]
        assert ctrl._order.tolist() == sorted(range(len(keys)), key=keys.__getitem__) + [-1]
        tables = by_index[ctrl._order[:-1]]
        table = ctrl._table
        assert table.shape == (tables.shape[0] * (p.n + 1), 2 * p.n + 1)
        assert table.tobytes() == tables.tobytes()
        assert ctrl._table is table and ctrl._order is ctrl._derived[0]
        assert not table.flags.writeable and not ctrl._order.flags.writeable
        assert not ctrl._derived[1].flags.writeable
        for name in ("_vertices", "laws", "scalars"):
            assert getattr(ctrl, name).base is None, name

    @pytest.mark.parametrize("fixture", STACK_FIXTURES, ids=lambda fx: fx.__name__)
    def test_pieces_are_views_built_on_read(self, fixture, monkeypatch):
        """``len(pieces)`` builds no piece; each read builds one view, of
        the controller's own stacks, with Python scalars, and a view reads
        what the stacks hold: its region is the block of the table at its
        place, and an index past either end raises."""
        sys, p, f = fixture()
        ctrl = synth.synth_polytope(sys, p, f)
        built = []
        init = synth.AffinePiece.__init__
        monkeypatch.setattr(synth.AffinePiece, "__init__",
                            lambda pc, *args: built.append(args[-1]) or init(pc, *args))
        count = len(ctrl.pieces)
        assert built == []
        last = ctrl.pieces[-1]
        assert built == [count - 1] and last.index == count - 1
        with pytest.raises(IndexError):
            ctrl.pieces[count]
        views = list(ctrl.pieces)
        assert built[1:] == list(range(count))
        hit = ctrl.lookup(views[0].region.centroid())
        assert built[-1] == hit.index == int(ctrl.locate(views[0].region.centroid()[None])[0])
        for k, pc in enumerate(views):
            assert np.shares_memory(pc.law, ctrl.laws) and np.shares_memory(pc.region.table,
                                                                             ctrl._table)
            assert np.array_equal(pc.law, ctrl.laws[k])
            assert (pc.exit_facet, pc.path_len, pc.sub_rank, pc.slack, pc.exit_margin) == \
                ctrl.scalars[k].item()
            place = ctrl._order.tolist().index(k)
            nv = p.n + 1
            assert np.array_equal(pc.region.table, ctrl._table[place * nv:(place + 1) * nv])
            assert (pc.index, pc.rank) == (k, ctrl.ranks[k])
            assert all(type(v) is int for v in (pc.exit_facet, pc.path_len, pc.sub_rank,
                                                pc.index))
            assert type(pc.slack) is float and type(pc.exit_margin) is float
        assert np.array_equal(ctrl.region(-1).table, views[-1].region.table)
        for bad in (count, -count - 1):
            with pytest.raises(IndexError):
                ctrl.region(bad)

    def test_pieces_are_final_once_assembled(self):
        """Every stack is read-only, so a write through a stack or through
        a piece's law, gain, offset or region raises ``ValueError``; a
        view's own fields are its own, and the controller does not see
        them change."""
        sys, p, f = ill3_fixture()
        ctrl = synth.synth_polytope(sys, p, f)
        before = synthesis_record(sys, p, f, None)
        for name in STACKS:
            assert not getattr(ctrl, name).flags.writeable, name
        pc = ctrl.pieces[0]
        with pytest.raises(ValueError):
            pc.law[0, 0] = 1.0
        with pytest.raises(ValueError):
            pc.gain[:] = 0.0
        with pytest.raises(ValueError):
            pc.offset += 1.0
        with pytest.raises(ValueError):
            pc.region.table[0, 0] = 5.0
        with pytest.raises(ValueError):
            ctrl.scalars["slack"][0] = -1.0
        pc.rank, pc.path_len = (7,), 99
        assert ctrl.pieces[0].rank == (0,) and ctrl.pieces[0].path_len != 99
        with pytest.raises(AttributeError):
            ctrl.extra = 1
        assert synthesis_record(sys, p, f, None) == before

    @pytest.mark.parametrize("fixture, eps", NAMED_FIXTURES + [(crossing_hull_fixture, None)],
                             ids=[fx.__name__ for fx, _ in NAMED_FIXTURES] + ["crossing_hull"])
    def test_from_pieces_stacks_what_the_views_read(self, fixture, eps):
        """A controller stacked from another's pieces, as read, is the
        same controller bit for bit: table, order, stacks, ranks, views,
        domain and notes."""
        sys, p, f = fixture()

        def restacked(sys, p, f, eps):
            ctrl = synth.synth_polytope(sys, p, f, eps=eps)
            return synth.PWAController.from_pieces(ctrl.pieces, ctrl.domain, ctrl.notes)

        assert synthesis_record(sys, p, f, eps, synthesize=restacked) == \
            synthesis_record(sys, p, f, eps)


GOLDEN_FIXTURES = [(box_fixture, None), (wedge_fixture, 0.1), (pinned_corner_fixture, None),
                   (cube_fixture, None), (box4d_fixture, None), (tet_cover_f_fixture, None)]


def stored_record(ctrl) -> dict:
    """A controller bit for bit: each array of its stored form (dtype,
    shape and bytes), its derived facet rows, its ranks and notes, its
    domain's kind and every field of its piece views."""
    record = {name: (a.dtype, a.shape, a.tobytes()) for name, a in ctrl.to_arrays().items()}
    record["table"] = ctrl._table.tobytes()
    record["ranks"], record["notes"], record["domain"] = ctrl.ranks, ctrl.notes, type(ctrl.domain)
    record["pieces"] = [(pc.region.table.tobytes(), pc.law.tobytes(), pc.exit_facet, pc.rank,
                         pc.sub_rank, pc.path_len, pc.index, float(pc.slack).hex(),
                         float(pc.exit_margin).hex()) for pc in ctrl.pieces]
    return record


def assert_round_trip(ctrl):
    """``from_arrays(to_arrays())`` rebuilds ``ctrl`` bit for bit, in
    arrays of its own, read-only where the controller stores them."""
    arrays = ctrl.to_arrays()
    back = synth.PWAController.from_arrays(arrays)
    assert stored_record(back) == stored_record(ctrl)
    for name, a in back.to_arrays().items():
        assert not np.shares_memory(a, arrays[name]), name
    for name in ("_vertices", "laws", "scalars"):
        a = getattr(back, name)
        assert a.base is None and not a.flags.writeable, name
    assert len({id(rank) for rank in back.ranks}) == len(set(back.ranks))


def verify_controllers(seed):
    """The controllers the benchmark's ``verify`` workload runs."""
    problems = output_digest.problems
    fixtures = {pr.name: pr for pr in problems.fixtures_2d()}
    fixtures["cube"] = problems.unit_cube()
    return [synth.synth_polytope(fixtures[name].sys, fixtures[name].p, fixtures[name].f)
            for name in output_digest.STARTS]


class TestStoredForm:
    @pytest.mark.parametrize("fixture, eps", GOLDEN_FIXTURES,
                             ids=[fx.__name__ for fx, _ in GOLDEN_FIXTURES])
    def test_golden_fixtures_round_trip(self, fixture, eps):
        sys, p, f = fixture()
        assert_round_trip(synth.synth_polytope(sys, p, f, eps=eps))

    @pytest.mark.parametrize("workload", ["synth2d", "synth3d", "verify"])
    def test_benchmark_controllers_round_trip(self, workload):
        """Every controller of the benchmark's problem sets at seed 1."""
        if workload == "verify":
            ctrls = verify_controllers(1)
        else:
            ctrls = []
            for item in output_digest.synth_items(workload, 1):
                try:
                    ctrls.append(synth.synth_polytope(item.sys, item.p, item.f, eps=item.eps))
                except ReachctlError:
                    pass
        assert len(ctrls) == {"synth2d": 51, "synth3d": 6, "verify": 4}[workload]
        for ctrl in ctrls:
            assert_round_trip(ctrl)

    @pytest.mark.parametrize("n, k, r", STRESS)
    def test_stress_hulls_round_trip(self, n, k, r):
        sys, p, f = sweep_problem(n, k, r)
        try:
            ctrl = synth.synth_polytope(sys, p, f)
        except (NotReachable, CoverIncomplete, CutConstructionFailed):
            return
        assert_round_trip(ctrl)

    def test_the_stored_form_is_the_stored_arrays(self, tmp_path):
        """``to_arrays`` copies nothing the controller stores: its stacks and
        its domain's arrays are the controller's own; ``np.savez`` writes it
        as it is, and the file reads back as the same controller."""
        sys, p, f = crossing_hull_fixture()
        ctrl = synth.synth_polytope(sys, p, f)
        arrays = ctrl.to_arrays()
        for name, attr in (("vertices", "_vertices"), ("laws", "laws"), ("scalars", "scalars")):
            assert arrays[name] is getattr(ctrl, attr), name
        assert "order" not in arrays
        normals, offsets = ctrl.domain.rows
        assert arrays["domain_vertices"] is ctrl.domain.vertices
        assert arrays["domain_normals"] is normals and arrays["domain_offsets"] is offsets
        assert arrays["domain_incidence"] is ctrl.domain.incidence
        assert ctrl._derived is None
        assert len(set(ctrl.ranks)) > 1 and arrays["ranks"].shape[1] >= 1
        np.savez(tmp_path / "ctrl.npz", **arrays)
        with np.load(tmp_path / "ctrl.npz") as stored:
            back = synth.PWAController.from_arrays(stored)
        assert stored_record(back) == stored_record(ctrl)

    @pytest.mark.parametrize("change", [
        "laws float32", "laws width", "vertices short", "vertices float32", "scalars plain",
        "scalars placed", "ranks float", "ranks short", "notes bytes", "normals width",
        "offsets short", "incidence int", "dim float"])
    def test_disagreeing_arrays_raise(self, change):
        """``from_arrays`` raises ``ValueError`` on an array whose shape or
        dtype disagrees with the others."""
        sys, p, f = cube_fixture()
        arrays = dict(synth.synth_polytope(sys, p, f).to_arrays())
        key = {"normals": "domain_normals", "offsets": "domain_offsets",
               "incidence": "domain_incidence", "dim": "domain_dim"}.get(change.split()[0],
                                                                         change.split()[0])
        a = arrays[key]
        arrays[key] = {
            "laws float32": lambda: a.astype(np.float32),
            "laws width": lambda: a[..., 1:],
            "vertices short": lambda: a[:-1],
            "vertices float32": lambda: a.astype(np.float32),
            "scalars plain": lambda: a["slack"],
            # the records of a form that stored each piece's place
            "scalars placed": lambda: np.zeros(len(a), a.dtype.descr[:3] + [("place", np.int32)]
                                               + a.dtype.descr[3:]),
            "ranks float": lambda: a.astype(float),
            "ranks short": lambda: a[1:],
            "notes bytes": lambda: a.astype(bytes),
            "normals width": lambda: a[:, 1:],
            "offsets short": lambda: a[1:],
            "incidence int": lambda: a.astype(int),
            "dim float": lambda: a.astype(float),
        }[change]()
        with pytest.raises(ValueError):
            synth.PWAController.from_arrays(arrays)

    def test_a_controller_of_no_pieces_round_trips(self):
        """``from_pieces`` of no pieces is a controller that holds no state,
        and it has a stored form like any other."""
        sys, p, f = box_fixture()
        ctrl = synth.PWAController.from_pieces([], p)
        assert len(ctrl.pieces) == 0 and ctrl.lookup(p.centroid()) is None
        assert ctrl.locate(p.vertices).tolist() == [-1] * len(p.vertices)
        assert_round_trip(ctrl)

    def test_a_negative_rank_entry_has_no_stored_form(self):
        sys, p, f = box_fixture()
        ctrl = synth.synth_polytope(sys, p, f)
        pieces = list(ctrl.pieces)
        pieces[0].rank = (-1,)
        with pytest.raises(ValueError, match="negative"):
            synth.PWAController.from_pieces(pieces, p).to_arrays()
