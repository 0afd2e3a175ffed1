"""Shared fixtures and independent oracles for the test suite."""

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.optimize import linprog

from reachctl import geometry as geo
from reachctl import reach, sim, synth
from reachctl import triangulate as tri
from reachctl.synth import PWAController
from reachctl.system import AffineSystem, compute_geometry, equilibrium_plane

VIOL_TOL = 1e-6


def double_integrator():
    return AffineSystem(A=[[0.0, 1.0], [0.0, 0.0]], a=[0.0, 0.0], B=[[0.0], [1.0]])


def face_from(points):
    return geo.Face.from_vertices(np.asarray(points, dtype=float))


def facet_face(p, normal):
    """Facet of p whose outward normal matches ``normal``."""
    normal = np.asarray(normal, dtype=float)
    normal = normal / np.linalg.norm(normal)
    for face in p.facets():
        if np.allclose(face.supporting.normal, normal, atol=1e-9):
            return face
    raise AssertionError(f"no facet with normal {normal}")


# -- reference for the facet rule ---------------------------------------------

def reference_maximal_sets(tight):
    """The facet rule of ``geo._maximal_sets`` by distinct rows: the first
    row of each distinct nonempty set of a boolean (candidate, point)
    table that lies in no other distinct set larger than itself."""
    sets, first = np.unique(tight, axis=0, return_index=True)
    counts = sets.astype(int)
    sizes = counts.sum(axis=1)
    inside = (counts @ counts.T == sizes[:, None]) & (sizes[None, :] > sizes[:, None])
    return sorted(first[(sizes > 0) & ~inside.any(axis=1)].tolist())


def all_candidates_hull_facets(V):
    """``geo._hull_facets`` with every candidate plane handed to the facet
    rule, equal tight sets included: the facet rows (normals, offsets) of
    deduplicated points in ``geo._facet_order``."""
    k, n = V.shape
    subsets = np.array(list(itertools.combinations(range(k), n)))
    _, sv, vt = np.linalg.svd(V[subsets[:, 1:]] - V[subsets[:, :1]])
    spans = geo.rank(sv=sv) == n - 1
    subsets, normals = subsets[spans], vt[spans, -1]
    offsets = np.einsum("ij,ij->i", normals, V[subsets[:, 0]])
    vals = V @ normals.T - offsets
    below = np.all(vals <= geo.TOL_GEOM, axis=0)
    one_side = np.flatnonzero(below | np.all(vals >= -geo.TOL_GEOM, axis=0))
    sign = np.where(below, 1.0, -1.0)
    facets = [geo.HalfSpace(sign[i] * normals[i], sign[i] * offsets[i])
              for i in one_side[geo._maximal_sets(np.abs(vals[:, one_side].T) <= geo.TOL_GEOM)]]
    normals = np.array([h.normal for h in facets])
    offsets = np.array([h.offset for h in facets])
    order = geo._facet_order(normals, offsets)
    return normals[order], offsets[order]


# -- rank rules for faces, the oracles of the incidence rules ----------------

def _tight(vertices, h):
    return vertices[np.abs(vertices @ h.normal - h.offset) <= geo.TOL_INCIDENCE]


def rank_edges(p):
    """The rows (i, j), i < j, of vertex pairs whose shared tight facets
    (TOL_INCIDENCE) have normals of rank n-1."""
    normals = np.array([h.normal for h in p.halfspaces])
    offsets = np.array([h.offset for h in p.halfspaces])
    tight = np.abs(p.vertices @ normals.T - offsets) <= geo.TOL_INCIDENCE
    return np.array([(i, j) for i, j in itertools.combinations(range(len(p.vertices)), 2)
                     if geo.rank(normals[tight[i] & tight[j]]) == p.n - 1]).reshape(-1, 2)


def rank_facets(p):
    """Each halfspace's tight vertices (TOL_INCIDENCE), lex sorted, with
    the dimension of their affine hull."""
    tight = [geo.lex_sorted(_tight(p.vertices, h)) for h in p.halfspaces]
    return [(t, geo.affine_dimension(t)) for t in tight]


def halfspace_key(h):
    """Rounded (normal, offset), per halfspace: the reference of the
    facet order ``geo._facet_order`` computes for a whole list at once."""
    return tuple(np.round(np.concatenate([h.normal, [h.offset]]), geo.HALFSPACE_KEY_DECIMALS))


def rank_clip_facets(p, half, vertices):
    """The halfspaces of ``p`` and ``half`` whose tight vertices among
    ``vertices`` span a hyperplane, one per rounded key, in key order."""
    n = vertices.shape[1]
    keyed = {}
    for h in p.halfspaces + [half]:
        if geo.affine_dimension(_tight(vertices, h)) == n - 1:
            keyed.setdefault(halfspace_key(h), h)
    return [keyed[k] for k in sorted(keyed)]


# -- canonical fixtures ------------------------------------------------------

def box_fixture():
    """Upper-half box with the right edge as target: fully solvable."""
    p = geo.convex_hull([(0, 0), (2, 0), (2, 1), (0, 1)])
    return double_integrator(), p, facet_face(p, [1, 0])


def wedge_fixture():
    """Quadrilateral with both failure sets present: a solid block past
    the target's low end and a pinned corner on the equilibrium line."""
    p = geo.convex_hull([(0, 0), (3, 0), (2.5, 1), (1, 1)])
    f = face_from([(1, 1), (2.5, 1)])
    return double_integrator(), p, f


def pinned_corner_fixture():
    """Only the equilibrium corner fails (slanted edge is the target)."""
    p = geo.convex_hull([(0, 0), (3, 0), (2.5, 1), (1, 1)])
    f = face_from([(3, 0), (2.5, 1)])
    return double_integrator(), p, f


def chain_integrator(n):
    """x1' = xn, with x2..xn driven by the n-1 inputs."""
    A = np.zeros((n, n))
    A[0, n - 1] = 1.0
    return AffineSystem(A, np.zeros(n), np.vstack([np.zeros((1, n - 1)), np.eye(n - 1)]))


def integrator_3d():
    return chain_integrator(3)


def cube_fixture():
    """Unit cube under the 3-D chain integrator, with the x1 = 1 facet as
    target."""
    p = geo.Polytope.box([0, 0, 0], [1, 1, 1])
    return integrator_3d(), p, facet_face(p, [1, 0, 0])


def box4d_fixture():
    """Unit 4-D box under the 4-D chain integrator, with the x1 = 1 facet
    as target."""
    p = geo.Polytope.box([0] * 4, [1] * 4)
    return chain_integrator(4), p, facet_face(p, [1, 0, 0, 0])


def sweep_problem(n, k, r):
    """Item (n, k, r) of the seeded sweep of crossing-plane hulls: k
    points in [0, 1]^(n-1) x [-0.5, 1] from default_rng([7, n, k, r]),
    drawn again until they span R^n, so that the chain integrator's
    equilibrium plane x_n = 0 crosses their hull; the target is the facet
    whose normal is closest to +x1."""
    rng = np.random.default_rng([7, n, k, r])
    while True:
        pts = rng.uniform([0.0] * (n - 1) + [-0.5], [1.0] * n, size=(k, n))
        if geo.affine_dimension(pts) == n:
            break
    p = geo.convex_hull(pts)
    f = max(p.facets(), key=lambda face: float(face.supporting.normal[0]))
    return chain_integrator(n), p, f


def general_problem(n, r):
    """Problem r of the general population at dimension n: a standard
    normal system (A, a, B) with n - 1 inputs, the hull of n + 3 points
    uniform in [-1, 1]^n around the point of the equilibrium plane
    nearest the origin, and one of its facets, drawn in this order from
    default_rng([11, n, r]).  Unlike the chain integrator's, its drift
    direction and equilibrium plane are oblique."""
    rng = np.random.default_rng([11, n, r])
    A = rng.standard_normal((n, n))
    a = rng.standard_normal(n)
    B = rng.standard_normal((n, n - 1))
    sys = AffineSystem(A, a, B)
    plane = equilibrium_plane(sys)
    c = plane.offset * plane.normal
    p = geo.convex_hull(c + rng.uniform(-1, 1, (n + 3, n)))
    f = p.facets()[rng.integers(len(p.facets()))]
    return sys, p, f


def tet_cover_f_fixture():
    """Tetrahedron under the 3-D chain integrator whose only anchors lie
    on the facet carrying its non-facet target, so the cover w.r.t. F
    runs."""
    p = geo.convex_hull([(0, 0, 0), (0, 1, 0), (3, 0.5, 0.5), (1, 0.5, 1)])
    return integrator_3d(), p, face_from([(0, 0, 0), (0, 0.6, 0), (3, 0.5, 0.5)])


def ill1_fixture():
    """Target strictly inside a slanted facet; an anchor exists off the
    carrying facet."""
    p = geo.convex_hull([(0, 0), (3, 0), (2, 1), (0, 1)])
    f = face_from([(2.5, 0.5), (3, 0)])
    return double_integrator(), p, f


def ill3_fixture():
    """3-D tetrahedron whose only admissible anchors sit on the facet
    carrying the target, but a target vertex reaches the top face."""
    p = geo.convex_hull([(0, 0, 0), (0, 1, 0), (3, 0.5, 0.5), (1, 0.5, 1)])
    f = face_from([(0, 0, 0), (0, 0.6, 0), (3, 0.5, 0.5)])
    return integrator_3d(), p, f


def ill2_fixture():
    """No target vertex on the top face: the far split applies."""
    p = geo.convex_hull([(0, 0), (2, 0), (2, -1)])
    f = face_from([(0, 0), (1.5, -0.75)])
    return double_integrator(), p, f


def o_cross_fixture():
    """Equilibrium plane through the interior; the target hangs on the
    upper right."""
    p = geo.convex_hull([(0, 0), (0, 1), (3, 1), (3, -1), (1, -1)])
    f = face_from([(3, 0), (3, 1)])
    return double_integrator(), p, f


def top_edge_fixture():
    """Trapezoid whose top edge is the target; the anchor is that edge's
    drift-top end, so the target simplex exits through a facet other
    than the one opposite the anchor."""
    p = geo.convex_hull([(0, 1.5), (2, 1.5), (1.5, 0.5), (0.5, 0.5)])
    return double_integrator(), p, facet_face(p, [0, 1])


def diamond_fixture():
    """Slanted equilibrium plane crossing the interior; both sides carry
    an (n-1)-dimensional share of the target, and a single pinned corner
    forces every piece to shave a margin sliver there."""
    sys = AffineSystem([[1.0, 1.0], [0.0, 0.0]], [0.0, 0.0], [[0.0], [1.0]])
    p = geo.convex_hull([(2, 0), (0, 2), (-1, 1), (0, -2)])
    f = face_from([(2, 0), (0, -2)])
    return sys, p, f


def box_left_fixture():
    """The box with its left edge as target: the drift pushes every state
    right, away from it, so nothing is reachable."""
    p = geo.convex_hull([(0, 0), (2, 0), (2, 1), (0, 1)])
    return double_integrator(), p, facet_face(p, [-1, 0])


def direct_cut_fixture():
    """A quadrilateral under a random controllable system, crossed by the
    equilibrium plane (perfbench's synth2d ``rand15_sub``, seed 1): at the
    default margin the cover's direct cut on side 1 would cut into its
    target's top level."""
    sys = AffineSystem([[-0.5416846289690264, -1.2388114913812769],
                        [-2.061313131034168, -0.23568654281141188]],
                       [-0.49508498568095355, -0.8406850554826133],
                       [[0.2804473730592139], [0.768946600204179]])
    p = geo.convex_hull([(-0.697198553867967, 0.8042379490121353),
                         (-0.5849212736771275, -0.4987768644698712),
                         (0.227292705877739, 0.8152671785903032),
                         (0.4792308958384556, -0.7855470253833517)])
    f = face_from([(0.23782064961111227, 0.748372668196118),
                   (0.36749034587971385, -0.07554803887927042)])
    return sys, p, f


def interface_cut_fixture():
    """A pentagon under a random controllable system, crossed by the
    equilibrium plane (perfbench's synth2d ``rand19_sub``, seed 1): at the
    default margin the cover's interface cut on side 0 exceeds that
    side's drift extent."""
    sys = AffineSystem([[-0.9749031089011143, -0.39360151803375576],
                        [-0.04034756151388599, 2.8934728752629666]],
                       [0.7415838903948831, -1.1538503820163837],
                       [[1.4614027168674653], [0.3639882773298222]])
    p = geo.convex_hull([(-0.6162503404056896, -0.5859323059909806),
                         (-0.5748277196823831, 0.5541123876936042),
                         (-0.1866123087710027, -0.3476208360333839),
                         (0.24508998111679015, 0.4176403824989794),
                         (0.5613825776906767, 0.11937210326747458)])
    f = face_from([(-0.5994182794429797, -0.12267572180493841),
                   (-0.5772305294408486, 0.48798160052371153)])
    return sys, p, f


# -- exact affine stepping ---------------------------------------------------

def affine_stepper(A, dt):
    """Exact one-step map for dx/dt = A x + c with constant c:
    x(t+dt) = E x(t) + M c."""
    n = A.shape[0]
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n] = A
    aug[:n, n:] = np.eye(n)
    big = expm(aug * dt)
    return big[:n, :n], big[:n, n:]


# -- sampled open-loop reachability oracle (2-D) -----------------------------

def _segment_membership(f, tol=2e-3):
    a, b = f.vertices[0], f.vertices[-1]
    d = b - a
    L2 = float(d @ d)
    normal = np.array([-d[1], d[0]]) / np.sqrt(L2)

    def inside(pts, tol=tol):
        pts = np.atleast_2d(pts)
        t = (pts - a) @ d / L2
        dist = np.abs((pts - a) @ normal)
        return (t >= -tol) & (t <= 1 + tol) & (dist <= tol)

    return inside


def control_plans(u_values, horizons, switch_fracs=((1 / 3, 2 / 3),)):
    """Piecewise-constant three-segment plans: a value per segment from a
    grid, switch times from a grid of fractions of each horizon."""
    plans = []
    for T in horizons:
        for f1, f2 in switch_fracs:
            durs = (T * f1, T * (f2 - f1), T * (1 - f2))
            for vals in itertools.product(u_values, repeat=3):
                plans.append((durs, vals))
    return plans


def open_loop_reaches(sys, p, f, x0s, plans, dt=5e-3, viol_tol=VIOL_TOL):
    """For each start state, can any plan reach the target segment while
    staying inside the polytope (violation below tolerance)?

    All (plan, point) pairs advance in lockstep with the exact affine
    step; boundary crossings are located by linear interpolation inside a
    step.  Rows whose trajectory dies are compacted away periodically.
    """
    x0s = np.atleast_2d(np.asarray(x0s, dtype=float))
    npts = len(x0s)
    A_hs = np.array([h.normal for h in p.halfspaces])
    b_hs = np.array([h.offset for h in p.halfspaces])
    on_target = _segment_membership(f)
    Bvec = sys.B.ravel()

    reached = np.zeros(npts, dtype=bool)
    reached |= on_target(x0s, tol=1e-9)

    nplans = len(plans)
    # per-plan piecewise-constant control over a global step clock
    nsteps_plan = []
    for durs, _ in plans:
        nsteps_plan.append(int(round(sum(durs) / dt)))
    nsteps = max(nsteps_plan)
    u_of_plan = np.zeros((nplans, nsteps))
    ends = np.zeros(nplans, dtype=int)
    for i, (durs, vals) in enumerate(plans):
        k = 0
        for dur, u in zip(durs, vals):
            kk = int(round(dur / dt))
            u_of_plan[i, k:k + kk] = u
            k += kk
        ends[i] = k

    E, M = affine_stepper(sys.A, dt)
    Ma = M @ sys.a
    MB = M @ Bvec

    row_plan = np.repeat(np.arange(nplans), npts)
    row_pt = np.tile(np.arange(npts), nplans)
    x = x0s[row_pt].copy()
    vals_old = x @ A_hs.T - b_hs
    live = ~reached[row_pt]

    for k in range(nsteps):
        if k % 25 == 0:
            keep = live & ~reached[row_pt] & (k < ends[row_plan])
            if not keep.all():
                idx = np.flatnonzero(keep)
                if len(idx) == 0:
                    break
                row_plan, row_pt = row_plan[idx], row_pt[idx]
                x, vals_old = x[idx], vals_old[idx]
                live = live[idx]
        u = u_of_plan[row_plan, k]
        expired = k >= ends[row_plan]
        xn = x @ E.T + Ma + u[:, None] * MB
        vals_new = xn @ A_hs.T - b_hs
        worst = vals_new.max(axis=1)
        crossing = live & ~expired & (worst > viol_tol)
        if crossing.any():
            idx = np.flatnonzero(crossing)
            vo, vn = vals_old[idx], vals_new[idx]
            delta = vn - vo
            with np.errstate(divide="ignore", invalid="ignore"):
                tt = np.where((vn > viol_tol) & (delta > 1e-15), -vo / delta, np.inf)
            tstar = np.clip(tt.min(axis=1), 0.0, 1.0)
            exit_pts = x[idx] + tstar[:, None] * (xn[idx] - x[idx])
            hit = on_target(exit_pts)
            reached[row_pt[idx[hit]]] = True
            live[idx] = False
        adv = live & ~expired
        x[adv] = xn[adv]
        vals_old[adv] = vals_new[adv]
    return reached


_FULL_FRACS = ((0.05, 0.5), (0.1, 0.55), (1 / 3, 2 / 3), (0.15, 0.8), (0.25, 0.75), (0.5, 0.9))
COARSE_PLANS = control_plans((-50.0, -4.0, -1.0, 0.0, 1.0, 4.0, 50.0), (2.5,))
FULL_PLANS = control_plans((-50.0, -15.0, -4.0, -1.5, -0.5, 0.0, 0.5, 1.5, 4.0, 15.0, 50.0),
                           (2.5, 6.0), _FULL_FRACS)


def oracle_reaches(sys, p, f, x0s, full=False):
    x0s = np.atleast_2d(x0s)
    reached = open_loop_reaches(sys, p, f, x0s, COARSE_PLANS)
    if full and not reached.all():
        rest = np.flatnonzero(~reached)
        reached[rest] = open_loop_reaches(sys, p, f, x0s[rest], FULL_PLANS)
    return reached


def interior_grid(p, k=20, shrink=1e-3):
    """Points of a k-by-k bounding-box grid that lie inside p."""
    lo, hi = p.bounding_box()
    xs = np.linspace(lo[0], hi[0], k)
    ys = np.linspace(lo[1], hi[1], k)
    pts = np.array([(x, y) for x in xs for y in ys])
    c = p.centroid()
    pts = c + (pts - c) * (1.0 - shrink)
    A_hs = np.array([h.normal for h in p.halfspaces])
    b_hs = np.array([h.offset for h in p.halfspaces])
    inside = np.all(pts @ A_hs.T - b_hs <= -1e-9, axis=1)
    return pts[inside]


# -- reference for the simplex table -----------------------------------------

def reference_simplex_table(vertices):
    """The (V | normals | offsets) table of ``geo.Simplex`` built one facet
    at a time: facet j's normal is the null vector of its edge vectors
    (SVD), signed so that the omitted vertex j lies below it."""
    V = np.asarray(vertices, dtype=float)
    n = V.shape[1]
    table = np.zeros((n + 1, 2 * n + 1))
    table[:, :n] = V
    for j in range(n + 1):
        others = np.delete(V, j, axis=0)
        normal = np.linalg.svd(others[1:] - others[0])[2][-1]
        offset = float(normal @ others[0])
        if normal @ V[j] > offset:
            normal, offset = -normal, -offset
        table[j, n:-1] = normal / np.linalg.norm(normal)
        table[j, -1] = offset / np.linalg.norm(normal)
    return table


# heights of the slivers among ``random_simplices``, as a share of the width
SLIVERS = (1.0, 1e-2, 1e-3, 1e-4)


def random_simplices(rng, n):
    """Vertices of random n-simplices, four of each kind at each scale
    1e-5, 1e-4, ..., 1e5: flat slivers (the last coordinate squeezed) and
    caps (vertex 0 pulled towards the centroid of its facet), of relative
    heights ``SLIVERS``, 1 giving plain simplices.  Every kind is kept at
    every scale: ``geo.rank`` counts singular values against the largest,
    so a sliver's height matters only relative to its width."""
    for scale in 10.0 ** np.arange(-5, 6):
        for thin in SLIVERS:
            for _ in range(4):
                flat = rng.normal(size=(n + 1, n))
                flat[:, -1] *= thin
                cap = rng.normal(size=(n + 1, n))
                cap[0] = cap[1:].mean(axis=0) + thin * (cap[0] - cap[1:].mean(axis=0))
                yield flat * scale
                yield cap * scale


def vertex_cloud(rng, n, d, offset):
    """Points spanning a random d-plane of R^n: the vertices of a random
    d-simplex, a random point inside it, a random point of each facet moved
    ``offset`` along the facet's outward normal, the edge midpoints and the
    centroid."""
    pts = rng.normal(size=(d + 1, d))
    cloud = [pts, [rng.dirichlet(np.ones(d + 1)) @ pts, pts.mean(axis=0)]]
    # row j: gradient of the barycentric coordinate of vertex j, which
    # points into the simplex from the facet omitting vertex j
    grads = np.linalg.inv(np.vstack([pts.T, np.ones(d + 1)]))[:, :d]
    for j in range(d + 1):
        facet = np.delete(pts, j, axis=0)
        out = -grads[j] / np.linalg.norm(grads[j])
        cloud.append([rng.dirichlet(np.ones(d)) @ facet + offset * out])
    cloud.append([(a + b) / 2 for a, b in itertools.combinations(pts, 2)])
    basis, _ = np.linalg.qr(rng.normal(size=(n, d)))
    return np.vstack(cloud) @ basis.T + rng.normal(size=n)


# -- references for the closed loop ------------------------------------------

# HiGHS at its tightest feasibility tolerances, for the LP references
TIGHT_HIGHS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def hull_distance(point, vertices):
    """Inf-norm distance from ``point`` to conv(vertices), by scipy's LP:
    min s  s.t.  |V^T lam - point| <= s, sum lam = 1, lam >= 0.  HiGHS
    runs at its tightest feasibility tolerances: at its default of 1e-7 it
    reads a distance of a few TOL_GEOM as 0."""
    V = np.atleast_2d(np.asarray(vertices, dtype=float))
    x = np.asarray(point, dtype=float)
    k, n = V.shape
    ones = -np.ones((n, 1))
    A_ub = np.vstack([np.hstack([V.T, ones]), np.hstack([-V.T, ones])])
    b_ub = np.concatenate([x, -x])
    A_eq = np.concatenate([np.ones(k), [0.0]])[None, :]
    res = linprog(np.eye(k + 1)[-1], A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=[1.0],
                  bounds=[(0, None)] * (k + 1), method="highs", options=TIGHT_HIGHS)
    assert res.status == 0, res.message
    return float(res.fun)


def reference_no_equilibrium(sys, s, gain, offset):
    """Reference for ``synth.check_no_equilibrium`` by three paths: solve
    for the stationary point of a nonsingular closed loop and test it
    against the simplex; for a singular one, ask scipy's HiGHS for a
    point of the simplex on the stationary set."""
    A_cl = sys.A + sys.B @ gain
    b_cl = sys.a + sys.B @ offset
    scale = max(np.abs(A_cl).max(), 1.0)
    if abs(np.linalg.det(A_cl)) > geo.TOL_ZERO * scale ** s.n:
        x_star = np.linalg.solve(A_cl, -b_cl)
        return not s.contains(x_star, geo.TOL_GEOM)
    res = linprog(np.zeros(s.n), A_ub=s.normals, b_ub=s.offsets, A_eq=A_cl, b_eq=-b_cl,
                  bounds=[(None, None)] * s.n, method="highs", options=TIGHT_HIGHS)
    assert res.status in (0, 2), res.message
    return res.status == 2


def flow_margin(fields):
    """The flow certificate of a simplex's closed loop, by scipy's LP:
    max mu  s.t.  xi.f_i >= mu for every vertex field f_i, |xi|_inf <= 1.
    mu > 0 certifies that every trajectory leaves the simplex, since
    xi.x grows at rate mu or more; mu is the 1-norm distance from 0 to
    conv{f_i}, so mu = 0 exactly where the simplex holds a stationary
    point."""
    F = np.atleast_2d(np.asarray(fields, dtype=float))
    n = F.shape[1]
    A_ub = np.hstack([-F, np.ones((len(F), 1))])
    res = linprog(-np.eye(n + 1)[-1], A_ub=A_ub, b_ub=np.zeros(len(F)),
                  bounds=[(-1, 1)] * n + [(None, None)], method="highs")
    assert res.status == 0, res.message
    return -float(res.fun)


def lp_point_in_hull(point, vertices, tol=geo.TOL_GEOM):
    """Membership by scipy's LP (``hull_distance``) after the vertex check
    alone, with no closed-form rejection."""
    V = np.atleast_2d(np.asarray(vertices, dtype=float))
    x = np.asarray(point, dtype=float)
    if np.min(np.max(np.abs(V - x), axis=1)) <= tol:
        return True
    return hull_distance(x, V) <= tol


def lp_hull_meets_planes(vertices, planes):
    """The LP the equilibrium slice's activity once took: does
    conv(vertices) meet every given hyperplane in one point, i.e. is some
    convex combination of the vertices on all of them?"""
    V = np.atleast_2d(np.asarray(vertices, dtype=float))
    k = len(V)
    eq = np.array([np.ones(k)] + [V @ pl.normal for pl in planes])
    rhs = np.array([1.0] + [pl.offset for pl in planes])
    res = linprog(np.zeros(k), A_eq=eq, b_eq=rhs, bounds=[(0, None)] * k, method="highs",
                  options=TIGHT_HIGHS)
    assert res.status in (0, 2), res.message
    return res.status == 0


# fractions along each edge of a level face at which ``uncovered_samples``
# tests it, dense towards the ends, where a target that misses a vertex by
# little misses the edges near it
EDGE_FRACTIONS = (1e-3, 5e-3, 0.02, 0.1, 0.25, 0.5, 0.75, 0.9, 0.98, 0.995, 0.999)


def uncovered_samples(f, analysis, count=100, seed=0):
    """The points of a sample of ``h_minus`` covered by neither the target
    nor ``b_minus`` at TOL_INCIDENCE: its vertices, the points at
    ``EDGE_FRACTIONS`` along each of its edges, and ``count`` random
    convex combinations of its vertices (seeded)."""
    h_minus, b_minus = analysis.h_minus, analysis.b_minus
    V = h_minus.vertices
    t = np.array(EDGE_FRACTIONS)[:, None]
    edges = [(1 - t) * V[i] + t * V[j] for i, j in h_minus.edges]
    inner = np.random.default_rng(seed).dirichlet(np.ones(len(V)), size=count) @ V

    def covered(x):
        return geo.point_in_hull(x, f.vertices, geo.TOL_INCIDENCE) or \
            (not b_minus.is_empty and geo.point_in_hull(x, b_minus.vertices, geo.TOL_INCIDENCE))

    pts = np.vstack([V, *edges, inner])
    return pts[[not covered(x) for x in pts]]


def right_target_polygons(count):
    """The first ``count`` random polygons (seeded) under the double
    integrator whose facet facing +x1 is a reachable target, as
    (system, polytope, target, geometry, analysis)."""
    rng = np.random.default_rng(5)
    sys = double_integrator()
    out = []
    while len(out) < count:
        pts = rng.uniform([0, 0.2], [3, 1.5], size=(rng.integers(4, 8), 2))
        if geo.affine_dimension(pts) < 2:
            continue
        p = geo.convex_hull(pts)
        # rightmost facet as target: reachable under rightward drift
        f = next((geo.Face(face.vertices, face.supporting, face.dim) for face in p.facets()
                  if face.supporting.normal[0] > 0.9), None)
        if f is None:
            continue
        geom = compute_geometry(sys, p)
        ra = reach.analyze(geom, p, f)
        if ra.reachable:
            out.append((sys, p, f, geom, ra))
    return out


def reference_facet_adjacency(simplices):
    """The pairwise facet adjacency of a triangulation: every pair i < j,
    in that order, whose vertex sets (points rounded to ``KEY_DECIMALS``)
    share exactly n points, with the index in each of the one vertex it
    does not share."""
    keys = [[tuple(np.round(v, geo.KEY_DECIMALS)) for v in s.vertices] for s in simplices]
    keysets = [set(k) for k in keys]
    n = simplices[0].n if simplices else 0
    out = []
    for i, j in itertools.combinations(range(len(simplices)), 2):
        shared = keysets[i] & keysets[j]
        if len(shared) == n:
            ki = next(k for k, key in enumerate(keys[i]) if key not in shared)
            kj = next(k for k, key in enumerate(keys[j]) if key not in shared)
            out.append((i, j, ki, kj))
    return out


def lp_target_exits(tri, f):
    """The LP rule for target exits: each simplex exits through its first
    facet whose vertices all lie in conv(f), by ``lp_point_in_hull`` at
    TOL_INCIDENCE; a simplex with no such facet is absent."""
    exits = {}
    for idx, s in enumerate(tri.simplices):
        for j in range(s.n + 1):
            base = np.delete(s.vertices, j, axis=0)
            if all(lp_point_in_hull(v, f.vertices, geo.TOL_INCIDENCE) for v in base):
                exits[idx] = j
                break
    return exits


# -- plane references for the target exits and the cones over a facet -------

def plane_target_exits(t, target):
    """The plane rule for the exits of a triangulation through a target
    facet, given by its halfspace: a simplex facet lies in it when its n
    vertices lie on its plane within TOL_INCIDENCE, so a simplex with
    exactly one vertex off the plane exits through the facet omitting
    that vertex."""
    off = np.abs(t.levels(target.normal) - target.offset) > geo.TOL_INCIDENCE
    one = np.flatnonzero(off.sum(axis=1) == 1)
    return dict(zip(one.tolist(), off[one].argmax(axis=1).tolist()))


def plane_cones_off_facet(p, vstar, h):
    """The simplices of the fan of p from vstar whose base, every vertex
    but the anchor, does not lie on the plane of h within TOL_INCIDENCE,
    as an (S, n+1, n) stack."""
    V = p.vertices[geo.fan(p, vstar)]
    return V[np.abs(V[:, 1:] @ h.normal - h.offset).max(axis=1) > geo.TOL_INCIDENCE]


def reference_wrt_F(p, f, vstar):
    """``triangulate.triangulation_wrt_F`` by the hulls it once took: the
    fan from the anchor of the hull of the anchor and the target, and of
    each full-dimensional piece of the hull of the anchor and the
    carrying facet outside each facet of the first hull through the
    anchor, clipped off in that hull's facet order; the fan's cones off
    the carrying facet as ``triangulation_wrt_F`` keeps them."""
    vstar = np.asarray(vstar, dtype=float)
    k = geo.carrying_facet(p, f)
    target = geo.convex_hull(np.vstack([vstar, f.vertices]))
    cones = [target.vertices[geo.fan(target, vstar)]]
    n_target = len(cones[0])
    rows = geo.fan(p, vstar)
    cones.append(p.vertices[rows[~p.incidence[rows[:, 1:], k].all(axis=1)]])
    rest = geo.convex_hull(np.vstack([vstar, p.vertices[p.incidence[:, k]]]))
    apex = np.abs(target.vertices - vstar).max(axis=1) <= geo.TOL_MERGE
    for g, through in zip(target.halfspaces, target.incidence[apex].any(axis=0)):
        if through:
            piece = geo.clip_to_halfspace(rest, g.flipped())
            if piece.is_full_dim:
                cones.append(piece.vertices[geo.fan(piece, vstar)])
            rest = geo.clip_to_halfspace(rest, g)
    V = np.concatenate(cones)
    order = tri._key_order(V)
    exits = dict.fromkeys(np.flatnonzero(order < n_target).tolist(), 0)
    return tri.Triangulation(geo.simplex_tables(V[order]), vstar, exits)


# -- references for the fan and the cover gap --------------------------------

def reference_fan(p, anchor):
    """``geo.fan`` by the full recursion: every face, simplices included,
    coned from its first vertex over each of its facets that misses it,
    down to single vertices, the facets of a face read off ``p.incidence``
    by ``reference_maximal_sets``; an (S, n+1) array of vertex indices."""
    def cone(face, apex):
        if len(face) == 1:
            return [[apex]]
        on = p.incidence[face]
        proper = on[:, ~on.all(axis=0)].T
        out = []
        for r in reference_maximal_sets(proper):
            sub = face[proper[r]]
            if apex not in sub:
                out += [[apex] + s for s in cone(sub, int(sub[0]))]
        return out

    hit = np.flatnonzero(np.abs(p.vertices - anchor).max(axis=1) <= geo.TOL_MERGE)
    rows = cone(np.arange(len(p.vertices)), int(hit[0]))
    return np.array(rows, dtype=int).reshape(-1, p.n + 1)


def uncovered_volume(domain, pieces, cut_planes):
    """Volume of ``domain`` that no piece covers, by the arrangement of the
    cut planes.  The cut planes must include every hyperplane used to carve
    the pieces out of the domain, so that each arrangement cell is covered
    either fully or not at all; cell membership is then decided at the
    centroid, within TOL_INCIDENCE."""
    cells = [domain]
    for plane in cut_planes:
        nxt = [part for c in cells for part in geo.split_by_hyperplane(c, plane)
               if part.is_full_dim]
        if nxt:
            cells = nxt
    return sum(c.volume() for c in cells
               if not any(piece.contains(c.centroid(), geo.TOL_INCIDENCE)
                          for piece in pieces if not piece.is_empty))


def simplex_levels(geom, simplices):
    """The (S, n+1) drift levels of the vertices of a list of simplices
    along ``geom.beta``, as ``Triangulation.levels`` gives them: one
    simplex's rows times beta, the same bits alone or stacked."""
    return np.array([s.vertices @ geom.beta for s in simplices])


def synth_simplices(sys, geom, simplices, exit_facets):
    """``synth.synth_simplex`` of a list of simplices of one leaf of
    geometry ``geom``: their table stack, their exit facets and their
    vertex levels (``simplex_levels``)."""
    return synth.synth_simplex(sys, geom, np.stack([s.table for s in simplices]),
                               exit_facets, simplex_levels(geom, simplices))


def reference_midlevel_split(geom, s, exit_facet):
    """``synth._midlevel_split`` of one simplex, as a list of its pieces'
    simplices: the simplex itself, or, when the apex sits above the whole
    exit facet and that facet lies on the equilibrium plane, its split at
    the drift midlevel of the exit facet, the lower part (the original
    exit) first and the upper one (the apex, draining through the fresh
    interior facet of the same index) second.  The levels are those of
    ``simplex_levels``; each vertex is tested on the plane alone."""
    V = s.vertices
    levels = V @ geom.beta
    apex = V[exit_facet]
    exit_ids = [j for j in range(s.n + 1) if j != exit_facet]
    lvl_minus, lvl_plus = float(levels[exit_ids].min()), float(levels[exit_ids].max())
    lvl_apex = float(levels[exit_facet])
    if not (lvl_apex > lvl_plus + geo.TOL_GEOM
            and all(geom.on_equilibrium_plane(V[j]) for j in exit_ids)):
        return [s]
    w_minus_id = exit_ids[int(np.argmin(levels[exit_ids]))]
    w_minus = V[w_minus_id]
    mid = 0.5 * (lvl_minus + lvl_plus)
    t = (mid - lvl_minus) / (lvl_apex - lvl_minus)
    v_prime = w_minus + t * (apex - w_minus)
    lo_verts = V.copy()
    lo_verts[exit_facet] = v_prime
    up_verts = V.copy()
    up_verts[w_minus_id] = v_prime
    return [geo.Simplex(lo_verts), geo.Simplex(up_verts)]


def reference_synth_polytope(sys, p, f, eps=None):
    """``synth.synth_polytope`` as a recursion: each split synthesizes its
    sub-problems by calling itself, in order, and each leaf is ordered
    greedily and solved by its own ``synth_simplex`` call as it is
    reached, so an error raises where the recursion meets it.
    ``synth_polytope`` gives the same controller, and the same error
    unless a branch fails after a failing leaf: its walk raises the
    branch's error before any leaf is solved.  Every level builds its own
    controller; a split reads the pieces of its sub-problems' controllers
    into a list (each read piece is a view), prefixes their ranks, and
    stacks them into its own controller, discarding theirs."""
    if eps is not None and not eps > 0:
        raise ValueError("eps must be positive")
    branch = synth._branch(sys, p, f, eps)
    if isinstance(branch, synth._Split):
        pieces, notes = [], [branch.note]
        for sub_p, sub_f, prefix in branch.subs:
            sub = reference_synth_polytope(sys, sub_p, sub_f, eps)
            sub_pieces = list(sub.pieces)
            if prefix is not None:
                for piece in sub_pieces:
                    piece.rank = (prefix,) + piece.rank
            pieces += sub_pieces
            notes += sub.notes
        return PWAController.from_pieces(pieces, branch.domain, notes)
    t, geom = branch
    greedy = synth.greedy_paths(t, geom)
    tables, laws, scalars, sources = synth_simplices(
        sys, geom, [t.simplices[i] for i in greedy.order],
        [greedy.exit_facet[i] for i in greedy.order])
    scalars["path_len"] = [greedy.path_len[greedy.order[j]] for j in sources.tolist()]
    return PWAController(tables[..., :p.n], laws, scalars, [()] * len(sources), p)


def loop_locate(ctrl, X, tol=geo.TOL_MERGE):
    """Index of the preferred piece holding each row of X, or -1, by a
    scan over every piece for every state."""
    out = []
    for x in np.asarray(X, dtype=float):
        best, best_key = -1, None
        for piece in ctrl.pieces:
            if piece.region.contains(x, tol):
                key = (piece.rank, piece.path_len, piece.sub_rank, piece.index)
                if best_key is None or key < best_key:
                    best, best_key = piece.index, key
        out.append(best)
    return np.array(out, dtype=int)


def use_reference_stepper(monkeypatch):
    """Make ``sim.integrate`` resolve pieces by ``loop_locate`` and test the
    target by ``lp_point_in_hull`` alone, past the exact vertex exit of the
    face's ``contains``: every face's exclusion rows
    (``Polytope.exclusion``, which ``sim`` reads) are none, whatever a face
    has kept."""
    monkeypatch.setattr(PWAController, "locate", loop_locate)
    monkeypatch.setattr(geo, "_in_hull", lambda x, V, rule, tol: lp_point_in_hull(x, V, tol))
    monkeypatch.setattr(geo.Polytope, "exclusion", property(
        lambda face: geo.HullRows(np.zeros((0, face.n)), np.zeros(0), np.zeros(0), None)))


def law_rows(ctrl, states, piece_ids, m):
    """Each state's control under the law of its piece id, zeros at -1,
    rounded both ways numpy rounds a product of a law and states:
    ``alone``, the state's row in a product by itself, and ``in_block``,
    the row in a product of two rows (and of any more, which round each
    row alike)."""
    alone, in_block = np.zeros((len(states), m)), np.zeros((len(states), m))
    for j, (x, piece) in enumerate(zip(states, piece_ids)):
        if piece >= 0:
            pc = ctrl.pieces[piece]
            alone[j] = x[None] @ pc.gain.T + pc.offset
            in_block[j] = (np.vstack([x, x]) @ pc.gain.T + pc.offset)[0]
    return alone, in_block


def max_exit_time(normals, offs, A_cl, b_cl, x, h):
    """``sim._exit_time`` with each halving decided by the largest facet
    quartic, every facet evaluated: the same coefficients and the same
    Horner pass per facet."""
    terms = [A_cl @ x + b_cl]
    for k in (2, 3, 4):
        terms.append(A_cl @ terms[-1] / k)
    quartics = np.column_stack([normals @ np.array(terms[::-1]).T, normals @ x - offs]).tolist()
    lo_t, hi_t = 0.0, h
    while hi_t - lo_t > sim._EVENT_TIME_TOL:
        s = 0.5 * (lo_t + hi_t)
        if max((((a * s + b) * s + c) * s + d) * s + e for a, b, c, d, e in quartics) > 0.0:
            hi_t = s
        else:
            lo_t = s
    return hi_t


def reference_rk4_step(A_cl, b_cl, x, h):
    """One classical RK4 step of length h from x on x' = A_cl x + b_cl,
    by its four stages: the reference of ``sim._rk4_step``, which takes
    the step as its map x + (D x + c)."""
    k1 = A_cl @ x + b_cl
    k2 = A_cl @ (x + 0.5 * h * k1) + b_cl
    k3 = A_cl @ (x + 0.5 * h * k2) + b_cl
    k4 = A_cl @ (x + h * k3) + b_cl
    return x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def rk4_exit_time(normals, offs, A_cl, b_cl, x, h):
    """The reference of ``sim._exit_time``: the same bisection, with each
    point's state stepped by ``sim._rk4_step`` and tested against every
    facet ``normals y <= offs``."""
    lo_t, hi_t = 0.0, h
    while hi_t - lo_t > sim._EVENT_TIME_TOL:
        mid = 0.5 * (lo_t + hi_t)
        if (normals @ sim._rk4_step(A_cl, b_cl, x, mid) - offs).max() > 0.0:
            hi_t = mid
        else:
            lo_t = mid
    return hi_t


@dataclass
class SteppedRun:
    """The record of ``stepwise_integrate``: the fields a ``sim.Trajectory``
    reads, each control built as its step is taken."""
    times: np.ndarray
    states: np.ndarray
    controls: np.ndarray
    piece_ids: np.ndarray
    outcome: sim.Outcome
    max_violation: float


def stepwise_integrate(sys, ctrl, x0, dt=None, tmax=None, f=None, domain=None):
    """``sim.integrate`` one RK4 step at a time: the piece is looked up,
    the step taken by ``sim._rk4_step`` and the domain and target tested
    for each step in turn.  A step that leaves the domain off the target
    is bisected on the piece's rows too, and where it leaves the piece
    first for another, the run goes on from there."""
    domain = domain if domain is not None else ctrl.domain
    if dt is None:
        dt = sim.default_dt(sys, ctrl)
    if tmax is None:
        lo, hi = domain.bounding_box()
        tmax = 1e4 * dt * max(1.0, float(np.linalg.norm(hi - lo)))
    x = np.asarray(x0, dtype=float).copy()
    normals = np.array([h.normal for h in domain.halfspaces])
    offs = np.array([h.offset for h in domain.halfspaces])

    def violation(state):
        return float((normals @ state - offs).max())

    def on_target(state):
        return f is not None and geo.point_in_hull(state, f.vertices, sim.TOL_SIM)

    def done(outcome):
        return SteppedRun(np.array(times), np.array(states), np.array(controls),
                          np.array(ids), outcome, max_viol)

    times, states, controls, ids = [0.0], [x.copy()], [], []
    max_viol = max(violation(x), 0.0)

    if on_target(x):
        piece = ctrl.lookup(x, sim.TOL_SIM)
        controls.append(piece.control(x) if piece else np.zeros(sys.m))
        ids.append(piece.index if piece else -1)
        return done(sim.Outcome(sim.REACHED, 0.0))

    t = 0.0
    while t < tmax:
        piece = ctrl.lookup(x, sim.TOL_SIM)
        if piece is None:
            controls.append(np.zeros(sys.m))
            ids.append(-1)
            return done(sim.Outcome(sim.GAP, t))
        A_cl, b_cl = synth.closed_loop(sys, piece.law)
        controls.append(piece.control(x))
        ids.append(piece.index)

        h = min(dt, tmax - t)
        x_new = sim._rk4_step(A_cl, b_cl, x, h)
        viol = violation(x_new)
        if viol > sim.TOL_SIM:
            hi_t = rk4_exit_time(normals, offs, A_cl, b_cl, x, h)
            x_exit = sim._rk4_step(A_cl, b_cl, x, hi_t)
            if not on_target(x_exit):
                region = piece.region
                s = rk4_exit_time(region.normals, region.offsets + sim.TOL_SIM,
                                  A_cl, b_cl, x, h)
                x_piece = sim._rk4_step(A_cl, b_cl, x, s)
                after = ctrl.lookup(x_piece, sim.TOL_SIM) if s < hi_t else piece
                if after is None or after.index != piece.index:
                    # the piece is left first: go on from there
                    t += s
                    x = x_piece
                    times.append(t)
                    states.append(x.copy())
                    continue
            t_exit = t + hi_t
            times.append(t_exit)
            states.append(x_exit.copy())
            controls.append(piece.control(x_exit))
            ids.append(piece.index)
            if on_target(x_exit):
                return done(sim.Outcome(sim.REACHED, t_exit))
            facet = int(np.argmax(normals @ x_exit - offs))
            return done(sim.Outcome(sim.LEFT, t_exit, facet))
        t += h
        x = x_new
        max_viol = max(max_viol, viol)
        times.append(t)
        states.append(x.copy())
        if on_target(x):
            controls.append(piece.control(x))
            ids.append(piece.index)
            return done(sim.Outcome(sim.REACHED, t))
    controls.append(np.zeros(sys.m))
    ids.append(-1)
    return done(sim.Outcome(sim.TIMEOUT, t))
