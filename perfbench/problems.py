"""Seeded problem sets for the benchmark workloads.

Every problem is ``(name, system, polytope, target, eps, expect)``; only
the generated inputs reach the program.  ``expect`` holds a hand-derived
verdict for the named fixtures and is None for random problems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from reachctl import geometry as geo
from reachctl.system import AffineSystem


@dataclass(frozen=True)
class Problem:
    name: str
    sys: AffineSystem
    p: geo.Polytope
    f: geo.Face
    eps: Optional[float] = None
    expect: Optional[dict] = None


def chain_integrator(n: int) -> AffineSystem:
    """x1' = xn, x2..xn driven by the n-1 inputs (double integrator at n=2)."""
    A = np.zeros((n, n))
    A[0, n - 1] = 1.0
    B = np.vstack([np.zeros((1, n - 1)), np.eye(n - 1)])
    return AffineSystem(A, np.zeros(n), B)


def _face(points) -> geo.Face:
    return geo.Face.from_vertices(np.asarray(points, dtype=float))


def _facet(p: geo.Polytope, normal) -> geo.Face:
    """Facet of p whose outward normal is closest to ``normal``."""
    normal = np.asarray(normal, dtype=float)
    return max(p.facets(), key=lambda face: float(face.supporting.normal @ normal))


# -- named fixtures -------------------------------------------------------------

def fixtures_2d() -> list[Problem]:
    di = chain_integrator(2)
    box = geo.convex_hull([(0, 0), (2, 0), (2, 1), (0, 1)])
    quad = geo.convex_hull([(0, 0), (3, 0), (2.5, 1), (1, 1)])
    two = geo.convex_hull([(0, 0), (3, 0), (2, 1), (0.5, 1)])
    return [
        Problem("box", di, box, _facet(box, [1, 0]), expect={"pieces": 2}),
        Problem("box_left", di, box, _facet(box, [-1, 0]), expect={"not_reachable": True}),
        Problem("wedge", di, quad, _face([(1, 1), (2.5, 1)]), eps=0.1,
                expect={"pieces": 3, "domain_shrinks": True}),
        Problem("pinned", di, quad, _face([(3, 0), (2.5, 1)])),
        Problem("two_target_f1", di, two, _face([(2.5, 0.5), (3, 0)])),
        Problem("two_target_f2", di, two, _face([(0, 0), (0.8, 0)])),
    ]


def unit_cube() -> Problem:
    cube = geo.Polytope.box([0, 0, 0], [1, 1, 1])
    return Problem("cube", chain_integrator(3), cube, _facet(cube, [1, 0, 0]))


def fixtures_nd() -> list[Problem]:
    """Unit cube, 4-D box, and a tetrahedron whose only anchors lie on the
    facet carrying its (non-facet) target, so the cover w.r.t. F runs."""
    box = geo.Polytope.box([0] * 4, [1] * 4)
    tet = geo.convex_hull([(0, 0, 0), (0, 1, 0), (3, 0.5, 0.5), (1, 0.5, 1)])
    return [
        unit_cube(),
        Problem("box4d", chain_integrator(4), box, _facet(box, [1, 0, 0, 0])),
        Problem("tet_cover_F", chain_integrator(3), tet,
                _face([(0, 0, 0), (0, 0.6, 0), (3, 0.5, 0.5)])),
    ]


# -- seeded problems ------------------------------------------------------------

# Synthesis cost and verdict change abruptly with a problem's combinatorics,
# and a trajectory's cost with its start (0.05 s to 15 s at this commit), so
# independent draws per seed would make a run's time depend on the seed more
# than on the code (10-seed spreads of 0.25 to 0.37).  Problems are therefore
# fixed base draws that the seed rescales: x -> s x maps the system
# (A, a, B) to (A, s a, B), so every number the program sees changes but the
# problem's structure does not.  Closed-loop starts are fixed base draws
# moved by a small seeded offset.
BASE_SEED = 20091221
SCALE_RANGE = (0.5, 2.0)
HULL_POINTS = {3: 6, 4: 5}
START_JITTER = 0.02      # share of the domain's extent, per coordinate


def _scale(rng: np.random.Generator) -> float:
    return float(np.exp(rng.uniform(*np.log(SCALE_RANGE))))


def _random_hull(base_rng: np.random.Generator, lo, hi, npts: int, scale: float) -> geo.Polytope:
    while True:
        pts = base_rng.uniform(lo, hi, size=(npts, len(lo)))
        if geo.affine_dimension(pts) == len(lo):
            return geo.convex_hull(pts * scale)


def _target_on(base_rng: np.random.Generator, facet: geo.Face, whole: bool) -> geo.Face:
    """The facet itself, or a random sub-segment of a 2-D edge."""
    if whole:
        return geo.Face(facet.vertices, facet.supporting, facet.dim)
    a, b = facet.vertices[0], facet.vertices[-1]
    t0, t1 = np.sort(base_rng.uniform(0.0, 1.0, size=2))
    t1 = max(t1, t0 + 0.2) if t0 < 0.8 else t1
    t0 = min(t0, t1 - 0.2)
    return _face([a + t0 * (b - a), a + t1 * (b - a)])


def _controllable_2d(base_rng: np.random.Generator, scale: float) -> AffineSystem:
    while True:
        A, a, B = base_rng.normal(size=(2, 2)), base_rng.normal(size=2), base_rng.normal(size=(2, 1))
        sys = AffineSystem(A, scale * a, B)
        if sys.input_rank() == 1 and sys.controllability_rank() == 2:
            return sys


def random_2d(rng: np.random.Generator, count: int) -> list[Problem]:
    """Polygons of 4..8 random points, half under the double integrator
    (target on the facet facing +x1) and half under random controllable
    (A, a, B) (target on a random facet); targets alternate between a whole
    facet and a sub-segment of one, so the facet, w.r.t.-F and far-split
    branches run."""
    base_rng = np.random.default_rng([BASE_SEED, 2])
    out = []
    for k in range(count):
        scale = _scale(rng)
        whole = (k // 2) % 2 == 0
        if k % 2 == 0:
            p = _random_hull(base_rng, [0.0, 0.2], [3.0, 1.5], 4 + k % 5, scale)
            sys, facet, kind = chain_integrator(2), _facet(p, [1, 0]), "di"
        else:
            p = _random_hull(base_rng, [-1.0, -1.0], [1.0, 1.0], 4 + k % 5, scale)
            facets = p.facets()
            facet = facets[int(base_rng.integers(len(facets)))]
            sys, kind = _controllable_2d(base_rng, scale), "rand"
        f = _target_on(base_rng, facet, whole)
        out.append(Problem(f"{kind}{k}_{'facet' if whole else 'sub'}", sys, p, f))
    return out


def scaled_hulls(rng: np.random.Generator, n: int, count: int) -> list[Problem]:
    """Chain integrators on point-cloud hulls whose last coordinate straddles
    0, so the equilibrium plane x_n = 0 crosses the interior and the cover
    construction runs; the target is the facet facing +x1."""
    base_rng = np.random.default_rng([BASE_SEED, n])
    lo = [0.0] * (n - 1) + [-0.5]
    hi = [1.0] * (n - 1) + [1.0]
    out = []
    for k in range(count):
        p = _random_hull(base_rng, lo, hi, HULL_POINTS[n], _scale(rng))
        out.append(Problem(f"hull{n}d_{k}", chain_integrator(n), p,
                           _facet(p, [1.0] + [0.0] * (n - 1))))
    return out


def _inside(domain: geo.Polytope, pts: np.ndarray) -> np.ndarray:
    normals = np.array([h.normal for h in domain.halfspaces])
    offsets = np.array([h.offset for h in domain.halfspaces])
    return np.all(pts @ normals.T - offsets <= -1e-9, axis=1)


def domain_samples(rng: np.random.Generator, domain: geo.Polytope, count: int) -> np.ndarray:
    """Uniform rejection samples from the bounding box of ``domain``, drawn
    as ``sim.sample_states`` draws them."""
    lo, hi = domain.bounding_box()
    out: list = []
    while len(out) < count:
        pts = rng.uniform(lo, hi, size=(max(64, 4 * count), domain.n))
        out.extend(pts[_inside(domain, pts)][: count - len(out)])
    return np.array(out)


def jittered_starts(rng: np.random.Generator, domain: geo.Polytope, count: int) -> np.ndarray:
    """The first ``count`` starts that ``sim.verify(seed=0)`` draws (for
    count <= 16), each moved by a seeded offset that stays in the domain."""
    base = domain_samples(np.random.default_rng(0), domain, count)
    lo, hi = domain.bounding_box()
    out = []
    for x in base:
        for _ in range(32):
            y = x + rng.uniform(-1.0, 1.0, size=x.shape) * START_JITTER * (hi - lo)
            if _inside(domain, y[None, :])[0]:
                x = y
                break
        out.append(x)
    return np.array(out)
