"""Low-dimensional polytope computations (ambient dimension <= 4).

The conversions enumerate n-subsets: ``hrep_to_vrep`` solves every
n-subset of the constraints and ``vrep_to_hrep`` fits a plane through
every n-subset of the vertices.  At this scale (a handful of vertices,
n <= 4) the combinatorial cost is negligible and the code stays
auditable.  Clipping, splitting and sectioning by a hyperplane work by
vertex-facet incidence, as the one-halfspace update of the
double-description method does: the vertices inside (or on the plane)
stay, and each edge the plane crosses adds its crossing point.  A clip's
facets are the halfspaces whose tight vertices span a hyperplane.  Where
that does not hold (a lower-dimensional polytope, a vertex within about
``TOL_MERGE`` of the plane whose crossing points merge with it, a sliver
result) the points go to ``convex_hull``, as a section's always do.

``convex_hull`` finds the facets first and then the vertices by
incidence, so no hull, clip, split or section solves an LP.  LPs remain
only in ``hrep_to_vrep``, whose boundedness LPs check caller input, and
in ``point_in_hull``, which solves its LP only when two exact closed
forms leave the answer open: a point near a vertex is in, and a point
outside the vertices' bounding box by more than the tolerance is out.

Every geometric comparison in the package uses one of the named
constants below, each fixed to one role, and assumes inputs scaled so the
polytope diameter is O(1): ``TOL_GEOM`` (sides and levels),
``TOL_INCIDENCE`` (incidence and membership), ``TOL_MERGE`` (coincident
points, a target in a facet's plane), ``TOL_RANK`` (affine rank),
``TOL_ZERO`` (singular systems and ties) and ``TOL_VOLUME`` (negligible
gaps), plus the decimals of the rounded point and halfspace keys.
``TOL_GEOM`` is the only tolerance for equal drift levels: every set of
points at one level comes from ``SystemGeometry.at_level``.  The LP
solver, the synthesis margins and the simulator keep their own constants
(``lp.TOL_LP``, ``synth.TOL_INV`` and ``SLACK_MIN``, ``sim.TOL_SIM``).

Constructions take no tolerance argument.  Only predicates that callers
use at more than one tolerance keep a ``tol`` argument: ``point_in_hull``,
the ``contains`` methods and ``Hyperplane.side`` here, and
``PWAController.locate`` and ``lookup`` in ``synth``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import Degenerate, DimensionDeficient, GeometryError, Unbounded
from . import lp

# absolute: which side of a plane a point lies on, equal drift levels (the
# only tolerance for them), which points a hull's facet holds
TOL_GEOM = 1e-9
# absolute: a vertex lies on a facet, in a target's hull or on the
# equilibrium plane; a candidate vertex satisfies an H-representation
TOL_INCIDENCE = 1e-8
# absolute: points closer than this (inf-norm) are one point; a target
# lies in a facet's plane; a cut keeps the target
TOL_MERGE = 1e-7
# relative to the largest singular value (or 1): smaller singular values
# do not count towards an affine rank
TOL_RANK = 1e-9
# numerically zero: determinant of a singular square system, and the
# margin that separates a better score from a tie
TOL_ZERO = 1e-12
# share of a polytope's volume (or of 1) below which a gap counts as none
TOL_VOLUME = 1e-8

# decimals of the rounded keys that identify a vertex (lexicographic
# order, simplex keys, shared facets of simplices)
KEY_DECIMALS = 9
# decimals of the halfspace key, which orders facet lists and merges the
# clip's candidate facets
HALFSPACE_KEY_DECIMALS = 8


def _as_points(points) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2:
        raise GeometryError("points must form a 2-D array")
    return pts


def _lex_order(points: np.ndarray) -> np.ndarray:
    """Indices sorting rows lexicographically (rounded to kill float noise)."""
    if len(points) == 0:
        return np.arange(0)
    keys = np.round(points, KEY_DECIMALS)
    return np.lexsort(keys.T[::-1])


def lex_sorted(points: np.ndarray) -> np.ndarray:
    return points[_lex_order(points)]


def point_key(v: np.ndarray) -> tuple:
    return tuple(np.round(v, KEY_DECIMALS))


def dedupe_points(points: np.ndarray) -> np.ndarray:
    """A copy of ``points`` without near-duplicates: a point is dropped
    when an earlier kept point is within ``TOL_MERGE`` (inf-norm)."""
    pts = _as_points(points)
    gaps = np.abs(pts[:, None, :] - pts[None, :, :]).max(axis=2, initial=0.0)
    earlier = np.tril(gaps <= TOL_MERGE, -1)
    keep = np.ones(len(pts), dtype=bool)
    for i in np.flatnonzero(earlier.any(axis=1)):
        keep[i] = not (earlier[i] & keep).any()
    return pts[keep]


def _rank(rows: np.ndarray) -> int:
    """Rank of a matrix, counting singular values above ``TOL_RANK``
    relative to the largest (or 1); 0 for a matrix without rows."""
    if len(rows) == 0:
        return 0
    s = np.linalg.svd(rows, compute_uv=False)
    return int(np.sum(s > TOL_RANK * max(s[0], 1.0)))


def affine_dimension(points) -> int:
    pts = dedupe_points(_as_points(points))
    if len(pts) == 0:
        return -1
    return _rank(pts[1:] - pts[0])


def affine_basis(points) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis (columns) of the affine hull, plus its origin."""
    pts = dedupe_points(_as_points(points))
    origin = pts[0]
    diffs = pts[1:] - origin
    if len(diffs) == 0:
        return origin, np.zeros((pts.shape[1], 0))
    u, s, vt = np.linalg.svd(diffs, full_matrices=False)
    scale = max(s[0], 1.0) if len(s) else 1.0
    rank = int(np.sum(s > TOL_RANK * scale))
    return origin, vt[:rank].T


@dataclass(frozen=True)
class HalfSpace:
    """Closed halfspace {x : normal.x <= offset} with unit normal."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        nrm = np.linalg.norm(n)
        if nrm <= TOL_GEOM:
            raise GeometryError("halfspace normal is numerically zero")
        object.__setattr__(self, "normal", n / nrm)
        object.__setattr__(self, "offset", float(self.offset) / nrm)

    def value(self, x) -> float:
        """Signed violation normal.x - offset (<= 0 inside)."""
        return float(np.dot(self.normal, x) - self.offset)

    def contains(self, x, tol: float = TOL_GEOM) -> bool:
        return self.value(x) <= tol

    def flipped(self) -> "HalfSpace":
        return HalfSpace(-self.normal, -self.offset)


@dataclass(frozen=True)
class Hyperplane:
    """{x : normal.x == offset} with unit normal."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        nrm = np.linalg.norm(n)
        if nrm <= TOL_GEOM:
            raise GeometryError("hyperplane normal is numerically zero")
        object.__setattr__(self, "normal", n / nrm)
        object.__setattr__(self, "offset", float(self.offset) / nrm)

    def value(self, x) -> float:
        return float(np.dot(self.normal, x) - self.offset)

    def side(self, x, tol: float = TOL_GEOM) -> int:
        v = self.value(x)
        if v > tol:
            return 1
        if v < -tol:
            return -1
        return 0

    def lower(self) -> HalfSpace:
        return HalfSpace(self.normal, self.offset)

    def upper(self) -> HalfSpace:
        return HalfSpace(-self.normal, -self.offset)


def hyperplane_through(points) -> Optional[Hyperplane]:
    """The hyperplane through points that span n-1 dimensions, with the
    first point as origin; None for any other span."""
    origin, basis = affine_basis(points)
    n = basis.shape[0]
    if basis.shape[1] != n - 1:
        return None
    u, s, vt = np.linalg.svd(basis.T, full_matrices=True)
    normal = vt[-1]
    return Hyperplane(normal, float(normal @ origin))


@dataclass(frozen=True)
class Face:
    """Face of a polytope: vertex set, optional supporting halfspace, dim."""

    vertices: np.ndarray
    supporting: Optional[HalfSpace]
    dim: int

    @property
    def is_empty(self) -> bool:
        return len(self.vertices) == 0

    @staticmethod
    def empty(n: int) -> "Face":
        return Face(np.zeros((0, n)), None, -1)

    @staticmethod
    def from_vertices(points, supporting: Optional[HalfSpace] = None) -> "Face":
        hull = convex_hull(points)
        return Face(hull.vertices, supporting, hull.dim)


class Polytope:
    """Bounded convex polytope carrying both representations.

    Full-dimensional polytopes have a consistent (minimal) halfspace list.
    Lower-dimensional ones carry vertices only; ``dim`` is the affine-hull
    dimension, -1 for the empty polytope.
    """

    def __init__(self, vertices: np.ndarray, halfspaces: list[HalfSpace], dim: int):
        self.vertices = vertices
        self.halfspaces = halfspaces
        self.dim = dim

    # -- constructors -------------------------------------------------------

    @staticmethod
    def empty(n: int) -> "Polytope":
        return Polytope(np.zeros((0, n)), [], -1)

    @staticmethod
    def box(lower, upper) -> "Polytope":
        lo = np.asarray(lower, dtype=float)
        hi = np.asarray(upper, dtype=float)
        corners = np.array(list(itertools.product(*zip(lo, hi))))
        return convex_hull(corners)

    # -- basic queries -------------------------------------------------------

    @property
    def n(self) -> int:
        return self.vertices.shape[1]

    @property
    def is_empty(self) -> bool:
        return len(self.vertices) == 0

    @property
    def is_full_dim(self) -> bool:
        return self.dim == self.n

    def centroid(self) -> np.ndarray:
        return self.vertices.mean(axis=0)

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def contains(self, x, tol: float = TOL_GEOM) -> bool:
        if self.is_empty:
            return False
        x = np.asarray(x, dtype=float)
        if self.is_full_dim and self.halfspaces:
            return all(h.contains(x, tol) for h in self.halfspaces)
        return point_in_hull(x, self.vertices, tol)

    def volume(self) -> float:
        return volume(self)

    def facets(self) -> list[Face]:
        """Facets as faces, ordered like ``halfspaces``."""
        out = []
        for h in self.halfspaces:
            tight = self.vertices[np.abs(self.vertices @ h.normal - h.offset) <= TOL_INCIDENCE]
            out.append(Face(lex_sorted(tight), h, affine_dimension(tight)))
        return out

    def split(self, plane: Hyperplane) -> tuple["Polytope", "Polytope"]:
        return split_by_hyperplane(self, plane)

    def __repr__(self) -> str:
        return f"Polytope(n={self.n}, dim={self.dim}, nv={len(self.vertices)}, nh={len(self.halfspaces)})"


# ---------------------------------------------------------------------------
# membership via LP
# ---------------------------------------------------------------------------

def point_in_hull(point, vertices, tol: float = TOL_GEOM) -> bool:
    """Is ``point`` within ``tol`` (inf-norm) of conv(vertices)?

    A point within ``tol`` of a vertex is in; a point more than ``tol``
    outside the vertices' bounding box is out, exactly, because its
    inf-norm distance to the hull is at least its gap to the box.  Only
    the rest is solved as the LP
    min s  s.t.  |V^T lam - point| <= s, sum lam = 1, lam >= 0.
    """
    V = _as_points(vertices)
    if len(V) == 0:
        return False
    x = np.asarray(point, dtype=float)
    k, n = V.shape
    if np.min(np.max(np.abs(V - x), axis=1)) <= tol:
        return True
    if np.any(x < V.min(axis=0) - tol) or np.any(x > V.max(axis=0) + tol):
        return False
    # variables: lam (k), s (1)
    c = np.zeros(k + 1)
    c[-1] = 1.0
    rows = []
    rhs = []
    for i in range(n):
        r = np.zeros(k + 1)
        r[:k] = V[:, i]
        r[-1] = -1.0
        rows.append(r)
        rhs.append(x[i])
        rows.append(-r + np.concatenate([np.zeros(k), [-2.0]]))  # -V lam - s <= -x
        rhs.append(-x[i])
    for j in range(k):
        r = np.zeros(k + 1)
        r[j] = -1.0
        rows.append(r)
        rhs.append(0.0)
    eq = np.zeros((1, k + 1))
    eq[0, :k] = 1.0
    out = lp.solve_lp(c, np.array(rows), np.array(rhs), eq, np.array([1.0]))
    if out.status != lp.OPTIMAL:
        return False
    return out.value <= tol


# ---------------------------------------------------------------------------
# representation conversion
# ---------------------------------------------------------------------------

def _enumerate_vertices(A: np.ndarray, b: np.ndarray) -> list[np.ndarray]:
    """Solutions of every nonsingular n-subset of A x == b that satisfy all
    of A x <= b."""
    cands = []
    for idx in itertools.combinations(range(len(A)), A.shape[1]):
        M = A[list(idx)]
        if abs(np.linalg.det(M)) <= TOL_ZERO:
            continue
        x = np.linalg.solve(M, b[list(idx)])
        if np.all(A @ x - b <= TOL_INCIDENCE):
            cands.append(x)
    return cands


def hrep_to_vrep(halfspaces: list[HalfSpace]) -> np.ndarray:
    """Vertices of the (bounded) intersection of halfspaces.

    Enumerates all n-subsets of constraints; a candidate is kept when it
    satisfies every constraint.  Boundedness is certified by coordinate LPs.
    """
    hs = list(halfspaces)
    if not hs:
        raise GeometryError("no halfspaces given")
    n = len(hs[0].normal)
    A = np.array([h.normal for h in hs])
    b = np.array([h.offset for h in hs])
    if len(hs) < n:
        raise Unbounded("fewer constraints than dimensions")

    for i in range(n):
        c = np.zeros(n)
        for sgn in (1.0, -1.0):
            c[i] = sgn
            out = lp.solve_lp(c, A, b)
            if out.status == lp.UNBOUNDED:
                raise Unbounded(f"direction {i} unbounded")
            if out.status == lp.INFEASIBLE:
                return np.zeros((0, n))
        c[i] = 0.0

    cands = _enumerate_vertices(A, b)
    if not cands:
        return np.zeros((0, n))
    return lex_sorted(dedupe_points(np.array(cands)))


def vrep_to_hrep(vertices) -> list[HalfSpace]:
    """Minimal halfspace representation of a full-dimensional hull.

    A candidate is a plane through an n-subset with all points on one side
    (``TOL_GEOM``), the first found for its set of tight points.  A set is
    a facet when it spans n-1 dimensions and lies in no other candidate's
    set: a plane tight at part of a facet's set is tilted through points
    within ``TOL_GEOM`` of that facet.
    """
    V = dedupe_points(_as_points(vertices))
    k, n = V.shape
    d = affine_dimension(V)
    if d < n:
        raise Degenerate(f"vertex set spans only dimension {d}")
    if n == 1:
        lo, hi = float(V.min()), float(V.max())
        return [HalfSpace(np.array([-1.0]), -lo), HalfSpace(np.array([1.0]), hi)]
    found: dict[bytes, tuple[np.ndarray, HalfSpace]] = {}
    for idx in itertools.combinations(range(k), n):
        pts = V[list(idx)]
        diffs = pts[1:] - pts[0]
        u, s, vt = np.linalg.svd(diffs)
        if s.min() <= TOL_RANK * max(s.max(), 1.0):
            continue  # subset does not span a hyperplane
        normal = vt[-1]
        offset = float(normal @ pts[0])
        vals = V @ normal - offset
        if np.all(vals <= TOL_GEOM):
            pass
        elif np.all(vals >= -TOL_GEOM):
            normal, offset, vals = -normal, -offset, -vals
        else:
            continue
        tight = np.abs(vals) <= TOL_GEOM
        found.setdefault(tight.tobytes(), (tight, HalfSpace(normal, offset)))
    cands = list(found.values())
    facets = [h for tight, h in cands if affine_dimension(V[tight]) == n - 1
              and not any(np.all(tight <= other) and other.sum() > tight.sum() for other, _ in cands)]
    if not facets:
        raise Degenerate("no facets found")
    return sorted(facets, key=_halfspace_key)


def _halfspace_key(h: HalfSpace) -> tuple:
    """Rounded (normal, offset): the order of every facet list, and one
    key for a facet the clip finds more than once."""
    return tuple(np.round(np.concatenate([h.normal, [h.offset]]), HALFSPACE_KEY_DECIMALS))


def convex_hull(points, allow_lower: bool = True) -> "Polytope":
    """Convex hull with minimal V-rep (and H-rep when full-dimensional).

    The facets are ``vrep_to_hrep`` of the points, in the coordinates of
    their affine hull when that is lower-dimensional, and a given point is
    a vertex when the normals of its tight facets have the hull's rank; no
    LP is solved.  Raises DimensionDeficient for degenerate input unless
    ``allow_lower``, in which case a lower-dimensional polytope (vertices
    only) is returned.
    """
    pts = lex_sorted(dedupe_points(_as_points(points)))
    n = pts.shape[1]
    if len(pts) == 0:
        return Polytope.empty(n)
    origin, basis = affine_basis(pts)
    d = basis.shape[1]
    if d < n and not allow_lower:
        raise DimensionDeficient(d)
    if d == 0:
        return Polytope(pts[:1], [], 0)
    coords = pts if d == n else (pts - origin) @ basis
    hs = vrep_to_hrep(coords)
    normals = np.array([h.normal for h in hs])
    tight = np.abs(coords @ normals.T - [h.offset for h in hs]) <= TOL_GEOM
    verts = pts[[_rank(normals[t]) == d for t in tight]]
    return Polytope(verts, hs if d == n else [], d)


def extreme_points(points) -> np.ndarray:
    """Minimal subset with the same convex hull, lex sorted: the vertices
    of ``convex_hull``."""
    return convex_hull(points).vertices


# ---------------------------------------------------------------------------
# splitting, clipping
# ---------------------------------------------------------------------------

def split_by_hyperplane(p: Polytope, plane: Hyperplane) -> tuple[Polytope, Polytope]:
    """Split into (lower, upper) pieces: {normal.x <= offset} and >=.

    When the plane misses the interior, the polytope comes back whole on
    its own side together with an empty polytope; otherwise the pieces are
    the clips to the plane's two halfspaces.
    """
    if p.is_empty:
        return p, p
    vals = p.vertices @ plane.normal - plane.offset
    if np.all(vals <= TOL_GEOM):
        return p, Polytope.empty(p.n)
    if np.all(vals >= -TOL_GEOM):
        return Polytope.empty(p.n), p
    return clip_to_halfspace(p, plane.lower()), clip_to_halfspace(p, plane.upper())


def clip_to_halfspace(p: Polytope, half: HalfSpace) -> Polytope:
    """Intersection with a halfspace, by incidence for every dimension.

    The vertices within ``TOL_GEOM`` of the halfspace stay, and every
    segment from a vertex below ``-TOL_GEOM`` to one above ``TOL_GEOM``
    adds its crossing point: the edges of a full-dimensional ``p``, every
    vertex pair of a lower-dimensional one.  When ``p`` and the result
    are full-dimensional and no two points merged (``TOL_MERGE``), the
    facets are those of ``p.halfspaces`` and ``half`` whose tight vertices
    span a hyperplane, and the clip needs no LP; otherwise the points are
    hulled.  A halfspace holding every vertex returns ``p`` itself, and one
    that meets ``p`` only on its boundary plane returns the face there.
    """
    if p.is_empty:
        return p
    vals = p.vertices @ half.normal - half.offset
    if np.all(vals <= TOL_GEOM):
        return p
    if np.all(vals >= -TOL_GEOM):
        kept = p.vertices[vals <= TOL_GEOM]
        return convex_hull(kept) if len(kept) else Polytope.empty(p.n)
    pts = np.vstack([p.vertices[vals <= TOL_GEOM], _crossings(p, vals)])
    verts = lex_sorted(dedupe_points(pts))
    if not p.is_full_dim or len(verts) < len(pts) or affine_dimension(verts) < p.n:
        # a vertex within about TOL_MERGE of the plane merges with its
        # crossing points, and then incidence no longer tells the facets
        return convex_hull(verts)
    facets: dict[tuple, HalfSpace] = {}
    for h in p.halfspaces + [half]:
        if affine_dimension(verts[np.abs(verts @ h.normal - h.offset) <= TOL_INCIDENCE]) == p.n - 1:
            facets.setdefault(_halfspace_key(h), h)
    return Polytope(verts, [facets[k] for k in sorted(facets)], p.n)


def _crossings(p: Polytope, vals: np.ndarray) -> np.ndarray:
    """Points where the segments from a vertex of ``p`` with ``vals``
    below ``-TOL_GEOM`` to one above ``TOL_GEOM`` reach zero: the edges of
    a full-dimensional ``p``, every vertex pair of a lower-dimensional
    one (``vals`` is affine along them)."""
    if not (np.any(vals < -TOL_GEOM) and np.any(vals > TOL_GEOM)):
        return np.zeros((0, p.n))
    pairs = edges(p) if p.is_full_dim else itertools.combinations(range(len(vals)), 2)
    pts = [p.vertices[i] + vals[i] / (vals[i] - vals[j]) * (p.vertices[j] - p.vertices[i])
           for i, j in pairs
           if min(vals[i], vals[j]) < -TOL_GEOM and max(vals[i], vals[j]) > TOL_GEOM]
    return np.array(pts).reshape(-1, p.n)


def section(p: Polytope, plane: Hyperplane) -> Polytope:
    """p intersected with a hyperplane, by incidence, as a polytope
    without halfspaces: the vertices within ``TOL_GEOM`` of the plane and
    the crossing points of the segments ``clip_to_halfspace`` takes.  For
    a full-dimensional ``p`` these are the section's vertices; where the
    clip hulls (a lower-dimensional ``p``, whose vertex pairs are not all
    edges, or merged points) they are hulled.  Empty when the plane
    misses ``p``."""
    vals = p.vertices @ plane.normal - plane.offset
    pts = np.vstack([p.vertices[np.abs(vals) <= TOL_GEOM], _crossings(p, vals)])
    verts = lex_sorted(dedupe_points(pts))
    if not p.is_full_dim or len(verts) < len(pts):
        return convex_hull(verts)
    return Polytope(verts, [], affine_dimension(verts))


def intersect(p: Polytope, q: Polytope) -> Polytope:
    """p intersect q as the hull of its vertices (possibly
    lower-dimensional, possibly empty)."""
    hs = p.halfspaces + q.halfspaces
    if not hs:
        raise GeometryError("intersection requires halfspace data")
    cands = _enumerate_vertices(np.array([h.normal for h in hs]),
                                np.array([h.offset for h in hs]))
    # vertices of either polytope lying inside the other are candidates too
    cands += [v for v in p.vertices if q.contains(v, TOL_INCIDENCE)]
    cands += [v for v in q.vertices if p.contains(v, TOL_INCIDENCE)]
    if not cands:
        return Polytope.empty(p.n)
    return convex_hull(np.array(cands))


# ---------------------------------------------------------------------------
# faces and volumes
# ---------------------------------------------------------------------------

def edges(p: Polytope) -> list[tuple[int, int]]:
    """Index pairs i < j of the vertices of a full-dimensional polytope
    that span an edge: the facets tight (``TOL_INCIDENCE``) at both
    vertices have normals of rank n-1."""
    if not p.is_full_dim:
        raise Degenerate("edges expects a full-dimensional polytope")
    normals = np.array([h.normal for h in p.halfspaces])
    offsets = np.array([h.offset for h in p.halfspaces])
    tight = np.abs(p.vertices @ normals.T - offsets) <= TOL_INCIDENCE
    return [(i, j) for i, j in itertools.combinations(range(len(p.vertices)), 2)
            if _rank(normals[tight[i] & tight[j]]) == p.n - 1]


def carrying_facet(p: Polytope, f: Face) -> Optional[int]:
    """Index into ``p.halfspaces`` (and ``p.facets()``) of the first facet
    whose plane holds every vertex of ``f``; None when no facet does."""
    for k, h in enumerate(p.halfspaces):
        if all(abs(h.value(v)) <= TOL_MERGE for v in f.vertices):
            return k
    return None


def whole_facet(p: Polytope, f: Face) -> Optional[int]:
    """Index of the facet of ``p`` that ``f`` is, or None: the facet
    carrying ``f``, when every vertex of either is within ``TOL_MERGE``
    (inf-norm) of a vertex of the other."""
    k = carrying_facet(p, f)
    if k is None:
        return None
    h = p.halfspaces[k]
    tight = p.vertices[np.abs(p.vertices @ h.normal - h.offset) <= TOL_INCIDENCE]
    gaps = np.abs(tight[:, None, :] - f.vertices[None, :, :]).max(axis=2)
    matched = gaps.min(axis=0).max() <= TOL_MERGE and gaps.min(axis=1).max() <= TOL_MERGE
    return k if matched else None


def simplex_volume(vertices: np.ndarray) -> float:
    V = _as_points(vertices)
    d = V.shape[0] - 1
    if d <= 0:
        return 0.0
    diffs = V[1:] - V[0]
    if V.shape[1] == d:
        return abs(np.linalg.det(diffs)) / math.factorial(d)
    g = diffs @ diffs.T
    return float(np.sqrt(max(np.linalg.det(g), 0.0)) / math.factorial(d))


def volume(p: Polytope) -> float:
    """Volume by fan triangulation from the lexicographically smallest
    vertex; zero for lower-dimensional polytopes."""
    if p.is_empty or p.dim < p.n:
        return 0.0
    total = 0.0
    for s in fan_triangulation_simplices(p):
        total += simplex_volume(s)
    return total


def fan(anchor: np.ndarray, faces) -> list[np.ndarray]:
    """Simplices (vertex arrays, anchor first) coning ``anchor`` over the
    triangulation of every face that misses it; ``faces`` pairs each
    face's vertices with the anchor's signed distance to the face's plane.
    A face with a vertex at the anchor (``TOL_MERGE``), or whose plane
    lies within ``TOL_GEOM`` of it, adds no simplex.  Every anchored fan of the package is this one:
    ``triangulate_point_set``, ``fan_triangulation_simplices`` and the
    triangulations of ``triangulate``."""
    out = []
    for verts, dist in faces:
        if any(np.linalg.norm(v - anchor, ord=np.inf) <= TOL_MERGE for v in verts):
            continue
        if abs(dist) <= TOL_GEOM:
            continue  # anchor lies on the face's plane: skip to avoid flat cells
        out += [np.vstack([anchor[None, :], sub]) for sub in triangulate_point_set(verts)]
    return out


def triangulate_point_set(vertices: np.ndarray) -> list[np.ndarray]:
    """Triangulate the convex hull of a d-dimensional point set in R^n.

    Returns vertex arrays of (d+1) rows each.  The fan anchor is the
    lexicographically smallest point, making the result deterministic for
    a fixed point set.
    """
    V = lex_sorted(dedupe_points(_as_points(vertices)))
    origin, basis = affine_basis(V)
    d = basis.shape[1]
    if d == 0:
        return [V[:1]]
    if d == 1:
        t = (V - origin) @ basis[:, 0]
        return [np.array([V[np.argmin(t)], V[np.argmax(t)]])]
    # the anchor V[0] is the origin of the hull's coordinates
    hull = convex_hull((V - origin) @ basis, allow_lower=False)
    return fan(V[0], [(face.vertices @ basis.T + origin, -face.supporting.offset)
                       for face in hull.facets()])


def fan_triangulation_simplices(p: Polytope,
                                anchor: Optional[np.ndarray] = None) -> list[np.ndarray]:
    """Full-dimensional simplices (vertex arrays) fanning ``p`` from a
    vertex over its own facets; anchor defaults to the lexicographically
    smallest vertex."""
    if not p.is_full_dim:
        raise Degenerate("fan triangulation expects a full-dimensional polytope")
    anchor = np.asarray(p.vertices[0] if anchor is None else anchor, dtype=float)
    return fan(anchor, [(face.vertices, face.supporting.value(anchor)) for face in p.facets()])


# ---------------------------------------------------------------------------
# simplices with facet normals
# ---------------------------------------------------------------------------

class Simplex:
    """n+1 affinely independent vertices; facet j is the one omitting
    vertex j, with unit outward normal ``normals[j]`` and offset
    ``offsets[j]`` so that normals[j].v_i == offsets[j] for i != j and
    normals[j].v_j < offsets[j]."""

    __slots__ = ("vertices", "normals", "offsets")  # one per controller piece

    def __init__(self, vertices):
        V = _as_points(vertices)
        n = V.shape[1]
        if V.shape[0] != n + 1:
            raise GeometryError(f"simplex in R^{n} needs {n + 1} vertices, got {V.shape[0]}")
        if affine_dimension(V) != n:
            raise GeometryError("simplex vertices are affinely dependent")
        self.vertices = V
        normals = np.zeros((n + 1, n))
        offsets = np.zeros(n + 1)
        for j in range(n + 1):
            others = np.delete(V, j, axis=0)
            diffs = others[1:] - others[0]
            _, _, vt = np.linalg.svd(diffs)
            nrm = vt[-1]
            off = float(nrm @ others[0])
            if nrm @ V[j] > off:
                nrm, off = -nrm, -off
            scale = np.linalg.norm(nrm)
            normals[j] = nrm / scale
            offsets[j] = off / scale
        self.normals = normals
        self.offsets = offsets

    @property
    def n(self) -> int:
        return self.vertices.shape[1]

    def contains(self, x, tol: float = TOL_GEOM) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(self.normals @ x - self.offsets <= tol))

    def facet(self, j: int) -> Face:
        verts = np.delete(self.vertices, j, axis=0)
        return Face(lex_sorted(verts), HalfSpace(self.normals[j], self.offsets[j]), self.n - 1)

    def centroid(self) -> np.ndarray:
        return self.vertices.mean(axis=0)

    def volume(self) -> float:
        return simplex_volume(self.vertices)

    def as_polytope(self) -> Polytope:
        hs = [HalfSpace(self.normals[j], self.offsets[j]) for j in range(self.n + 1)]
        return Polytope(lex_sorted(self.vertices), hs, self.n)

    def vertex_key(self) -> tuple:
        return tuple(point_key(v) for v in lex_sorted(self.vertices))

    def __repr__(self) -> str:
        return f"Simplex(n={self.n})"


# ---------------------------------------------------------------------------
# cover / subdivision checks
# ---------------------------------------------------------------------------

def uncovered_volume(domain: Polytope, pieces: list[Polytope],
                     cut_planes: list[Hyperplane]) -> float:
    """Volume of domain not covered by any piece.

    The cut planes must include every hyperplane used to carve the pieces
    out of the domain, so that each arrangement cell is covered either
    fully or not at all; cell membership is then decided at the centroid.
    """
    cells = [domain]
    for plane in cut_planes:
        nxt = []
        for c in cells:
            lo, hi = split_by_hyperplane(c, plane)
            for part in (lo, hi):
                if not part.is_empty and part.is_full_dim:
                    nxt.append(part)
        if nxt:
            cells = nxt
    gap = 0.0
    for c in cells:
        x = c.centroid()
        if not any(piece.contains(x, TOL_INCIDENCE) for piece in pieces if not piece.is_empty):
            gap += c.volume()
    return gap
