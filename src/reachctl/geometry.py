"""Low-dimensional polytope computations (ambient dimension <= 4).

Faces are read from a polytope's vertex-facet incidence
(``Polytope.incidence``) by the combinatorial tests of the double
description method, in every dimension: a facet holds the vertices of
its column, two vertices span an edge when no third lies on every column
they share (``Polytope.edges``), and the facets of a face F are the
maximal nonempty proper sets F ∩ T_h, T_h a column, or every vertex
but one of a simplex (``_facet_sets``, the one facet rule for faces).
The anchored ``fan`` cones its anchor over every facet that misses it
and each lower face from its lexicographically first vertex, so its
simplices are rows of the polytope's vertices, which it returns as
indices: a caller reads their incidence off the table, and no face is
hulled again.  A set of lower dimension is triangulated as the base of
a full-dimensional pyramid by the same recursion on the base's own
table: ``pyramid`` cones an apex over it, and ``pyramid_rows`` gives the
pyramid's facet rows through the apex, with no hull.

Incidence is decided once, where a polytope is built, and handed to it;
no code reads it off the facet rows again.  ``convex_hull`` hands over
the ``TOL_GEOM`` table of tight points that chose its facets (those of
``vrep_to_hrep``, a plane through every n-subset of the points whose set
of tight points is maximal among the candidates') and its vertices, in
the coordinates of the points' affine hull when that is
lower-dimensional.  A face of a polytope (``Polytope.facets``, a
simplex's facet, the top face of ``reach.analyze``) keeps its vertices'
rows of its parent's table, whose columns restricted to it hold its own
facets.  Clipping, splitting and sectioning by a hyperplane work as the
one-halfspace update of that method, for a polytope of any dimension:
the vertices inside (or on the plane) stay with their rows, each edge
(u, w) the plane crosses adds its crossing point, computed once per
split for both pieces, with the row I(u) ∧ I(w), and the points on the
plane get the plane's column.  The clip's columns are the plane and the
columns of the parent that hold a vertex strictly inside; a section's
are its points' rows.  Only where crossing points merged with a vertex
within about ``TOL_MERGE`` of the plane, so that the points no longer
match their rows, do the clip and the section go to ``convex_hull``; a
clip that keeps only a boundary face returns the vertices on the plane,
which are that face's, with their rows.  A lower-dimensional set that a
caller builds from its vertices alone gets its table at construction,
as ``convex_hull`` reads it.

No hull, clip, split or section solves an LP.  LPs remain only in
``hrep_to_vrep`` (every n-subset of the constraints), whose feasibility
LP and recession-cone LPs check caller input, and in ``point_in_hull``,
which solves its LP only when its exact closed forms leave the answer
open: a point near a vertex, or near the hull of affinely independent
vertices, is in; a point far outside the bounding box, the affine hull
or the simplex of the vertices is out, by ``hull_rows``: the package's
one exclusion rule, which ``synth``'s equilibrium screen and ``sim``'s
target test apply too (the latter, through ``Polytope.contains``, on the
rows a face keeps).  Each LP starts at a feasible origin (``lp``).

Every geometric comparison in the package uses one of the named
constants below, each fixed to one role, and assumes inputs scaled so the
polytope diameter is O(1): ``TOL_GEOM`` (sides and levels, and the
tight points of a hull's facets), ``TOL_INCIDENCE`` (membership),
``TOL_MERGE`` (coincident points, a target in a facet's plane),
``TOL_RANK`` (read by ``rank`` alone), ``TOL_ZERO`` (ties, and the
relative determinant test of ``nonsingular``, the one rule for a
singular square system) and ``TOL_VOLUME`` (negligible gaps), plus the
decimals of the rounded point and halfspace keys.  ``rank`` and
``nonsingular`` are relative: scaling a matrix, or a row of a square
one, does not change their verdicts.  ``TOL_GEOM`` is the only tolerance
for equal drift levels: every set of points at one level comes from
``SystemGeometry.at_level``.  The LP solver, the synthesis margins and
the simulator keep their own constants (``lp.TOL_LP``, ``synth.TOL_INV``,
``sim.TOL_SIM``).

Constructions take no tolerance argument.  Only predicates that callers
use at more than one tolerance keep a ``tol`` argument: ``point_in_hull``,
the ``contains`` methods and ``Hyperplane.side`` here, and
``PWAController.locate`` and ``lookup`` in ``synth``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .errors import Degenerate, GeometryError, NumericalFailure, Unbounded
from . import lp

# absolute: which side of a plane a point lies on, equal drift levels (the
# only tolerance for them), which points a hull's facet holds
TOL_GEOM = 1e-9
# absolute: a point lies in a target's hull or on the equilibrium plane; a
# candidate vertex satisfies an H-representation.  Which vertex lies on
# which facet is not read at any tolerance: the construction that chose
# the facets hands it over (``Polytope.incidence``)
TOL_INCIDENCE = 1e-8
# absolute: points closer than this (inf-norm) are one point; a target
# lies in a facet's plane; a cut keeps the target
TOL_MERGE = 1e-7
# relative to the largest singular value: smaller singular values do not
# count towards an affine rank
TOL_RANK = 1e-9
# relative: a square matrix is singular when |det| is at most this share of
# the product of its row norms (Hadamard's bound, ``nonsingular``); and the
# margin that separates a better score from a tie
TOL_ZERO = 1e-12
# share of a polytope's volume (or of 1) below which a gap counts as none
TOL_VOLUME = 1e-8

# decimals of the rounded keys that identify a vertex (lexicographic
# order, the order of a triangulation's simplices, their shared facets)
KEY_DECIMALS = 9
# decimals of the halfspace key, which orders facet tables
HALFSPACE_KEY_DECIMALS = 8


def _as_points(points) -> np.ndarray:
    """``points`` as a 2-D array, one point per row; an empty input is no
    point, of shape (0, 0), not one point of R^0."""
    pts = np.asarray(points, dtype=float)
    pts = np.atleast_2d(pts) if pts.shape != (0,) else pts.reshape(0, 0)
    if pts.ndim != 2:
        raise GeometryError("points must form a 2-D array")
    return pts


def lex_sorted(points: np.ndarray) -> np.ndarray:
    """The rows in lexicographic order, rounded to kill float noise."""
    return points[np.lexsort(np.round(points, KEY_DECIMALS).T[::-1])]


def dedupe_points(points: np.ndarray) -> np.ndarray:
    """A copy of ``points`` without near-duplicates: a point is dropped
    when an earlier kept point is within ``TOL_MERGE`` (inf-norm)."""
    pts = _as_points(points)
    close = np.abs(pts[:, None, :] - pts[None, :, :]).max(axis=2, initial=0.0) <= TOL_MERGE
    if np.count_nonzero(close) == len(pts):
        return pts.copy()
    idx = np.arange(len(pts))
    earlier = close & (idx[:, None] > idx)
    keep = np.ones(len(pts), dtype=bool)
    for i in np.flatnonzero(earlier.any(axis=1)):
        keep[i] = not (earlier[i] & keep).any()
    return pts[keep]


def rank(rows=None, *, sv=None):
    """Rank of a matrix, counting singular values above ``TOL_RANK``
    times the largest, so it does not depend on the matrix's scale; 0 for
    a matrix without rows or a zero matrix.  Given a stack of matrices,
    the rank of each, as an array.  A caller that has taken the SVD of
    the matrix passes its singular values alone, as ``sv``, and no SVD is
    taken again."""
    if (rows is None) == (sv is None):
        raise TypeError("rank takes either the rows or their singular values")
    if sv is None:
        rows = np.asarray(rows, dtype=float)
        if rows.ndim == 2 and rows.size == 0:
            return 0
        sv = np.linalg.svd(rows, compute_uv=False)
    out = np.sum(sv > TOL_RANK * sv[..., :1], axis=-1)
    return int(out) if sv.ndim == 1 else out


def nonsingular(matrices):
    """Whether a square matrix, or each of a stack, is nonsingular:
    |det M| > ``TOL_ZERO`` prod_i |M_i|, the M_i its rows.  By Hadamard's
    inequality the ratio |det M| / prod_i |M_i| lies in [0, 1], and it does
    not change when a row is rescaled, so the verdict does not depend on
    the scale of any row; a zero row is singular."""
    M = np.asarray(matrices, dtype=float)
    return np.abs(np.linalg.det(M)) > TOL_ZERO * np.prod(np.linalg.norm(M, axis=-1), axis=-1)


def affine_dimension(points) -> int:
    pts = dedupe_points(_as_points(points))
    if len(pts) == 0:
        return -1
    return rank(pts[1:] - pts[0])


def affine_basis(points) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis (columns) of the affine hull, plus its origin."""
    return _affine_basis(dedupe_points(_as_points(points)))


def _affine_basis(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``affine_basis`` of points without near-duplicates."""
    origin = pts[0]
    diffs = pts[1:] - origin
    if len(diffs) == 0:
        return origin, np.zeros((pts.shape[1], 0))
    _, sv, vt = np.linalg.svd(diffs, full_matrices=False)
    return origin, vt[:rank(sv=sv)].T


@dataclass(frozen=True)
class _Plane:
    """{x : normal.x == offset}, normalized to a unit normal, with the
    signed value normal.x - offset."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        nrm = np.linalg.norm(n)
        if nrm <= TOL_GEOM:
            raise GeometryError(f"{type(self).__name__.lower()} normal is numerically zero")
        object.__setattr__(self, "normal", n / nrm)
        object.__setattr__(self, "offset", float(self.offset) / nrm)

    def value(self, x):
        """normal.x - offset at a point, or at each point of an (..., n)
        stack: one product summed along the last axis, which gives a point
        the same bits alone, in a stack or as a strided view (``np.dot``
        and ``@`` round by the operands' layout)."""
        return (self.normal * x).sum(-1) - self.offset

    @classmethod
    def of_row(cls, normal: np.ndarray, offset) -> "_Plane":
        """The plane of a row of a facet table, which is unit already: the
        normal is a view of the row, not renormalized, so every bit of the
        row stays."""
        plane = object.__new__(cls)
        object.__setattr__(plane, "normal", normal)
        object.__setattr__(plane, "offset", float(offset))
        return plane


class HalfSpace(_Plane):
    """Closed halfspace {x : normal.x <= offset} with unit normal;
    ``value`` is the signed violation (<= 0 inside)."""

    def flipped(self) -> "HalfSpace":
        return HalfSpace(-self.normal, -self.offset)


class Hyperplane(_Plane):
    """{x : normal.x == offset} with unit normal."""

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


class Polytope:
    """Bounded convex polytope carrying both representations.

    Full-dimensional polytopes have a consistent (minimal) facet table
    ``rows``: the pair (normals (h, n), offsets (h,)) of ``normals y <=
    offsets``, C-contiguous, unit normals, one row per facet.  The pair is
    the polytope's storage, and ``halfspaces`` is derived from it, one
    ``HalfSpace`` view per row.  Lower-dimensional ones carry vertices
    and their table only, and a table of no rows; ``dim`` is the
    affine-hull dimension, -1 for the empty polytope.  The vertices are
    in lexicographic order.  A target is any polytope of dimension n-1 (a
    ``Face``, a section, a clip of a face): the constructions read its
    vertices, table and ``dim`` alone.

    ``incidence`` is the boolean (vertex, column) table: the vertex lies
    on the column's facet.  For a full-dimensional polytope the columns
    are its facet rows, in their order; for a lower-dimensional one they
    are facets of a polytope it is a face, clip or section of, or its own
    facets in its affine hull, and the faces of the set are read off them
    alike.  The construction that chose the facets hands it over, and no
    code derives it again; a point, a segment or a full-dimensional set
    built without one has no columns, and any other lower-dimensional
    set gets its table here (``_caller_table``).  No code changes a
    polytope after it is built, so its ``edges`` and ``exclusion`` are
    computed on first use and kept.
    """

    def __init__(self, vertices: np.ndarray, rows: Optional[tuple[np.ndarray, np.ndarray]],
                 dim: int, incidence: Optional[np.ndarray] = None):
        self.vertices = vertices
        n = vertices.shape[1]
        self.rows = (np.zeros((0, n)), np.zeros(0)) if rows is None else rows
        self.dim = dim
        self.incidence = _caller_table(vertices, dim) if incidence is None else incidence

    # -- constructors -------------------------------------------------------

    @staticmethod
    def empty(n: int) -> "Polytope":
        return Polytope(np.zeros((0, n)), None, -1)

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
        """Whether ``x`` lies within ``tol`` of the polytope: by the facet
        table when there is one, else as ``point_in_hull`` does, with the
        exclusion rows the polytope keeps."""
        if self.is_empty:
            return False
        x = np.asarray(x, dtype=float)
        normals, offsets = self.rows
        if self.is_full_dim and len(offsets):
            return bool(np.all(normals @ x - offsets <= tol))
        near = np.min(np.max(np.abs(self.vertices - x), axis=1)) <= tol
        if near or len(self.vertices) == 1:
            return bool(near)
        return _in_hull(x, self.vertices, self.exclusion, tol)

    def volume(self) -> float:
        return volume(self)

    @property
    def halfspaces(self) -> list[HalfSpace]:
        """The facets as halfspaces, in the order of ``rows``: views of its
        rows (``HalfSpace.of_row``), built on each call."""
        return [HalfSpace.of_row(a, b) for a, b in zip(*self.rows)]

    @cached_property
    def edges(self) -> np.ndarray:
        """The rows (i, j), i < j, of index pairs of the vertices that span
        an edge: no third vertex lies on every column of ``incidence`` the
        two share, the combinatorial adjacency test of the double
        description method, in any dimension.  Two vertices that share no
        column and have no third beside them, a segment's, span one."""
        on = self.incidence.astype(int)
        pairs = _pairs(len(on))
        shared = on[pairs[:, 0]] & on[pairs[:, 1]]
        return pairs[(shared @ on.T == shared.sum(axis=1)[:, None]).sum(axis=1) == 2]

    @cached_property
    def exclusion(self) -> HullRows:
        """``hull_rows`` of the vertices: the rows that put a point outside
        the polytope's hull, as a target face's test reads them."""
        return hull_rows(self.vertices)

    def facets(self) -> list[Face]:
        """Facets as faces, ordered like ``rows``: each holds the vertices
        of its column of ``incidence``, with their rows, and its row as the
        halfspace supporting it."""
        return [Face(self.vertices[tight], HalfSpace.of_row(a, b), self.n - 1,
                     self.incidence[tight])
                for a, b, tight in zip(*self.rows, self.incidence.T)]

    def __repr__(self) -> str:
        return (f"Polytope(n={self.n}, dim={self.dim}, nv={len(self.vertices)}, "
                f"nh={len(self.rows[1])})")


class Face(Polytope):
    """A lower-dimensional polytope, vertices and their table only, with
    the halfspace ``supporting`` it when it is a facet
    (``Polytope.facets``), else None."""

    def __init__(self, vertices: np.ndarray, supporting: Optional[HalfSpace], dim: int,
                 incidence: Optional[np.ndarray] = None):
        super().__init__(vertices, None, dim, incidence)
        self.supporting = supporting

    @staticmethod
    def from_vertices(points) -> "Face":
        hull = convex_hull(points)
        return Face(hull.vertices, None, hull.dim, hull.incidence)


def _caller_table(vertices, dim: int) -> np.ndarray:
    """The table of a polytope built without one: no columns for a
    full-dimensional set (a caller that gives facets gives their table),
    a point or a segment; else, for a lower-dimensional set of three or
    more vertices, the table of the facets of the vertices in the
    coordinates of their affine hull, as ``convex_hull`` reads it.  The
    points must be the set's vertices: the table gives a point that is
    not one no edge."""
    V = np.asarray(vertices, dtype=float)
    if len(V) < 3 or dim >= V.shape[1]:
        return np.zeros((len(V), 0), bool)
    origin, basis = _affine_basis(V)
    return _hull_table((V - origin) @ basis)[1]


# ---------------------------------------------------------------------------
# membership: closed-form certificates, then an LP
# ---------------------------------------------------------------------------

class HullRows(NamedTuple):
    """``hull_rows`` of a vertex set, or of each of a stack (leading S
    axis): rows G (R, n), bounds c (R,), widths w (R,), the barycentric
    projection P of a single affinely independent set, else None, and
    the number ``plane`` of leading rows that are the affine hull's."""

    rows: np.ndarray
    bounds: np.ndarray
    widths: np.ndarray
    projection: Optional[np.ndarray]
    plane: int = 0

    def excludes(self, X, tol: float) -> np.ndarray:
        """Whether each row x of the (m, n) array X has g.x > c + tol w for
        a row: (m,) verdicts, or (S, m) for a stack.  The (row, state)
        layout reduces one long axis, which numpy does far faster."""
        return np.any(self.rows @ np.asarray(X, dtype=float).T
                      > (self.bounds + tol * self.widths)[..., None], axis=-2)

    def excludes_plane_first(self, X, tol: float) -> np.ndarray:
        """``excludes`` of a single set, staged: the affine hull's rows
        on every state, which rule out each state more than ``tol`` off
        the set's plane, then the other rows on the states they leave
        open.  Each row's verdict on a state is read alone, so the
        verdicts are those of ``excludes``."""
        X = np.asarray(X, dtype=float)
        limit = (self.bounds + tol * self.widths)[:, None]
        p = self.plane
        out = (self.rows[:p] @ X.T > limit[:p]).any(axis=0)
        if not out.all():
            kept = ~out
            out[kept] = (self.rows[p:] @ X[kept].T > limit[p:]).any(axis=0)
        return out


def hull_rows(vertices) -> HullRows:
    """The closed-form "out" of conv(V), for a (k, n) vertex set V or an
    (S, k, n) stack: rows g valid on the hull, bounded by c = max_i g.v_i,
    so the bound holds however g is rounded.  As g.(x - y) <= |g|_1
    |x - y|_inf, g.x - c > tol w puts x more than ``tol`` (inf-norm)
    outside the hull.  The rows are, first, the normals of the affine
    hull, both ways (the SVD's V^T past the rank of the differences
    v_i - v_0), the ``plane`` rows; then the bounding box, +-e_i, exact,
    with w = 1; and, for affinely independent vertices, the barycentric
    gradients of lam_1.. = (x - v_0) P and of lam_0 = 1 - their sum; the
    normals and the gradients with w = 2 |g|_1.  A single set drops the
    rows that do not apply; a stack zeroes them, and a zero row never
    excludes."""
    V = np.asarray(vertices, dtype=float)
    k, n = V.shape[-2:]
    u, sv, vt = np.linalg.svd(V[..., 1:, :] - V[..., :1, :])
    r = np.asarray(rank(sv=sv))[..., None, None]
    normal = np.where(np.arange(n)[:, None] >= r, vt, 0.0)
    box = np.broadcast_to(np.eye(n), vt.shape)
    G, P = [normal, -normal, box, -box], None
    if k - 1 <= n:
        simplex = r == k - 1
        P = np.swapaxes(vt[..., :k - 1, :], -1, -2) @ np.swapaxes(
            u / np.where(simplex[..., 0], sv, 1.0)[..., None, :], -1, -2)
        G.append(np.where(simplex, np.concatenate(
            [P.sum(axis=-1)[..., None, :], -np.swapaxes(P, -1, -2)], axis=-2), 0.0))
        P = P if V.ndim == 2 and simplex.all() else None
    G = np.concatenate(G, axis=-2)
    widths = 2.0 * np.abs(G).sum(axis=-1)
    widths[..., 2 * n:4 * n] = 1.0
    plane = 2 * n
    if V.ndim == 2:
        keep = widths > 0
        G, widths, plane = G[keep], widths[keep], int(keep[:2 * n].sum())
    return HullRows(G, (V @ np.swapaxes(G, -1, -2)).max(axis=-2), widths, P, plane)


def point_in_hull(point, vertices, tol: float = TOL_GEOM) -> bool:
    """Is ``point`` within ``tol`` (inf-norm) of conv(vertices)?

    Closed forms settle most points, each exactly:

    * a point within ``tol`` of a vertex is in;
    * a point more than ``tol`` outside the vertices' bounding box is
      out, read off the vertices' extremes before any SVD;
    * for affinely independent vertices, a point is in when lam V lies
      within ``tol`` of it, lam the barycentric coordinates of its
      projection onto the affine hull, clipped at 0 and renormalized,
      since lam V is then a point of the hull;
    * a point that the exclusion rule (``hull_rows``: the bounding box,
      the affine hull and, for affinely independent vertices, their
      simplex) puts more than ``tol`` outside the hull is out.

    Only the rest is solved as the LP
    min s  s.t.  |V^T lam - point| <= s, sum lam = 1, lam >= 0,
    stated to start at the first vertex, whose "in" needs the same
    certificate, from its lam or a simplex.
    """
    V = _as_points(vertices)
    if len(V) == 0:
        return False
    x = np.asarray(point, dtype=float)
    k, n = V.shape
    near = np.min(np.max(np.abs(V - x), axis=1)) <= tol
    if near or k == 1:
        return bool(near)
    if np.any(x - V.max(axis=0) > tol) or np.any(V.min(axis=0) - x > tol):
        return False
    return _in_hull(x, V, hull_rows(V), tol)


def _in_hull(x: np.ndarray, V: np.ndarray, rule: HullRows, tol: float) -> bool:
    """``point_in_hull`` past its vertex and box exits, for at least two
    vertices ``V`` and their ``hull_rows``, ``rule``: the certificate, the
    exclusion rule, then the LP."""
    k, n = V.shape
    if rule.projection is not None:
        lam = (x - V[0]) @ rule.projection
        if _certified(np.append(1.0 - lam.sum(), lam), V, x, tol):
            return True
    if rule.excludes(x[None], tol)[0]:
        return False
    # the LP starts at V[0], at distance s0: variables the weights lam of
    # V[1:] (V[0] takes 1 - sum lam) and sigma = s - s0; per coordinate
    # D^T lam - sigma <= s0 - d and -D^T lam - sigma <= s0 + d, whose
    # right-hand sides are >= 0 exactly, then -lam <= 0 and sum lam <= 1
    # (0.0 - keeps zeros unsigned)
    d, D = V[0] - x, V[1:] - V[0]
    s0 = np.abs(d).max()
    ones = np.ones((n, 1))
    rows = np.vstack([np.stack([np.hstack([D.T, -ones]), np.hstack([0.0 - D.T, -ones])],
                               axis=1).reshape(2 * n, k), 0.0 - np.eye(k - 1, k),
                      np.append(np.ones(k - 1), 0.0)])
    rhs = np.concatenate([np.stack([s0 - d, s0 + d], axis=1).ravel(), np.zeros(k - 1), [1.0]])
    try:
        out = lp.solve(np.eye(k)[-1], rows, rhs)
    except NumericalFailure:
        out = None
    if out is not None:
        if out.status != lp.OPTIMAL or s0 + out.value > tol:
            return False
        lam = out.x[:-1]
        if _certified(np.append(1.0 - lam.sum(), lam), V, x, tol):
            return True
    # an optimum that breaks lam >= 0, or a tableau that lost its
    # constraints, proves nothing: try the simplices of r + 1 vertices,
    # one of which holds a nearest hull point (Caratheodory)
    r = rank(V[1:] - V[0])
    W = V[np.array(list(itertools.combinations(range(k), r + 1)))]
    lam = np.einsum("sn,snr->sr", x - W[:, 0], np.linalg.pinv(W[:, 1:] - W[:, :1]))
    return bool(_certified(np.hstack([1.0 - lam.sum(axis=1, keepdims=True), lam]), W, x, tol).any())


def _certified(lam: np.ndarray, V: np.ndarray, x: np.ndarray, tol: float):
    """Whether weights of the rows of ``V`` (or of each of a stack),
    clipped at 0 and renormalized, give a hull point within ``tol``."""
    lam = np.maximum(lam, 0.0)
    y = np.einsum("...m,...mn->...n", lam, V) / lam.sum(axis=-1)[..., None]
    return np.abs(y - x).max(axis=-1) <= tol


# ---------------------------------------------------------------------------
# representation conversion
# ---------------------------------------------------------------------------

def hrep_to_vrep(halfspaces: list[HalfSpace]) -> np.ndarray:
    """Vertices of the (bounded) intersection of halfspaces.

    Solves every n-subset of the constraints that ``nonsingular`` passes
    as equations; a solution is kept when it satisfies every constraint within
    ``TOL_INCIDENCE``.  An LP decides first whether the system is feasible,
    min t  s.t.  A x - t <= b, within ``TOL_LP``: an infeasible one has no
    vertices, whatever the count of its constraints.  Coordinate LPs over
    the recession cone A d <= 0 then certify that a feasible one is
    bounded; one of fewer than n constraints never is.
    """
    hs = list(halfspaces)
    if not hs:
        raise GeometryError("no halfspaces given")
    n = len(hs[0].normal)
    A = np.array([h.normal for h in hs])
    b = np.array([h.offset for h in hs])
    # t starts at the origin's largest violation, t0; t - t0 is the variable,
    # and a min t without bound is a feasible system's too
    t0 = max(0.0, -b.min())
    out = lp.solve(np.eye(n + 1)[-1], np.hstack([A, -np.ones((len(A), 1))]), b + t0)
    if out.status == lp.OPTIMAL and t0 + out.value > lp.TOL_LP:
        return np.zeros((0, n))
    for i, sgn in itertools.product(range(n), (1.0, -1.0)):
        if lp.solve(sgn * np.eye(n)[i], A, np.zeros(len(A))).status == lp.UNBOUNDED:
            raise Unbounded(f"direction {i} unbounded")

    subsets = np.array(list(itertools.combinations(range(len(A)), n)))
    subsets = subsets[nonsingular(A[subsets])]
    X = np.linalg.solve(A[subsets], b[subsets][..., None])[..., 0]
    return lex_sorted(dedupe_points(X[np.all(X @ A.T - b <= TOL_INCIDENCE, axis=1)]))


def _maximal_sets(tight: np.ndarray) -> np.ndarray:
    """The maximal-set rule: indices of the rows of a boolean table whose
    set is nonempty and lies in no other row's larger set, the first row
    of each such set.  Read by (candidate, point) rows it picks facets,
    by (point, facet) rows a hull's vertices.  One product tells, for
    every pair of rows, whether the first set lies in the second."""
    counts = tight.astype(float)
    sizes = counts.sum(axis=1)
    within = counts @ counts.T == sizes[:, None]
    superset = within & (sizes[None, :] > sizes[:, None])
    idx = np.arange(len(tight))
    earlier_copy = within & within.T & (idx[:, None] > idx)
    return np.flatnonzero((sizes > 0) & ~superset.any(axis=1) & ~earlier_copy.any(axis=1))


def vrep_to_hrep(vertices) -> list[HalfSpace]:
    """Minimal halfspace representation of a full-dimensional hull.

    A candidate is a plane through an n-subset of the points that spans a
    hyperplane, with every point on one side (``TOL_GEOM``).  The facets
    are the candidates whose sets of tight points are maximal
    (``_maximal_sets``): a plane tight at part of a facet's set is tilted
    through points within ``TOL_GEOM`` of that facet.
    """
    V = dedupe_points(_as_points(vertices))
    d = affine_dimension(V)
    if d < V.shape[1]:
        raise Degenerate(f"vertex set spans only dimension {d}")
    return [HalfSpace.of_row(a, b) for a, b in zip(*_hull_facets(V))]


def _hull_facets(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The facet rows (normals, offsets) of deduplicated points, in facet
    order (``_facet_order``): one SVD per n-subset tells whether it spans
    a hyperplane and gives its normal, which ``HalfSpace`` normalizes."""
    k, n = V.shape
    if n == 1:
        lo, hi = float(V.min()), float(V.max())
        return np.array([[-1.0], [1.0]]), np.array([-lo, hi])
    subsets = np.array(list(itertools.combinations(range(k), n)))
    _, sv, vt = np.linalg.svd(V[subsets[:, 1:]] - V[subsets[:, :1]])
    spans = rank(sv=sv) == n - 1
    subsets, normals = subsets[spans], vt[spans, -1]
    offsets = np.einsum("ij,ij->i", normals, V[subsets[:, 0]])
    vals = V @ normals.T - offsets
    below = np.all(vals <= TOL_GEOM, axis=0)
    one_side = np.flatnonzero(below | np.all(vals >= -TOL_GEOM, axis=0))
    sign = np.where(below, 1.0, -1.0)
    tight = np.abs(vals[:, one_side].T) <= TOL_GEOM
    # coplanar points give many candidates with one tight set, and the rule
    # keeps the first of equal sets: only the first of each goes in
    first = np.sort(np.unique(tight, axis=0, return_index=True)[1])
    facets = [HalfSpace(sign[i] * normals[i], sign[i] * offsets[i])
              for i in one_side[first[_maximal_sets(tight[first])]]]
    if not facets:
        raise Degenerate("no facets found")
    normals, offsets = np.array([h.normal for h in facets]), np.array([h.offset for h in facets])
    order = _facet_order(normals, offsets)
    return normals[order], offsets[order]


def _facet_order(normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Every facet table's order, as indices into its rows: rounded
    (normal, offset), ties stable."""
    keys = np.round(np.column_stack([normals, offsets]), HALFSPACE_KEY_DECIMALS)
    return np.lexsort(keys.T[::-1])


def convex_hull(points) -> "Polytope":
    """Convex hull with minimal V-rep (and H-rep when full-dimensional).

    The facets are ``vrep_to_hrep`` of the points, in the coordinates of
    their affine hull when that is lower-dimensional.  The vertices are
    the points whose sets of tight facets are maximal (``_maximal_sets``):
    a vertex is the one point on all of its facets, and a point on a
    larger face lies on fewer facets than that face's vertices.  No LP is
    solved.  The hull keeps its vertices' rows of that table of tight
    facets as its ``incidence``, in any dimension; a hull of lower
    dimension d comes back without facet rows, of ``dim`` d, its columns
    the facets in its affine hull; no points of R^n give the empty
    polytope of R^n.  Raises Degenerate when a d-dimensional hull keeps
    fewer than d+1 vertices: tightness is read at the absolute
    ``TOL_GEOM``, which coordinates of about 1e7 no longer resolve.
    Raises GeometryError for points without coordinates (an empty list),
    whose space is unknown.
    """
    pts = dedupe_points(_as_points(points))
    n = pts.shape[1]
    if n == 0:
        raise GeometryError("points without coordinates have no hull")
    pts = lex_sorted(pts)
    if len(pts) == 0:
        return Polytope.empty(n)
    origin, basis = _affine_basis(pts)
    d = basis.shape[1]
    if d == 0:
        return Polytope(pts[:1], None, 0)
    rows, tight = _hull_table(pts if d == n else (pts - origin) @ basis)
    keep = _maximal_sets(tight)
    verts = pts[keep]
    if len(verts) <= d:
        raise Degenerate(f"a {d}-dimensional hull kept {len(verts)} vertices")
    return Polytope(verts, rows if d == n else None, d, tight[keep])


def _hull_table(coords: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """The facet rows (normals, offsets) of deduplicated, full-dimensional
    points (``_hull_facets``), and the table of the points within
    ``TOL_GEOM`` of each facet's plane."""
    normals, offsets = _hull_facets(coords)
    return (normals, offsets), np.abs(coords @ normals.T - offsets) <= TOL_GEOM


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
    the clips to the plane's two halfspaces, which share their crossing
    points: the upper one's values are the lower one's negated, bit for bit.
    """
    if p.is_empty:
        return p, p
    lower, upper = plane.lower(), plane.upper()
    vals = p.vertices @ lower.normal - lower.offset
    if np.all(vals <= TOL_GEOM):
        return p, Polytope.empty(p.n)
    if np.all(vals >= -TOL_GEOM):
        return Polytope.empty(p.n), p
    on = _plane_points(p, vals)
    return _clip_across(p, lower, vals, on), _clip_across(p, upper, -vals, on)


def clip_to_halfspace(p: Polytope, half: HalfSpace) -> Polytope:
    """Intersection with a halfspace, by incidence for every dimension.

    The vertices within ``TOL_GEOM`` of the halfspace stay, and every
    edge of ``p`` (``Polytope.edges``) from a vertex below ``-TOL_GEOM``
    to one above ``TOL_GEOM`` adds its crossing point.  When no two
    points merged (``TOL_MERGE``), each point carries its row of
    incidence (``_plane_points``), the columns are the plane's and those
    of ``p`` that hold a vertex strictly inside (with their facet rows,
    when ``p`` is full-dimensional), and the clip needs no LP, hull or
    rank; otherwise the points are hulled.  A halfspace holding every
    vertex returns ``p`` itself, and one that meets ``p`` only on its
    boundary plane returns the vertices there, the vertices of that face
    with their rows, as a polytope without facet rows.
    """
    if p.is_empty:
        return p
    vals = p.vertices @ half.normal - half.offset
    if np.all(vals <= TOL_GEOM):
        return p
    if np.all(vals >= -TOL_GEOM):
        on = vals <= TOL_GEOM
        kept = p.vertices[on]
        return Polytope(kept, None, affine_dimension(kept), p.incidence[on])
    return _clip_across(p, half, vals, _plane_points(p, vals))


def _clip_across(p: Polytope, half: HalfSpace, vals: np.ndarray, on: tuple) -> Polytope:
    """The clip by a halfspace crossing ``p``, given ``vals`` and ``on``,
    the points on the plane with their rows of incidence."""
    # the points on the plane come first: a vertex merging with them gives
    # way, and the clip's face on the plane is ``section``'s
    inside = vals < -TOL_GEOM
    pts = np.vstack([on[0], p.vertices[inside]])
    if len(dedupe_points(pts)) < len(pts):
        # a vertex within about TOL_MERGE of the plane merged with its
        # crossing points: the points no longer match their rows
        return convex_hull(pts)
    # the columns of p that hold a vertex strictly inside, and the plane,
    # which holds the points on it
    facets = p.incidence[inside].any(axis=0)
    table = np.hstack([np.vstack([on[1], p.incidence[inside]])[:, facets],
                       (np.arange(len(pts)) < len(on[0]))[:, None]])
    order = np.lexsort(np.round(pts, KEY_DECIMALS).T[::-1])
    if not p.is_full_dim:
        return Polytope(pts[order], None, p.dim, table[order])
    normals = np.vstack([p.rows[0][facets], half.normal])
    offsets = np.append(p.rows[1][facets], half.offset)
    cols = _facet_order(normals, offsets)
    return Polytope(pts[order], (normals[cols], offsets[cols]), p.n, table[order][:, cols])


def _plane_points(p: Polytope, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The vertices of ``p`` whose ``vals`` lie within ``TOL_GEOM`` of
    zero, then the points where the edges of ``p`` (``Polytope.edges``)
    from a vertex below ``-TOL_GEOM`` to one above ``TOL_GEOM`` reach zero
    (``vals`` is affine along them).  With them, each point's row of
    ``p.incidence``: a vertex keeps its own, and a crossing point gets the
    columns that hold both ends of its edge."""
    i, j = p.edges.T
    cut = (np.minimum(vals[i], vals[j]) < -TOL_GEOM) & (np.maximum(vals[i], vals[j]) > TOL_GEOM)
    i, j = i[cut], j[cut]
    t = vals[i] / (vals[i] - vals[j])
    cross = p.vertices[i] + t[:, None] * (p.vertices[j] - p.vertices[i])
    on, I = np.abs(vals) <= TOL_GEOM, p.incidence
    return np.vstack([p.vertices[on], cross]), np.vstack([I[on], I[i] & I[j]])


def section(p: Polytope, plane: Hyperplane) -> Polytope:
    """p intersected with a hyperplane, by incidence, as a polytope
    without facet rows: ``_plane_points``, the points the clip keeps on
    the plane, which are the section's vertices, with their rows, its
    table, in any dimension of ``p``.  Where two points merged
    (``TOL_MERGE``), as the clip does, they are hulled.  Empty when the
    plane misses ``p``."""
    vals = p.vertices @ plane.normal - plane.offset
    pts, table = _plane_points(p, vals)
    if len(dedupe_points(pts)) < len(pts):
        return convex_hull(pts)
    order = np.lexsort(np.round(pts, KEY_DECIMALS).T[::-1])
    return Polytope(pts[order], None, affine_dimension(pts[order]), table[order])


def intersect(p: Polytope, q: Polytope) -> Polytope:
    """p intersect q: p clipped to each halfspace of q in turn
    (``clip_to_halfspace``), possibly lower-dimensional, possibly
    empty."""
    if not len(q.rows[1]):
        raise GeometryError("intersection requires halfspace data")
    for h in q.halfspaces:
        p = clip_to_halfspace(p, h)
    return p


# ---------------------------------------------------------------------------
# faces and volumes
# ---------------------------------------------------------------------------

def _pairs(k: int) -> np.ndarray:
    """The rows (i, j), 0 <= i < j < k, in lexicographic order."""
    return np.argwhere(np.arange(k)[:, None] < np.arange(k))


def carrying_facet(p: Polytope, f: Polytope) -> Optional[int]:
    """Index into ``p.rows`` (and ``p.facets()``) of the first facet whose
    plane holds every vertex of ``f`` within ``TOL_MERGE``; None when no
    facet does."""
    normals, offsets = p.rows
    farthest = np.abs(f.vertices @ normals.T - offsets).max(axis=0, initial=0.0)
    hit = np.flatnonzero(farthest <= TOL_MERGE)
    return int(hit[0]) if len(hit) else None


def whole_facet(p: Polytope, f: Polytope) -> Optional[int]:
    """Index of the facet of ``p`` that ``f`` is, or None: the facet
    carrying ``f``, when every vertex of either is within ``TOL_MERGE``
    (inf-norm) of a vertex of the other."""
    k = carrying_facet(p, f)
    if k is None:
        return None
    tight = p.vertices[p.incidence[:, k]]
    gaps = np.abs(tight[:, None, :] - f.vertices[None, :, :]).max(axis=2)
    matched = gaps.min(axis=0).max() <= TOL_MERGE and gaps.min(axis=1).max() <= TOL_MERGE
    return k if matched else None


def simplex_volume(vertices: np.ndarray):
    """Volume |det(V_1 - V_0, ..., V_n - V_0)| / n! of the simplex of n+1
    points of R^n, or the S volumes of an (S, n+1, n) stack of them, each
    bit for bit as the simplex alone gives it.  Raises GeometryError for
    any other number of points, as ``Simplex`` does."""
    V = np.asarray(vertices, dtype=float)
    if V.ndim != 3:
        V = _as_points(V)
    n = V.shape[-1]
    if V.shape[-2] != n + 1:
        raise GeometryError(f"simplex in R^{n} needs {n + 1} vertices, got {V.shape[-2]}")
    return np.abs(np.linalg.det(V[..., 1:, :] - V[..., :1, :])) / math.factorial(n)


def volume(p: Polytope) -> float:
    """Volume by the fan from the lexicographically smallest vertex, one
    stacked determinant over its simplices, summed left to right; zero
    for lower-dimensional polytopes."""
    if p.is_empty or p.dim < p.n:
        return 0.0
    return sum(simplex_volume(p.vertices[fan(p, p.vertices[0])]).tolist())


def fan(p: Polytope, anchor) -> np.ndarray:
    """Simplices of a full-dimensional ``p``, as an (S, n+1) array of the
    indices of their rows of ``p.vertices`` (``p.vertices[fan(p, a)]``
    stacks their vertices), with the vertex ``anchor`` first: the cones
    from it over every facet that misses it, triangulated by ``_cone``,
    which pulls each face from its first vertex and ends at the faces that
    are simplices, each its own triangulation (De Loera, Rambau & Santos
    2010, ch. 4).  A caller reads the rows' incidence off
    ``p.incidence``.  Every anchored fan of the package is this one.
    Raises GeometryError when no vertex lies within ``TOL_MERGE`` of the
    anchor, or when an incidence that does not describe ``p`` (a hull of
    points merged within about ``TOL_MERGE``) gives a cone without n+1
    rows."""
    if not p.is_full_dim:
        raise Degenerate("fan triangulation expects a full-dimensional polytope")
    hit = np.flatnonzero(np.abs(p.vertices - anchor).max(axis=1) <= TOL_MERGE)
    if not len(hit):
        raise GeometryError("fan anchor is not a vertex of the polytope")
    cones = _cone(p.incidence, np.arange(len(p.vertices)), int(hit[0]), p.n)
    if any(len(s) != p.n + 1 for s in cones):
        raise GeometryError("fan cone without n+1 vertices: ambiguous incidence")
    return np.array(cones, dtype=int).reshape(-1, p.n + 1)


def _cone(incidence: np.ndarray, face: np.ndarray, apex: int, d: int) -> list[list[int]]:
    """Vertex index lists of the simplices coning vertex ``apex`` of the
    d-dimensional ``face`` (indices of ``incidence``'s rows, in
    lexicographic order) over each facet of the face that misses it
    (``_facet_sets``), each coned in turn from its first vertex.  A face
    of d + 1 vertices is a simplex, its own triangulation: ``apex``, then
    its other vertices in face order, the row that coning it down to its
    vertices gives.  Only an incidence that does not describe the
    polytope gives a face fewer vertices; its row comes back short, and
    ``fan`` raises."""
    if len(face) <= d + 1:
        return [[apex] + face[face != apex].tolist()]
    out = []
    for facet in _facet_sets(incidence[face], d):
        sub = face[facet]
        if apex not in sub:
            out += [[apex] + s for s in _cone(incidence, sub, int(sub[0]), d - 1)]
    return out


def _facet_sets(on: np.ndarray, d: int) -> np.ndarray:
    """The facets of a d-dimensional face, as boolean masks over its
    vertices, from their rows ``on`` of a table: every vertex but one of
    a simplex (d + 1 vertices), else the maximal nonempty proper sets
    F ∩ T_h, T_h a column (``_maximal_sets``).  The one rule for the
    facets of a face, which ``_cone`` and the pyramids read."""
    if len(on) == d + 1:
        return ~np.eye(d + 1, dtype=bool)
    proper = on[:, ~on.all(axis=0)].T
    return proper[_maximal_sets(proper)]


def pyramid(apex, base: Polytope) -> np.ndarray:
    """The simplices of the pyramid from ``apex`` over an
    (n-1)-dimensional ``base``, as an (S, n+1, n) vertex stack: the apex,
    then a simplex of the base's pulling triangulation from its first
    vertex (``_cone``, on the base's own table).  It is what ``fan``
    gives of the hull of the apex and the base from the apex, with no
    hull: the apex misses only the base."""
    V = base.vertices[np.array(_cone(base.incidence, np.arange(len(base.vertices)), 0,
                                     base.dim), dtype=int)]
    return np.concatenate([np.broadcast_to(apex, (len(V), 1, base.n)), V], axis=1)


def pyramid_rows(apex, base: Polytope) -> tuple[np.ndarray, np.ndarray]:
    """The facet rows (normals, offsets) of the pyramid from ``apex`` over
    an (n-1)-dimensional ``base`` that pass through the apex: per facet of
    the base (``_facet_sets``), the plane through it and the apex, its
    unit normal pointing away from the base, in facet order
    (``_facet_order``), as the pyramid's hull would give them."""
    normals = np.array([hyperplane_through(np.vstack([apex, base.vertices[facet]])).normal
                        for facet in _facet_sets(base.incidence, base.dim)])
    normals *= np.where(normals @ (base.vertices.mean(axis=0) - apex) > 0.0, -1.0, 1.0)[:, None]
    offsets = normals @ apex
    order = _facet_order(normals, offsets)
    return normals[order], offsets[order]


# ---------------------------------------------------------------------------
# simplices with facet normals
# ---------------------------------------------------------------------------

def simplex_tables(vertices) -> np.ndarray:
    """The ``Simplex.table`` of each of a stack of simplices, (S, n+1, n)
    vertices in, (S, n+1, 2n+1) tables out, from one stacked rank test
    and one stacked inverse.  Raises GeometryError when the simplices do
    not have n+1 vertices or any one's vertices are affinely dependent."""
    V = np.asarray(vertices, dtype=float)
    if V.ndim != 3:
        raise GeometryError("simplex vertices must form an (S, n+1, n) stack")
    S, k, n = V.shape
    if k != n + 1:
        raise GeometryError(f"simplex in R^{n} needs {n + 1} vertices, got {k}")
    if np.any(rank(sv=np.linalg.svd(V[:, 1:] - V[:, :1], compute_uv=False)) != n):
        raise GeometryError("simplex vertices are affinely dependent")
    W = np.linalg.inv(np.concatenate([V, np.ones((S, k, 1))], axis=2))
    W[:, :n] *= -1.0
    facets = W / np.linalg.norm(W[:, :n], axis=1, keepdims=True)
    return np.concatenate([V, np.swapaxes(facets, 1, 2)], axis=2)


class Simplex:
    """n+1 affinely independent vertices; facet j is the one omitting
    vertex j, with unit outward normal ``normals[j]`` and offset
    ``offsets[j]`` so that normals[j].v_i == offsets[j] for i != j and
    normals[j].v_j < offsets[j].  The three are views of one
    (n+1, 2n+1) ``table``, as a controller holds a simplex per piece.  Its
    facet rows are the normalized barycentric inverse W = [V | 1]^-1
    (``barycentric`` reads W back):
    column j, the coordinate lambda_j of vertex j, with its x part negated,
    over the norm of that part.  ``Simplex(vertices)`` is
    ``simplex_tables`` on a stack of one; a triangulation builds all its
    tables at once and holds its simplices as views (``of_table``).

    A simplex stores its table.  A ``PWAController`` stores only its
    regions' vertices and derives their tables on first read, by one
    ``simplex_tables`` call over its vertex stack, and gets the tables
    synthesis built bit for bit: a stacked call computes each member's
    rank test and inverse from that member alone, so a table depends on
    its vertices and not on the stack they came in."""

    __slots__ = ("table",)

    def __init__(self, vertices):
        self.table = simplex_tables(_as_points(vertices)[None])[0]

    @classmethod
    def of_table(cls, table: np.ndarray) -> "Simplex":
        """The simplex whose ``table`` is given, as rows of a larger one."""
        s = cls.__new__(cls)
        s.table = table
        return s

    @property
    def n(self) -> int:
        return self.table.shape[0] - 1

    @property
    def vertices(self) -> np.ndarray:
        return self.table[:, :self.n]

    @property
    def normals(self) -> np.ndarray:
        return self.table[:, self.n:-1]

    @property
    def offsets(self) -> np.ndarray:
        return self.table[:, -1]

    def contains(self, x, tol: float = TOL_GEOM) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(self.normals @ x - self.offsets <= tol))

    def facet(self, j: int) -> Face:
        """Facet j as a face with its table: each of its n vertices lies on
        every facet of it but the one omitting that vertex, in any order."""
        verts = np.delete(self.vertices, j, axis=0)
        return Face(lex_sorted(verts), HalfSpace(self.normals[j], self.offsets[j]), self.n - 1,
                    ~np.eye(self.n, dtype=bool))

    def centroid(self) -> np.ndarray:
        return self.vertices.mean(axis=0)

    def volume(self) -> float:
        return simplex_volume(self.vertices)

    def __repr__(self) -> str:
        return f"Simplex(n={self.n})"


def barycentric(tables: np.ndarray) -> np.ndarray:
    """W = [V | 1]^-1 of a simplex, or of each of a stack, read back from
    its ``Simplex.table``: column j is (-normals[j], offsets[j]) over the
    height of vertex j above facet j."""
    n = tables.shape[-2] - 1
    V, N, offsets = tables[..., :n], tables[..., n:-1], tables[..., -1:]
    heights = offsets - np.einsum("...ij,...ij->...i", N, V)[..., None]
    return np.swapaxes(np.concatenate([-N, offsets], axis=-1) / heights, -1, -2)
