"""Partitioning constructions driven by the control problem: anchored fan
triangulations, refinement with respect to a boundary target that is not a
facet, the far-target split, and the cover used when the equilibrium plane
crosses the polytope.

Both triangulations are ``geometry.fan`` of one anchor, a vertex chosen
by one rule (``select_vstar`` takes the first of ``qualifying_vertices``
off the equilibrium plane).  The fan reads the faces from the polytope's
vertex-facet incidence, so its simplices are rows of its vertices.
Which of those rows lie on the target's facet k is column k of the
incidence, read once: a simplex with exactly one vertex off it exits
through the facet omitting that vertex (``basic_triangulation``), and
the fan's cones whose base is on it give way (``triangulation_wrt_F``).
For a target inside a facet, they give way to pyramids from the anchor
(``geometry.pyramid``) over the target and over the pieces of facet k
that the planes through the anchor and the target's facets cut off
(``geometry.pyramid_rows``), each read from its own incidence: no
triangulation hulls, and nothing is projected into a facet's frame.
The points at one drift level (the top face, the target's end vertices)
come from ``SystemGeometry.at_level``.  A triangulation records what its
construction decides, the exit facet of each target simplex and the
facet each simplex shares with a neighbour, so synthesis reads these
instead of recomputing them.

A triangulation is one (S, n+1, 2n+1) stack of simplex tables, built
by one ``geometry.simplex_tables`` call from the cones' vertex stacks and
ordered by one lexsort of the simplices' keys (``_key_order``).  Its
adjacency matches facet keys, the sorted ids of a facet's vertices, in
one sort, and the vertex levels along a direction, which the greedy pass
reads, are one (S, n+1) product (``Triangulation.levels``)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (CoverIncomplete, CutConstructionFailed, EpsTooLarge,
                     NoQualifyingVertex, VStarInFbar)
from .geometry import (KEY_DECIMALS, TOL_GEOM, TOL_INCIDENCE, TOL_VOLUME,
                       TOL_ZERO, HalfSpace, Hyperplane, Polytope, Simplex,
                       affine_dimension, carrying_facet, convex_hull, fan,
                       hyperplane_through, intersect, lex_sorted,
                       point_in_hull, pyramid, pyramid_rows, section,
                       simplex_tables, split_by_hyperplane, whole_facet)
from .reach import default_eps, epsilon_cut
from .system import (AffineSystem, SystemGeometry, compute_geometry,
                     equilibrium_plane)


@dataclass
class Triangulation:
    """Simplices of an anchored triangulation with what its construction
    decided about them.

    ``tables`` stacks the simplices' tables, (S, n+1, 2n+1)
    (``geometry.simplex_tables``), in key order (``_key_order``), which
    synthesis reads, and ``simplices`` derives views of its members on
    each read.  ``target_exits`` maps each simplex having a whole facet
    inside the target to the index of that facet (facet j omits vertex
    j).  ``adjacency``, computed from the tables, lists each pair (a, b)
    of simplices sharing a facet as (a, b, that facet's index in a, its
    index in b).
    """

    tables: np.ndarray
    vstar: np.ndarray
    target_exits: dict[int, int]
    adjacency: list[tuple[int, int, int, int]] = field(init=False)

    def __post_init__(self):
        self.adjacency = _facet_adjacency(self.tables)

    @property
    def simplices(self) -> list[Simplex]:
        """A ``Simplex`` view of each member of ``tables``, built on read."""
        return [Simplex.of_table(t) for t in self.tables]

    def levels(self, direction: np.ndarray) -> np.ndarray:
        """(S, n+1) values direction.v at every vertex of every simplex, in
        one stacked product: row i is simplex i's vertex rows times
        ``direction``, bit for bit as that product over one simplex's or
        one facet's rows gives it (the greedy tie-break reads last bits)."""
        return self.tables[..., :self.tables.shape[1] - 1] @ direction

    def neighbors(self) -> list[list[tuple[int, int]]]:
        """Per simplex i, its (neighbour j, index in j of the facet they
        share) pairs, in adjacency order, from one pass over it."""
        out: list[list[tuple[int, int]]] = [[] for _ in self.tables]
        for a, b, ka, kb in self.adjacency:
            out[a].append((b, kb))
            out[b].append((a, ka))
        return out


@dataclass(frozen=True)
class CoverPiece:
    polytope: Polytope
    target: Polytope
    role: str  # "target" drives to the original target, "feeder" to an interface


@dataclass(frozen=True)
class Cover:
    pieces: tuple[CoverPiece, ...]
    cut_planes: tuple[Hyperplane, ...] = ()


def _key_order(vertices: np.ndarray) -> np.ndarray:
    """The order of a stack of simplices, (S, n+1, n) vertices, by key: a
    simplex's key is its vertices rounded to ``KEY_DECIMALS`` and sorted
    lexicographically, and keys compare lexicographically, ties keeping
    their order."""
    S, nv, n = vertices.shape
    R = np.round(vertices, KEY_DECIMALS)
    rows = np.lexsort(np.moveaxis(R, 2, 0)[::-1], axis=-1)
    keys = np.take_along_axis(R, rows[..., None], axis=1).reshape(S, nv * n)
    return np.lexsort(keys.T[::-1])


def _sorted_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable lexicographic order of the rows of a 2-D array, and
    whether each row, in that order, equals the one before it."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    return order, np.concatenate([[False], np.all(ranked[1:] == ranked[:-1], axis=1)])


def _facet_adjacency(tables: np.ndarray) -> list[tuple[int, int, int, int]]:
    """The pairs (a, b, ka, kb), a < b in that order, of simplices whose
    facets ka and kb hold the same vertices.  A vertex is identified by
    its point rounded to ``KEY_DECIMALS``, and facet k by the sorted ids
    of every vertex but k; in a triangulation at most two simplices hold a
    facet, so equal facet keys are neighbours in the keys' sorted order."""
    S, nv = tables.shape[:2]
    n = nv - 1
    order, same = _sorted_rows(np.round(tables[..., :n], KEY_DECIMALS).reshape(S * nv, n))
    ids = np.empty(S * nv, dtype=int)
    ids[order] = np.cumsum(~same)
    # row k of ``facet``: the indices of facet k's vertices, all but k
    facet = np.nonzero(~np.eye(nv, dtype=bool))[1].reshape(nv, n)
    order, same = _sorted_rows(np.sort(ids.reshape(S, nv)[:, facet], axis=2).reshape(S * nv, n))
    # the stable sort keeps a shared key's two facets in (simplex, facet)
    # order, and a flat index is simplex * nv + facet
    first, second = order[:-1][same[1:]], order[1:][same[1:]]
    pairs = np.column_stack([first // nv, second // nv, first % nv, second % nv])
    return list(map(tuple, pairs[np.lexsort(pairs[:, 1::-1].T)].tolist()))


def qualifying_vertices(p: Polytope, f: Polytope, geom: SystemGeometry) -> np.ndarray:
    """The indices of the vertices of ``p`` on the top drift face that are
    admissible as fan anchors, in the vertices' (lexicographic) order:
    off the equilibrium plane or inside the target.  A caller reads their
    rows of ``p.incidence`` by these indices."""
    levels = p.vertices @ geom.beta
    top = np.flatnonzero(geom.on_level(levels, float(levels.max())))
    return np.array([i for i in top if not geom.on_equilibrium_plane(p.vertices[i])
                     or point_in_hull(p.vertices[i], f.vertices, TOL_INCIDENCE)], dtype=int)


def select_vstar(p: Polytope, f: Polytope, geom: SystemGeometry) -> np.ndarray:
    """The anchor: the first qualifying vertex off the equilibrium plane,
    else the first one (which lies inside the target).  With none, the
    reachability premise is violated."""
    quals = p.vertices[qualifying_vertices(p, f, geom)]
    if not len(quals):
        raise NoQualifyingVertex("no admissible anchor vertex on the top face")
    off_plane = quals[~geom.on_equilibrium_plane(quals)]
    return off_plane[0] if len(off_plane) else quals[0]


def basic_triangulation(p: Polytope, vstar: np.ndarray, k: int) -> Triangulation:
    """The fan of the vertex ``vstar`` over every facet of ``p`` that
    misses it (``geometry.fan``), ordered by vertex key, with its exits
    through facet ``k`` of ``p``, the target.  The anchor is vertex 0 of
    every simplex.  The fan's simplices are rows of ``p.vertices``, so
    column k of ``p.incidence`` tells which of their vertices lie on the
    target: a simplex with exactly one vertex off it exits through the
    facet omitting that vertex, which is its only facet in the target."""
    vstar = np.asarray(vstar, dtype=float)
    rows = fan(p, vstar)
    rows = rows[_key_order(p.vertices[rows])]
    off = ~p.incidence[rows, k]
    one = np.flatnonzero(off.sum(axis=1) == 1)
    exits = dict(zip(one.tolist(), off[one].argmax(axis=1).tolist()))
    return Triangulation(simplex_tables(p.vertices[rows]), vstar, exits)


def triangulation_wrt_F(p: Polytope, f: Polytope, vstar: np.ndarray) -> Triangulation:
    """The fan of the vertex ``vstar`` over the facets of ``p`` other than
    the one carrying the target, with cones over the target and over the
    pieces of that facet outside it, ordered by vertex key.

    Every cone over the carrying facet k is ``geometry.pyramid`` from the
    anchor, and no set is hulled.  Facet k (``p.facets()[k]``, with its
    rows of the incidence) is split by the planes through the anchor and
    each facet of the target (``geometry.pyramid_rows``), in their order:
    each (n-1)-dimensional piece outside a plane is coned, and what
    remains is the target.  Each cone over the target exits through its
    base, which is facet 0 because the anchor is vertex 0."""
    vstar = np.asarray(vstar, dtype=float)
    k = carrying_facet(p, f)
    if k is None:
        raise ValueError("target does not lie in any facet of the polytope")
    h = HalfSpace.of_row(p.rows[0][k], p.rows[1][k])
    if abs(h.value(vstar)) <= TOL_GEOM:
        raise VStarInFbar("anchor lies on the facet carrying the target")

    cones = [pyramid(vstar, f)]
    n_target = len(cones[0])
    # the fan's cones with their base on facet k, which column k of the
    # incidence tells, give way to the cones over the target and over the
    # pieces of facet k outside it
    rows = fan(p, vstar)
    cones.append(p.vertices[rows[~p.incidence[rows[:, 1:], k].all(axis=1)]])
    rest = p.facets()[k]
    for normal, offset in zip(*pyramid_rows(vstar, f)):
        rest, piece = split_by_hyperplane(rest, Hyperplane.of_row(normal, offset))
        if piece.dim == p.n - 1:
            cones.append(pyramid(vstar, piece))
    V = np.concatenate(cones)
    order = _key_order(V)
    exits = dict.fromkeys(np.flatnonzero(order < n_target).tolist(), 0)
    return Triangulation(simplex_tables(V[order]), vstar, exits)


# ---------------------------------------------------------------------------
# covers and splits for a non-facet target
# ---------------------------------------------------------------------------

def _split_plane_through(p: Polytope, a: np.ndarray, b: np.ndarray) -> Hyperplane:
    """Hyperplane through the segment [a, b] splitting p into two
    full-dimensional pieces, maximizing the smaller piece; the first
    candidate wins a tie.  Each candidate is ``hyperplane_through`` a, b
    and n-2 vertices (in 2-D, the line through a and b), and in 3-D also
    a, b and a + e for each coordinate direction e."""
    n = p.n
    extra_pool = [v for v in p.vertices if affine_dimension(np.vstack([a, b, v])) == 2]
    points = [[a, b, *extra] for extra in itertools.combinations(extra_pool, n - 2)]
    if n == 3:
        points += [[a, b, a + e] for e in np.eye(n)]
    best = None
    best_score = -1.0
    for pts in points:
        plane = hyperplane_through(np.vstack(pts))
        if plane is None:
            continue
        lo, hi = split_by_hyperplane(p, plane)
        if lo.is_empty or hi.is_empty or not (lo.is_full_dim and hi.is_full_dim):
            continue
        score = min(lo.volume(), hi.volume())
        if score > best_score + TOL_ZERO:
            best, best_score = plane, score
    if best is None:
        raise NoQualifyingVertex("no hyperplane through the anchor segment splits the polytope")
    return best


def cover_wrt_F(p: Polytope, f: Polytope, geom: SystemGeometry) -> Cover:
    """Three-piece cover for a target inside a facet: one piece has the
    target as a facet, the other two drive to the interface slice.

    Degenerate case: when the target already is a facet the polytope comes
    back as a single piece.
    """
    if whole_facet(p, f) is not None:
        return Cover((CoverPiece(p, f, "target"),))

    quals = geom.at_level(f.vertices, float((p.vertices @ geom.beta).max()))
    if not len(quals):
        raise NoQualifyingVertex("no target vertex on the top drift face")
    vstar = lex_sorted(quals)[0]
    v_minus = lex_sorted(geom.at_level(f.vertices, float((f.vertices @ geom.beta).min())))[0]

    plane = _split_plane_through(p, v_minus, vstar)
    p2, p3 = split_by_hyperplane(p, plane)
    interface = section(p, plane)
    p1 = convex_hull(np.vstack([f.vertices, interface.vertices]))
    return Cover((CoverPiece(p1, f, "target"),
                  CoverPiece(p2, interface, "feeder"),
                  CoverPiece(p3, interface, "feeder")),
                 (plane,))


def split_far_case(p: Polytope, f: Polytope, geom: SystemGeometry) -> Cover:
    """Split along the input-plane through the target's top vertex when no
    target vertex reaches the polytope's top face: the "target" piece
    holds the target and has a top-face target vertex, and the "feeder"
    piece drives to the interface slice.  When a target vertex already
    sits on the top face the polytope comes back as a single piece."""
    if len(geom.at_level(f.vertices, float((p.vertices @ geom.beta).max()))):
        return Cover((CoverPiece(p, f, "target"),))

    v_plus = lex_sorted(geom.at_level(f.vertices, float((f.vertices @ geom.beta).max())))[0]
    plane = geom.input_plane_through(v_plus)
    # the target sits on the low-drift side of the plane
    p1, p2 = split_by_hyperplane(p, plane)
    interface = section(p, plane)
    return Cover((CoverPiece(p1, f, "target"),
                  CoverPiece(p2, interface, "feeder")),
                 (plane,))


# ---------------------------------------------------------------------------
# cover with respect to the equilibrium plane
# ---------------------------------------------------------------------------

def _cover_gap(volume: float, sides: list[tuple[Optional[Polytope], ...]]) -> float:
    """The volume a cover misses of a polytope of ``volume``, given per
    side of the equilibrium plane its (direct, feeder) pieces, each None
    when the side has none.  Every piece lies in its side, so the gap is
    |p| less, per side, |a ∪ b| = |a| + |b| - |a ∩ b|.  Where b's
    halfspaces already hold a, ``intersect`` returns a itself, whose
    volume is taken already."""
    gap = volume
    for pieces in sides:
        present = [q for q in pieces if q is not None]
        volumes = [q.volume() for q in present]
        gap -= sum(volumes)
        if len(present) == 2:
            both = intersect(*present)
            gap += volumes[0] if both is present[0] else both.volume()
    return gap


def cover_wrt_O(sys: AffineSystem, p: Polytope, f: Polytope,
                eps: Optional[float] = None) -> Cover:
    """Cover of a polytope crossed by the equilibrium plane.

    The polytope and the target are split along
    ``system.equilibrium_plane``, the plane whose crossing fails A3, so a
    polytope that passes A3 comes back as one piece.  Each side gets a
    margin-cut reach set (``epsilon_cut``) toward its half of the target,
    when that half is a facet: the direct piece.  Then it gets one toward
    the interface, the section of the other side's direct piece by the
    plane: the feeder piece.  Both kinds of cut are made by one local
    path, which names the kind and the side when a cut fails.  So each
    side holds at most two pieces, and the gap is read off their volumes
    and their intersection (``_cover_gap``), not off an arrangement of
    the cut planes.  Raises CoverIncomplete when the pieces miss a region
    of positive volume, which signals that the margin must shrink or that
    some states are forced through a low-dimensional bottleneck.
    """
    o_plane = equilibrium_plane(sys)
    sides = split_by_hyperplane(p, o_plane)
    if sides[0].is_empty or sides[1].is_empty:
        return Cover((CoverPiece(p, f, "target"),))

    targets = split_by_hyperplane(f, o_plane)
    geoms = [compute_geometry(sys, s) for s in sides]
    if eps is None:
        eps = min(default_eps(geoms[0], sides[0]), default_eps(geoms[1], sides[1]))

    pieces: list[CoverPiece] = []
    planes: list[Hyperplane] = [o_plane]

    def cut(i: int, target: Polytope, kind: str, role: str) -> Optional[Polytope]:
        """Side i's margin-cut reach set toward ``target``, appended with
        its cut planes; None when nothing of the side remains."""
        try:
            out = epsilon_cut(geoms[i], sides[i], target, eps)
        except (EpsTooLarge, CutConstructionFailed) as exc:
            raise CoverIncomplete(np.inf, f"{kind} cut on side {i} failed: {exc}")
        if out.reach_eps.is_empty:
            return None
        pieces.append(CoverPiece(out.reach_eps, target, role))
        planes.extend(out.cut_planes)
        return out.reach_eps

    direct = [cut(i, targets[i], "direct", "target") if targets[i].dim == p.n - 1 else None
              for i in (0, 1)]
    feeder: list[Optional[Polytope]] = [None, None]
    for i, j in ((0, 1), (1, 0)):
        # a side that epsilon_cut cut nothing off is covered already
        if direct[j] is None or direct[i] is sides[i]:
            continue
        iface = section(direct[j], o_plane)
        if iface.is_empty or iface.dim != p.n - 1:
            continue
        feeder[i] = cut(i, iface, "interface", "feeder")

    volume = p.volume()
    gap = _cover_gap(volume, list(zip(direct, feeder)))
    if gap > TOL_VOLUME * max(volume, 1.0):
        raise CoverIncomplete(gap)
    return Cover(tuple(pieces), tuple(planes))
