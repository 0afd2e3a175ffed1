"""Open-loop reachability of a boundary target on a polytope.

The analysis decides whether every state of the polytope can be steered
to the target while remaining inside, exposes the two failure sets (the
sub-level block at the target's low end, and the possible equilibria
pinned on the top face), and cuts the failure sets off with a margin to
produce a closed polytope on which the problem is solvable.

Every slice of the polytope at a drift level or along the equilibrium
plane (the level face, the equilibrium slice, the cut's anchors and
interface) is one ``geometry.section``, and the plane is the one
``compute_geometry`` reads from ``system.equilibrium_plane``.  Every set
of points at one drift level (the target's lowest and highest vertices,
the top face, the cut's pivots) comes from ``SystemGeometry.at_level``.
Condition (a) is settled on the vertices of the level face alone: the
face is convex, and the equilibrium slice is all of it or of lower
dimension, so the target and the slice cover it exactly when the target
holds every vertex or the slice does.  No other point is tested, and
LPs are solved only inside ``point_in_hull``, for a vertex its closed
forms leave open.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CutConstructionFailed, EpsTooLarge
from .geometry import (TOL_GEOM, TOL_INCIDENCE, TOL_MERGE, Face, Hyperplane,
                       Polytope, affine_basis, affine_dimension,
                       clip_to_halfspace, convex_hull, hyperplane_through,
                       lex_sorted, point_in_hull, section,
                       split_by_hyperplane)
from .system import SystemGeometry


@dataclass(frozen=True)
class ReachAnalysis:
    """Verdict and landmark sets for one (polytope, target) instance.

    ``a_minus`` / ``a_plus`` store closures of the failure sets; the true
    failure sets exclude their measure-zero overlap with the target.
    ``uncovered`` holds the vertices of ``h_minus`` covered by neither the
    target nor ``b_minus``.
    """

    v_minus: np.ndarray
    v_plus: np.ndarray
    h_minus: Polytope
    p_plus: Face
    b_minus: Polytope
    b_minus_active: bool
    a_minus: Polytope
    a_plus: Polytope
    condition_a: bool
    condition_b: bool
    uncovered: np.ndarray
    notes: tuple = ()

    @property
    def reachable(self) -> bool:
        return self.condition_a and self.condition_b


@dataclass(frozen=True)
class EpsilonCut:
    """Result of cutting the failure sets off with margin ``eps``."""

    eps: float
    a_eps_minus: Polytope
    a_eps_plus: Polytope
    reach_eps: Polytope
    cut_planes: tuple = ()


def analyze(geom: SystemGeometry, p: Polytope, f: Polytope) -> ReachAnalysis:
    """Exact reachability verdict for steering all of ``p`` to ``f``.

    Condition (a): nothing lies strictly below the target's lowest drift
    level except points covered by the target or by the equilibrium slice
    of that level.  Condition (b): the top face of the polytope is not a
    set of forced equilibria away from the target.

    The level face and the equilibrium slice are plane sections
    (``geometry.section``).  The slice is active when the target's lowest
    vertices lie on both sides of the equilibrium plane or on it, which
    is when the target's lowest face meets the plane; no LP decides it.
    The vertices of ``h_minus`` that neither covers are recorded once, in
    ``uncovered``, for the margin cut.

    With every vertex covered, condition (a) asks whether the convex
    ``h_minus`` lies in the union of the target and the slice.  The
    points within ``TOL_INCIDENCE`` (inf-norm) of the convex target form a
    closed convex set, as the distance to it is a convex function, so it
    holds ``h_minus`` when it holds every vertex.  The slice is
    ``h_minus`` cut by the equilibrium plane: all of it when the face lies
    in the plane, else of lower dimension, and then the union holds the
    face only if the closed target holds the dense rest of it, so all of
    it.  Condition (a) thus holds exactly when the target holds every
    vertex or the slice does; otherwise the whole level face is kept as
    the failure closure, with a note.  Only vertices are tested.
    """
    beta = geom.beta
    f_levels = f.vertices @ beta
    v_minus = lex_sorted(geom.at_level(f.vertices, f_levels.min()))[0]
    v_plus = lex_sorted(geom.at_level(f.vertices, f_levels.max()))[0]
    lvl_minus = float(beta @ v_minus)
    lvl_plus = float(beta @ v_plus)

    p_levels = p.vertices @ beta
    beta_min = float(p_levels.min())
    beta_max = float(p_levels.max())
    notes: list[str] = []

    # sub-level block relative to the target
    b_plane = Hyperplane(beta, lvl_minus)
    below = beta_min < lvl_minus - TOL_GEOM
    h_minus = clip_to_halfspace(p, b_plane.lower()) if below else section(p, b_plane)

    top = geom.on_level(p_levels, beta_max)
    p_plus = Face(p.vertices[top], None, affine_dimension(p.vertices[top]), p.incidence[top])

    # equilibrium slice at the target's low level, active only when it
    # meets the target
    o_plane = geom.equilibrium_plane
    sides = {o_plane.side(v) for v in geom.at_level(f.vertices, lvl_minus)}
    b_minus_active = 0 in sides or sides >= {-1, 1}
    b_minus = Polytope.empty(p.n)
    if b_minus_active:
        b_minus = section(section(p, b_plane) if below else h_minus, o_plane)

    # condition (a): h_minus is convex, and b_minus is all of it or of
    # lower dimension, so they cover it when the target holds every
    # vertex or the slice does
    def in_b(x) -> bool:
        return not b_minus.is_empty and point_in_hull(x, b_minus.vertices, TOL_INCIDENCE)

    verts = h_minus.vertices
    in_f = [point_in_hull(v, f.vertices, TOL_INCIDENCE) for v in verts]
    uncovered = verts[[not (a or in_b(v)) for a, v in zip(in_f, verts)]]
    if below:
        condition_a = False
        a_minus = h_minus
    elif len(uncovered):
        condition_a = False
        a_minus = convex_hull(uncovered)
    else:
        # vertices all covered: the vertices in the target are tested
        # against the slice too, the others are in it already
        condition_a = all(in_f) or all(in_b(v) for a, v in zip(in_f, verts) if a)
        if condition_a:
            a_minus = Polytope.empty(p.n)
        else:
            # keep the whole level face as the closure and flag the ambiguity
            a_minus = h_minus
            notes.append("sub-level face not convexly covered by target and equilibrium slice")

    # condition (b)
    in_o = bool(geom.on_equilibrium_plane(p_plus.vertices).all())
    strictly_above = beta_max > lvl_plus + TOL_GEOM
    condition_b = (not in_o) or (not strictly_above)
    a_plus = p_plus if not condition_b else Polytope.empty(p.n)

    return ReachAnalysis(v_minus, v_plus, h_minus, p_plus,
                         b_minus, b_minus_active, a_minus, a_plus,
                         condition_a, condition_b, uncovered, tuple(notes))


def default_eps(geom: SystemGeometry, p: Polytope) -> float:
    levels = p.vertices @ geom.beta
    return 1e-2 * float(levels.max() - levels.min())


# ---------------------------------------------------------------------------
# margin cuts
# ---------------------------------------------------------------------------

def _flat_target_pivot(f: Polytope, offenders: np.ndarray) -> np.ndarray:
    """For a target lying entirely at one drift level, pick the face of the
    target whose outer side holds every offending point; the cut pivots on
    that face.  The target is hulled in the coordinates of its affine hull,
    where it is full-dimensional, and its facets there are tried in
    order: the ends of a segment, the edges of a polygon."""
    origin, basis = affine_basis(f.vertices)
    hull = convex_hull((f.vertices - origin) @ basis)
    off_proj = (offenders - origin) @ basis
    for face in hull.facets():
        if np.all(face.supporting.value(off_proj) >= -TOL_GEOM):
            return face.vertices @ basis.T + origin
    raise CutConstructionFailed("no target face separates the offending points")


def _cut_low_failure(p: Polytope, f: Polytope, geom: SystemGeometry,
                     analysis: ReachAnalysis, eps: float) -> tuple[Hyperplane, int]:
    """Cut hyperplane removing the low-end failure set with margin eps.

    Returns the plane and the sign of its failure side (+1 means the
    failure set satisfies normal.x >= offset).
    """
    beta = geom.beta
    lvl = float(beta @ analysis.v_minus)
    n = p.n

    f_levels = f.vertices @ beta
    flat = float(f_levels.max() - f_levels.min()) <= TOL_GEOM

    offenders = analysis.uncovered if len(analysis.uncovered) else analysis.a_minus.vertices

    if flat:
        pivots = _flat_target_pivot(f, offenders)
    else:
        pivots = geom.at_level(f.vertices, lvl)

    level_hi = lvl + eps
    if level_hi >= float((p.vertices @ beta).max()) - TOL_GEOM:
        raise EpsTooLarge("margin exceeds the drift extent of the polytope")
    anchors = section(p, Hyperplane(beta, level_hi)).vertices
    if len(anchors) == 0:
        raise EpsTooLarge("no boundary points at the shifted level")

    need = n - affine_dimension(pivots) - 1
    if need <= 0:
        cand_sets = [()]
    else:
        cand_sets = list(itertools.combinations(range(len(anchors)), need))

    f_verts = f.vertices
    for combo in cand_sets:
        pts = np.vstack([pivots] + [anchors[list(combo)]]) if combo else pivots
        plane = hyperplane_through(pts)
        if plane is None:
            continue
        # orient: failure side is where the offenders live
        off_vals = plane.value(offenders)
        if np.all(off_vals >= -TOL_INCIDENCE):
            sign = 1
        elif np.all(off_vals <= TOL_INCIDENCE):
            sign = -1
        else:
            continue
        # the target must sit entirely on the keep side
        f_vals = plane.value(f_verts) * sign
        if np.any(f_vals > TOL_INCIDENCE):
            continue
        # both sides solid, and margin attained: every point of the plane
        # inside p stays within eps of the pivot level
        p_vals = p.vertices @ plane.normal - plane.offset
        if not (p_vals.min() < -TOL_GEOM and p_vals.max() > TOL_GEOM):
            continue
        iface = section(p, plane).vertices
        if not len(iface) or np.abs(iface @ beta - lvl).max() > eps + TOL_MERGE:
            continue
        return plane, sign
    raise CutConstructionFailed("no admissible cut hyperplane at this margin")


def epsilon_cut(geom: SystemGeometry, p: Polytope, f: Polytope,
                eps: Optional[float] = None,
                analysis: Optional[ReachAnalysis] = None) -> EpsilonCut:
    """Remove both failure sets with margin ``eps``.

    The low-end failure is cut along a tilted hyperplane pivoting on the
    target at its lowest drift level; the equilibrium failure on the top
    face is cut along a drift-level plane.  Either cut is skipped when
    its failure set is empty; with no failure sets the polytope comes
    back whole.
    """
    if analysis is None:
        analysis = analyze(geom, p, f)
    if eps is None:
        eps = default_eps(geom, p)
    if not eps > 0:
        raise ValueError("eps must be positive")

    beta = geom.beta
    reach = p
    a_eps_minus = Polytope.empty(p.n)
    a_eps_plus = Polytope.empty(p.n)
    planes: list[Hyperplane] = []

    # total failure: the target sits on the top drift level, so no
    # full-dimensional subset can reach it and nothing remains after
    # removing the failure set
    lvl_minus = float(beta @ analysis.v_minus)
    beta_max = float((p.vertices @ beta).max())
    if not analysis.a_minus.is_empty and lvl_minus >= beta_max - TOL_GEOM:
        return EpsilonCut(float(eps), p, Polytope.empty(p.n), Polytope.empty(p.n), ())

    if not analysis.a_minus.is_empty:
        plane, sign = _cut_low_failure(p, f, geom, analysis, eps)
        lo, hi = split_by_hyperplane(reach, plane)
        a_eps_minus, reach = (hi, lo) if sign > 0 else (lo, hi)
        planes.append(plane)

    if not analysis.a_plus.is_empty:
        beta_max = float((p.vertices @ beta).max())
        lvl_plus = float(beta @ analysis.v_plus)
        cut_level = beta_max - eps
        if cut_level <= lvl_plus + TOL_GEOM:
            raise EpsTooLarge("margin would cut into the target's top level")
        plane = Hyperplane(beta, cut_level)
        lo, hi = split_by_hyperplane(reach, plane)
        reach, a_eps_plus = lo, hi
        planes.append(plane)

    if reach.is_empty or not reach.is_full_dim:
        raise EpsTooLarge("nothing full-dimensional remains after the cuts")
    for v in f.vertices:
        if not reach.contains(v, TOL_MERGE):
            raise EpsTooLarge("cut removed part of the target")
    return EpsilonCut(float(eps), a_eps_minus, a_eps_plus, reach, tuple(planes))
