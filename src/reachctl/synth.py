"""Piecewise-affine feedback synthesis.

Vertex controls solve one small LP per simplex vertex, which maximizes
the margin of the blocking conditions and, as a tie-break, the push
across the exit facet.  The LPs of a simplex are solved together and
exactly by enumerating their bases, so synthesis runs no simplex
tableau there (``vertex_controls_lp``); where optima tie, the control of
least norm is taken.  A simplex's law is their barycentric
interpolation (``Simplex.barycentric``), checked for a closed-loop
equilibrium; the laws are assembled over a triangulation ordered by a
greedy pass that always finishes the lowest-drift exit facet first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from . import lp
from .errors import (AssumptionViolated, Infeasible, NotReachable,
                     SingularVertexMatrix, Stuck, SynthesisFailed)
from .geometry import (TOL_GEOM, TOL_INCIDENCE, TOL_MERGE, TOL_ZERO, Face,
                       Polytope, Simplex, carrying_facet, point_in_hull, rank,
                       whole_facet)
from .reach import analyze, epsilon_cut
from .system import (AffineSystem, SystemGeometry, check_assumptions,
                     compute_geometry)
from .triangulate import (Cover, Triangulation, basic_triangulation,
                          cover_wrt_F, cover_wrt_O, mark_target,
                          qualifying_vertices, select_vstar, split_far_case,
                          triangulation_wrt_F)

TOL_INV = 1e-8      # invariance residual tolerance
_CAP = 1.0          # upper bound of both margins of the vertex-control LP
_PUSH = 1e-3        # weight of the exit push against the blocking margin


@dataclass(frozen=True)
class VertexControls:
    u: np.ndarray      # (n+1, m), row i is the control at vertex i
    slack: float       # certified margin of the blocking conditions


@dataclass(slots=True)
class AffinePiece:
    """One affine law u = gain x + offset on a simplex region.

    Slotted, with gain and offset kept as one array ``law`` = [gain |
    offset] that owns its data: a controller holds several pieces, and a
    caller may keep many controllers."""

    region: Simplex
    law: np.ndarray
    exit_facet: int
    path_len: int = 0
    slack: float = 0.0
    exit_margin: float = 0.0
    rank: tuple = ()
    sub_rank: int = 0
    index: int = 0

    @property
    def gain(self) -> np.ndarray:
        return self.law[:, :-1]

    @property
    def offset(self) -> np.ndarray:
        return self.law[:, -1]

    def control(self, x) -> np.ndarray:
        return self.gain @ np.asarray(x, dtype=float) + self.offset

    def closed_loop(self, sys: AffineSystem) -> tuple[np.ndarray, np.ndarray]:
        return sys.A + sys.B @ self.gain, sys.a + sys.B @ self.offset


class PWAController:
    """Piecewise-affine feedback over simplex regions.

    On overlaps the lookup prefers pieces closer to the original target:
    lower cover rank first, then shorter path, then fixed index order.

    The constructor keeps copies of the pieces it is given, numbered by
    position (``index``), so the pieces it was given keep their own
    numbers.  It stacks the tables of the regions (``Simplex.table``), in
    that order of preference, into one table, of which the copies'
    regions are views, so a controller holds each region once; ``locate``
    resolves a batch of states with one matrix product over its facet
    columns, each to the first block of rows that all hold.  Pieces are
    final once assembled: a region, rank or path length changed
    afterwards is not seen by ``locate`` or ``lookup``.
    """

    def __init__(self, pieces: list[AffinePiece], domain: Polytope, notes=()):
        n = domain.n
        order = sorted(range(len(pieces)), key=lambda k: (pieces[k].rank, pieces[k].path_len,
                                                          pieces[k].sub_rank, k))
        self._table = np.vstack([pieces[k].region.table for k in order]
                                + [np.zeros((0, 2 * n + 1))])
        row = {k: r * (n + 1) for r, k in enumerate(order)}
        self.pieces = [replace(pc, index=k,
                               region=Simplex.of_table(self._table[row[k]:row[k] + n + 1]))
                       for k, pc in enumerate(pieces)]
        self.domain = domain
        self.notes = list(notes)
        self._order = np.array(order + [-1], dtype=int)

    def locate(self, X, tol: float = TOL_MERGE) -> np.ndarray:
        """Index of the preferred piece holding each row of the (k, n)
        array X, or -1 where none does."""
        X = np.asarray(X, dtype=float)
        n = self.domain.n
        held = (X @ self._table[:, n:-1].T - self._table[:, -1] <= tol)
        held = held.reshape(len(X), len(self.pieces), n + 1).all(axis=2)
        # a last column that always holds stands for "no piece"
        held = np.concatenate([held, np.ones((len(X), 1), dtype=bool)], axis=1)
        return self._order[held.argmax(axis=1)]

    def lookup(self, x, tol: float = TOL_MERGE) -> Optional[AffinePiece]:
        index = self.locate(np.asarray(x, dtype=float)[None], tol)[0]
        return self.pieces[index] if index >= 0 else None


# ---------------------------------------------------------------------------
# vertex controls
# ---------------------------------------------------------------------------

def vertex_controls_lp(sys: AffineSystem, s: Simplex, exit_facet: int) -> VertexControls:
    """Per-vertex controls (Habets, Collins & van Schuppen 2006), the apex
    included, each the optimum of the LP

        max t_b + _PUSH t_e  over z = (u, t_b, t_e)
        s.t. n_j.(drift + B u) <= -t_b  for each blocked facet j,
             n_e.(drift + B u) >= t_e,  t_b <= _CAP,  t_e <= _CAP,

    where the blocked facets are all but the exit facet e and the
    vertex's own opposite facet.  t_b is the blocking margin, t_e the
    outward push across the exit facet.  The push weight is small so that
    the margin comes first and the push only breaks its ties: at a vertex
    on the equilibrium plane the margin is pinned at 0, and among the
    controls that attain it the margin alone may pick a zero field, a
    closed-loop equilibrium at the vertex; the push picks one that points
    out across the exit.  Raises ``Infeasible`` when a vertex's margin is
    negative.

    The LPs are solved together and exactly, without a tableau.  Each is
    feasible (t_b, t_e -> -inf satisfy every row) and bounded by the caps,
    and its rows hold n of the simplex's facet normals, which are
    linearly independent, so with B of full column rank (A1) they have
    rank m + 2 and the optimum is attained at a basic solution: m + 2
    linearly independent rows held with equality.  Every vertex's rows
    take one layout of n + 3: one per facet (facet j blocked, the exit
    row at e, and the void row 0 <= 1 at the vertex's own facet) and then
    the two caps.  Each (m + 2)-subset of them that ``rank`` finds
    nonsingular is solved, in one stacked ``np.linalg.solve``; of the
    solutions that satisfy every row within ``lp.TOL_LP``, the best is
    the optimum.
    Where optima tie (the caps bind) the control is the optimal basic one
    of least norm, and then the one of the lexicographically first
    subset, so it does not depend on a pivoting rule.
    """
    nv, m = s.n + 1, sys.m
    facets = s.normals @ sys.B
    levels = s.normals @ (s.vertices @ sys.A.T + sys.a).T
    rows = np.zeros((nv, nv + 2, m + 2))
    rhs = np.full((nv, nv + 2), _CAP)
    rows[:, :nv, :m] = facets
    rows[:, :nv, m] = 1.0
    rhs[:, :nv] = -levels.T
    rows[:, exit_facet] = np.append(-facets[exit_facet], (0.0, 1.0))
    rhs[:, exit_facet] = levels[exit_facet]
    own = np.flatnonzero(np.arange(nv) != exit_facet)
    rows[own, own] = 0.0
    rhs[own, own] = 1.0
    rows[:, nv, m] = rows[:, nv + 1, m + 1] = 1.0

    subsets = np.array(list(itertools.combinations(range(nv + 2), m + 2)))
    M, b = rows[:, subsets], rhs[:, subsets]
    # a subset with the void row is singular; rank the others
    basic = M.any(axis=3).all(axis=2)
    basic[basic] = rank(M[basic]) == m + 2
    z = np.full(b.shape, np.nan)
    z[basic] = np.linalg.solve(M[basic], b[basic][..., None])[..., 0]
    feasible = basic & np.all(np.einsum("irk,isk->isr", rows, z) <= rhs[:, None] + lp.TOL_LP,
                              axis=2)
    score = np.where(feasible, z[..., m] + _PUSH * z[..., m + 1], -np.inf)
    tie = (TOL_ZERO * np.maximum(1.0, np.abs(rhs).max(axis=1)))[:, None]
    norm = np.where(feasible & (score >= score.max(axis=1)[:, None] - tie),
                    np.linalg.norm(z[..., :m], axis=2), np.inf)
    pick = np.argmax(norm <= norm.min(axis=1)[:, None] + tie, axis=1)
    best = z[np.arange(nv), pick]
    # a vertex without a feasible basic solution (B of lower rank) has no margin
    margin = np.where(feasible.any(axis=1), best[:, m], -np.inf)
    short = np.flatnonzero(margin < -lp.TOL_LP)
    if len(short):
        raise Infeasible(int(short[0]))
    return VertexControls(best[:, :m], float(margin.min()))


def _facet_fields(sys: AffineSystem, s: Simplex, vc: VertexControls) -> np.ndarray:
    """n_j . F_i over (facet j, vertex i), F = V A^T + a + U B^T."""
    return s.normals @ (s.vertices @ sys.A.T + sys.a + vc.u @ sys.B.T).T


def invariance_margin(sys: AffineSystem, s: Simplex, vc: VertexControls,
                      exit_facet: int) -> float:
    """Smallest inward margin over all blocked (vertex, facet) pairs."""
    blocked = ~np.eye(s.n + 1, dtype=bool)
    blocked[exit_facet] = False
    return float(-_facet_fields(sys, s, vc)[blocked].max())


def exit_margin(sys: AffineSystem, s: Simplex, vc: VertexControls,
                exit_facet: int) -> float:
    """Smallest outward component across the exit facet at its vertices."""
    return float(np.delete(_facet_fields(sys, s, vc)[exit_facet], exit_facet).min())


def affine_from_vertex_controls(s: Simplex, vc: VertexControls) -> tuple[np.ndarray, np.ndarray]:
    """u(x) = sum_j lambda_j(x) u_j = [x, 1] W U: (gain, offset) = (W U)^T;
    SingularVertexMatrix when it misses a vertex control by ``TOL_GEOM``."""
    law = (s.barycentric() @ vc.u).T
    gain, offset = law[:, :-1], law[:, -1]
    resid = np.linalg.norm(s.vertices @ gain.T + offset - vc.u, axis=1).max()
    if resid > TOL_GEOM:
        raise SingularVertexMatrix(f"interpolation residual {resid:.2e}")
    return gain, offset


def check_no_equilibrium(sys: AffineSystem, s: Simplex, gain: np.ndarray,
                         offset: np.ndarray) -> bool:
    """True when the closed loop has no stationary point in the simplex.

    The closed-loop field f(x) = (A + B gain) x + a + B offset is affine,
    so it maps the simplex onto conv{f(v_i)}: the simplex holds a
    stationary point iff 0 lies in the hull of the fields at its vertices
    (within ``TOL_GEOM``, inf-norm), singular closed loops included."""
    fields = s.vertices @ (sys.A + sys.B @ gain).T + (sys.a + sys.B @ offset)
    return not point_in_hull(np.zeros(s.n), fields, TOL_GEOM)


# ---------------------------------------------------------------------------
# simplex synthesis
# ---------------------------------------------------------------------------

def _single_affine_piece(sys: AffineSystem, s: Simplex, exit_facet: int) -> AffinePiece:
    cert = {"simplex": s.vertices.tolist(), "exit_facet": exit_facet}
    try:
        vc = vertex_controls_lp(sys, s, exit_facet)
    except Infeasible as exc:
        raise SynthesisFailed({**cert, "error": str(exc)}) from exc
    margin = invariance_margin(sys, s, vc, exit_facet)
    if margin < -TOL_INV:
        raise SynthesisFailed({**cert, "error": f"blocking margin {margin:.2e}"})
    gain, offset = affine_from_vertex_controls(s, vc)
    if not check_no_equilibrium(sys, s, gain, offset):
        raise SynthesisFailed({**cert, "error": "closed-loop stationary point inside the simplex"})
    return AffinePiece(s, np.column_stack([gain, offset]), exit_facet, slack=float(margin),
                       exit_margin=exit_margin(sys, s, vc, exit_facet))


def synth_simplex(sys: AffineSystem, geom: SystemGeometry, s: Simplex,
                  exit_facet: int) -> list[AffinePiece]:
    """Feedback for one simplex exiting through the given facet.

    Normally a single affine piece; when the apex sits above the whole
    exit facet and that facet lies on the equilibrium plane, the simplex
    is split at an intermediate drift level into two pieces: the upper one
    drains through the fresh interior facet, the lower one exits."""
    beta = geom.beta
    nv = s.n + 1
    apex = s.vertices[exit_facet]
    exit_ids = [j for j in range(nv) if j != exit_facet]
    levels = np.array([beta @ s.vertices[j] for j in exit_ids])
    lvl_minus, lvl_plus = float(levels.min()), float(levels.max())
    lvl_apex = float(beta @ apex)
    exit_on_plane = all(geom.on_equilibrium_plane(s.vertices[j]) for j in exit_ids)

    if lvl_apex > lvl_plus + TOL_GEOM and exit_on_plane:
        # split at the drift midlevel of the exit facet
        w_minus_id = exit_ids[int(np.argmin(levels))]
        w_minus = s.vertices[w_minus_id]
        mid = 0.5 * (lvl_minus + lvl_plus)
        t = (mid - lvl_minus) / (lvl_apex - lvl_minus)
        v_prime = w_minus + t * (apex - w_minus)

        # the upper sub-simplex keeps the apex and exits through the fresh
        # facet (opposite the apex); the lower one keeps the original exit
        up_verts = s.vertices.copy()
        up_verts[w_minus_id] = v_prime
        upper = Simplex(up_verts)
        lo_verts = s.vertices.copy()
        lo_verts[exit_facet] = v_prime
        lower = Simplex(lo_verts)

        lower_piece = _single_affine_piece(sys, lower, exit_facet)
        upper_piece = _single_affine_piece(sys, upper, exit_facet)
        lower_piece.sub_rank = 0
        upper_piece.sub_rank = 1
        return [lower_piece, upper_piece]

    return [_single_affine_piece(sys, s, exit_facet)]


# ---------------------------------------------------------------------------
# greedy path generation
# ---------------------------------------------------------------------------

@dataclass
class GreedyResult:
    order: list[int]
    exit_facet: dict[int, int]
    path_len: dict[int, int]
    successor: dict[int, int]          # -1 stands for the target itself
    w_levels: list[float]


def greedy_paths(tri: Triangulation, geom: SystemGeometry) -> GreedyResult:
    """Order the simplices so each one exits into an already-finished
    neighbor, always picking the pair whose shared facet has the lowest
    drift level (ties: most facet vertices at that level, then index).

    A target simplex may also exit into the target itself, through the
    facet its triangulation records in ``target_exits``; the facet shared
    with a neighbour comes from the triangulation's adjacency.  Both kinds
    of facet take their levels from the simplex's own vertices."""
    q = len(tri.simplices)
    unfinished = set(range(q))
    finished: set[int] = set()
    result = GreedyResult([], {}, {}, {}, [])

    def facet_stats(i: int, k: int) -> tuple[float, int]:
        """Lowest level on facet k of simplex i, and its vertices there."""
        verts = np.delete(tri.simplices[i].vertices, k, axis=0)
        lo = float((verts @ geom.beta).min())
        return lo, len(geom.at_level(verts, lo))

    target_exit = {i: (j, *facet_stats(i, j)) for i, j in tri.target_exits.items()}

    while unfinished:
        best = None
        best_key = None
        for i in sorted(unfinished):
            if i in target_exit:
                j, lo, cnt = target_exit[i]
                key = (lo, -cnt, i, -1)
                if best_key is None or key < best_key:
                    best, best_key = (i, -1, j), key
            for j, k in tri.neighbors(i):
                if j not in finished:
                    continue
                lo, cnt = facet_stats(i, k)
                key = (lo, -cnt, i, j)
                if best_key is None or key < best_key:
                    best, best_key = (i, j, k), key
        if best is None:
            raise Stuck(sorted(unfinished))
        i, j, facet_id = best
        unfinished.remove(i)
        finished.add(i)
        result.order.append(i)
        result.exit_facet[i] = facet_id
        result.successor[i] = j
        result.path_len[i] = 1 if j == -1 else result.path_len[j] + 1
        result.w_levels.append(best_key[0])
    return result


# ---------------------------------------------------------------------------
# whole-polytope synthesis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Split:
    """A branch that hands sub-problems back to ``synth_polytope``:
    (polytope, target, rank prefix or None) each, in synthesis order, plus
    the note it adds and the domain of the assembled controller."""

    subs: list
    note: str
    domain: Polytope


def _cover_subs(cover: Cover) -> list:
    return [(cp.polytope, cp.target, 0 if cp.role == "target" else 1) for cp in cover.pieces]


def _branch(sys: AffineSystem, p: Polytope, f: Face, eps: Optional[float]
            ) -> Union[_Split, tuple[Triangulation, SystemGeometry]]:
    """The construction for one (polytope, target) instance: a split into
    sub-problems, or a leaf triangulation with its geometry."""
    rep = check_assumptions(sys, p, f)
    if not (rep.a1_input_rank and rep.a2_controllable and rep.a4_target_valid):
        raise AssumptionViolated(rep)
    if not rep.a3_interior_clear:
        return _Split(_cover_subs(cover_wrt_O(sys, p, f, eps)),
                      "covered along the equilibrium plane", p)

    geom = compute_geometry(sys, p)
    ra = analyze(geom, p, f)
    if not ra.reachable:
        cut = epsilon_cut(geom, p, f, eps, analysis=ra)
        if cut.reach_eps.is_empty or not cut.reach_eps.is_full_dim:
            raise NotReachable(ra)
        return _Split([(cut.reach_eps, f, None)],
                      f"failure sets cut off with margin {cut.eps:g}", cut.reach_eps)

    k = whole_facet(p, f)
    if k is not None:
        tri = basic_triangulation(p, select_vstar(p, f, geom))
        mark_target(tri, p.halfspaces[k])
        return tri, geom
    # non-facet target: prefer an anchor clear of the carrying facet, then
    # a cover pivoting on a top-face target vertex, and finally the far split
    k = carrying_facet(p, f)
    if k is None:
        raise AssumptionViolated(rep, "target does not lie in a facet")
    fbar = p.halfspaces[k]
    off_fbar = [v for v in qualifying_vertices(p, f, geom)
                if abs(fbar.value(v)) > TOL_INCIDENCE]
    if off_fbar:
        return triangulation_wrt_F(p, f, off_fbar[0]), geom
    if len(geom.at_level(f.vertices, float((p.vertices @ geom.beta).max()))):
        return _Split(_cover_subs(cover_wrt_F(p, f, geom)),
                      "covered around the non-facet target", p)
    return _Split(_cover_subs(split_far_case(p, f, geom)),
                  "split away from the far target", p)


def synth_polytope(sys: AffineSystem, p: Polytope, f: Face,
                   eps: Optional[float] = None) -> PWAController:
    """End-to-end synthesis, one branch per call, tried in this order:

    1. equilibrium plane crossing the interior: cover w.r.t. the plane;
    2. target not reachable: cut the failure sets off with margin ``eps``
       and synthesize on the cut polytope, which becomes the domain;
    3. target is a facet: anchored fan triangulation;
    4. an anchor lies off the facet carrying the target: triangulation
       w.r.t. the target;
    5. a target vertex lies on the top drift face: cover w.r.t. the target;
    6. otherwise: the far split.

    Branches 1, 2, 5 and 6 recurse on their sub-problems in order and
    concatenate the pieces and notes, the branch's note first.  A cover or
    split prefixes each sub-piece's rank with 0 when its sub-problem drives
    to the original target and with 1 when it feeds an interface; the cut
    leaves ranks as they are.  Leaves are ordered greedily and get one
    affine law per simplex (two where a split is needed).  Every rank and
    path length is set before the returned controller is built, because a
    controller copies its pieces and reads them once; a split sets the
    ranks on the pieces of each sub-problem's controller, which it then
    discards."""
    branch = _branch(sys, p, f, eps)
    if isinstance(branch, _Split):
        pieces: list[AffinePiece] = []
        notes = [branch.note]
        for sub_p, sub_f, prefix in branch.subs:
            sub = synth_polytope(sys, sub_p, sub_f, eps)
            if prefix is not None:
                for piece in sub.pieces:
                    piece.rank = (prefix,) + piece.rank
            pieces += sub.pieces
            notes += sub.notes
        return PWAController(pieces, branch.domain, notes)

    tri, geom = branch
    greedy = greedy_paths(tri, geom)
    pieces = []
    for i in greedy.order:
        for piece in synth_simplex(sys, geom, tri.simplices[i], greedy.exit_facet[i]):
            piece.path_len = greedy.path_len[i]
            pieces.append(piece)
    return PWAController(pieces, p)
