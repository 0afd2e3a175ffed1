"""Piecewise-affine feedback synthesis.

Vertex controls solve one small LP per simplex vertex, which maximizes
the margin of the blocking conditions and, as a tie-break, the push
across the exit facet.  A simplex's law is their barycentric
interpolation (``geometry.barycentric``), checked for a closed-loop
equilibrium; the laws are assembled over a triangulation ordered by a
greedy pass that always finishes the lowest-drift exit facet first.

A problem is synthesized in one pass.  One depth-first walk over its
branch tree (margin cuts, covers, far splits) orders each leaf
triangulation greedily and collects the leaves, and an error of the walk
raises where the walk meets it.  Then one leaf pass runs on the leaves'
table stacks in greedy order, (S, n+1, 2n+1) with the vertices' drift
levels (``Triangulation.levels``) and the exit facets: one stacked
``_midlevel_split``, whose on-plane test is
``SystemGeometry.on_equilibrium_plane``, then the vertex controls, the
laws and the checks of every piece, and one controller built from the
stacked pieces: no per-simplex object, sub-problem controller or piece
object is built.  A controller keeps its pieces as read-only stacks by
index (region vertices, laws, scalars, ranks), derives its order of
preference and its facet rows in that order together on first read, and
derives each piece, an ``AffinePiece`` view, when it is read.
``vertex_controls_lp`` solves the LPs of all their vertices at once and
exactly, by enumerating the LPs' bases, so synthesis runs no simplex
tableau; a basis is solved when it passes the relative
determinant test of ``geometry.nonsingular``, whose verdict no row's
scale changes, and where optima tie the control of least norm is taken.
Margins, laws, interpolation residuals and the closed-loop equilibrium
screen come out as stacked arrays: the screen is the exclusion rule of
``geometry.hull_rows``, the "out" of ``point_in_hull``, applied to 0 and
every piece's vertex fields at once (``closed_loop`` of the law stack),
and only a piece it leaves open is tested alone
(``check_no_equilibrium``).  After every LP is solved the pieces are
checked in order, and the first that fails raises, as a loop over the
simplices would.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import lp
from .errors import (AssumptionViolated, NotReachable, SingularVertexMatrix,
                     Stuck, SynthesisFailed)
from .geometry import (TOL_GEOM, TOL_MERGE, TOL_ZERO, Face,
                       Polytope, Simplex, barycentric, carrying_facet,
                       hull_rows, nonsingular, point_in_hull, simplex_tables,
                       whole_facet)
from .reach import analyze, epsilon_cut
from .system import (AffineSystem, SystemGeometry, check_assumptions,
                     compute_geometry)
from .triangulate import (Cover, Triangulation, basic_triangulation,
                          cover_wrt_F, cover_wrt_O,
                          qualifying_vertices, select_vstar, split_far_case,
                          triangulation_wrt_F)

TOL_INV = 1e-8      # invariance residual tolerance
_CAP = 1.0          # upper bound of both margins of the vertex-control LP


@dataclass(frozen=True)
class VertexControls:
    u: np.ndarray      # (n+1, m), row i is the control at vertex i
    slack: float       # certified margin of the blocking conditions


def closed_loop(sys: AffineSystem, laws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The closed loop x' = A_cl x + b_cl of a law [gain | offset], or of
    each of a (P, m, n+1) stack: (A + B gain, a + B offset).  B offset is
    a product with the offset column, which gives a law's loop the same
    bits alone or in a stack."""
    return sys.A + sys.B @ laws[..., :-1], sys.a + (sys.B @ laws[..., -1:])[..., 0]


@dataclass(slots=True)
class AffinePiece:
    """One affine law u = gain x + offset on a simplex region: a view of
    one piece of a ``PWAController``, built when read.  Its region is a
    view of the controller's facet rows (``PWAController.region``) and its
    ``law`` = [gain | offset] a view of its law stack, both read-only; the
    rest are Python scalars and the rank tuple the controller keeps."""

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


def _first(flags: np.ndarray) -> int:
    """Position of the first True of a 1-D boolean array, or its length."""
    return int(np.append(flags, True).argmax())


# a controller's scalars per piece, one 28 B record each
# (``PWAController.scalars``); its counts fit 32 bits
PIECE_SCALARS = np.dtype([("exit_facet", np.int32), ("path_len", np.int32),
                          ("sub_rank", np.int32), ("slack", float), ("exit_margin", float)])


def _piece_scalars(exit_facets, path_lens, sub_ranks, slacks, exit_margins) -> np.ndarray:
    """The ``PIECE_SCALARS`` records of pieces from their columns, where
    a scalar fills its whole column."""
    scalars = np.zeros(len(exit_facets), PIECE_SCALARS)
    for name, column in (("exit_facet", exit_facets), ("path_len", path_lens),
                         ("sub_rank", sub_ranks), ("slack", slacks),
                         ("exit_margin", exit_margins)):
        scalars[name] = column
    return scalars


def _checked(a, dtype, shape: tuple, name: str) -> np.ndarray:
    """``a`` as an array, which must have ``dtype`` and ``shape``, where
    None matches any length; raises ValueError otherwise."""
    a = np.asarray(a)
    if a.dtype != dtype or a.ndim != len(shape) or any(
            want is not None and want != have for want, have in zip(shape, a.shape)):
        raise ValueError(f"{name}: {a.dtype} array of shape {a.shape}, expected "
                         f"{np.dtype(dtype)} of shape "
                         f"{tuple('*' if want is None else want for want in shape)}")
    return a


def _stored(a, dtype, shape: tuple, name: str) -> np.ndarray:
    """``_checked`` ``a`` copied into a read-only C-contiguous array that
    owns its data, so no view keeps a larger temporary alive.  Read-only
    by ``setflags``: numpy's ``flags.writeable`` setter looks the method
    up by a new string on each call, and CPython's type cache keeps one
    such string per call, 57 B, until another lookup evicts it."""
    a = _checked(a, dtype, shape, name).copy()
    a.setflags(write=False)
    return a


class PieceViews(Sequence):
    """A controller's pieces, derived on read: ``len`` builds nothing, and
    each read of a piece (by index, negative ones too, or by iteration)
    builds a fresh ``AffinePiece`` view of the controller's stacks."""

    __slots__ = ("_ctrl",)

    def __init__(self, ctrl: "PWAController"):
        self._ctrl = ctrl

    def __len__(self) -> int:
        return len(self._ctrl.laws)

    def __getitem__(self, k) -> AffinePiece:
        c = self._ctrl
        k = range(len(c.laws))[operator.index(k)]
        exit_facet, path_len, sub_rank, slack, exit_margin = c.scalars[k].item()
        return AffinePiece(c.region(k), c.laws[k], exit_facet, path_len, slack, exit_margin,
                           c.ranks[k], sub_rank, k)


class PWAController:
    """Piecewise-affine feedback over simplex regions.

    On overlaps the lookup prefers pieces closer to the original target:
    lower cover rank first, then shorter path, then fixed index order.

    A controller stores what defines its pieces, one row per piece, all
    numbered by position (the piece's ``index``): the vertex stack of
    their regions (P, n+1, n); the ``laws`` (P, m, n+1) = [gain | offset],
    which interpolate each region's vertex controls; its ``scalars``, one
    ``PIECE_SCALARS`` record per piece (exit facet, path length,
    sub-rank, slack and exit margin); its ``ranks``, one tuple per piece,
    shared by the pieces of a leaf; and its ``domain`` and ``notes`` (a
    tuple).  Each stored array is checked for shape and dtype, owns its
    data and is read-only, so the pieces are final once assembled: a
    write through a stack or a view raises ``ValueError``.  Synthesis,
    ``from_pieces`` and ``from_arrays`` all call the one constructor,
    which takes the stored fields.

    The order of preference is stored nowhere.  The first ``region``,
    ``locate``, ``departure`` or ``lookup`` derives it, with each piece's
    place in it and the regions' facet rows in that order, in one step
    (``_preference``), and keeps the three, read-only: ``_order`` maps
    each place to its piece and ends in -1, and ``_table`` stacks the
    rows (``Simplex.table``) by place, one block of n+1 rows each, from
    one ``simplex_tables`` call over the vertices in that order.  It is
    the table synthesis built, bit for bit: each region's table came from
    ``simplex_tables`` of the same vertices, and a stacked call computes
    each member's rank test and inverse alone
    (``test_stacked_tables_equal_each_simplex_bit_for_bit``).  So a
    controller that is kept but never located holds no order and no
    facet rows, which are (n+1)(2n+1) floats per piece against the
    n(n+1) of its vertices.  ``runners`` is made on first use.

    ``pieces`` derives the pieces on read (``PieceViews``):
    ``len(pieces)`` builds nothing, and each read piece is an
    ``AffinePiece`` view of the stacks.  ``to_arrays`` is the stored form,
    the stored arrays themselves, and ``from_arrays`` rebuilds the
    controller from it bit for bit.

    ``locate`` resolves a batch of states with one matrix product over
    the table's facet columns, each to the first block of rows that all
    hold.  A closed-loop run needs less: its preferred piece changes only
    where the active piece stops holding a state or a piece before it in
    that order starts to, so ``departure`` finds the first such state of
    a block from those pieces' rows alone, read off the same table.

    ``runners`` holds the controller's closed-loop runners, one per
    system, which ``sim`` builds on a run's first use and every later run
    reuses: each piece's closed loop, the default step and the step maps,
    state of this controller alone (a run's domain and target keep their
    own rows).  They rely on the stacks being final and on
    ``AffineSystem`` being frozen.
    """

    __slots__ = ("_vertices", "laws", "scalars", "ranks", "domain", "notes", "_derived",
                 "_runners")

    def __init__(self, vertices, laws, scalars, ranks: Sequence[tuple], domain: Polytope,
                 notes=()):
        """The controller of its stored fields, each by index: the vertex
        stack, the laws, the scalars and the ranks.  Raises ValueError on
        a shape or dtype that disagrees, and for no pieces: synthesis
        gives every leaf a simplex, and a controller without a law would
        not know its input dimension."""
        if not len(laws):
            raise ValueError("a controller has at least one piece")
        n = domain.n
        self.laws = _stored(laws, float, (None, None, n + 1), "laws")
        count = len(self.laws)
        self._vertices = _stored(vertices, float, (count, n + 1, n), "vertices")
        self.scalars = _stored(scalars, PIECE_SCALARS, (count,), "scalars")
        self.ranks = tuple(ranks)
        if len(self.ranks) != count:
            raise ValueError(f"ranks: {len(self.ranks)} for {count} pieces")
        self.domain = domain
        self.notes = tuple(notes)
        self._derived = self._runners = None

    @classmethod
    def from_pieces(cls, pieces: Sequence[AffinePiece], domain: Polytope,
                    notes=()) -> "PWAController":
        """The controller of the given pieces, numbered by position: their
        regions' vertices and their other fields stacked, their own
        ``index`` ignored."""
        pieces = list(pieces)
        scalars = _piece_scalars(*([getattr(pc, name) for pc in pieces] for name in (
            "exit_facet", "path_len", "sub_rank", "slack", "exit_margin")))
        vertices = np.array([pc.region.vertices for pc in pieces])
        laws = np.array([pc.law for pc in pieces])
        return cls(vertices, laws, scalars, [pc.rank for pc in pieces], domain, notes)

    def to_arrays(self) -> dict[str, np.ndarray]:
        """The stored form, by name: the stored arrays themselves, not
        copies (``vertices``, ``laws``, ``scalars``), the domain's
        (``domain_vertices``, ``domain_normals``, ``domain_offsets``,
        ``domain_incidence`` and a 0-d ``domain_dim``), the ranks as one
        int row per piece padded with -1, and the notes as a str array;
        no order, which the ranks and scalars give.  ``np.savez`` writes
        it as it is.  Raises ValueError on a negative rank entry, which
        the padding would hide."""
        if any(min(rank, default=0) < 0 for rank in set(self.ranks)):
            raise ValueError("a rank entry is negative")
        ranks = np.full((len(self.ranks), max(map(len, self.ranks), default=0)), -1, np.intp)
        for k, rank in enumerate(self.ranks):
            ranks[k, :len(rank)] = rank
        d = self.domain
        normals, offsets = d.rows
        return {"vertices": self._vertices, "laws": self.laws,
                "scalars": self.scalars, "ranks": ranks, "notes": np.array(self.notes, str),
                "domain_vertices": d.vertices, "domain_normals": normals,
                "domain_offsets": offsets, "domain_incidence": d.incidence,
                "domain_dim": np.array(d.dim, np.intp)}

    @classmethod
    def from_arrays(cls, arrays) -> "PWAController":
        """The controller whose stored form (``to_arrays``) is ``arrays``,
        any mapping of those names (a dict, or ``np.load`` of a saved
        file), equal to it bit for bit and sharing no memory with it; the
        pieces of one rank share its tuple.  Raises ValueError where a
        shape or dtype disagrees, and KeyError where an array is missing."""
        V = _checked(arrays["domain_vertices"], float, (None, None), "domain_vertices")
        k, n = V.shape
        normals = _checked(arrays["domain_normals"], float, (None, n), "domain_normals")
        rows = (normals.copy(), _checked(arrays["domain_offsets"], float, (len(normals),),
                                         "domain_offsets").copy())
        incidence = _checked(arrays["domain_incidence"], bool, (k, None), "domain_incidence")
        dim = _checked(arrays["domain_dim"], np.intp, (), "domain_dim")
        domain = Polytope(V.copy(), rows, int(dim), incidence.copy())
        laws = _checked(arrays["laws"], float, (None, None, n + 1), "laws")
        padded = _checked(arrays["ranks"], np.intp, (len(laws), None), "ranks")
        shared: dict[tuple, tuple] = {}
        ranks = [shared.setdefault(rank, rank) for rank in (
            tuple(v for v in row if v >= 0) for row in padded.tolist())]
        notes = np.asarray(arrays["notes"])
        if notes.dtype.kind != "U" or notes.ndim != 1:
            raise ValueError(f"notes: {notes.dtype} array of shape {notes.shape}, expected "
                             "a 1-D str array")
        return cls(arrays["vertices"], laws, arrays["scalars"], ranks, domain, notes.tolist())

    @property
    def pieces(self) -> PieceViews:
        return PieceViews(self)

    @property
    def runners(self) -> dict:
        if self._runners is None:
            self._runners = {}
        return self._runners

    def _preference(self) -> tuple:
        """The order of preference (by rank, then path length, then
        sub-rank, then index), ending in -1, each piece's place in it and
        the facet rows by place, (P (n+1), 2n+1), from one
        ``simplex_tables`` call on the vertices in that order: derived
        together on first read and kept, read-only."""
        if self._derived is None:
            keys = self.scalars[["path_len", "sub_rank"]].tolist()
            order = np.array(sorted(range(len(keys)), key=lambda k: (self.ranks[k], *keys[k], k))
                             + [-1], np.intp)
            places = np.argsort(order[:-1])
            tables = simplex_tables(self._vertices[order[:-1]])
            for a in (order, places, tables):
                a.setflags(write=False)
            self._derived = order, places, tables.reshape(-1, tables.shape[2])
        return self._derived

    @property
    def _order(self) -> np.ndarray:
        return self._preference()[0]

    @property
    def _table(self) -> np.ndarray:
        return self._preference()[2]

    def region(self, k: int) -> Simplex:
        """Piece k's region (negative k counts from the end), a view of
        its block of rows of the facet rows."""
        _, places, table = self._preference()
        nv = self.domain.n + 1
        at = int(places[k]) * nv
        return Simplex.of_table(table[at:at + nv])

    def locate(self, X, tol: float = TOL_MERGE) -> np.ndarray:
        """Index of the preferred piece holding each row of the (k, n)
        array X, or -1 where none does."""
        X = np.asarray(X, dtype=float)
        n = self.domain.n
        order, _, table = self._preference()
        # (row, state) layout: numpy reduces a long last axis far faster
        # than many short ones
        held = table[:, n:-1] @ X.T - table[:, -1:] <= tol
        held = held.reshape(len(self.laws), n + 1, len(X)).all(axis=1)
        # a last row that always holds stands for "no piece"
        held = np.concatenate([held, np.ones((1, len(X)), dtype=bool)])
        return order[held.argmax(axis=0)]

    def departure(self, X, active: int, tol: float = TOL_MERGE) -> int:
        """Position of the first row of the (k, n) array X that ``locate``
        gives a piece other than ``active`` (a piece's index), or k where
        every row stays with it.  A row leaves ``active`` only where that
        piece does not hold it, or where a piece preferred over it does,
        so only their rows of the table are read: the active piece's on
        every state, and those of the pieces before it in the order of
        preference on the states up to the first it does not hold."""
        X = np.asarray(X, dtype=float)
        n = self.domain.n
        _, places, table = self._preference()
        at = int(places[active]) * (n + 1)
        own = table[at:at + n + 1]
        end = _first(~(own[:, n:-1] @ X.T - own[:, -1:] <= tol).all(axis=0))
        if at and end:
            before = table[:at]
            taken = before[:, n:-1] @ X[:end].T - before[:, -1:] <= tol
            end = _first(taken.reshape(-1, n + 1, end).all(axis=1).any(axis=0))
        return end

    def lookup(self, x, tol: float = TOL_MERGE) -> Optional[AffinePiece]:
        """A view of the preferred piece holding x, or None."""
        index = self.locate(np.asarray(x, dtype=float)[None], tol)[0]
        return self.pieces[index] if index >= 0 else None


# ---------------------------------------------------------------------------
# vertex controls
# ---------------------------------------------------------------------------

def vertex_controls_lp(sys: AffineSystem, tables: np.ndarray,
                       exit_facets: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Per-vertex controls (Habets, Collins & van Schuppen 2006) of every
    simplex of an (S, n+1, 2n+1) stack of tables (``Simplex.table``),
    each exiting through its facet of ``exit_facets``, the apex included:
    at each vertex the lexicographic optimum of the LP

        max t_b, then max t_e,  over z = (u, t_b, t_e)
        s.t. n_j.(drift + B u) <= -t_b  for each blocked facet j,
             n_e.(drift + B u) >= t_e,  t_b <= _CAP,  t_e <= _CAP,

    where the blocked facets are all but the exit facet e and the
    vertex's own opposite facet.  t_b is the blocking margin, t_e the
    outward push across the exit facet.  The margin comes first, and the
    push only breaks its ties, so no margin is given up for push: at a
    vertex on the equilibrium plane the margin is pinned at 0, and among
    the controls that attain it the margin alone may pick a zero field, a
    closed-loop equilibrium at the vertex; the push picks one that points
    out across the exit.

    Returns (u, margins): u[k] is the (n+1, m) array of simplex k's vertex
    controls and margins[k] its vertices' blocking margins, -inf at a
    vertex whose LP has no feasible basic solution (B of lower rank).  A
    margin below -``lp.TOL_LP`` marks an infeasible vertex.  Nothing is
    raised here: ``synth_simplex`` solves a whole leaf in one call and
    then raises the error of its first failing simplex, in greedy order.

    The LPs are solved together and exactly, without a tableau.  Each is
    feasible (t_b, t_e -> -inf satisfy every row) and bounded by the caps,
    and its rows hold n of the simplex's facet normals, which are
    linearly independent, so with B of full column rank (A1) they have
    rank m + 2 and the optimum is attained at a basic solution: m + 2
    linearly independent rows held with equality.  Every vertex's rows
    take one layout of n + 3: one per facet (facet j blocked, the exit
    row at e, and the void row 0 <= 1 at the vertex's own facet) and then
    the two caps.  The bases are the (m + 2)-subsets of them without the
    void row, gathered over all vertices of all simplices; those that
    ``nonsingular`` passes (|det M| above ``TOL_ZERO`` times the product
    of M's row norms, a test no row's scale changes) are solved in one
    stacked ``np.linalg.solve``.  Of the solutions that satisfy every row
    of their vertex within ``lp.TOL_LP``, those of the largest t_b are
    the optimal face of the margin, a face of the LP's pointed
    polyhedron, so its largest t_e lies at one of them too.  Where optima
    tie (the caps bind) the control is the optimal basic one of least
    norm, and then the one of the lexicographically first subset, so it
    does not depend on a pivoting rule.
    """
    q, nv = tables.shape[:2]
    m = sys.m
    V, N = tables[..., :nv - 1], tables[..., nv - 1:-1]
    e = np.asarray(exit_facets, dtype=int)
    k = np.arange(q)
    facets = N @ sys.B
    levels = N @ np.swapaxes(V @ sys.A.T + sys.a, 1, 2)          # (simplex, facet, vertex)
    rows = np.zeros((q, nv, nv + 2, m + 2))
    rhs = np.full((q, nv, nv + 2), _CAP)
    rows[:, :, :nv, :m] = facets[:, None]
    rows[:, :, :nv, m] = 1.0
    rhs[:, :, :nv] = -np.swapaxes(levels, 1, 2)
    rows[k, :, e, :m] = -facets[k, e][:, None]
    rows[k, :, e, m:] = (0.0, 1.0)
    rhs[k, :, e] = levels[k, e]
    kv, iv = np.nonzero(np.arange(nv) != e[:, None])
    rows[kv, iv, iv] = 0.0
    rhs[kv, iv, iv] = 1.0
    rows[:, :, nv, m] = rows[:, :, nv + 1, m + 1] = 1.0

    subsets = np.array(list(itertools.combinations(range(nv + 2), m + 2)))
    # a basis of vertex i leaves out row i, its void row unless i is the apex
    holds_own = (subsets[:, :, None] == np.arange(nv)).any(axis=1).T
    kk, ii, cc = np.nonzero(~holds_own | (np.arange(nv) == e[:, None])[..., None])
    M = rows[kk[:, None], ii[:, None], subsets[cc]]
    b = rhs[kk[:, None], ii[:, None], subsets[cc]]
    solved = nonsingular(M)
    z = np.full((q, nv, len(subsets), m + 2), np.nan)
    z[kk[solved], ii[solved], cc[solved]] = np.linalg.solve(M[solved], b[solved][..., None])[..., 0]
    feasible = np.all(np.einsum("qirk,qisk->qisr", rows, z) <= rhs[:, :, None] + lp.TOL_LP,
                      axis=3)
    tie = TOL_ZERO * np.maximum(1.0, np.abs(rhs).max(axis=2, keepdims=True))
    # the largest t_b, then among its ties the largest t_e
    top = feasible
    for t in (z[..., m], z[..., m + 1]):
        score = np.where(top, t, -np.inf)
        top = top & (score >= score.max(axis=2, keepdims=True) - tie)
    norm = np.where(top, np.linalg.norm(z[..., :m], axis=3), np.inf)
    pick = np.argmax(norm <= norm.min(axis=2, keepdims=True) + tie, axis=2)
    best = np.take_along_axis(z, pick[..., None, None], axis=2)[:, :, 0]
    return best[..., :m], np.where(feasible.any(axis=2), best[..., m], -np.inf)


def _facet_fields(sys: AffineSystem, tables: np.ndarray, u: np.ndarray) -> np.ndarray:
    """n_j . F_i over (facet j, vertex i), F = V A^T + a + U B^T, for a
    simplex table and its vertex controls, or for each of a stack."""
    n = tables.shape[-2] - 1
    F = tables[..., :n] @ sys.A.T + sys.a + u @ sys.B.T
    return tables[..., n:-1] @ np.swapaxes(F, -1, -2)


def _blocked(nv: int, exit_facets) -> np.ndarray:
    """The (facet j, vertex i) pairs whose field must point inward: j is
    neither i's own facet nor the exit facet; a mask per exit facet."""
    exit_rows = np.arange(nv)[:, None] == np.asarray(exit_facets)[..., None, None]
    return ~np.eye(nv, dtype=bool) & ~exit_rows


def invariance_margin(sys: AffineSystem, s: Simplex, vc: VertexControls,
                      exit_facet: int) -> float:
    """Smallest inward margin over all blocked (vertex, facet) pairs."""
    return float(-_facet_fields(sys, s.table, vc.u)[_blocked(s.n + 1, exit_facet)].max())


def affine_laws(tables: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """u(x) = sum_j lambda_j(x) u_j = [x, 1] W U, W = ``barycentric``, for
    a simplex table and its (n+1, m) vertex controls, or for each of a
    stack: the law [gain | offset] = (W U)^T, (m, n+1), and its
    interpolation residual, the largest miss of a vertex control."""
    n = tables.shape[-2] - 1
    laws = np.swapaxes(barycentric(tables) @ u, -1, -2)
    at_vertices = tables[..., :n] @ np.swapaxes(laws[..., :n], -1, -2) + laws[..., None, :, n]
    return laws, np.linalg.norm(at_vertices - u, axis=-1).max(axis=-1)


def check_no_equilibrium(sys: AffineSystem, s: Simplex, gain: np.ndarray,
                         offset: np.ndarray) -> bool:
    """True when the closed loop has no stationary point in the simplex.

    The closed-loop field f(x) = (A + B gain) x + a + B offset is affine,
    so it maps the simplex onto conv{f(v_i)}: the simplex holds a
    stationary point iff 0 lies in the hull of the fields at its vertices
    (within ``TOL_GEOM``, inf-norm), singular closed loops included:
    ``point_in_hull``, whose first "out" is the screen that
    ``synth_simplex`` runs on every piece at once."""
    A_cl, b_cl = closed_loop(sys, np.column_stack([gain, offset]))
    fields = s.vertices @ A_cl.T + b_cl
    return not point_in_hull(np.zeros(s.n), fields, TOL_GEOM)


# ---------------------------------------------------------------------------
# simplex synthesis
# ---------------------------------------------------------------------------

def _midlevel_split(geom: SystemGeometry, tables: np.ndarray, exit_facets: Sequence[int],
                    levels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pieces of an (S, n+1, 2n+1) stack of simplex tables, each
    simplex with its exit facet and its vertices' drift ``levels``
    (S, n+1): the simplex itself, or, when its apex (the vertex off the
    exit facet) sits more than ``TOL_GEOM`` above the whole exit facet and
    that facet lies on the equilibrium plane
    (``SystemGeometry.on_equilibrium_plane`` of its vertices), its split
    at the drift midlevel of the exit facet: the lower part keeps the
    original exit, the upper one keeps the apex and drains through the
    fresh interior facet, which is the same facet index.  Returns the
    pieces' tables, the position of the simplex each comes from and its
    sub-rank (1 for the upper part, else 0), in order, the lower part
    first; the parts' tables come from one ``simplex_tables`` call."""
    S, nv = tables.shape[:2]
    V = tables[..., :nv - 1]
    e = np.asarray(exit_facets, dtype=int)
    k = np.arange(S)
    on_exit = np.arange(nv) != e[:, None]
    low = np.where(on_exit, levels, np.inf).argmin(axis=1)
    lvl_minus, lvl_apex = levels[k, low], levels[k, e]
    lvl_plus = np.where(on_exit, levels, -np.inf).max(axis=1)
    split = (lvl_apex > lvl_plus + TOL_GEOM) & (geom.on_equilibrium_plane(V) | ~on_exit).all(axis=1)
    sources = np.repeat(k, 1 + split)
    sub_ranks = (np.diff(sources, prepend=-1) == 0).astype(int)
    pieces = tables[sources]
    s = np.flatnonzero(split)
    if len(s):
        mid = 0.5 * (lvl_minus[s] + lvl_plus[s])
        t = (mid - lvl_minus[s]) / (lvl_apex[s] - lvl_minus[s])
        w_minus = V[s, low[s]]
        v_prime = w_minus + t[:, None] * (V[s, e[s]] - w_minus)
        parts = np.repeat(V[s], 2, axis=0)
        parts[0::2][np.arange(len(s)), e[s]] = v_prime
        parts[1::2][np.arange(len(s)), low[s]] = v_prime
        upper = np.flatnonzero(sub_ranks)
        pieces[np.column_stack([upper - 1, upper]).ravel()] = simplex_tables(parts)
    return pieces, sources, sub_ranks


def synth_simplex(sys: AffineSystem, geom: SystemGeometry, tables: np.ndarray,
                  exit_facets: Sequence[int], levels: np.ndarray) -> tuple:
    """Feedback for each simplex of an (S, n+1, 2n+1) stack of tables,
    exiting through its facet of ``exit_facets``, with its vertices' drift
    ``levels`` (S, n+1), those of ``Triangulation.levels`` along its
    leaf's beta (whose sign differs between the two sides of the
    equilibrium plane): the pieces of every simplex, in order, one row of
    each stack per piece, as (tables, laws, scalars, sources): the region
    ``tables`` (P, n+1, 2n+1), the ``laws`` (P, m, n+1) = [gain | offset],
    the ``PIECE_SCALARS`` records (path length 0, which the greedy pass
    knows) and ``sources``, the position of the simplex each piece comes
    from.  Of ``geom``, a geometry of ``sys``, only the equilibrium plane
    is read, which every geometry of one system shares.

    A simplex normally gets a single affine piece; where the midlevel
    split applies it gets two, the lower one first (``sub_rank`` 0 and
    1), all from one stacked ``_midlevel_split``.  The vertex controls of
    every piece come from one ``vertex_controls_lp`` call, and the
    blocking and exit margins, the affine laws (barycentric
    interpolation, ``geometry.barycentric``), their interpolation
    residuals and the closed-loop equilibrium screen
    (``geometry.hull_rows`` of the stacked vertex fields of
    ``closed_loop``, against 0) from stacked arrays; the screen reads
    only the pieces whose fields are finite.  The pieces are then checked
    in order, and the first that fails raises, as one call per simplex
    would: ``SynthesisFailed``, carrying the simplex, its exit facet and
    the error, where a vertex's LP is infeasible, the blocking margin is
    below -``TOL_INV`` or the closed loop has a stationary point in the
    simplex, and ``SingularVertexMatrix`` where the law misses a vertex
    control by ``TOL_GEOM`` times the largest control entry, or 1 when
    that is smaller: the controls of a sliver reach 1e5, and the float
    solve misses them by more than ``TOL_GEOM`` alone.  Those checks run
    only on the pieces one stacked flag marks: an infeasible vertex, a
    blocking margin below -``TOL_INV``, a residual over its bound, or the
    equilibrium screen leaving the piece open, and only a piece the
    screen leaves open goes to ``check_no_equilibrium``.  No piece object
    is built: the stacks go on as they are."""
    tables, sources, sub_ranks = _midlevel_split(geom, tables, exit_facets, levels)
    exits = np.asarray(exit_facets, dtype=int)[sources]
    u, margins = vertex_controls_lp(sys, tables, exits)
    nv = tables.shape[1]
    fields = _facet_fields(sys, tables, u)
    slack = -np.where(_blocked(nv, exits), fields, -np.inf).max(axis=(1, 2))
    # the outward push across the exit facet, at its vertices
    exit_margin = np.where(np.eye(nv, dtype=bool)[exits], np.inf,
                           fields[np.arange(len(exits)), exits]).min(axis=1)
    laws, resid = affine_laws(tables, u)
    resid_tol = TOL_GEOM * np.maximum(1.0, np.abs(u).max(axis=(1, 2)))
    # each piece's closed-loop field at its vertices
    A_cl, b_cl = closed_loop(sys, laws)
    loop_fields = tables[..., :nv - 1] @ np.swapaxes(A_cl, 1, 2) + b_cl[:, None]
    # a vertex LP with no feasible basis leaves NaN fields, which the
    # ordered checks below reject before the screen is read
    finite = np.isfinite(loop_fields).all(axis=(1, 2))
    clear = np.zeros(len(tables), dtype=bool)
    clear[finite] = hull_rows(loop_fields[finite]).excludes(np.zeros((1, nv - 1)), TOL_GEOM)[:, 0]
    short = margins < -lp.TOL_LP
    suspect = short.any(axis=1) | (slack < -TOL_INV) | (resid > resid_tol) | ~clear

    for j in np.flatnonzero(suspect).tolist():
        cert = {"simplex": tables[j, :, :nv - 1].tolist(), "exit_facet": int(exits[j])}
        if short[j].any():
            raise SynthesisFailed({**cert, "error": "invariance conditions infeasible "
                                                    f"at vertex {np.flatnonzero(short[j])[0]}"})
        if slack[j] < -TOL_INV:
            raise SynthesisFailed({**cert, "error": f"blocking margin {slack[j]:.2e}"})
        if resid[j] > resid_tol[j]:
            raise SingularVertexMatrix(f"interpolation residual {resid[j]:.2e}")
        if not clear[j] and not check_no_equilibrium(sys, Simplex.of_table(tables[j]),
                                                     laws[j, :, :-1], laws[j, :, -1]):
            raise SynthesisFailed({**cert, "error": "closed-loop stationary point "
                                                    "inside the simplex"})
    return tables, laws, _piece_scalars(exits, 0, sub_ranks, slack, exit_margin), sources


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
    of facet take their levels from the simplex's own vertices.  A pair
    becomes a candidate when its neighbour finishes, and the candidates
    wait in a heap keyed (level, -count, simplex, neighbour), -1 for the
    target.  Every (simplex, facet) key is computed once, up front, from
    one (S, n+1) array of the triangulation's vertex levels
    (``Triangulation.levels``), the counts by the one rule for equal
    levels (``SystemGeometry.on_level``)."""
    neighbors = tri.neighbors()
    result = GreedyResult([], {}, {}, {}, [])
    # (simplex, facet k, vertex) drift levels, +inf at vertex k, which
    # facet k omits: every facet's lowest level and its count at once
    nv = tri.tables.shape[1]
    levels = np.where(np.eye(nv, dtype=bool), np.inf, tri.levels(geom.beta)[:, None, :])
    lows = levels.min(axis=2)
    counts = geom.on_level(levels, lows[..., None]).sum(axis=2).tolist()
    lows = lows.tolist()

    def candidate(i: int, j: int, k: int) -> tuple:
        """Simplex i exiting into j through its facet k, keyed."""
        return lows[i][k], -counts[i][k], i, j, k

    heap = [candidate(i, -1, k) for i, k in tri.target_exits.items()]
    heapq.heapify(heap)
    while heap:
        lo, _, i, j, facet_id = heapq.heappop(heap)
        if i in result.exit_facet:
            continue
        result.order.append(i)
        result.exit_facet[i] = facet_id
        result.successor[i] = j
        result.path_len[i] = 1 if j == -1 else result.path_len[j] + 1
        result.w_levels.append(lo)
        for b, kb in neighbors[i]:
            if b not in result.exit_facet:
                heapq.heappush(heap, candidate(b, i, kb))
    if len(result.order) < len(tri.tables):
        raise Stuck(sorted(set(range(len(tri.tables))) - set(result.order)))
    return result


# ---------------------------------------------------------------------------
# whole-polytope synthesis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Split:
    """A branch that hands sub-problems to the walk of ``synth_polytope``:
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
        return basic_triangulation(p, select_vstar(p, f, geom), k), geom
    # non-facet target: prefer an anchor clear of the carrying facet, then
    # a cover pivoting on a top-face target vertex, and finally the far split
    k = carrying_facet(p, f)
    if k is None:
        raise AssumptionViolated(rep, "target does not lie in a facet")
    quals = qualifying_vertices(p, f, geom)
    off_fbar = quals[~p.incidence[quals, k]]
    if len(off_fbar):
        return triangulation_wrt_F(p, f, p.vertices[off_fbar[0]]), geom
    if len(geom.at_level(f.vertices, float((p.vertices @ geom.beta).max()))):
        return _Split(_cover_subs(cover_wrt_F(p, f, geom)),
                      "covered around the non-facet target", p)
    return _Split(_cover_subs(split_far_case(p, f, geom)),
                  "split away from the far target", p)


def _walk(sys: AffineSystem, p: Polytope, f: Face, eps: Optional[float], rank: tuple,
          leaves: list, notes: list) -> Polytope:
    """Depth-first walk of the branch tree below (p, f): appends each leaf
    to ``leaves`` as (triangulation, geometry, greedy result, rank), the
    rank being the prefixes of the splits above it from the root down,
    and each split's note to ``notes``, in pre-order, and returns the
    domain of the instance, the split's or ``p`` for a leaf."""
    branch = _branch(sys, p, f, eps)
    if isinstance(branch, _Split):
        notes.append(branch.note)
        for sub_p, sub_f, prefix in branch.subs:
            _walk(sys, sub_p, sub_f, eps, rank if prefix is None else rank + (prefix,),
                  leaves, notes)
        return branch.domain
    tri, geom = branch
    leaves.append((tri, geom, greedy_paths(tri, geom), rank))
    return p


def _leaf_pieces(sys: AffineSystem, leaves: list) -> tuple:
    """The pieces of every leaf, in order, from one ``synth_simplex`` call
    on their stacked tables in greedy order, as ``PWAController`` takes
    them: their vertex stack, laws and scalars, with each piece's path
    length its simplex's greedy one, and their ranks, each its leaf's
    (one tuple per leaf)."""
    tables, levels, exits, ranks, path_lens = [], [], [], [], []
    for tri, geom, greedy, rank in leaves:
        tables.append(tri.tables[greedy.order])
        levels.append(tri.levels(geom.beta)[greedy.order])
        exits += [greedy.exit_facet[i] for i in greedy.order]
        ranks += [rank] * len(greedy.order)
        path_lens += [greedy.path_len[i] for i in greedy.order]
    tables, laws, scalars, sources = synth_simplex(sys, leaves[0][1], np.concatenate(tables),
                                                   exits, np.concatenate(levels))
    scalars["path_len"] = np.array(path_lens)[sources]
    return tables[..., :tables.shape[1] - 1], laws, scalars, [ranks[j] for j in sources.tolist()]


def synth_polytope(sys: AffineSystem, p: Polytope, f: Face,
                   eps: Optional[float] = None) -> PWAController:
    """End-to-end synthesis, one branch per (polytope, target) instance,
    tried in this order:

    1. equilibrium plane crossing the interior: cover w.r.t. the plane;
    2. target not reachable: cut the failure sets off with margin ``eps``
       and synthesize on the cut polytope, which becomes the domain;
    3. target is a facet: anchored fan triangulation;
    4. an anchor lies off the facet carrying the target: triangulation
       w.r.t. the target;
    5. a target vertex lies on the top drift face: cover w.r.t. the target;
    6. otherwise: the far split.

    Branches 1, 2, 5 and 6 split the instance into sub-problems.  One
    depth-first walk (``_walk``) takes the branches and orders each leaf
    greedily, collecting the leaves and the notes in pre-order, each
    split's note before its sub-problems'.  A cover or split prefixes the
    rank of its sub-problem's pieces with 0 when that sub-problem drives
    to the original target and with 1 when it feeds an interface; the
    cut adds no prefix.  An error of the walk (a failed cover, a stuck
    greedy pass, an unreachable target, a cut that cannot be made...)
    raises as it is met, and no leaf is solved.  Otherwise one
    ``synth_simplex`` call solves, checks and stacks the pieces of every
    leaf, from the leaves' table stacks in greedy order, one affine law
    per simplex (two where a split is needed), and the first failing
    piece raises; one controller is built from the stacks, on the top
    branch's domain: no sub-problem controller, per-simplex object or
    piece object is built.  Raises ValueError unless a given ``eps`` is
    positive (NaN is not)."""
    if eps is not None and not eps > 0:
        raise ValueError("eps must be positive")
    leaves: list[tuple] = []
    notes: list[str] = []
    domain = _walk(sys, p, f, eps, (), leaves, notes)
    return PWAController(*_leaf_pieces(sys, leaves), domain, notes)
