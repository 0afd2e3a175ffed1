"""Source checks that need no linter: every name a module of the package
imports is used in that module or exported through its ``__all__``, no
module imports another module's private (``_``-prefixed) names, every
error class is raised somewhere or is the base of one that is, every
function reads each of its parameters, every module-level constant is
read somewhere in the package, no module or class binds a shared
mutable container or a memoizing decorator (state that outlives a call
belongs to an object the caller holds), ``synth`` builds a controller
only through its constructor, a controller stores no order and its
pieces are views of its stacks, ``synth`` solves a leaf on its table
stack, only ``geometry`` solves an LP, and arrays are made read-only by
``setflags``."""

import ast
import re
from pathlib import Path
from typing import Optional

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "reachctl"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    exported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used and name not in exported)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_check_sees_an_unused_import():
    source = "from math import pi, tau\nimport numpy as np\n__all__ = ['tau']\nx = np.zeros(1)\n"
    assert unused_imports(source) == ["pi (line 1)"]


def private_imports(source: str) -> list[str]:
    """The ``_``-prefixed names a module imports from a module of the
    package, by relative import or by the package's name."""
    tree = ast.parse(source)
    return sorted(f"{alias.name} (line {node.lineno})" for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and (node.level > 0 or (node.module or "").split(".")[0] == PACKAGE.name)
                  for alias in node.names if alias.name.startswith("_"))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_crosses_modules(path):
    assert private_imports(path.read_text()) == []


def test_check_sees_a_private_import():
    source = ("from __future__ import annotations\nfrom ._x import y\n"
              "from .geometry import _fan, fan\nfrom reachctl.lp import _CAP\n"
              "from numpy import _private\n")
    assert private_imports(source) == ["_CAP (line 4)", "_fan (line 3)"]


def tol_rank_reads(source: str, inside: str = "rank") -> list[str]:
    """Lines where the source reads ``TOL_RANK`` outside a function named
    ``inside``: the one rank rule of the package lives in
    ``geometry.rank``, and its definition assigns the name, not reads it."""
    tree = ast.parse(source)
    allowed = {id(node) for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef) and fn.name == inside
               for node in ast.walk(fn)}
    reads = [node for node in ast.walk(tree)
             if (isinstance(node, ast.Name) and node.id == "TOL_RANK"
                 and isinstance(node.ctx, ast.Load))
             or (isinstance(node, ast.Attribute) and node.attr == "TOL_RANK")]
    return sorted(f"line {node.lineno}" for node in reads if id(node) not in allowed)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_tol_rank_is_read_only_by_rank(path):
    inside = "rank" if path.name == "geometry.py" else None
    assert tol_rank_reads(path.read_text(), inside) == []


def test_check_sees_a_second_rank_rule():
    source = ("TOL_RANK = 1e-9\n"
              "def rank(s):\n    return (s > TOL_RANK).sum()\n"
              "def dim(s):\n    return (s > TOL_RANK * s[0]).sum()\n"
              "def other(g):\n    return g.TOL_RANK\n")
    assert tol_rank_reads(source) == ["line 5", "line 7"]
    assert tol_rank_reads(source, inside=None) == ["line 3", "line 5", "line 7"]


def _owners(tree) -> dict:
    """Each node's innermost enclosing function, by name: ``ast.walk``
    reaches an enclosing function before the ones it holds."""
    owner = {}
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                owner[id(node)] = fn.name
    return owner


def det_calls(source: str) -> list[str]:
    """The functions (by name, "<module>" outside any) that read
    ``np.linalg.det`` or ``numpy.linalg.det``, once per read."""
    tree = ast.parse(source)
    owner = _owners(tree)
    return sorted(owner.get(id(node), "<module>") for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "det"
                  and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg")


def test_determinants_only_in_the_nonsingularity_rule_and_volumes():
    """One rule decides that a square system is singular,
    ``geometry.nonsingular``, relative to its rows' norms; the only other
    determinant is a simplex's volume.  No second determinant threshold
    comes back."""
    calls = {path.name: det_calls(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: got for name, got in calls.items() if got} == {
        "geometry.py": ["nonsingular", "simplex_volume"]}


def test_check_sees_a_second_determinant():
    source = ("import numpy as np\nimport numpy\n"
              "def ok(M):\n    return np.linalg.det(M)\n"
              "class A:\n    def m(self, M):\n        return abs(numpy.linalg.det(M)) > 1e-12\n"
              "d = np.linalg.det\n")
    assert det_calls(source) == ["<module>", "m", "ok"]


def _is_abs(node) -> bool:
    return isinstance(node, ast.Call) and _name(node) == "abs"


def l1_norms(source: str) -> list[str]:
    """The functions (by name, "<module>" outside any) that take rows' L1
    norms, ``np.abs(G).sum(...)`` or ``np.sum(np.abs(G), ...)``: the
    |g|_1 of the exclusion bound 2 tol |g|_1, once per norm."""
    tree = ast.parse(source)
    owner = _owners(tree)
    return sorted(owner.get(id(node), "<module>") for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and _name(node) == "sum"
                  and ((isinstance(node.func, ast.Attribute) and _is_abs(node.func.value))
                       or any(_is_abs(arg) for arg in node.args)))


def svd_reads(source: str) -> list[str]:
    """The functions (by name, "<module>" outside any) that read
    ``linalg.svd`` or call ``affine_basis``, once per read."""
    tree = ast.parse(source)
    owner = _owners(tree)
    return sorted(owner.get(id(node), "<module>") for node in ast.walk(tree)
                  if (isinstance(node, ast.Attribute) and node.attr == "svd"
                      and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg")
                  or (isinstance(node, ast.Call) and _name(node) == "affine_basis"))


def test_one_exclusion_rule_in_geometry():
    """One rule puts a point outside a hull by rows bounded on its
    vertices, ``geometry.hull_rows``, which ``point_in_hull``, the
    equilibrium screen of ``synth`` and the target test of ``sim`` read:
    no other function takes the rows' L1 norms of its bound 2 tol |g|_1,
    and ``synth`` and ``sim`` take no SVD.  The other SVDs are ranks,
    bases, normals and simplex tests."""
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    norms = {name: l1_norms(text) for name, text in sources.items()}
    assert {name: got for name, got in norms.items() if got} == {"geometry.py": ["hull_rows"]}
    svds = {name: svd_reads(text) for name, text in sources.items()}
    assert {name: got for name, got in svds.items() if got} == {
        "geometry.py": ["_affine_basis", "_hull_facets", "hull_rows", "hyperplane_through",
                        "hyperplane_through", "rank", "simplex_tables"],
        "reach.py": ["_flat_target_pivot"],
        "system.py": ["_invariants"]}


def test_check_sees_a_second_exclusion_rule():
    """The screens that ``synth`` and ``sim`` kept before the rule moved
    to ``geometry`` are both seen, as is a norm written through
    ``np.sum``."""
    source = ("import numpy as np\n"
              "def _no_equilibrium_screen(fields, tol):\n"
              "    u, sv, vt = np.linalg.svd(fields[:, 1:] - fields[:, :1])\n"
              "    G = np.concatenate([vt, -vt], axis=1)\n"
              "    gap = -(fields @ np.swapaxes(G, 1, 2)).max(axis=1)\n"
              "    return np.any(gap > 2.0 * tol * np.abs(G).sum(axis=2), axis=1)\n"
              "def target_screen(V, tol):\n"
              "    _, basis = affine_basis(V)\n"
              "    G = np.eye(V.shape[1]) - basis @ basis.T\n"
              "    reject = 2.0 * tol * np.sum(np.abs(G), axis=1)\n"
              "    return lambda X: np.any(G @ X.T > reject[:, None], axis=0)\n"
              "def hull_rows(V):\n"
              "    return 2.0 * np.abs(V).sum(axis=-1)\n")
    assert l1_norms(source) == ["_no_equilibrium_screen", "hull_rows", "target_screen"]
    assert svd_reads(source) == ["_no_equilibrium_screen", "target_screen"]


def polytope_builds(source: str) -> list[str]:
    """The functions (by name, "<module>" outside any) that build a
    ``Polytope`` or a ``Face``, each marked by whether it hands over an
    incidence table (a fourth argument or ``incidence=``)."""
    tree = ast.parse(source)
    owner = _owners(tree)
    out = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and _name(node) in ("Polytope", "Face")):
            continue
        given = len(node.args) > 3 or any(k.arg == "incidence" for k in node.keywords)
        mark = "with" if given else "without"
        out.append(f"{owner.get(id(node), '<module>')} ({mark} incidence)")
    return sorted(out)


def tolerance_incidence(source: str) -> list[str]:
    """The functions (by name, "<module>" outside any) that compare
    ``abs`` of a product of some ``.vertices`` with a ``TOL_`` constant:
    vertex-facet incidence read off the facet rows."""
    tree = ast.parse(source)
    owner = _owners(tree)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and _is_abs(node.left) \
                and any(_name(c) and _name(c).startswith("TOL_") for c in node.comparators):
            inner = list(ast.walk(node.left))
            if any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.MatMult) for n in inner) \
                    and any(isinstance(n, ast.Attribute) and n.attr == "vertices" for n in inner):
                out.append(owner.get(id(node), "<module>"))
    return sorted(out)


def stacked_plane_tests(source: str) -> list[str]:
    """The functions (by name, "<module>" outside any) that compare a
    ``TOL_`` constant with ``abs`` of an expression holding a
    ``.levels(...)`` call or a product of a sliced stack: a facet plane
    tested against the stacked vertices of simplices, which are rows of
    a polytope's vertices whose incidence the polytope holds."""
    tree = ast.parse(source)
    owner = _owners(tree)
    out = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Compare) and any(
                _name(c) and _name(c).startswith("TOL_") for c in node.comparators)):
            continue
        for call in ast.walk(node.left):
            if not _is_abs(call):
                continue
            inner = list(ast.walk(call))
            if any(isinstance(n, ast.Call) and _name(n) == "levels" for n in inner) or any(
                    isinstance(n, ast.BinOp) and isinstance(n.op, ast.MatMult)
                    and isinstance(n.left, ast.Subscript) for n in inner):
                out.append(owner.get(id(node), "<module>"))
                break
    return sorted(out)


def class_names(source: str, cls: str) -> set[str]:
    """The names that the body of class ``cls`` reads."""
    return {node.id for c in ast.walk(ast.parse(source))
            if isinstance(c, ast.ClassDef) and c.name == cls
            for node in ast.walk(c) if isinstance(node, ast.Name)}


def test_incidence_is_decided_where_a_polytope_is_built():
    """Incidence is data of a construction, in every dimension: every
    ``Polytope`` and ``Face`` that the package builds hands over its
    table, but the empty polytope and the hull of one point, which have
    at most one vertex (a caller's set of three or more vertices gets its
    table at construction); a controller read from its stored form
    (``PWAController.from_arrays``) hands over its domain's stored table.  No code reads incidence off the facet rows
    with a tolerance, ``Polytope`` included, which reads no
    ``TOL_INCIDENCE``."""
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    builds = {name: polytope_builds(text) for name, text in sources.items()}
    assert {name: got for name, got in builds.items() if got} == {
        "geometry.py": ["_clip_across (with incidence)", "_clip_across (with incidence)",
                        "clip_to_halfspace (with incidence)", "convex_hull (with incidence)",
                        "convex_hull (without incidence)", "empty (without incidence)",
                        "facet (with incidence)", "facets (with incidence)",
                        "from_vertices (with incidence)", "section (with incidence)"],
        "reach.py": ["analyze (with incidence)"],
        "synth.py": ["from_arrays (with incidence)"]}
    assert {name: got for name, got in
            ((name, tolerance_incidence(text)) for name, text in sources.items()) if got} == {}
    assert "TOL_INCIDENCE" not in class_names(sources["geometry.py"], "Polytope")


def test_check_sees_incidence_derived_again():
    """The lazy table, the clip's candidate polytope, the simplex's
    polytope without a table and a section without its rows, which
    incidence used to be re-derived through, are all seen."""
    source = ("import numpy as np\n"
              "class Polytope:\n"
              "    @cached_property\n"
              "    def incidence(self):\n"
              "        normals, offsets = self.rows\n"
              "        return np.abs(self.vertices @ normals.T - offsets) <= TOL_INCIDENCE\n"
              "def _clip_across(p, half, verts):\n"
              "    cands = p.halfspaces + [half]\n"
              "    tight = Polytope(verts, cands, p.n).incidence.T\n"
              "    return Polytope(verts, [cands[i] for i in _maximal_sets(tight)], p.n)\n"
              "def as_polytope(s, hs):\n"
              "    return Polytope(s.vertices, halfspaces=hs, dim=s.n)\n"
              "def section(verts):\n"
              "    return Polytope(verts, [], affine_dimension(verts))\n"
              "def from_vertices(points):\n"
              "    hull = convex_hull(points)\n"
              "    return Face(hull.vertices, None, hull.dim, incidence=hull.incidence)\n")
    assert polytope_builds(source) == ["_clip_across (without incidence)",
                                       "_clip_across (without incidence)",
                                       "as_polytope (without incidence)",
                                       "from_vertices (with incidence)",
                                       "section (without incidence)"]
    assert tolerance_incidence(source) == ["incidence"]
    assert "TOL_INCIDENCE" in class_names(source, "Polytope")


def test_exits_and_cones_read_the_incidence():
    """``triangulate`` and ``synth`` read which rows of a polytope's
    vertices lie on its facet k off ``p.incidence``: no function there
    tests a facet plane against the stacked vertices of simplices (their
    levels, or a fan's stack) at a tolerance."""
    sources = {name: (PACKAGE / name).read_text() for name in ("triangulate.py", "synth.py")}
    assert {name: got for name, got in
            ((name, stacked_plane_tests(text)) for name, text in sources.items()) if got} == {}


def test_check_sees_a_stacked_plane_test():
    """The level rule for the target exits and the plane filter of the
    fan's cones are seen; a plane tested at one point, levels compared by
    the drift rule and an anchor matched among vertices are not."""
    source = ("import numpy as np\n"
              "def mark_target(tri, target):\n"
              "    off = np.abs(tri.levels(target.normal) - target.offset) > TOL_INCIDENCE\n"
              "    return off\n"
              "def cones(p_cones, h):\n"
              "    keep = np.abs(p_cones[:, 1:] @ h.normal - h.offset).max(axis=1) > TOL_INCIDENCE\n"
              "    return p_cones[keep]\n"
              "def guard(h, vstar, target, tri, geom):\n"
              "    assert abs(h.value(vstar)) > TOL_GEOM\n"
              "    assert np.abs(target.vertices - vstar).max() <= TOL_MERGE\n"
              "    return geom.on_level(tri.levels(geom.beta), 0.0)\n")
    assert stacked_plane_tests(source) == ["cones", "mark_target"]


def readers(source: str, name: str) -> list[str]:
    """The functions (by name, "<module>" outside any) that read ``name``
    (a call reads it too), once per read."""
    tree = ast.parse(source)
    owner = _owners(tree)
    return sorted(owner.get(id(node), "<module>") for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id == name
                  and isinstance(node.ctx, ast.Load))


def test_no_triangulation_hulls():
    """Every triangulation reads its faces off an incidence table: in
    ``triangulate`` only the cover w.r.t. a target hulls (its lead
    piece), and one maximal-set rule serves the facets of faces
    (``_facet_sets``) and of hulls (``_hull_facets``) and a hull's
    vertices (``convex_hull``): all go through ``_maximal_sets``."""
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert readers(sources["triangulate.py"], "convex_hull") == ["cover_wrt_F"]
    assert {name: got for name, got in
            ((name, readers(text, "_maximal_sets")) for name, text in sources.items())
            if got} == {"geometry.py": ["_facet_sets", "_hull_facets", "convex_hull"]}


def test_check_sees_a_second_reader():
    source = ("from .geometry import convex_hull\n"
              "def cover(p):\n    return convex_hull(p)\n"
              "def wrt(p, f):\n    hull = convex_hull\n    return hull(f), convex_hull(p)\n"
              "def _maximal_sets(t):\n    return t\n"
              "class A:\n    def m(self, t):\n        return _maximal_sets(t)\n"
              "RULE = _maximal_sets\n")
    assert readers(source, "convex_hull") == ["cover", "wrt", "wrt"]
    assert readers(source, "_maximal_sets") == ["<module>", "m"]


def constructions(source: str, name: str) -> list[str]:
    """The functions (by name, "<module>" outside any) that call the class
    ``name``, by its name or as an attribute, or, inside its own body, as
    ``cls``, once per call."""
    tree = ast.parse(source)
    owner = _owners(tree)
    own = {id(node) for body in ast.walk(tree)
           if isinstance(body, ast.ClassDef) and body.name == name for node in ast.walk(body)}
    return sorted(owner.get(id(node), "<module>") for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and (_name(node.func) == name or (
                      id(node) in own and isinstance(node.func, ast.Name)
                      and node.func.id == "cls")))


def test_one_controller_per_synthesis():
    """``synth`` builds a ``PWAController`` at three sites, each a call of
    the one constructor: ``synth_polytope``'s one pass, ``from_pieces``
    (pieces built by hand) and ``from_arrays``, which reads the stored
    form.  Nothing in the package calls ``from_pieces`` or
    ``from_arrays``: no sub-problem builds its own controller for its
    parent to copy and discard."""
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert constructions(sources["synth.py"], "PWAController") == [
        "from_arrays", "from_pieces", "synth_polytope"]
    assert {name: [reader for attr in ("from_pieces", "from_arrays")
                   for reader in readers(text, attr) + attribute_readers(text, attr)]
            for name, text in sources.items()} == dict.fromkeys(sources, [])


def test_check_sees_a_second_controller():
    source = ("from . import synth\n"
              "def synth_polytope(pieces, p):\n"
              "    sub = PWAController(pieces[:1], p)\n"
              "    return PWAController.from_pieces(sub.pieces + pieces[1:], p)\n"
              "class A:\n    def m(self, p):\n        return synth.PWAController([], p)\n"
              "    @classmethod\n    def other(cls, p):\n        return cls(p)\n"
              "class PWAController:\n    @classmethod\n"
              "    def from_pieces(cls, pieces, p):\n        return cls(pieces, p)\n"
              "EMPTY = PWAController([], None)\n"
              "kind = PWAController\n")
    assert constructions(source, "PWAController") == ["<module>", "from_pieces", "m",
                                                      "synth_polytope"]
    assert attribute_readers(source, "from_pieces") == ["synth_polytope"]


def stored_order(source: str) -> dict:
    """What a source keeps of a controller's order of preference: the
    functions and classes it defines as ``ordered`` or ``PieceStack``,
    the field names of ``PIECE_SCALARS`` (an ``np.dtype`` of (name, type)
    pairs) and the parameters of ``PWAController.__init__``."""
    tree = ast.parse(source)
    return {
        "defined": sorted(node.name for node in ast.walk(tree)
                          if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                          and node.name in ("ordered", "PieceStack")),
        "scalars": [pair.elts[0].value for node in ast.walk(tree)
                    if isinstance(node, ast.Assign)
                    and any(_name(target) == "PIECE_SCALARS" for target in node.targets)
                    for pair in node.value.args[0].elts],
        "init": [arg.arg for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) and cls.name == "PWAController"
                 for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
                 for arg in fn.args.args]}


def test_a_controller_stores_no_order():
    """A controller stores each piece once, by its index, and derives its
    order of preference on first read: ``synth`` defines no ``ordered``
    and no ``PieceStack``, a piece's scalars hold no place, and the
    constructor takes no order."""
    assert stored_order((PACKAGE / "synth.py").read_text()) == {
        "defined": [],
        "scalars": ["exit_facet", "path_len", "sub_rank", "slack", "exit_margin"],
        "init": ["self", "vertices", "laws", "scalars", "ranks", "domain", "notes"]}


def test_check_sees_a_stored_order():
    source = ("PIECE_SCALARS = np.dtype([('exit_facet', np.int32), ('place', np.int32)])\n"
              "class PieceStack:\n    pass\n"
              "class PWAController:\n"
              "    def __init__(self, vertices, order, laws):\n        self.order = order\n"
              "    @classmethod\n    def ordered(cls, vertices):\n        return cls(vertices)\n"
              "def __init__(order):\n    return order\n")
    assert stored_order(source) == {"defined": ["PieceStack", "ordered"],
                                    "scalars": ["exit_facet", "place"],
                                    "init": ["self", "vertices", "order", "laws"]}


def attribute_readers(source: str, attr: str) -> list[str]:
    """The functions (by name, "<module>" outside any) that read an
    attribute ``attr`` of anything, once per read."""
    tree = ast.parse(source)
    owner = _owners(tree)
    return sorted(owner.get(id(node), "<module>") for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == attr
                  and isinstance(node.ctx, ast.Load))


def imported_names(source: str, module: str) -> list[str]:
    """The names a source imports from ``module`` (``from module import``)."""
    return sorted(alias.name for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom) and node.module == module
                  for alias in node.names)


def test_pieces_are_views_of_the_stacks():
    """A controller keeps stacks, not piece objects: ``synth`` builds an
    ``AffinePiece`` only in the view accessor (``PieceViews``'s
    ``__getitem__``) and copies no piece with ``dataclasses.replace``, and
    ``sim`` reads a controller's ``pieces`` only in ``verify``, for their
    count: a run, its runner and its controls read the stacks."""
    synth_source = (PACKAGE / "synth.py").read_text()
    sim_source = (PACKAGE / "sim.py").read_text()
    assert constructions(synth_source, "AffinePiece") == ["__getitem__"]
    assert "replace" not in imported_names(synth_source, "dataclasses")
    assert attribute_readers(sim_source, "pieces") == ["verify"]


def test_check_sees_a_piece_built_or_read_elsewhere():
    source = ("from dataclasses import dataclass, replace\n"
              "class PieceViews:\n"
              "    def __getitem__(self, k):\n        return AffinePiece(k)\n"
              "def integrate(ctrl):\n    def finish():\n        return ctrl.pieces\n"
              "    return [synth.AffinePiece(pc) for pc in ctrl.pieces], finish\n"
              "def verify(ctrl):\n    ctrl.pieces = None\n    return len(ctrl.pieces)\n")
    assert constructions(source, "AffinePiece") == ["__getitem__", "integrate"]
    assert imported_names(source, "dataclasses") == ["dataclass", "replace"]
    assert attribute_readers(source, "pieces") == ["finish", "integrate", "verify"]


def leaf_pass(source: str) -> dict:
    """What a source's leaf pass is built of: the reads of
    ``Simplex.of_table``, each as the function that holds it (by name,
    "<module>" outside any) with " in a loop" where a ``for`` statement
    holds it; the functions defined as ``_may_split``; and the functions
    that hold a ``try`` statement."""
    tree = ast.parse(source)
    owner = _owners(tree)
    looped = {id(node) for loop in ast.walk(tree) if isinstance(loop, ast.For)
              for node in ast.walk(loop)}
    functions = [fn for fn in ast.walk(tree)
                 if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return {"of_table": sorted(owner.get(id(node), "<module>")
                               + (" in a loop" if id(node) in looped else "")
                               for node in ast.walk(tree)
                               if isinstance(node, ast.Attribute) and node.attr == "of_table"
                               and _name(node.value) == "Simplex"),
            "_may_split": sorted(fn.name for fn in functions if fn.name == "_may_split"),
            "try": sorted(fn.name for fn in functions
                          if any(isinstance(node, ast.Try) for node in ast.walk(fn)))}


def test_one_leaf_pass_on_the_table_stack():
    """``synth`` solves a leaf on its table stack: it views a table as a
    ``Simplex`` only for a controller's ``region`` and, in the loop over
    the flagged pieces of ``synth_simplex``, for the one piece that goes
    to ``check_no_equilibrium``.  No screen stands before the stacked
    midlevel split, and ``synth_polytope`` lets the walk's error raise."""
    got = leaf_pass((PACKAGE / "synth.py").read_text())
    assert got["of_table"] == ["region", "synth_simplex in a loop"]
    assert got["_may_split"] == []
    assert "synth_polytope" not in got["try"]


def test_check_sees_a_per_simplex_leaf_pass():
    source = ("def _may_split(tables):\n    return tables\n"
              "def synth_simplex(tables, flagged):\n"
              "    regions = [Simplex.of_table(t) for t in tables]\n"
              "    for j in flagged:\n        check(geometry.Simplex.of_table(tables[j]))\n"
              "    return regions\n"
              "def synth_polytope(walk):\n    try:\n        walk()\n    except Exception:\n"
              "        pass\n"
              "VIEW = Simplex.of_table\n")
    assert leaf_pass(source) == {
        "of_table": ["<module>", "synth_simplex", "synth_simplex in a loop"],
        "_may_split": ["_may_split"], "try": ["synth_polytope"]}


def lp_solves(source: str) -> list[str]:
    """The functions (by name, "<module>" outside any) that call the
    package's LP, as ``lp.solve`` or as ``solve`` imported from ``lp``,
    once per call."""
    tree = ast.parse(source)
    owner = _owners(tree)
    bound = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "lp"
             for alias in node.names if alias.name == "solve"}
    return sorted(owner.get(id(node), "<module>") for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and (
                      (isinstance(node.func, ast.Attribute) and node.func.attr == "solve"
                       and isinstance(node.func.value, ast.Name) and node.func.value.id == "lp")
                      or (isinstance(node.func, ast.Name) and node.func.id in bound)))


def test_lps_are_solved_only_in_geometry():
    """The package's LP has two callers, both in ``geometry``: the
    membership LP of ``_in_hull`` and ``hrep_to_vrep``'s feasibility and
    recession-cone LPs, each stated with a feasible origin.  No synthesis
    or simulation code reaches the tableau."""
    calls = {path.name: lp_solves(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: got for name, got in calls.items() if got} == {
        "geometry.py": ["_in_hull", "hrep_to_vrep", "hrep_to_vrep"]}


def test_check_sees_an_lp_elsewhere():
    source = ("from . import lp\nfrom .lp import solve as lp_solve, TOL_LP\n"
              "def vertex_controls(c, G, h):\n    return lp.solve(c, G, h)\n"
              "class A:\n    def m(self, c):\n        return lp_solve(c, [], [])\n"
              "def other(q):\n    return q.solve() or np.linalg.solve(q, q)\n"
              "OUT = lp.solve([1.0], [[1.0]], [1.0])\n")
    assert lp_solves(source) == ["<module>", "m", "vertex_controls"]


def writeable_sets(source: str) -> list[str]:
    """The functions (by name, "<module>" outside any) that assign an
    array's ``flags.writeable``, once per assignment."""
    tree = ast.parse(source)
    owner = _owners(tree)
    return sorted(owner.get(id(node), "<module>") for node in ast.walk(tree)
                  if isinstance(node, ast.Assign) for target in node.targets
                  if isinstance(target, ast.Attribute) and target.attr == "writeable"
                  and isinstance(target.value, ast.Attribute) and target.value.attr == "flags")


def test_arrays_are_made_read_only_by_setflags():
    """numpy's ``flags.writeable`` setter looks ``setflags`` up by a new
    string on each call, which CPython's type cache keeps: 57 B per call
    that a controller's retained bytes (``TestControllerStacks``) read
    or not, as earlier lookups left the cache.  The package calls
    ``setflags(write=False)`` instead."""
    assert {path.name: got for path in sorted(PACKAGE.glob("*.py"))
            if (got := writeable_sets(path.read_text()))} == {}


def test_check_sees_a_writeable_flag_set():
    source = ("def stored(a):\n    a.flags.writeable = False\n    return a\n"
              "class C:\n    def m(self, t):\n        t.setflags(write=False)\n"
              "        t.flags.writeable = True\n        self.writeable = False\n")
    assert writeable_sets(source) == ["m", "stored"]


def unraised_errors(errors_source: str, sources: list[str]) -> list[str]:
    """The classes of ``errors_source`` that no source raises (by name, as
    ``raise X`` or ``raise X(...)``) and that are no base of one raised."""
    bases = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
             for node in ast.parse(errors_source).body if isinstance(node, ast.ClassDef)}
    raised = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
                raised.add(name)
    used = set()
    todo = [name for name in raised if name in bases]
    while todo:
        name = todo.pop()
        if name not in used:
            used.add(name)
            todo += [b for b in bases[name] if b in bases]
    return sorted(set(bases) - used)


def test_every_error_is_raised():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert unraised_errors((PACKAGE / "errors.py").read_text(), sources) == []


def test_check_sees_an_unraised_error():
    errors = ("class Base(Exception):\n    pass\n\nclass Mid(Base):\n    pass\n\n"
              "class Leaf(Mid):\n    pass\n\nclass Spare(Base):\n    pass\n\n"
              "class Alone(Exception):\n    pass\n")
    source = "from .errors import Leaf\ndef f():\n    raise Leaf('x')\n"
    assert unraised_errors(errors, [source]) == ["Alone", "Spare"]
    assert unraised_errors(errors, [source, "raise errors.Alone\n"]) == ["Spare"]


def unread_parameters(source: str) -> list[str]:
    """The parameters, ``self`` and ``cls`` aside, that the body of their
    function (nested functions included) never reads."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = fn.args
        params = args.posonlyargs + args.args + args.kwonlyargs + \
            [a for a in (args.vararg, args.kwarg) if a is not None]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {node.id for stmt in body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        name = getattr(fn, "name", "lambda")
        out += [f"{name}.{a.arg} (line {fn.lineno})" for a in params
                if a.arg not in ("self", "cls") and a.arg not in read]
    return sorted(out)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []


def test_check_sees_an_unread_parameter():
    source = ("class A:\n    def m(self, x, *rest, key=1, **kw):\n        return x + key\n"
              "    @classmethod\n    def c(cls, y):\n        def inner():\n            return y\n"
              "        return inner\n"
              "def f(sys, geom):\n    return geom\n"
              "g = lambda a, b: a\n")
    assert unread_parameters(source) == ["f.sys (line 9)", "lambda.b (line 11)",
                                         "m.kw (line 2)", "m.rest (line 2)"]


CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def unread_constants(sources: list[str]) -> list[str]:
    """The module-level constants (``UPPER`` or ``_UPPER`` names assigned
    at a module's top level) that no source reads, by name or as an
    attribute."""
    defined, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for stmt in tree.body:
            targets = stmt.targets if isinstance(stmt, ast.Assign) else \
                [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
            defined |= {node.id for target in targets for node in ast.walk(target)
                        if isinstance(node, ast.Name) and CONSTANT.fullmatch(node.id)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(defined - read)


def test_every_constant_is_read():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert unread_constants(sources) == []


def test_check_sees_an_unread_constant():
    first = ("TOL_A = 1e-9\n_BLOCK = 256\n_CAP: int = 8 * _BLOCK\nOLD, _SPARE = 1, 2\n"
             "__all__ = ['f']\nlower = 3\n"
             "def f(x):\n    LOCAL = 2\n    return x + TOL_A\n")
    second = "from . import first\ny = first._CAP\n"
    assert unread_constants([first]) == ["OLD", "_CAP", "_SPARE"]
    assert unread_constants([first, second]) == ["OLD", "_SPARE"]


CONTAINERS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}
MEMOIZERS = {"cache", "lru_cache"}


def _name(node) -> Optional[str]:
    """The name a Name or an Attribute ends in, through a call."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _mutable(value) -> bool:
    """Whether an assigned value is a mutable container: a display or
    comprehension of a dict, list or set, a call to a container's
    constructor, or a tuple holding one."""
    if isinstance(value, ast.Tuple):
        return any(_mutable(e) for e in value.elts)
    return isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                              ast.SetComp)) or \
        (isinstance(value, ast.Call) and _name(value) in CONTAINERS)


def shared_state(source: str) -> list[str]:
    """Lines where a module's or a class's body binds a mutable container
    (``__all__`` aside), and every ``functools.cache`` or ``lru_cache``
    decorator: each is one object that every caller shares."""
    tree = ast.parse(source)
    out = []
    bodies = [tree.body] + [node.body for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    for body in bodies:
        for stmt in body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)) and stmt.value is not None:
                targets = [stmt.target]
            else:
                continue
            names = {t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)}
            if _mutable(stmt.value) and names != {"__all__"}:
                out.append(f"line {stmt.lineno}")
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out += [f"line {d.lineno}" for d in node.decorator_list if _name(d) in MEMOIZERS]
    return sorted(out, key=lambda line: int(line.split()[1]))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_cache(path):
    assert shared_state(path.read_text()) == []


def test_check_sees_a_module_level_cache():
    source = ("import functools\nfrom collections import defaultdict\n"
              "__all__ = ['f']\nTOL = 1e-9\nKEYS = ('a', 'b')\n"
              "_maps = {}\nSEEN: set = set()\nA, B = 1, []\n"
              "_by_n = defaultdict(list)\nSQUARES = [k * k for k in range(4)]\n"
              "class Runner:\n    __slots__ = ('maps',)\n    shared = dict()\n"
              "    def __init__(self):\n        self.maps = {}\n"
              "    @functools.lru_cache(maxsize=None)\n    def step(self, h):\n        return h\n"
              "@functools.cache\ndef f(x):\n    local = []\n    return x\n"
              "@lru_cache\ndef g(x):\n    return x\n")
    assert shared_state(source) == ["line 6", "line 7", "line 8", "line 9", "line 10",
                                    "line 13", "line 16", "line 19", "line 23"]
