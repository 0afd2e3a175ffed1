"""Every name the benchmark reads from reachctl must exist: the functions
its span tracer wraps by name (``perfbench/spans.py``, ``LAYERS``), and
each attribute its sources read off a reachctl module or import from one.
Every call it makes to a reachctl callable must bind to that callable's
signature, so a removed option or parameter cannot break it unseen."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _resolves(modname: str, path: str) -> bool:
    owner = importlib.import_module(modname)
    for part in path.split("."):
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    return callable(owner)


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [name for name, (modname, path) in spans.LAYERS.items()
               if not _resolves(modname, path)]
    assert spans.LAYERS and not missing


def _is_module(name: str) -> bool:
    try:
        importlib.import_module(name)
    except ModuleNotFoundError:
        return False
    return True


def _reachctl_imports(tree) -> tuple[dict, dict]:
    """The reachctl modules bound to a name (``from reachctl import
    synth``, ``import reachctl.sim as sim``), as name -> module, and the
    other names imported from a reachctl module, as name -> (module,
    attribute)."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "reachctl":
                    modules[a.asname or a.name] = a.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "reachctl":
            for a in node.names:
                if _is_module(f"{node.module}.{a.name}"):
                    modules[a.asname or a.name] = f"{node.module}.{a.name}"
                else:
                    names[a.asname or a.name] = (node.module, a.name)
    return modules, names


def reachctl_reads(source: str) -> set[tuple[str, str]]:
    """(module, name) for each name ``source`` imports from a reachctl
    module, and for each attribute it reads off a reachctl module bound
    to a name."""
    tree = ast.parse(source)
    modules, names = _reachctl_imports(tree)
    reads = set(names.values())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            reads.add((modules[node.value.id], node.attr))
    return reads


def reachctl_calls(source: str) -> list[tuple[str, object, int, list[str], bool]]:
    """(label, callable, positional count, keywords, complete) for each
    call in ``source`` of a reachctl callable named through an import:
    ``f(...)`` for a name imported from a reachctl module, ``m.f(...)`` or
    ``m.C.f(...)`` for a reachctl module bound to ``m``.  A call with
    ``*args`` or ``**kwargs`` is not complete: only its other arguments
    are known."""
    tree = ast.parse(source)
    modules, names = _reachctl_imports(tree)
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        path, func = [], node.func
        while isinstance(func, ast.Attribute):
            path.insert(0, func.attr)
            func = func.value
        if not isinstance(func, ast.Name):
            continue
        if func.id in modules:
            owner = importlib.import_module(modules[func.id])
        elif func.id in names:
            owner = importlib.import_module(names[func.id][0])
            path.insert(0, names[func.id][1])
        else:
            continue
        for part in path:
            owner = getattr(owner, part, None)
        if not callable(owner):
            continue
        positional = [a for a in node.args if not isinstance(a, ast.Starred)]
        keywords = [k.arg for k in node.keywords if k.arg is not None]
        complete = len(positional) == len(node.args) and len(keywords) == len(node.keywords)
        out.append((f"line {node.lineno}: {ast.unparse(node.func)}", owner,
                    len(positional), keywords, complete))
    return out


def unbound_calls(calls) -> list[str]:
    """The calls whose arguments do not bind to their callable's
    signature: too many or too few positionals, an unknown keyword."""
    out = []
    for label, fn, npos, keywords, complete in calls:
        sig = inspect.signature(fn)
        bind = sig.bind if complete else sig.bind_partial
        try:
            bind(*range(npos), **dict.fromkeys(keywords))
        except TypeError as exc:
            out.append(f"{label}: {exc}")
    return out


def missing_names(reads) -> list[str]:
    return sorted(f"{mod}.{name}" for mod, name in reads
                  if not hasattr(importlib.import_module(mod), name))


def test_scanner_finds_missing_names():
    source = ("from reachctl import synth as s\n"
              "from reachctl.sim import integrate, no_such_function\n"
              "s.synth_polytope(1)\n"
              "s.no_such_attr\n")
    assert reachctl_reads(source) == {("reachctl.synth", "synth_polytope"),
                                      ("reachctl.synth", "no_such_attr"),
                                      ("reachctl.sim", "integrate"),
                                      ("reachctl.sim", "no_such_function")}
    assert missing_names(reachctl_reads(source)) == ["reachctl.sim.no_such_function",
                                                     "reachctl.synth.no_such_attr"]


def test_every_name_the_benchmark_reads_exists():
    reads = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        reads |= reachctl_reads(path.read_text())
    assert {("reachctl.synth", "VertexControls"), ("reachctl.synth", "invariance_margin"),
            ("reachctl.synth", "check_no_equilibrium"), ("reachctl.sim", "integrate"),
            ("reachctl.geometry", "Face")} <= reads
    assert missing_names(reads) == []


def test_scanner_finds_calls_that_do_not_bind():
    source = ("from reachctl import geometry as geo\n"
              "from reachctl.synth import synth_polytope as run\n"
              "run(1, 2, 3, eps=0.1)\n"
              "run(1, 2, 3, 4, 5)\n"
              "geo.Face.from_vertices(1)\n"
              "geo.convex_hull(1, allow_lower=False)\n"
              "geo.Polytope.box(*bounds)\n"
              "geo.TOL_GEOM.real\n")
    calls = reachctl_calls(source)
    assert [label for label, *_ in calls] == [
        "line 3: run", "line 4: run", "line 5: geo.Face.from_vertices",
        "line 6: geo.convex_hull", "line 7: geo.Polytope.box"]
    assert [label.split(":")[0] for label in unbound_calls(calls)] == ["line 4", "line 6"]


def test_every_call_the_benchmark_makes_binds():
    calls = []
    for path in sorted(PERFBENCH.glob("*.py")):
        calls += reachctl_calls(path.read_text())
    called = {fn for _, fn, *_ in calls}
    from reachctl import geometry, sim, synth
    assert {geometry.Face, geometry.Face.from_vertices, geometry.convex_hull,
            synth.synth_polytope, sim.integrate} <= called
    assert unbound_calls(calls) == []
