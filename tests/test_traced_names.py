"""Every name the benchmark reads from reachctl must exist: the functions
its span tracer wraps by name (``perfbench/spans.py``, ``LAYERS``), and
each attribute its sources read off a reachctl module or import from one."""

import ast
import importlib
import importlib.util
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


def reachctl_reads(source: str) -> set[tuple[str, str]]:
    """(module, name) for each name ``source`` imports from a reachctl
    module, and for each attribute it reads off a reachctl module bound
    to a name (``from reachctl import synth``, ``import reachctl.sim as
    sim``)."""
    tree = ast.parse(source)
    modules, reads = {}, set()
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
                    reads.add((node.module, a.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            reads.add((modules[node.value.id], node.attr))
    return reads


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
