"""The functions of ``src/reachctl`` that no end-to-end run calls.  Run
from the repository's root:

    PYTHONPATH=src python tests/call_census.py

Under ``sys.setprofile`` it runs the benchmark's three workloads at
seeds 1-3, each built as ``perfbench/run.py`` builds it, every item once
with the benchmark's checks; the 204-hull sweep of crossing-plane hulls
(``helpers.sweep_problem``: n in {3, 4}, k in {5, 6, 7, 8, 10, 12},
r < 17) taken to a controller or a typed failure; and ``sim.verify`` on
the box, wedge and cube controllers.  It then prints each function,
method or nested function defined in ``src/reachctl`` that none of them
called, with its file, first line and length in lines, and then their
count and total length.  What it lists is reached only by tests, by
users' code or not at all.  It takes about 10 s on a 2-vCPU machine.
"""

import ast
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "reachctl"
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tests"))

import problems  # noqa: E402
import run  # noqa: E402  (imports reachctl from this checkout's sources)
from helpers import sweep_problem  # noqa: E402
from reachctl import sim, synth  # noqa: E402
from reachctl.errors import ReachctlError  # noqa: E402

SEEDS = (1, 2, 3)
SWEEP = [(n, k, r) for n in (3, 4) for k in (5, 6, 7, 8, 10, 12) for r in range(17)]
VERIFIED = ("box", "wedge", "cube")


def defined() -> dict:
    """Every function defined in the package, keyed as a profiled frame's
    code is, (file, first line, name), with its length in lines.  A
    decorated function's code starts at its first decorator."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                out[(str(path), first, node.name)] = node.end_lineno - first + 1
    return out


def workloads() -> None:
    """Each workload at each seed, every item once, with its checks."""
    for name in sorted(run.WORKLOADS):
        for seed in SEEDS:
            work = run.WORKLOADS[name](name, seed, run.SCALES["full"])
            rng = np.random.default_rng([seed, run.STREAMS["check"]])
            work.check_setup(rng)
            for item in work.items:
                out = run._run_one(work, item)
                if out["kind"] != run.UNTYPED:
                    work.check(item, out, rng)


def sweep() -> None:
    for key in SWEEP:
        sys_, p, f = sweep_problem(*key)
        try:
            synth.synth_polytope(sys_, p, f)
        except ReachctlError:
            pass


def verify() -> None:
    fixtures = {pr.name: pr for pr in problems.fixtures_2d()}
    fixtures["cube"] = problems.unit_cube()
    for name in VERIFIED:
        pr = fixtures[name]
        sim.verify(pr.sys, synth.synth_polytope(pr.sys, pr.p, pr.f), pr.f, nsamples=10)


def census() -> set:
    """The (file, first line, name) of every package function called."""
    called = set()
    package = str(PACKAGE)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno, code.co_name))

    sys.setprofile(profile)
    try:
        workloads()
        sweep()
        verify()
    finally:
        sys.setprofile(None)
    return called


def main() -> int:
    functions = defined()
    called = census()
    unused = sorted(key for key in functions if key not in called)
    for path, line, name in unused:
        print(f"{Path(path).name}:{line} {name} ({functions[path, line, name]} lines)")
    total = sum(functions[key] for key in unused)
    print(f"{len(unused)} of {len(functions)} functions, {total} lines, are never called")
    return 0


if __name__ == "__main__":
    sys.exit(main())
