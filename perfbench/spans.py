"""Span tracing of reachctl's public functions, from outside the package.

A :class:`Tracer` replaces each named function with a timing wrapper in
every ``reachctl`` module (and class) that holds it, so functions imported
by name elsewhere (``point_in_hull`` in ``reach``, ``sim``, ``synth`` and
``triangulate``) are seen at every call site.  Each span records its call
count, its self time (duration minus the time of spans it caused), the
span that caused it, exceptions it raised, and the LPs solved beneath it.
Spans live in memory; ``summary()`` reads them out.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

# layer name -> (module, attribute path); the name doubles as the metric prefix
LAYERS = {
    "lp.solve": ("reachctl.lp", "solve"),
    "geometry.point_in_hull": ("reachctl.geometry", "point_in_hull"),
    "geometry.hrep_to_vrep": ("reachctl.geometry", "hrep_to_vrep"),
    "geometry.vrep_to_hrep": ("reachctl.geometry", "vrep_to_hrep"),
    "geometry.convex_hull": ("reachctl.geometry", "convex_hull"),
    "geometry.extreme_points": ("reachctl.geometry", "extreme_points"),
    "geometry.intersect": ("reachctl.geometry", "intersect"),
    "system.check_assumptions": ("reachctl.system", "check_assumptions"),
    "system.compute_geometry": ("reachctl.system", "compute_geometry"),
    "reach.analyze": ("reachctl.reach", "analyze"),
    "reach.epsilon_cut": ("reachctl.reach", "epsilon_cut"),
    "triangulate.basic_triangulation": ("reachctl.triangulate", "basic_triangulation"),
    "triangulate.triangulation_wrt_F": ("reachctl.triangulate", "triangulation_wrt_F"),
    "triangulate.cover_wrt_F": ("reachctl.triangulate", "cover_wrt_F"),
    "triangulate.cover_wrt_O": ("reachctl.triangulate", "cover_wrt_O"),
    "triangulate.split_far_case": ("reachctl.triangulate", "split_far_case"),
    "synth.synth_polytope": ("reachctl.synth", "synth_polytope"),
    "synth.greedy_paths": ("reachctl.synth", "greedy_paths"),
    "synth.synth_simplex": ("reachctl.synth", "synth_simplex"),
    "synth.vertex_controls_lp": ("reachctl.synth", "vertex_controls_lp"),
    "synth.check_no_equilibrium": ("reachctl.synth", "check_no_equilibrium"),
    "synth.PWAController.lookup": ("reachctl.synth", "PWAController.lookup"),
    "sim.integrate": ("reachctl.sim", "integrate"),
}

_LP = "lp.solve"


class _Stat:
    __slots__ = ("calls", "self_s", "errors", "lp_calls")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.errors = 0
        self.lp_calls = 0


class Tracer:
    """Context manager that installs the wrappers and removes them on exit."""

    def __init__(self):
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.parents: Counter = Counter()      # (parent span, span) -> calls
        self.lp_infeasible = 0
        self._stack: list[list] = []           # [name, child seconds]
        self._patched: list[tuple] = []        # (owner, attribute, original)

    # -- installation -----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for name, (modname, path) in LAYERS.items():
            owner = importlib.import_module(modname)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            if cls_path:
                self._patch(owner, attr, original, wrapper)
                continue
            # every module that bound the function by name
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("reachctl") and \
                        vars(mod).get(attr) is original:
                    self._patch(mod, attr, original, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        stack, stats, parents = self._stack, self.stats, self.parents
        clock = time.perf_counter
        is_lp = name == _LP

        def wrapper(*args, **kwargs):
            if is_lp:
                for frame_name in {frame[0] for frame in stack}:
                    stats[frame_name].lp_calls += 1
            parent = stack[-1][0] if stack else "-"
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                stats[name].errors += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                st = stats[name]
                st.calls += 1
                st.self_s += dt - frame[1]
                parents[(parent, name)] += 1
                if stack:
                    stack[-1][1] += dt
            if is_lp and out.status == "infeasible":
                self.lp_infeasible += 1
            return out

        return wrapper

    # -- read-out ---------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer calls, self time, errors and LPs beneath, plus the
        caller edges as ``"parent > span": calls``."""
        layers = {}
        for name in LAYERS:
            st = self.stats.get(name, _Stat())
            layers[name] = {"calls": st.calls, "self_s": st.self_s,
                            "errors": st.errors, "lp_calls": st.lp_calls}
        layers[_LP]["infeasible"] = self.lp_infeasible
        edges = {f"{p} > {c}": n for (p, c), n in sorted(self.parents.items())}
        return {"layers": layers, "parents": edges}
