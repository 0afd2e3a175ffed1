"""Benchmark of reachctl's two end-to-end paths: problem -> controller
(``synth.synth_polytope``) and controller -> closed-loop outcome (the
``sim.integrate`` runs that ``sim.verify`` makes, one per sampled start).

    python3 perfbench/run.py --workload synth2d --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/problems.py`` for the generators):

* ``synth2d``: synthesis of the named 2-D fixtures and seeded polygons.
  Small problems, where LP count and per-call overhead dominate.
* ``synth3d``: synthesis of the unit cube, the 4-D box, a tetrahedron that
  needs the cover w.r.t. F, and seeded 3-D and 4-D point-cloud hulls
  crossed by the equilibrium plane, so the cover w.r.t. O runs.
  Vertex enumeration, triangulations and covers grow with the dimension.
* ``verify``: closed-loop runs of controllers synthesized in set-up (box,
  wedge, pinned corner, unit cube).  Almost all time is the per-step
  target test in ``sim.integrate``; synthesis does no timed work.

The run is single-process, single-threaded and closed-loop: the next item
starts when the previous one returns.  Items repeat in a fixed seeded
order while an item would end within ``--seconds``; the first pass
always completes, and outcomes, quality counts and the correctness check
come from it.  Each item's time is scaled to a reference machine speed, sampled while it runs
by a calibration kernel (``perfbench/speed.py``).  The rate
``items_per_s`` is the set's size over the sum of each item's median
scaled time over its repeats; the report holds each item's scaled times
and the raw rate.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one pass
in which each item runs untraced and then traced, checks that both runs
give identical outputs, and prints the per-layer metrics with the tracing overhead.  The
line before the result holds a report with the machine, settings, seeds,
outcome counts and (traced) the span parent edges.
"""

from __future__ import annotations

import os
import sys
import time

# pinned before numpy loads; set-up child processes inherit them
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("REACHCTL_THREADS", None)

import speed  # noqa: E402  (numpy loads here, after the pinning)

# a set-up process samples the machine's speed from here on, to scale its
# wall time (see measure_setup)
SETUP_SAMPLER = speed.SpeedSampler().start() if "--setup-only" in sys.argv else None

import argparse
import itertools
import json
import platform
import resource
import statistics
import subprocess
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _require_program() -> None:
    """Import reachctl from this checkout's sources and nowhere else."""
    if not (SRC / "reachctl" / "__init__.py").is_file():
        sys.exit(f"perfbench: no reachctl sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import reachctl
    if SRC.resolve() not in Path(reachctl.__file__).resolve().parents:
        sys.exit(f"perfbench: reachctl imported from {reachctl.__file__}, not {SRC}")


_require_program()

import numpy as np  # noqa: E402

from reachctl import sim, synth  # noqa: E402
from reachctl.errors import NotReachable, ReachctlError  # noqa: E402

import problems  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

# per-scale sizes; "tiny" is the smoke run of the benchmark's own tests
SCALES = {
    "full": {"setup_repeats": 5, "random_2d": 60, "hulls_3d": 4, "hulls_4d": 1,
             "starts": {"box": 3, "pinned": 3, "cube": 1, "wedge": 2}},
    "tiny": {"setup_repeats": 1, "random_2d": 4, "hulls_3d": 1, "hulls_4d": 0,
             "starts": {"box": 1, "pinned": 1}},
}
LOOKUP_SAMPLES = 20          # domain samples per controller for the totality check
INVARIANCE_TOL = 1e-8
SYNTH_FAIL_KINDS = ("CoverIncomplete", "EpsTooLarge", "SynthesisFailed", "Stuck",
                    "NumericalFailure", "SingularVertexMatrix")
SIM_FAIL_KINDS = (sim.TIMEOUT, sim.LEFT, sim.GAP)
UNTYPED = "untyped_exception"
# numpy default_rng([seed, stream]) keys of the independent input streams
STREAMS = {"synth2d": 0, "synth3d": 1, "verify": 2, "check": 3}


# ---------------------------------------------------------------------------
# workloads: inputs, one item, the outcome summary that must repeat exactly
# ---------------------------------------------------------------------------

class SynthWorkload:
    """Each item is one problem taken to a controller, NotReachable, or a
    typed synthesis failure."""

    def __init__(self, name: str, seed: int, scale: dict):
        rng = np.random.default_rng([seed, STREAMS[name]])
        if name == "synth2d":
            items = problems.fixtures_2d() + problems.random_2d(rng, scale["random_2d"])
        else:
            items = problems.fixtures_nd()
            items += problems.scaled_hulls(rng, 3, scale["hulls_3d"])
            items += problems.scaled_hulls(rng, 4, scale["hulls_4d"])
        self.items = [items[i] for i in rng.permutation(len(items))]

    def run(self, pr: problems.Problem) -> dict:
        try:
            ctrl = synth.synth_polytope(pr.sys, pr.p, pr.f, eps=pr.eps)
        except NotReachable:
            return {"kind": "not_reachable"}
        except ReachctlError as exc:
            return {"kind": type(exc).__name__}
        return {"kind": "controller", "pieces": len(ctrl.pieces), "ctrl": ctrl}

    @staticmethod
    def ok(out: dict) -> bool:
        return out["kind"] in ("controller", "not_reachable")

    @staticmethod
    def label(pr: problems.Problem) -> str:
        return pr.name

    @staticmethod
    def summary(out: dict) -> tuple:
        return out["kind"], out.get("pieces")

    def check(self, pr: problems.Problem, out: dict, rng) -> list[str]:
        errs = []
        expect = pr.expect or {}
        if expect.get("not_reachable") and out["kind"] != "not_reachable":
            errs.append(f"{pr.name}: expected NotReachable, got {out['kind']}")
        if "pieces" in expect and out.get("pieces") != expect["pieces"]:
            errs.append(f"{pr.name}: expected {expect['pieces']} pieces, got {out.get('pieces')}")
        if out["kind"] == "controller":
            ctrl = out["ctrl"]
            if expect.get("domain_shrinks") and not ctrl.domain.volume() < pr.p.volume():
                errs.append(f"{pr.name}: domain not cut below the polytope volume")
            errs += [f"{pr.name}: {e}" for e in check_controller(pr.sys, ctrl, rng)]
        return errs

    def check_setup(self, rng) -> list[str]:
        return []

    def quality(self, pairs) -> dict:
        pieces = [pc for _, out in pairs if out["kind"] == "controller" for pc in out["ctrl"].pieces]
        return piece_quality(pieces)


class VerifyWorkload:
    """Each item is one closed-loop run from a start inside the controller's
    domain, with the default dt and tmax, exactly as ``sim.verify`` runs
    each of its samples."""

    def __init__(self, name: str, seed: int, scale: dict):
        fixtures = {pr.name: pr for pr in problems.fixtures_2d()}
        fixtures["cube"] = problems.unit_cube()
        rng = np.random.default_rng([seed, STREAMS[name]])
        self.controllers = {}
        items = []
        for cname, count in scale["starts"].items():
            pr = fixtures[cname]
            ctrl = synth.synth_polytope(pr.sys, pr.p, pr.f)
            self.controllers[cname] = (pr, ctrl)
            for x0 in problems.jittered_starts(rng, ctrl.domain, count):
                items.append((cname, x0))
        self.items = [items[i] for i in rng.permutation(len(items))]

    def run(self, item) -> dict:
        cname, x0 = item
        pr, ctrl = self.controllers[cname]
        traj = sim.integrate(pr.sys, ctrl, x0, f=pr.f, domain=ctrl.domain)
        return {"kind": traj.outcome.kind, "t": traj.outcome.time, "steps": len(traj.times) - 1}

    @staticmethod
    def ok(out: dict) -> bool:
        return out["kind"] == sim.REACHED

    @staticmethod
    def label(item) -> str:
        return f"{item[0]}@{np.round(item[1], 3).tolist()}"

    @staticmethod
    def summary(out: dict) -> tuple:
        return out["kind"], out.get("t")

    def check(self, item, out: dict, rng) -> list[str]:
        known = (sim.REACHED,) + SIM_FAIL_KINDS
        return [] if out["kind"] in known else [f"{item[0]}: unknown outcome {out['kind']}"]

    def check_setup(self, rng) -> list[str]:
        errs = []
        for cname, (pr, ctrl) in self.controllers.items():
            errs += [f"{cname}: {e}" for e in check_controller(pr.sys, ctrl, rng)]
        return errs

    def quality(self, pairs) -> dict:
        q = piece_quality([pc for _, ctrl in self.controllers.values() for pc in ctrl.pieces])
        reached = [out["t"] for _, out in pairs if out["kind"] == sim.REACHED]
        q["closed_loop_t_p50"] = statistics.median(reached) if reached else 0.0
        steps = [out["steps"] for _, out in pairs if "steps" in out]
        q["steps_per_traj"] = statistics.fmean(steps) if steps else 0.0
        return q


WORKLOADS = {"synth2d": SynthWorkload, "synth3d": SynthWorkload, "verify": VerifyWorkload}


# ---------------------------------------------------------------------------
# correctness and quality, checked from outside the program
# ---------------------------------------------------------------------------

def check_controller(sys_, ctrl, rng) -> list[str]:
    """What the paper promises and the program delivers: every piece blocks
    its non-exit facets (margin >= -1e-8) and has no closed-loop
    equilibrium, and ``lookup`` is total on samples of the domain."""
    errs = []
    for pc in ctrl.pieces:
        s = pc.region
        vc = synth.VertexControls(np.array([pc.control(v) for v in s.vertices]), 0.0)
        margin = synth.invariance_margin(sys_, s, vc, pc.exit_facet)
        if margin < -INVARIANCE_TOL:
            errs.append(f"piece {pc.index}: invariance margin {margin:.3e}")
        if not synth.check_no_equilibrium(sys_, s, pc.gain, pc.offset):
            errs.append(f"piece {pc.index}: closed-loop equilibrium inside")
    for x in problems.domain_samples(rng, ctrl.domain, LOOKUP_SAMPLES):
        if ctrl.lookup(x) is None:
            errs.append(f"lookup has no piece at {x.tolist()}")
            break
    return errs


def piece_quality(pieces) -> dict:
    """Certified margins the paper asks for but the program does not yet
    enforce: exit margins <= 0 and the smallest blocking slack."""
    return {"pieces": len(pieces),
            "pieces_exit_margin_le0": sum(pc.exit_margin <= 0.0 for pc in pieces),
            "min_slack": min((pc.slack for pc in pieces), default=0.0),
            "min_exit_margin": min((pc.exit_margin for pc in pieces), default=0.0)}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def _run_one(work, item) -> dict:
    try:
        return work.run(item)
    except Exception:  # an untyped exception is an incorrect output
        return {"kind": UNTYPED, "traceback": traceback.format_exc()}


def run_items(work, items, seconds: float) -> tuple[list, float]:
    """Closed loop over ``items`` in order.  The first pass always
    completes; after it, an item runs again only if, taking as long as it
    last did, it ends within ``seconds``, and the loop stops when none
    would.  Returns (index, seconds at reference speed, outcome, raw
    seconds) records and the loop's wall time; the machine's speed is
    sampled throughout (see ``speed.py``)."""
    clock = time.perf_counter
    runs = []
    last_s = [0.0] * len(items)
    start = clock()
    with speed.SpeedSampler() as sampler:
        for i in itertools.count():
            k = i % len(items)
            if i >= len(items):
                left = seconds - (clock() - start)
                if min(last_s) >= left:
                    break
                if last_s[k] >= left:
                    continue
            m0 = sampler.mark()
            t0 = clock()
            out = _run_one(work, items[k])
            last_s[k] = clock() - t0
            runs.append((k, last_s[k], out, m0, sampler.mark()))
    elapsed = clock() - start
    records = [(k, sampler.scaled(m0, m1, dt), out, dt) for k, dt, out, m0, m1 in runs]
    return records, elapsed


def run_paired(work, items, tracer) -> tuple[list, list]:
    """One pass in which each item runs untraced and then traced, so that
    both runs of an item see the same machine speed.  Returns the untraced
    and the traced (index, seconds, outcome, seconds) records."""
    clock = time.perf_counter
    base, traced = [], []
    for k, item in enumerate(items):
        t0 = clock()
        out = _run_one(work, item)
        dt = clock() - t0
        base.append((k, dt, out, dt))
        with tracer:
            t0 = clock()
            out = _run_one(work, item)
            dt = clock() - t0
        traced.append((k, dt, out, dt))
    return base, traced


def setup_only() -> None:
    """Body of a set-up process: report the wall time the speed sampler
    took and the mean speed it saw."""
    SETUP_SAMPLER.stop()
    print(json.dumps({"kernel_s": SETUP_SAMPLER.spent_s, "speed": SETUP_SAMPLER.mean_speed()}))


def measure_setup(args, repeats: int) -> list[float]:
    """Times of fresh processes that import, generate the inputs and
    (verify) synthesize the controllers, then exit; each is its wall time,
    less the speed sampler's own, at the reference speed that process saw."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, check=True, cwd=ROOT, capture_output=True, text=True,
                              timeout=170)
        wall = time.perf_counter() - t0
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((wall - child["kernel_s"]) * child["speed"])
    return times


def machine_report(args) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS + ("REACHCTL_THREADS",)},
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "input_seeds": {"streams": {k: [args.seed, v] for k, v in STREAMS.items()},
                        "base": problems.BASE_SEED, "start_base": 0},
        "trace": args.trace, "scale": args.scale, "loop": "closed, 1 caller, 1 thread",
        "speed_sampler": {"reference_kernel_s": speed.REFERENCE_KERNEL_S,
                          "sample_every_s": speed.SAMPLE_EVERY_S},
    }


def item_times(records, n: int, column: int = 1) -> list[list[float]]:
    """Times of each item of the set over its repeats: scaled (column 1)
    or raw (column 3)."""
    times: list[list[float]] = [[] for _ in range(n)]
    for rec in records:
        times[rec[0]].append(rec[column])
    return times


def outcome_counts(records) -> dict:
    counts: dict = {}
    for rec in records:
        counts[rec[2]["kind"]] = counts.get(rec[2]["kind"], 0) + 1
    return counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(SCALES), default="full")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    scale = SCALES[args.scale]

    work = WORKLOADS[args.workload](args.workload, args.seed, scale)
    if args.setup_only:
        setup_only()
        return 0
    report = {"machine": machine_report(args)}
    check_rng = np.random.default_rng([args.seed, STREAMS["check"]])

    if args.trace:
        tracer = Tracer()
        base, records = run_paired(work, work.items, tracer)
        base_s, traced_s = sum(r[1] for r in base), sum(r[1] for r in records)
        same = [work.summary(a[2]) for a in base] == [work.summary(b[2]) for b in records]
        spans = tracer.summary()
        report["trace"] = {"untraced_s": base_s, "traced_s": traced_s,
                           "outputs_identical": same, "parents": spans["parents"]}
    else:
        setup = measure_setup(args, scale["setup_repeats"])
        records, loop_s = run_items(work, work.items, args.seconds)
        report["loop_s"] = loop_s
        report["setup_s"] = setup
        same = True

    first = {rec[0]: rec[2] for rec in records[:len(work.items)]}
    repeats_agree = all(work.summary(rec[2]) == work.summary(first[rec[0]]) for rec in records)
    errors = [] if same else ["traced and untraced outputs differ"]
    if not repeats_agree:
        errors.append("a repeated item gave a different output")
    errors += work.check_setup(check_rng)
    pairs = [(work.items[k], first[k]) for k in range(len(work.items))]
    for item, out in pairs:
        if out["kind"] == UNTYPED:
            errors.append(out["traceback"])
        else:
            errors += work.check(item, out, check_rng)

    quality = work.quality(pairs)
    counts = outcome_counts(records[:len(work.items)])
    # a typed synthesis failure or a timeout is an outcome of the operation,
    # counted in ok_frac and the fail shares; an operation fails when it
    # raises an untyped exception
    failed = sum(rec[2]["kind"] == UNTYPED for rec in records)
    times = [rec[1] for rec in records]
    # each item's median time over its repeats: the rate weights every item
    # once, however often it ran
    n_items = len(work.items)
    repeats = item_times(records, n_items)
    item_s = [statistics.median(t) for t in repeats]
    report.update({"items_per_pass": len(work.items), "items_timed": len(records),
                   "outcomes_first_pass": counts, "quality": quality,
                   "item_s_p50": statistics.median(item_s),
                   "item_s_p90": statistics.quantiles(times, n=10)[-1] if len(times) >= 100 else None,
                   "items": [[work.label(item), out["kind"], [round(x, 5) for x in t]]
                             for (item, out), t in zip(pairs, repeats)],
                   "raw_items_per_s": n_items / sum(
                       statistics.median(t) for t in item_times(records, n_items, 3)),
                   "check_errors": errors[:20]})

    if args.trace:
        metrics = per_layer_metrics(work, spans, quality, counts, base_s, traced_s)
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "items_per_s": (len(item_s) / sum(item_s), "1/s"),
            "ok_frac": (sum(work.ok(out) for out in first.values()) / len(first), "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    print(json.dumps({"report": report}, default=float))
    print(json.dumps({
        "correct": not errors,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def per_layer_metrics(work, spans, quality, counts, base_s, traced_s) -> dict:
    layers = spans["layers"]
    m = {}
    for name in LAYERS:
        st = layers[name]
        m[f"{name}.calls"] = (st["calls"], "count")
        m[f"{name}.self_s"] = (st["self_s"], "s")
        if name != "lp.solve":
            m[f"{name}.lp_calls"] = (st["lp_calls"], "count")
    m["lp.solve.infeasible"] = (layers["lp.solve"]["infeasible"], "count")
    m["lp.solve.errors"] = (layers["lp.solve"]["errors"], "count")
    n = len(work.items)
    is_synth = isinstance(work, SynthWorkload)
    fail_frac = sum(c for kind, c in counts.items() if not work.ok({"kind": kind})) / n
    m["synth.synth_polytope.recursions"] = (
        layers["synth.synth_polytope"]["calls"] - (n if is_synth else 0), "count")
    m["synth.pieces"] = (quality["pieces"], "count")
    m["synth.fail_frac"] = (fail_frac if is_synth else 0.0, "ratio")
    m["synth.not_reachable"] = (counts.get("not_reachable", 0), "count")
    for kind in SYNTH_FAIL_KINDS:
        m[f"synth.fail.{kind}"] = (counts.get(kind, 0), "count")
    m["sim.fail_frac"] = (0.0 if is_synth else fail_frac, "ratio")
    for kind in SIM_FAIL_KINDS:
        m[f"sim.outcome.{kind}"] = (counts.get(kind, 0), "count")
    m["sim.steps_per_traj"] = (quality.get("steps_per_traj", 0.0), "count")
    m["sim.closed_loop_t_p50"] = (quality.get("closed_loop_t_p50", 0.0), "sim-s")
    m["quality.pieces_exit_margin_le0"] = (quality["pieces_exit_margin_le0"], "count")
    m["quality.min_slack"] = (quality["min_slack"], "margin")
    m["quality.min_exit_margin"] = (quality["min_exit_margin"], "margin")
    m["trace.overhead_s"] = (traced_s - base_s, "s")
    m["trace.overhead_frac"] = ((traced_s - base_s) / base_s, "ratio")
    m["untyped_exceptions"] = (counts.get(UNTYPED, 0), "count")
    return m


if __name__ == "__main__":
    sys.exit(main())
