"""One sha256 over every output of the benchmark's problem sets at seeds
1-3: each synthesis item of ``synth2d`` and ``synth3d`` and each closed-loop
run of ``verify``, built from ``perfbench/problems.py`` as the benchmark
builds them.  Two checkouts whose digests agree produce the same outputs
bit for bit.  Run from the repository's root:

    PYTHONPATH=src python tests/output_digest.py [WORKLOAD ...]

It prints one line per workload (its digest and outcome counts) and, with
no workload named, the digest of all three; naming workloads (``verify``,
say, which takes about a second) prints only theirs.  ``main`` returns
the counts, which ``tests/test_output_digest.py`` pins.  A synthesis item hashes its outcome kind (and, for an
error, its message) or, for a controller, its stacked region table, laws,
exit facets, ranks, path lengths, sub-ranks, slacks, exit margins, domain
(vertices and facet rows) and notes; a run hashes its times, states,
controls, piece ids, outcome and deepest violation.
"""

import hashlib
import sys
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import problems  # noqa: E402
from reachctl import sim, synth  # noqa: E402
from reachctl.errors import ReachctlError  # noqa: E402

SEEDS = (1, 2, 3)
# the benchmark's full scale: random polygons, hulls per dimension and
# closed-loop starts per fixture (in the order they draw from the stream)
RANDOM_2D, HULLS = 60, {3: 4, 4: 1}
STARTS = {"box": 3, "pinned": 3, "cube": 1, "wedge": 2}
# numpy default_rng([seed, stream]) keys of the benchmark's input streams
STREAMS = {"synth2d": 0, "synth3d": 1, "verify": 2}


def _feed(h, *parts) -> None:
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(repr((part.dtype.str, part.shape)).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")


def synth_items(name: str, seed: int) -> list:
    rng = np.random.default_rng([seed, STREAMS[name]])
    if name == "synth2d":
        return problems.fixtures_2d() + problems.random_2d(rng, RANDOM_2D)
    return (problems.fixtures_nd() + problems.scaled_hulls(rng, 3, HULLS[3])
            + problems.scaled_hulls(rng, 4, HULLS[4]))


def synth_output(h, pr) -> str:
    try:
        ctrl = synth.synth_polytope(pr.sys, pr.p, pr.f, eps=pr.eps)
    except ReachctlError as exc:
        _feed(h, pr.name, type(exc).__name__, str(exc))
        return type(exc).__name__
    d = ctrl.domain
    _feed(h, pr.name, "controller", ctrl._table, ctrl._order, d.vertices, d.dim,
          np.array([np.append(hs.normal, hs.offset) for hs in d.halfspaces]).reshape(-1, d.n + 1),
          tuple(ctrl.notes))
    for pc in ctrl.pieces:
        _feed(h, pc.law, pc.exit_facet, pc.rank, pc.path_len, pc.sub_rank, pc.index,
              float(pc.slack).hex(), float(pc.exit_margin).hex())
    return "controller"


def verify_runs(h, seed: int) -> Counter:
    fixtures = {pr.name: pr for pr in problems.fixtures_2d()}
    fixtures["cube"] = problems.unit_cube()
    rng = np.random.default_rng([seed, STREAMS["verify"]])
    counts = Counter()
    for cname, count in STARTS.items():
        pr = fixtures[cname]
        ctrl = synth.synth_polytope(pr.sys, pr.p, pr.f)
        for x0 in problems.jittered_starts(rng, ctrl.domain, count):
            tr = sim.integrate(pr.sys, ctrl, x0, f=pr.f, domain=ctrl.domain)
            _feed(h, cname, x0, tr.times, tr.states, tr.controls, tr.piece_ids,
                  tr.outcome.kind, float(tr.outcome.time).hex(), tr.outcome.facet,
                  float(tr.max_violation).hex())
            counts[tr.outcome.kind] += 1
    return counts


WORKLOADS = ("synth2d", "synth3d", "verify")


def main(names=WORKLOADS) -> dict:
    """Print the digests of the named workloads, and of all three when
    all are named, and return each named workload's outcome counts."""
    unknown = set(names) - set(WORKLOADS)
    if unknown:
        raise SystemExit(f"unknown workloads {sorted(unknown)}; choose from {WORKLOADS}")
    total = hashlib.sha256()
    outcomes = {}
    for name in WORKLOADS:
        if name not in names:
            continue
        h = hashlib.sha256()
        counts = Counter()
        for seed in SEEDS:
            if name == "verify":
                counts += verify_runs(h, seed)
            else:
                counts.update(synth_output(h, pr) for pr in synth_items(name, seed))
        outcomes[name] = dict(sorted(counts.items()))
        print(f"{name}: {h.hexdigest()} {outcomes[name]}")
        total.update(h.digest())
    if set(names) == set(WORKLOADS):
        print(f"all: {total.hexdigest()}")
    return outcomes


if __name__ == "__main__":
    main(tuple(sys.argv[1:]) or WORKLOADS)
