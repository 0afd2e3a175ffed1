"""One sha256 over every output of the benchmark's problem sets at seeds
1-3: each synthesis item of ``synth2d`` and ``synth3d`` and each closed-loop
run of ``verify``, built from ``perfbench/problems.py`` as the benchmark
builds them.  Two checkouts whose digests agree produce the same outputs
bit for bit.  Run from the repository's root:

    PYTHONPATH=src python tests/output_digest.py [WORKLOAD ...] [--save PATH] [--against PATH]

It prints one line per workload (its digest and outcome counts) and, with
no workload named, the digest of all three; naming workloads (``verify``,
say, which takes about a second) prints only theirs.  ``main`` returns
the counts, which ``tests/test_output_digest.py`` pins.  A synthesis item
hashes its outcome kind (and, for an error, its message) or, for a
controller, its stacked region table, laws, exit facets, ranks, path
lengths, sub-ranks, slacks, exit margins, domain (vertices and facet rows)
and notes; a run hashes its times, states, controls, piece ids, outcome
and deepest violation.

When digests differ, the two flags tell by how much.  ``--save PATH``
writes every output hashed to a JSON file; ``--against PATH`` compares
the outputs with such a file, saved from another checkout, and prints,
per workload, the items whose structure differs (kind, message, piece
count, exits, ranks, path lengths, notes; for a run, its outcome and
piece ids) and, over the other items, the largest relative difference
(max |a - b| over max |b|) of each float output (tables, laws, slacks,
margins and domain rows; for a run, its times and states), with the item
that has it.
"""

import argparse
import hashlib
import json
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


def synth_record(pr) -> dict:
    """Every output of one synthesis item that the digest hashes, by name:
    its outcome kind and, for an error, its message, or a controller's
    region table, piece order, domain and notes, with each piece's law,
    exit facet, ranks, path length, index, slack and exit margin."""
    try:
        ctrl = synth.synth_polytope(pr.sys, pr.p, pr.f, eps=pr.eps)
    except ReachctlError as exc:
        return {"name": pr.name, "kind": type(exc).__name__, "message": str(exc)}
    d = ctrl.domain
    rows = np.array([np.append(hs.normal, hs.offset) for hs in d.halfspaces]).reshape(-1, d.n + 1)
    return {"name": pr.name, "kind": "controller", "table": ctrl._table, "order": ctrl._order,
            "vertices": d.vertices, "dim": d.dim, "rows": rows, "notes": tuple(ctrl.notes),
            "pieces": [{"law": pc.law, "exit_facet": pc.exit_facet, "rank": pc.rank,
                        "path_len": pc.path_len, "sub_rank": pc.sub_rank, "index": pc.index,
                        "slack": float(pc.slack).hex(),
                        "exit_margin": float(pc.exit_margin).hex()} for pc in ctrl.pieces]}


def _feed_synth(h, rec: dict) -> None:
    if rec["kind"] != "controller":
        _feed(h, rec["name"], rec["kind"], rec["message"])
        return
    _feed(h, rec["name"], "controller", rec["table"], rec["order"], rec["vertices"], rec["dim"],
          rec["rows"], rec["notes"])
    for pc in rec["pieces"]:
        _feed(h, pc["law"], pc["exit_facet"], pc["rank"], pc["path_len"], pc["sub_rank"],
              pc["index"], pc["slack"], pc["exit_margin"])


def verify_records(seed: int) -> list:
    """Every output of each closed-loop run at ``seed`` that the digest
    hashes, by name: the fixture, the start, the times, states, controls
    and piece ids, the outcome's kind, time and facet, and the deepest
    violation."""
    fixtures = {pr.name: pr for pr in problems.fixtures_2d()}
    fixtures["cube"] = problems.unit_cube()
    rng = np.random.default_rng([seed, STREAMS["verify"]])
    out = []
    for cname, count in STARTS.items():
        pr = fixtures[cname]
        ctrl = synth.synth_polytope(pr.sys, pr.p, pr.f)
        for x0 in problems.jittered_starts(rng, ctrl.domain, count):
            tr = sim.integrate(pr.sys, ctrl, x0, f=pr.f, domain=ctrl.domain)
            out.append({"name": cname, "x0": x0, "times": tr.times, "states": tr.states,
                        "controls": tr.controls, "piece_ids": tr.piece_ids,
                        "kind": tr.outcome.kind, "time": float(tr.outcome.time).hex(),
                        "facet": tr.outcome.facet,
                        "max_violation": float(tr.max_violation).hex()})
    return out


def _feed_run(h, rec: dict) -> None:
    _feed(h, *(rec[key] for key in ("name", "x0", "times", "states", "controls", "piece_ids",
                                    "kind", "time", "facet", "max_violation")))


# the fields whose change a comparison lists per item, and the arrays it
# reads the largest relative difference of, per workload kind
STRUCTURE = {"synth": ("kind", "message", "order", "dim", "notes"),
             "piece": ("exit_facet", "rank", "path_len", "sub_rank", "index"),
             "verify": ("kind", "facet", "piece_ids")}
FLOATS = {"synth": ("table", "vertices", "rows"), "piece": ("law", "slack", "exit_margin"),
          "verify": ("times", "states")}


def _plain(value):
    """A record as JSON holds it: arrays as nested lists, numpy scalars as
    Python numbers, tuples as lists."""
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    return value


def _number(value) -> np.ndarray:
    """A float field of a plain record as an array: hex strings are read
    back exactly."""
    if isinstance(value, str):
        return np.array(float.fromhex(value))
    return np.asarray(value, dtype=float)


def _relative(a, b) -> float:
    """max |a - b| over max |b| of two fields of one shape, inf for two
    shapes."""
    a, b = _number(a), _number(b)
    if a.shape != b.shape:
        return np.inf
    if not a.size:
        return 0.0
    scale = np.abs(b).max()
    gap = np.abs(a - b).max()
    return float(gap / scale) if scale > 0 else float(gap)


def compare(name: str, current: list, saved: list) -> list[str]:
    """The lines that tell how the plain records of one workload differ
    from the saved ones, item by item: each item whose structure differs,
    with the fields, and per float field the largest relative difference
    of the items of equal structure, with the item that has it."""
    kind = "verify" if name == "verify" else "synth"
    lines, worst, moved = [], {}, set()
    if len(current) != len(saved):
        lines.append(f"{name}: {len(current)} items, {len(saved)} saved")
    for i, (cur, old) in enumerate(zip(current, saved)):
        item = f"{i} {cur['seed']}:{cur['name']}"
        fields = [key for key in ("name", *STRUCTURE[kind]) if cur.get(key) != old.get(key)]
        pairs = [(kind, cur, old)]
        if kind == "synth":
            if len(cur.get("pieces", ())) != len(old.get("pieces", ())):
                fields.append("piece count")
            else:
                pieces = list(zip(cur.get("pieces", ()), old.get("pieces", ())))
                fields += sorted({key for a, b in pieces for key in STRUCTURE["piece"]
                                  if a[key] != b[key]})
                pairs += [("piece", a, b) for a, b in pieces]
        if fields:
            lines.append(f"{name}: item {item} differs in {', '.join(fields)}")
            continue
        for group, a, b in pairs:
            for key in FLOATS[group]:
                if key in a:
                    gap = _relative(a[key], b[key])
                    if gap > 0.0:
                        moved.add(i)
                    if gap > worst.get(key, (0.0,))[0]:
                        worst[key] = (gap, item)
    lines.append(f"{name}: {len(moved)} of {min(len(current), len(saved))} items "
                 "move float bits")
    for key in FLOATS[kind] + (FLOATS["piece"] if kind == "synth" else ()):
        gap, item = worst.get(key, (0.0, None))
        lines.append(f"{name}: largest relative difference of {key}: {gap:.3g}"
                     + (f" (item {item})" if item else ""))
    return lines


WORKLOADS = ("synth2d", "synth3d", "verify")


def main(names=WORKLOADS, save=None, against=None) -> dict:
    """Print the digests of the named workloads, and of all three when
    all are named, and return each named workload's outcome counts.
    With ``save``, write every output hashed to that JSON file; with
    ``against``, a file so written (by another checkout, say), print how
    the outputs differ from it."""
    unknown = set(names) - set(WORKLOADS)
    if unknown:
        raise SystemExit(f"unknown workloads {sorted(unknown)}; choose from {WORKLOADS}")
    total = hashlib.sha256()
    outcomes, records = {}, {}
    for name in WORKLOADS:
        if name not in names:
            continue
        h = hashlib.sha256()
        counts = Counter()
        records[name] = []
        for seed in SEEDS:
            if name == "verify":
                recs = verify_records(seed)
                for rec in recs:
                    _feed_run(h, rec)
            else:
                recs = [synth_record(pr) for pr in synth_items(name, seed)]
                for rec in recs:
                    _feed_synth(h, rec)
            counts.update(rec["kind"] for rec in recs)
            records[name] += [_plain({"seed": seed, **rec}) for rec in recs]
        outcomes[name] = dict(sorted(counts.items()))
        print(f"{name}: {h.hexdigest()} {outcomes[name]}")
        total.update(h.digest())
    if set(names) == set(WORKLOADS):
        print(f"all: {total.hexdigest()}")
    if save:
        Path(save).write_text(json.dumps(records))
    if against:
        saved = json.loads(Path(against).read_text())
        for name, recs in records.items():
            if name not in saved:
                print(f"{name}: not in {against}")
                continue
            for line in compare(name, recs, saved[name]):
                print(line)
    return outcomes


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Digest the benchmark's outputs at seeds 1-3.")
    parser.add_argument("workloads", nargs="*", help=f"any of {', '.join(WORKLOADS)}")
    parser.add_argument("--save", help="write every output hashed to this JSON file")
    parser.add_argument("--against", help="compare the outputs with a file --save wrote")
    args = parser.parse_args()
    main(tuple(args.workloads) or WORKLOADS, args.save, args.against)
