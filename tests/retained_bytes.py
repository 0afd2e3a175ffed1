"""Retained memory per kept output of the benchmark's workloads, as
``perfbench/run.py`` keeps them: every output of every pass stays in a
record list to the end of the run.  Run from the repository's root:

    PYTHONPATH=src python tests/retained_bytes.py [WORKLOAD ...] [--seed S] [--passes K]

For each workload (all three by default) it builds the workload as the
benchmark does, runs one warm pass whose outputs it drops, and then K
passes (5 by default) under tracemalloc, keeping each output in a
record as the benchmark's loop does.  It prints the bytes still held
after the passes, per kept item and, for the synthesis workloads, per
piece of the kept controllers.  Only the repeats are measured: the
benchmark checks (and so locates) the outputs of its first pass alone,
so a kept repeat is a controller that was never located.  ``verify``
keeps small outcome records, and its controllers, built in set-up, are
not counted.
"""

import argparse
import gc
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402  (imports reachctl from this checkout's sources)


def retained(name: str, seed: int, passes: int) -> dict:
    """Bytes held after ``passes`` kept passes of one workload, with the
    number of kept items and of pieces in their controllers."""
    work = run.WORKLOADS[name](name, seed, run.SCALES["full"])
    for item in work.items:
        run._run_one(work, item)
    records = []
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        clock = time.perf_counter
        for _ in range(passes):
            for k, item in enumerate(work.items):
                t0 = clock()
                out = run._run_one(work, item)
                records.append((k, clock() - t0, out, t0, clock()))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    pieces = sum(rec[2].get("pieces", 0) for rec in records)
    return {"items": len(records), "pieces": pieces, "bytes": held}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                    help=f"any of {', '.join(sorted(run.WORKLOADS))} (default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--passes", type=int, default=5)
    args = ap.parse_args(argv)
    unknown = set(args.workloads) - set(run.WORKLOADS)
    if unknown:
        ap.error(f"unknown workloads: {', '.join(sorted(unknown))}")
    for name in args.workloads or sorted(run.WORKLOADS):
        r = retained(name, args.seed, args.passes)
        line = f"{name}: {r['bytes'] / r['items']:,.0f} B per kept item ({r['items']} items"
        if r["pieces"]:
            line += (f", {r['pieces'] / r['items']:.1f} pieces each); "
                     f"{r['bytes'] / r['pieces']:,.0f} B per piece")
        else:
            line += ")"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
