"""Alternating benchmark pairs of two checkouts, read by the rule for
claiming a gain: at least nine tenths of the pairs won, and medians that
differ by more than the distance between the parent's quartiles.

    python tests/ab_pairs.py PARENT CHANGE --workload W [--pairs 10] [--seconds 30]
                             [--seed S] [--metric items_per_s]

PARENT and CHANGE are the roots of two checkouts.  Each pair runs
``perfbench/run.py`` of both, one after the other, the parent first on
even pairs and the change first on odd ones, and parses the last line
each run prints.  It prints, per pair, every end-to-end metric of both
runs with their ``attempted`` and ``correct``; then, per side and metric,
the median, quartiles, min and max; then, for the named metric, the
change's wins (ties count for neither side) and whether its median moved
by more than the parent's interquartile range.  Which way is better is
read from the parent's ``BENCHMARK.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one benchmark run in the checkout at ``root``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds)],
                         cwd=root, env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float, float]:
    """Median, lower and upper quartile, min and max."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, min(values), max(values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--metric", default="items_per_s")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("quartiles need at least 2 pairs")
    bench = json.loads((args.parent / "BENCHMARK.json").read_text())
    higher = {m["name"]: m["better"] == "higher" for m in bench["end_to_end"]}
    if args.metric not in higher:
        ap.error(f"--metric must be one of {sorted(higher)}")
    roots = dict(zip(SIDES, (args.parent, args.change)))

    values = {side: {name: [] for name in higher} for side in SIDES}
    wins = losses = 0
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        got = {side: run_once(roots[side], args.workload, args.seed, args.seconds)
               for side in order}
        for side in SIDES:
            metrics = got[side]["metrics"]
            for name in higher:
                values[side][name].append(metrics[name]["value"])
            print(f"pair {pair} {side:6} " + " ".join(
                f"{name}={metrics[name]['value']:.4g}" for name in higher)
                + f" attempted={got[side]['attempted']} correct={got[side]['correct']}",
                flush=True)
        a, b = (values[side][args.metric][-1] for side in SIDES)
        wins += (b > a) if higher[args.metric] else (b < a)
        losses += (b < a) if higher[args.metric] else (b > a)

    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs")
    for name in higher:
        for side in SIDES:
            median, q1, q3, lo, hi = spread(values[side][name])
            print(f"{name:12} {side:6} median {median:.4g} quartiles {q1:.4g}-{q3:.4g} "
                  f"min {lo:.4g} max {hi:.4g}")
    (pm, pq1, pq3, _, _), (cm, _, _, _, _) = (spread(values[side][args.metric]) for side in SIDES)
    print(f"{args.metric}: change wins {wins} of {args.pairs} pairs ({losses} lost); "
          f"medians {pm:.4g} -> {cm:.4g} ({100 * (cm - pm) / pm:+.1f} %), "
          f"|difference| {abs(cm - pm):.4g} "
          f"{'>' if abs(cm - pm) > pq3 - pq1 else '<='} parent IQR {pq3 - pq1:.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
