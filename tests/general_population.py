"""Outcome counts over the general population of ``helpers.general_problem``:
problems r < 120 at n = 3 and r < 60 at n = 4, each a standard normal
system with n - 1 inputs on a random hull around its equilibrium plane.
Run from the repository's root:

    PYTHONPATH=src python tests/general_population.py [--n N ...] [--list]

For each n it synthesizes every problem and prints the synthesis
outcomes (a controller or the error's type), then runs ``sim.verify``
with 20 starts (seed 0) on each controller and prints the closed-loop
outcomes summed over them.  With ``--list`` it also prints each run
that does not reach the target as (n, r, sample) and its outcome.  Both
are deterministic; the full population takes about 16 s.
"""

import argparse
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from helpers import general_problem  # noqa: E402
from reachctl import sim, synth  # noqa: E402
from reachctl.errors import ReachctlError  # noqa: E402

SIZES = {3: 120, 4: 60}


def population(n: int) -> tuple[Counter, Counter, list]:
    """The synthesis and verify outcome counts at dimension n, and the
    runs that do not reach the target as ((n, r, sample), outcome)."""
    synthesis, runs, misses = Counter(), Counter(), []
    for r in range(SIZES[n]):
        sys_, p, f = general_problem(n, r)
        try:
            ctrl = synth.synth_polytope(sys_, p, f)
        except ReachctlError as exc:
            synthesis[type(exc).__name__] += 1
            continue
        synthesis["controller"] += 1
        report = sim.verify(sys_, ctrl, f, nsamples=20, seed=0)
        runs.update(report.outcomes)
        misses += [((n, r, i), report.outcomes[i]) for i in report.failures]
    return synthesis, runs, misses


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, nargs="*", choices=sorted(SIZES), default=sorted(SIZES))
    ap.add_argument("--list", action="store_true")
    args = ap.parse_args(argv)
    for n in args.n:
        synthesis, runs, misses = population(n)
        print(f"n = {n}, {SIZES[n]} problems: synthesis {dict(sorted(synthesis.items()))}; "
              f"verify {dict(sorted(runs.items()))}")
        if args.list:
            for key, outcome in misses:
                print(f"  {key} {outcome}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
