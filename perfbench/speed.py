"""Machine-speed sampling for the benchmark's timings.

Other load on the machine slows all Python and small-numpy code alike, by
up to 2.5x, in phases that last from a fraction of a second to minutes.
That moves raw times between runs more than any bound allows.  A
:class:`SpeedSampler` times a fixed calibration kernel, with no reachctl
code in it, every ``SAMPLE_EVERY_S`` seconds of wall time from an
interval-timer signal.  Python runs the handler in the main thread between
bytecodes, so the kernel interleaves with the timed work without a second
thread.  A timed interval's work at reference speed is its wall time, less
the kernel's own time, times the mean speed of the samples taken during it
(speed = ``REFERENCE_KERNEL_S`` / kernel time).
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REFERENCE_KERNEL_S = 2e-3
SAMPLE_EVERY_S = 0.05


def kernel() -> dict:
    """A Python loop of small numpy row updates and dict stores, the mix of
    work reachctl does, with none of its code."""
    rows = (np.arange(200.0).reshape(10, 20) % 7) + 1.0
    seen = {}
    for i in range(60):
        for r in range(10):
            rows[r] = rows[r] * 0.999 + rows[(r + 1) % 10] * 0.001
            seen[(i, r)] = float(rows[r, 0])
    return seen


class SpeedSampler:
    """Context manager that samples the machine's speed while it is open.

    ``mark()`` returns a position; ``scaled(start, end, wall_s)`` turns the
    wall time measured between two marks into seconds at reference speed.
    """

    def __init__(self):
        self.speeds: list[float] = []
        self.spent_s = 0.0          # wall time taken by the kernel itself
        self._previous = None

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.speeds.append(REFERENCE_KERNEL_S / dt)
        self.spent_s += dt

    def start(self) -> "SpeedSampler":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def __enter__(self) -> "SpeedSampler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def mark(self) -> tuple[int, float]:
        return len(self.speeds), self.spent_s

    def scaled(self, start: tuple[int, float], end: tuple[int, float], wall_s: float) -> float:
        """Seconds at reference speed of the work between two marks: the
        samples taken inside the interval and the one on each side of it,
        so that a short interval with no sample of its own still has two."""
        lo, hi = max(start[0] - 1, 0), min(end[0] + 1, len(self.speeds))
        return (wall_s - (end[1] - start[1])) * statistics.fmean(self.speeds[lo:hi])

    def mean_speed(self) -> float:
        return statistics.fmean(self.speeds)
