"""Closed-loop integration with boundary-event detection, and sampled
verification of synthesized controllers.

``integrate`` takes fixed RK4 steps of length dt and tests every state:
is it inside the domain, on the target face, and which piece holds it.
It takes them in blocks.  On one piece the closed loop is affine, so k
RK4 steps from x are one affine map x -> x + D_k x + c_k.  A piece's maps
are built by doubling, stacked as a (k n, n) array of the D_k and a
(k, n) array of the c_k, and extended by the same doubling only when a
longer block needs them, so the maps already built never change.  A
block is one matrix-vector product of that stack with its first state,
and each of the three tests reads only the rows that can end the block:
the domain's facet rows (``Polytope.rows``) on every state; the rows of
the active piece and of the pieces preferred over it
(``PWAController.departure``), as only those can change a state's
preferred piece, and ``PWAController.locate`` on the one state where
the active piece's stretch ends; and the target face's exclusion rows
(``Polytope.exclusion``), those of its affine hull on every state and
the others only on the states near its plane
(``HullRows.excludes_plane_first``).  A block is _BLOCK steps after the
start and after each piece switch, and doubles after each block that
ends with no event, up to _BLOCK_CAP.  The horizon is tested on a
block's last full step, and step by step only on the block that passes
it.

A run builds only what decides it: its tests' verdicts, the deepest
violation and the outcome.  Of its states and times it keeps the views
of each block's kept rows, and of its pieces one stretch (first row, row
count, piece) per block and per domain exit's step.  Its ``Trajectory``
derives its times, states, piece ids and controls from those when each
is first read, so a caller that reads only outcomes, as ``verify``
does, builds none of them.

The domain and the face keep their rows, and the controller derives
its facet rows (``PWAController._table``) on its first read, so the
first ``locate`` or ``departure`` of a controller's first run derives
them, once per controller; what depends on the controller and the
system alone is built once, in a runner (``_Runner``) that the
controller holds (``PWAController.runners``) and every run reuses: each
piece's closed loop, the default step, and, on first use, per step dt
each piece's step maps (at most _BLOCK_CAP of them).  Since maps are only
ever extended, a run's steps are the same bit for bit whichever runs
came before it on the controller.

The face's exclusion rows are ``point_in_hull``'s closed-form "out"
(``geometry.hull_rows``): they rule out with no LP only states more than
TOL_SIM (inf-norm) outside the face; every other state goes, in step
order, to the face's ``contains``, whose closed-form certificates or LP
give the verdict on the same kept rows.  The block is kept up to its
first event, exactly where a run of single steps would have stopped or
switched piece, so the same steps are taken and tested; states differ
from single steps only by rounding.  A step that leaves the domain is
bisected on its own polynomial: one RK4 step of length s on an affine
loop is a quartic in s, so each facet's violation along it is a quartic
whose coefficients are computed once, and each halving stops at the
first facet whose quartic is positive.  Unless it ends on the target,
the same step is bisected on the active piece's rows too: where the
domain's boundary is no facet of the piece, the closed-loop field may
point out of the domain there while the piece drains through its exit
facet, and a step can cross both.  If it leaves the piece first for
another, the run goes on from that state.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import Degenerate
from .geometry import TOL_GEOM, Face, Polytope
from .synth import PWAController, closed_loop
from .system import AffineSystem

TOL_SIM = 1e-6
_EVENT_TIME_TOL = 1e-10
_BLOCK = 256             # steps of a block at the start and after a piece switch
_BLOCK_CAP = 8 * _BLOCK  # longest block, reached by doubling on one piece
_SAMPLE_BATCHES = 1000   # rejection-sampling batches before a polytope counts as too thin

REACHED = "reached_target"
LEFT = "left_domain"
TIMEOUT = "timeout"
GAP = "controller_gap"


@dataclass(frozen=True)
class Outcome:
    kind: str
    time: float
    facet: Optional[int] = None


@dataclass
class Trajectory:
    """One closed-loop run: its ``outcome`` and its deepest domain
    violation, and, derived on read, its ``times`` and ``states``, row by
    row, and the piece whose law acts at each state (``piece_ids``, -1 on
    the last state of a run that times out or finds no piece).

    A run keeps, per block of steps, only what it computed: the views of
    its kept times and states (``time_chunks``, ``state_chunks``) and one
    stretch (first row, row count, piece) per block and per domain exit's
    step (``stretches``), with the id of its last state (``last_id``).
    ``times`` and ``states`` are their chunks concatenated and
    ``piece_ids`` each stretch's piece over its rows, then ``last_id``;
    each is built on its first read and kept, and its chunks dropped, so
    a run that is only folded into a report builds none of them.

    ``controls`` are derived the same way.  A stretch's rows are one
    product, ``states[i:i + k] @ gain.T + offset`` under its piece's law,
    of the states its steps start from; stretches are not merged, since
    numpy can round a row of a one-row product differently from the same
    row of a longer one.  The last state's row is the law of ``last_id``
    at it, or zeros where that id is -1.  ``laws`` is the controller's
    law stack (``PWAController.laws``) and ``m`` the input dimension."""
    outcome: Outcome
    max_violation: float
    laws: np.ndarray = field(repr=False)
    stretches: list = field(repr=False)
    last_id: int = field(repr=False)
    m: int = field(repr=False)
    time_chunks: Optional[list] = field(repr=False)
    state_chunks: Optional[list] = field(repr=False)

    @property
    def success(self) -> bool:
        return self.outcome.kind == REACHED

    @cached_property
    def times(self) -> np.ndarray:
        times, self.time_chunks = np.concatenate(self.time_chunks), None
        return times

    @cached_property
    def states(self) -> np.ndarray:
        states, self.state_chunks = np.concatenate(self.state_chunks), None
        return states

    @cached_property
    def piece_ids(self) -> np.ndarray:
        rows = np.array(self.stretches, dtype=int).reshape(-1, 3)
        return np.append(np.repeat(rows[:, 2], rows[:, 1]), self.last_id)

    @cached_property
    def controls(self) -> np.ndarray:
        rows = []
        for first, count, piece in self.stretches:
            law = self.laws[piece]
            rows.append(self.states[first:first + count] @ law[:, :-1].T + law[:, -1])
        if self.last_id >= 0:
            law = self.laws[self.last_id]
            rows.append((self.states[-1] @ law[:, :-1].T + law[:, -1])[None])
        else:
            rows.append(np.zeros((1, self.m)))
        return np.concatenate(rows)


def _rk4_step(A_cl: np.ndarray, b_cl: np.ndarray, x: np.ndarray, h: float) -> np.ndarray:
    """One RK4 step of length h from x on x' = A_cl x + b_cl, taken as
    blocks take theirs: x + (D x + c) of its ``_step_map``."""
    D, c = _step_map(A_cl, b_cl, h)
    return x + (D @ x + c[0])


def default_dt(sys: AffineSystem, ctrl: PWAController) -> float:
    """Step scaled to cross the domain in about a thousand steps at the
    fastest vertex speed: the step of the controller's runner."""
    return _runner(sys, ctrl).dt


def _default_step(ctrl: PWAController, loops) -> float:
    """``default_dt`` from the pieces' closed loops (A_cl, b_cl), once
    per runner."""
    lo, hi = ctrl.domain.bounding_box()
    extent = float(np.linalg.norm(hi - lo))
    vmax = 0.0
    for k, (A_cl, b_cl) in enumerate(loops):
        vmax = max(vmax, np.linalg.norm(ctrl.region(k).vertices @ A_cl.T + b_cl, axis=1).max())
    return 1e-3 * extent / max(float(vmax), 1e-9)


def _step_map(A_cl: np.ndarray, b_cl: np.ndarray, h: float):
    """The map x -> x + D x + c of one RK4 step of length h on
    x' = A_cl x + b_cl, as the stacks (D, c) of one map: an affine field
    gives D = hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24 and
    c = h (I + hA/2 + (hA)^2/6 + (hA)^3/24) b."""
    hA = h * A_cl
    hA2 = hA @ hA
    hA3 = hA2 @ hA
    D = hA + hA2 / 2.0 + hA3 / 6.0 + hA3 @ hA / 24.0
    c = h * (b_cl + hA @ b_cl / 2.0 + hA2 @ b_cl / 6.0 + hA3 @ b_cl / 24.0)
    return D, c[None]


def _doubled(D: np.ndarray, c: np.ndarray):
    """The maps of j = 1 .. 2k steps from those of j = 1 .. k, stacked as
    D of shape (k n, n) and c of shape (k, n); the first k are kept as
    they are.

    On the augmented matrices E = [[D, c], [0, 0]] of the increments,
    (I + E_j)(I + E_k) = I + E_j + E_k + E_j E_k, so map j + k is
    D_j + D_k + D_j D_k with offset c_j + c_k + D_j c_k: one product of
    the stack with [D_k | c_k].  The identity is kept apart so that the
    small increments keep their precision over many steps."""
    k, n = c.shape
    last_D, last_c = D[-n:], c[-1]
    prod = D @ np.concatenate([last_D, last_c[:, None]], axis=1)
    more_D = (D.reshape(k, n, n) + last_D).reshape(k * n, n) + prod[:, :n]
    more_c = c + last_c + prod[:, n].reshape(k, n)
    return np.concatenate([D, more_D]), np.concatenate([c, more_c])


class _Runner:
    """What every run of one controller under one system shares, and
    nothing else: each piece's closed loop ``loops``, from the
    controller's law stack, and the default step ``dt``, built on a run's
    first use (``_runner``, keyed by the system's identity in
    ``PWAController.runners``), and, per step dt keyed by value, each
    piece's stacked RK4 maps (``step_maps``), filled as runs need them."""

    def __init__(self, sys: AffineSystem, ctrl: PWAController):
        self.loops = list(zip(*closed_loop(sys, ctrl.laws)))
        self.dt = _default_step(ctrl, self.loops)
        self.maps = {}

    def step_maps(self, dt: float, piece: int, nsteps: int):
        """The stacked maps (D, c) of j = 1 .. k RK4 steps of length dt on
        the piece's closed loop, k >= nsteps; doubled only when nsteps
        needs more than are built, so k never passes _BLOCK_CAP."""
        per_piece = self.maps.setdefault(dt, [None] * len(self.loops))
        if per_piece[piece] is None:
            per_piece[piece] = _step_map(*self.loops[piece], dt)
        D, c = per_piece[piece]
        while len(c) < nsteps:
            D, c = per_piece[piece] = _doubled(D, c)
        return D, c


def _runner(sys: AffineSystem, ctrl: PWAController) -> _Runner:
    """The controller's runner for ``sys``, kept with ``sys`` so that the
    id it is keyed by cannot be reused."""
    entry = ctrl.runners.get(id(sys))
    if entry is None:
        entry = ctrl.runners[id(sys)] = (sys, _Runner(sys, ctrl))
    return entry[1]


def _exit_time(normals: np.ndarray, offs: np.ndarray, A_cl: np.ndarray, b_cl: np.ndarray,
               x: np.ndarray, h: float) -> float:
    """The time in (0, h] at which one RK4 step from x leaves
    ``normals y <= offs``, bisected to _EVENT_TIME_TOL: the bracket's
    upper end, where the step violates a facet.

    A step of length s is x + sum_{k=1..4} s^k A^(k-1) (A x + b) / k!,
    so each facet's violation is a quartic in s: its coefficients are
    computed once, and each bisection point costs one Horner pass per
    facet up to the first that is positive.  The facets go most violated
    at h first, so a point past the crossing mostly costs one pass."""
    terms = [A_cl @ x + b_cl]
    for k in (2, 3, 4):
        terms.append(A_cl @ terms[-1] / k)
    # per facet, the coefficients of s^4, s^3, s^2, s and 1
    coeffs = np.column_stack([normals @ np.array(terms[::-1]).T, normals @ x - offs])
    quartics = coeffs[np.argsort(-(coeffs @ h ** np.arange(4.0, -1.0, -1.0)))].tolist()
    lo_t, hi_t = 0.0, h
    while hi_t - lo_t > _EVENT_TIME_TOL:
        s = 0.5 * (lo_t + hi_t)
        if any((((a * s + b) * s + c) * s + d) * s + e > 0.0 for a, b, c, d, e in quartics):
            hi_t = s
        else:
            lo_t = s
    return hi_t


def integrate(sys: AffineSystem, ctrl: PWAController, x0, dt: Optional[float] = None,
              tmax: Optional[float] = None, f: Optional[Face] = None,
              domain: Optional[Polytope] = None) -> Trajectory:
    """Fixed-step RK4 closed-loop run, with the active piece re-resolved
    after every step; the first boundary crossing is bisected in time and
    classified as reaching the target or leaving the domain.

    The run advances in blocks on the piece that holds the block's first
    state: every step of the block is the same RK4 step of length dt,
    taken as one affine map of a stack (``_step_map``, ``_doubled``) in
    one matrix-vector product, and every state is tested (domain, target,
    piece) as if stepped alone.  The block is kept up to its first event,
    a step that leaves the domain, a state on the target or a state whose
    preferred piece is another one, and the run goes on from there.  The
    piece test is ``PWAController.departure``: a state's preferred piece
    changes only where the active piece stops holding it or a piece
    preferred over it starts to, so only those pieces' rows are read,
    and ``locate`` resolves the one state where the stretch ends.  The
    target test reads the face's affine-hull rows on every state and its
    other exclusion rows only on the states those leave open
    (``HullRows.excludes_plane_first``).  A block is _BLOCK steps at the
    start and after a piece switch, and twice the last one, up to
    _BLOCK_CAP, after a block with no event.  Times are summed step by
    step, as ``t += dt``; they only rise, so a block whose last full step
    ends by tmax takes every step, and only the block that passes tmax
    tests its steps one by one.  A domain exit is bisected on the step's
    quartic (``_exit_time``) and its state is one ``_rk4_step``; so is a
    last step shorter than dt, before tmax.  Unless that state is on the
    target, the step is bisected on the active piece's rows as well,
    their offsets raised by TOL_SIM as ``departure`` reads them; if it
    leaves the piece first and ``locate`` puts the state there on
    another piece, the run records that state and goes on from it, so
    each such switch advances t.  Otherwise the run has left the domain.

    The closed loops, the default step and the step maps for dt come from
    the controller's runner for ``sys``, and the rows of the domain and
    the face from those; each is built by the first run that needs it, so
    a run itself builds only its tests' verdicts and its outcome.  It
    keeps each block's kept times and states as views, records which
    piece's law acted on which rows, and hands those to its
    ``Trajectory``, which derives its times, states, piece ids and
    controls when each is first read.

    A state with no containing piece ends the run with a gap outcome
    rather than extrapolating.  Raises ValueError unless dt is finite and
    positive and tmax finite and not negative.
    """
    domain = domain if domain is not None else ctrl.domain
    run = _runner(sys, ctrl)
    if dt is None:
        dt = run.dt
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"step dt must be finite and positive, got {dt}")
    normals, offs = domain.rows
    if tmax is None:
        lo, hi = domain.bounding_box()
        tmax = 1e4 * dt * max(1.0, float(np.linalg.norm(hi - lo)))
    if not (math.isfinite(tmax) and tmax >= 0.0):
        raise ValueError(f"horizon tmax must be finite and not negative, got {tmax}")
    x = np.asarray(x0, dtype=float).copy()
    n = len(x)

    def first_hit(X) -> Optional[int]:
        """Position of the first state of X on the target, in order."""
        if f is None:
            return None
        for j in np.flatnonzero(~f.exclusion.excludes_plane_first(X, TOL_SIM)):
            if f.contains(X[j], TOL_SIM):
                return int(j)
        return None

    times, states, stretches = [np.zeros(1)], [x[None]], []
    row = 0  # the row of x in the run's states
    max_viol = max(float((normals @ x - offs).max()), 0.0)
    active = int(ctrl.locate(x[None], TOL_SIM)[0])

    def finish(outcome, last_id):
        return Trajectory(outcome, max_viol, ctrl.laws, stretches, last_id, sys.m, times, states)

    if first_hit(x[None]) is not None:
        return finish(Outcome(REACHED, 0.0), active)

    block = _BLOCK
    t = 0.0
    while t < tmax:
        if active < 0:
            return finish(Outcome(GAP, t), -1)
        T = np.add.accumulate(np.concatenate([[t], np.full(block, dt)]))
        # T rises, so tmax - T falls: the last full step decides the block
        if dt <= tmax - T[-2]:
            nsteps = block
        else:
            nsteps = int(np.argmin(dt <= tmax - T[:-1]))
        if nsteps:
            D, c = run.step_maps(dt, active, nsteps)
            h, T = dt, T[:nsteps + 1]
            X = x + ((D[:nsteps * n] @ x).reshape(nsteps, n) + c[:nsteps])
        else:
            h = tmax - t
            X, T = _rk4_step(*run.loops[active], x, h)[None], np.array([t, t + h])
        # (facet, state) layout, as in the target's exclusion rows: numpy
        # reduces one long axis far faster than many short ones
        viol = (normals @ X.T - offs[:, None]).max(axis=0)
        exits = np.flatnonzero(viol > TOL_SIM)
        inside = exits[0] if len(exits) else len(X)
        moved = ctrl.departure(X[:inside], active, TOL_SIM)
        # a state is tested for the target before its piece is resolved
        hit = first_hit(X[:min(moved + 1, inside)])
        if hit is not None:
            kept = hit + 1
        elif moved < inside:
            kept = moved + 1
        else:
            kept = inside
        if kept:
            times.append(T[1:kept + 1])
            states.append(X[:kept])
            stretches.append((row, kept, active))
            max_viol = max(max_viol, float(viol[:kept].max()))
            x, t, row = X[kept - 1], float(T[kept]), row + kept
        if hit is not None:
            return finish(Outcome(REACHED, t), active)
        if moved < inside:
            active = int(ctrl.locate(x[None], TOL_SIM)[0])
            block = _BLOCK
            continue
        if inside < len(X):
            A_cl, b_cl = run.loops[active]
            hi_t = _exit_time(normals, offs, A_cl, b_cl, x, h)
            x_exit = _rk4_step(A_cl, b_cl, x, hi_t)
            reached = first_hit(x_exit[None]) is not None
            switch = active
            if not reached:
                # the same step may leave the active piece first, by its
                # exit facet, where a neighbour takes over
                own = ctrl.region(active)
                s = _exit_time(own.normals, own.offsets + TOL_SIM, A_cl, b_cl, x, h)
                if s < hi_t:
                    x_piece = _rk4_step(A_cl, b_cl, x, s)
                    switch = int(ctrl.locate(x_piece[None], TOL_SIM)[0])
                    if switch != active:
                        x_exit, hi_t = x_piece, s
            t_exit = t + hi_t
            stretches.append((row, 1, active))
            times.append([t_exit])
            states.append(x_exit[None])
            if reached:
                return finish(Outcome(REACHED, t_exit), active)
            if switch != active:
                x, t, row, active, block = x_exit, t_exit, row + 1, switch, _BLOCK
                continue
            facet = int(np.argmax(normals @ x_exit - offs))
            return finish(Outcome(LEFT, t_exit, facet), active)
        block = min(2 * block, _BLOCK_CAP)
    return finish(Outcome(TIMEOUT, t), -1)


@dataclass
class VerifyReport:
    nsamples: int
    successes: int
    outcomes: list[str]
    times: list[float]
    max_violation: float
    failures: list[int]
    seed: int
    dwell_steps: dict[int, int]

    @property
    def success_fraction(self) -> float:
        return self.successes / self.nsamples if self.nsamples else 0.0

    @property
    def max_time(self) -> float:
        return max(self.times) if self.times else 0.0

    @property
    def mean_time(self) -> float:
        return float(np.mean(self.times)) if self.times else 0.0

    @property
    def outcome_counts(self) -> dict[str, int]:
        return dict(Counter(self.outcomes))

    def to_dict(self) -> dict:
        return {
            "nsamples": self.nsamples,
            "successes": self.successes,
            "success_fraction": self.success_fraction,
            "max_time_to_target": self.max_time,
            "mean_time_to_target": self.mean_time,
            "max_violation_depth": self.max_violation,
            "failure_indices": self.failures,
            "outcomes": self.outcomes,
            "outcome_counts": self.outcome_counts,
            "dwell_steps": self.dwell_steps,
            "seed": self.seed,
        }


def sample_states(p: Polytope, nsamples: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform rejection sampling inside the polytope's bounding box, in
    at most _SAMPLE_BATCHES batches.  Raises ``Degenerate`` for an empty
    or lower-dimensional polytope, which holds no sample, and for one so
    thin that the batches do not find ``nsamples`` states."""
    if not (p.is_full_dim and len(p.rows[1])):
        raise Degenerate(f"cannot sample a {p.dim}-dimensional polytope in R^{p.n}")
    lo, hi = p.bounding_box()
    normals, offs = p.rows
    out = []
    for _ in range(_SAMPLE_BATCHES):
        if len(out) >= nsamples:
            break
        batch = rng.uniform(lo, hi, size=(max(64, 4 * nsamples), p.n))
        inside = np.all(batch @ normals.T - offs <= -TOL_GEOM, axis=1)
        out.extend(batch[inside][: nsamples - len(out)])
    if len(out) < nsamples:
        raise Degenerate(f"rejection sampling found {len(out)} of {nsamples} states in "
                         f"{_SAMPLE_BATCHES} batches: the polytope is too thin for its box")
    return np.array(out).reshape(len(out), p.n)


def verify(sys: AffineSystem, ctrl: PWAController, f: Face, nsamples: int = 100,
           seed: int = 0, dt: Optional[float] = None,
           tmax: Optional[float] = None) -> VerifyReport:
    """Sampled closed-loop verification over the controller's domain: runs
    from uniform samples of ``ctrl.domain``, each bounded by that domain.

    Deterministic for a fixed seed; samples run in index order, all with
    one step, dt or else ``default_dt``, the step of the controller's
    runner, which the runs share with their maps.  The report's
    ``dwell_steps`` counts, for every piece, the steps taken under its
    law over all runs.  Each run is folded into the report as it ends
    (its outcome, time, deepest violation and steps per piece), so no
    run outlives the next one's start; its steps per piece are summed
    from its ``stretches``, so no run's times, states or piece ids are
    built.
    """
    pieces = len(ctrl.pieces)
    if nsamples <= 0:
        return VerifyReport(0, 0, [], [], 0.0, [], seed, dict.fromkeys(range(pieces), 0))
    rng = np.random.default_rng(seed)
    starts = sample_states(ctrl.domain, nsamples, rng)
    if dt is None:
        dt = default_dt(sys, ctrl)
    outcomes, times, violations, failures = [], [], [], []
    counts = [0] * pieces
    for i, x0 in enumerate(starts):
        tr = integrate(sys, ctrl, x0, dt, tmax, f)
        outcomes.append(tr.outcome.kind)
        violations.append(tr.max_violation)
        if tr.success:
            times.append(tr.outcome.time)
        else:
            failures.append(i)
        for _, count, piece in tr.stretches:
            counts[piece] += count
    dwell = {index: int(count) for index, count in enumerate(counts)}
    return VerifyReport(nsamples, nsamples - len(failures), outcomes, times,
                        max(violations, default=0.0), failures, seed, dwell)
