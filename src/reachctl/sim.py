"""Closed-loop integration with boundary-event detection, and sampled
verification of synthesized controllers.

Each step of ``integrate`` asks which piece holds the state (one product
with the controller's stacked facet table, see ``PWAController``) and
whether the state is on the target face.  The target test screens first:
``target_screen``, built once per run from the equations of the face's
affine hull, rules out a state more than 2 TOL_SIM (inf-norm) off that
affine hull with no LP.  Every other state goes to ``point_in_hull``,
whose bounding-box check or LP gives the verdict, as without the screen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import TOL_GEOM, Face, Polytope, affine_basis, point_in_hull
from .synth import PWAController
from .system import AffineSystem

TOL_SIM = 1e-6
_EVENT_TIME_TOL = 1e-10

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
    times: np.ndarray
    states: np.ndarray
    controls: np.ndarray
    piece_ids: np.ndarray
    outcome: Outcome
    max_violation: float = 0.0

    @property
    def success(self) -> bool:
        return self.outcome.kind == REACHED


def _rk4_step(A_cl: np.ndarray, b_cl: np.ndarray, x: np.ndarray, h: float) -> np.ndarray:
    k1 = A_cl @ x + b_cl
    k2 = A_cl @ (x + 0.5 * h * k1) + b_cl
    k3 = A_cl @ (x + 0.5 * h * k2) + b_cl
    k4 = A_cl @ (x + h * k3) + b_cl
    return x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def default_dt(sys: AffineSystem, ctrl: PWAController) -> float:
    """Step scaled to cross the domain in about a thousand steps at the
    fastest vertex speed."""
    lo, hi = ctrl.domain.bounding_box()
    extent = float(np.linalg.norm(hi - lo))
    vmax = 0.0
    for piece in ctrl.pieces:
        for v in piece.region.vertices:
            vmax = max(vmax, float(np.linalg.norm(sys.field(v, piece.control(v)))))
    return 1e-3 * extent / max(vmax, 1e-9)


def target_screen(vertices) -> Callable[[np.ndarray], bool]:
    """A test that is true only for states more than 2 TOL_SIM (inf-norm)
    from conv(vertices).

    It checks the equations of the hull's affine hull, both ways, as
    valid inequalities G y <= c.  Each bound is its row's maximum over the
    vertices, so the inequalities hold however the rows are rounded, and
    a state with g.x - c > 2 |g|_1 TOL_SIM is more than 2 TOL_SIM from
    every point of the hull."""
    V = np.asarray(vertices, dtype=float)
    _, basis = affine_basis(V)
    normal = np.eye(V.shape[1]) - basis @ basis.T
    G = np.vstack([normal, -normal])
    c = (V @ G.T).max(axis=0)
    reject = 2.0 * TOL_SIM * np.abs(G).sum(axis=1)
    return lambda state: bool(np.any(G @ state - c > reject))


def integrate(sys: AffineSystem, ctrl: PWAController, x0, dt: Optional[float] = None,
              tmax: Optional[float] = None, f: Optional[Face] = None,
              domain: Optional[Polytope] = None) -> Trajectory:
    """Fixed-step closed-loop run with the active piece re-resolved every
    step; the first boundary crossing is bisected in time and classified
    as reaching the target or leaving the domain.

    A state with no containing piece ends the run with a gap outcome
    rather than extrapolating.
    """
    domain = domain if domain is not None else ctrl.domain
    if dt is None:
        dt = default_dt(sys, ctrl)
    if tmax is None:
        lo, hi = domain.bounding_box()
        tmax = 1e4 * dt * max(1.0, float(np.linalg.norm(hi - lo)))
    x = np.asarray(x0, dtype=float).copy()
    normals = np.array([h.normal for h in domain.halfspaces])
    offs = np.array([h.offset for h in domain.halfspaces])

    def violation(state):
        return float((normals @ state - offs).max())

    off_target = target_screen(f.vertices) if f is not None else lambda state: True

    def on_target(state):
        return not off_target(state) and point_in_hull(state, f.vertices, TOL_SIM)

    times, states, controls, ids = [0.0], [x.copy()], [], []
    max_viol = max(violation(x), 0.0)

    if on_target(x):
        piece = ctrl.lookup(x, TOL_SIM)
        controls.append(piece.control(x) if piece else np.zeros(sys.m))
        ids.append(piece.index if piece else -1)
        return Trajectory(np.array(times), np.array(states), np.array(controls),
                          np.array(ids), Outcome(REACHED, 0.0), max_viol)

    closed_loops = [pc.closed_loop(sys) for pc in ctrl.pieces]
    t = 0.0
    while t < tmax:
        piece = ctrl.lookup(x, TOL_SIM)
        if piece is None:
            controls.append(np.zeros(sys.m))
            ids.append(-1)
            return Trajectory(np.array(times), np.array(states), np.array(controls),
                              np.array(ids), Outcome(GAP, t), max_viol)
        A_cl, b_cl = closed_loops[piece.index]
        controls.append(piece.control(x))
        ids.append(piece.index)

        h = min(dt, tmax - t)
        x_new = _rk4_step(A_cl, b_cl, x, h)
        viol = violation(x_new)
        if viol > TOL_SIM:
            # bisect the first crossing time within this step
            lo_t, hi_t = 0.0, h
            while hi_t - lo_t > _EVENT_TIME_TOL:
                mid = 0.5 * (lo_t + hi_t)
                if violation(_rk4_step(A_cl, b_cl, x, mid)) > 0.0:
                    hi_t = mid
                else:
                    lo_t = mid
            x_exit = _rk4_step(A_cl, b_cl, x, hi_t)
            t_exit = t + hi_t
            times.append(t_exit)
            states.append(x_exit.copy())
            controls.append(piece.control(x_exit))
            ids.append(piece.index)
            if on_target(x_exit):
                out = Outcome(REACHED, t_exit)
            else:
                facet = int(np.argmax(normals @ x_exit - offs))
                out = Outcome(LEFT, t_exit, facet)
            return Trajectory(np.array(times), np.array(states), np.array(controls),
                              np.array(ids), out, max_viol)
        t += h
        x = x_new
        max_viol = max(max_viol, viol)
        times.append(t)
        states.append(x.copy())
        if on_target(x):
            return Trajectory(np.array(times), np.array(states),
                              np.array(controls + [piece.control(x)]),
                              np.array(ids + [piece.index]),
                              Outcome(REACHED, t), max_viol)
    controls.append(np.zeros(sys.m))
    ids.append(-1)
    return Trajectory(np.array(times), np.array(states), np.array(controls),
                      np.array(ids), Outcome(TIMEOUT, t), max_viol)


@dataclass
class VerifyReport:
    nsamples: int
    successes: int
    outcomes: list[str]
    times: list[float]
    max_violation: float
    failures: list[int]
    seed: int

    @property
    def success_fraction(self) -> float:
        return self.successes / self.nsamples if self.nsamples else 0.0

    @property
    def max_time(self) -> float:
        return max(self.times) if self.times else 0.0

    @property
    def mean_time(self) -> float:
        return float(np.mean(self.times)) if self.times else 0.0

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
            "seed": self.seed,
        }


def sample_states(p: Polytope, nsamples: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform rejection sampling inside the polytope's bounding box."""
    lo, hi = p.bounding_box()
    normals = np.array([h.normal for h in p.halfspaces])
    offs = np.array([h.offset for h in p.halfspaces])
    out = []
    while len(out) < nsamples:
        batch = rng.uniform(lo, hi, size=(max(64, 4 * nsamples), p.n))
        inside = np.all(batch @ normals.T - offs <= -TOL_GEOM, axis=1)
        out.extend(batch[inside][: nsamples - len(out)])
    return np.array(out)


def verify(sys: AffineSystem, ctrl: PWAController, p: Polytope, f: Face,
           nsamples: int = 100, seed: int = 0, dt: Optional[float] = None,
           tmax: Optional[float] = None) -> VerifyReport:
    """Sampled closed-loop verification over the controller's domain.

    Deterministic for a fixed seed; samples run in index order.
    """
    if nsamples <= 0:
        return VerifyReport(0, 0, [], [], 0.0, [], seed)
    rng = np.random.default_rng(seed)
    starts = sample_states(p, nsamples, rng)
    trajs = [integrate(sys, ctrl, x0, dt, tmax, f, p) for x0 in starts]

    outcomes = [tr.outcome.kind for tr in trajs]
    successes = sum(tr.success for tr in trajs)
    times = [tr.outcome.time for tr in trajs if tr.success]
    max_viol = max((tr.max_violation for tr in trajs), default=0.0)
    failures = [i for i, tr in enumerate(trajs) if not tr.success]
    return VerifyReport(nsamples, successes, outcomes, times, max_viol, failures, seed)
