"""Affine control systems with (n-1)-dimensional input span, and the
geometry they induce: the drift-monotone direction, the input subspace,
and the plane of possible equilibria.  A system is frozen, so B's left
singular vectors and rank, the controllability rank and the equilibrium
plane are derived once per system, on first use, and stored on it."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import DegenerateO, SignAmbiguous
from .geometry import (TOL_GEOM, TOL_INCIDENCE, Hyperplane, Polytope,
                       carrying_facet, rank)


@dataclass(frozen=True)
class AffineSystem:
    """dx/dt = A x + a + B u."""

    A: np.ndarray
    a: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        a = np.asarray(self.a, dtype=float).ravel()
        B = np.asarray(self.B, dtype=float)
        if B.ndim == 1:
            B = B[:, None]
        n = A.shape[0]
        if A.shape != (n, n) or a.shape != (n,) or B.shape[0] != n:
            raise ValueError("inconsistent system dimensions")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "B", B)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    def drift(self, x) -> np.ndarray:
        return self.A @ np.asarray(x, dtype=float) + self.a

    def field(self, x, u) -> np.ndarray:
        return self.drift(x) + self.B @ np.asarray(u, dtype=float)

    def input_rank(self) -> int:
        return self._invariants[1]

    def controllability_rank(self) -> int:
        return self._invariants[2]

    @cached_property
    def _invariants(self) -> tuple[np.ndarray, int, int, Optional[Hyperplane]]:
        """B's left singular vectors as columns, the last its unit left null
        vector beta; B's rank; the controllability rank; and the plane
        {x : beta.(A x + a) = 0}, None where beta.A vanishes."""
        u, sv, _ = np.linalg.svd(self.B, full_matrices=True)
        u.setflags(write=False)
        blocks = [self.B]
        for _ in range(self.n - 1):
            blocks.append(self.A @ blocks[-1])
        normal = u[:, -1] @ self.A
        plane = (Hyperplane(normal, -float(u[:, -1] @ self.a))
                 if np.linalg.norm(normal) > TOL_GEOM else None)
        return u, rank(sv=sv), rank(np.hstack(blocks)), plane


@dataclass(frozen=True)
class SystemGeometry:
    """Derived geometry of a system on a polytope.

    ``beta`` is the unit normal to the input span, signed so the drift
    component beta.(A x + a) is <= 0 on the whole polytope.
    ``input_basis`` spans the input subspace (columns, orthonormal).
    ``equilibrium_plane`` is ``equilibrium_plane(sys)``, the states where
    some input makes the field vanish.
    """

    beta: np.ndarray
    input_basis: np.ndarray
    equilibrium_plane: Hyperplane

    def on_equilibrium_plane(self, x):
        """Whether a point ``x``, or each point of an (..., n) stack, lies
        within ``TOL_INCIDENCE`` of the equilibrium plane, by the plane's
        ``value``: the one on-plane rule, whose verdict on a point does not
        depend on the stack it comes in."""
        return np.abs(self.equilibrium_plane.value(x)) <= TOL_INCIDENCE

    def at_level(self, points, level: float) -> np.ndarray:
        """The rows of ``points``, in their order, whose drift level beta.x
        is within ``TOL_GEOM`` of ``level`` (``on_level``).  Every set of
        points at one drift level (a top face, a target's lowest or
        highest vertices, the margin cut's pivots) is taken here."""
        points = np.asarray(points, dtype=float)
        return points[self.on_level(points @ self.beta, level)]

    @staticmethod
    def on_level(levels, level) -> np.ndarray:
        """Which drift levels lie within ``TOL_GEOM`` of ``level``: the one
        rule for equal drift levels, read by ``at_level`` and by callers
        that hold the levels already."""
        return np.abs(levels - level) <= TOL_GEOM

    def input_plane_through(self, x) -> Hyperplane:
        """Translate of the input subspace passing through ``x``."""
        return Hyperplane(self.beta, float(self.beta @ np.asarray(x, dtype=float)))


@dataclass(frozen=True)
class AssumptionReport:
    a1_input_rank: bool
    a2_controllable: bool
    a3_interior_clear: bool
    a4_target_valid: bool
    details: dict

    @property
    def ok(self) -> bool:
        return self.a1_input_rank and self.a2_controllable and self.a3_interior_clear and self.a4_target_valid

    def __str__(self) -> str:
        flags = [("A1", self.a1_input_rank), ("A2", self.a2_controllable),
                 ("A3", self.a3_interior_clear), ("A4", self.a4_target_valid)]
        return ", ".join(f"{k}={'pass' if v else 'FAIL'}" for k, v in flags)


def equilibrium_plane(sys: AffineSystem) -> Hyperplane:
    """The plane {x : beta.(A x + a) = 0} of possible equilibria, with a
    unit normal, for the unit left null vector beta of B, as stored on the
    system.  Every side and level test against it (A3, the drift's sign,
    the cover's split) reads this one plane.  Raises DegenerateO when
    beta.A vanishes."""
    plane = sys._invariants[3]
    if plane is None:
        raise DegenerateO("equilibrium set is not a hyperplane")
    return plane


def interior_clear_of_equilibria(sys: AffineSystem, p: Polytope) -> bool:
    """True when the equilibrium plane does not cross the interior of p
    (it may touch the boundary), which holds exactly when
    ``split_by_hyperplane(p, equilibrium_plane(sys))`` leaves one piece
    empty.  Without a plane, beta.(A x + a) is constant and crosses
    nothing."""
    try:
        plane = equilibrium_plane(sys)
    except DegenerateO:
        return True
    vals = p.vertices @ plane.normal - plane.offset
    return not (vals.min() < -TOL_GEOM and vals.max() > TOL_GEOM)


def check_assumptions(sys: AffineSystem, p: Polytope, f: Polytope) -> AssumptionReport:
    """Flag the standing requirements for an instance: input rank n-1,
    controllability, equilibrium plane clear of the interior, and a
    target that is an (n-1)-dimensional polytope on the boundary."""
    n = sys.n
    details: dict = {}

    r = sys.input_rank()
    a1 = r == n - 1
    details["input_rank"] = r

    cr = sys.controllability_rank()
    a2 = cr == n
    details["controllability_rank"] = cr

    a3 = interior_clear_of_equilibria(sys, p)

    a4 = True
    if f.dim != n - 1:
        a4 = False
        details["target_dim"] = f.dim
    else:
        on_boundary = all(p.contains(v, TOL_INCIDENCE) for v in f.vertices)
        if on_boundary and p.is_full_dim:
            # an (n-1)-dimensional convex subset of the boundary lies in a facet
            k = carrying_facet(p, f)
            if k is not None:
                details["target_facet_normal"] = p.rows[0][k].tolist()
            on_boundary = k is not None
        if not on_boundary:
            a4 = False
            details["target_on_boundary"] = False

    return AssumptionReport(a1, a2, a3, a4, details)


def compute_geometry(sys: AffineSystem, p: Polytope) -> SystemGeometry:
    """Signed drift normal, input-span basis and equilibrium plane for a
    system restricted to a polytope whose interior avoids the equilibria."""
    u, r = sys._invariants[:2]
    beta = u[:, -1]
    plane = equilibrium_plane(sys)
    vals = p.vertices @ plane.normal - plane.offset
    if vals.max() > TOL_GEOM:
        if vals.min() < -TOL_GEOM:
            raise SignAmbiguous(
                "drift changes sign across the polytope; split along the equilibrium plane first")
        beta = -beta
    # deterministic orientation for the degenerate all-zero-drift case
    if np.abs(vals).max() <= TOL_GEOM:
        idx = np.argmax(np.abs(beta))
        if beta[idx] < 0:
            beta = -beta

    return SystemGeometry(beta, u[:, :r], plane)
