"""Exception hierarchy shared across the package."""


class ReachctlError(Exception):
    """Base class for all errors raised by this package."""


# -- geometry ---------------------------------------------------------------

class GeometryError(ReachctlError):
    pass


class Unbounded(GeometryError):
    """Halfspace intersection describes an unbounded set."""


class Degenerate(GeometryError):
    """Polytope is not full-dimensional where a solid is required."""


# -- linear programming -----------------------------------------------------

class NumericalFailure(ReachctlError):
    """LP iteration limit exceeded (should not happen with Bland's rule)."""


# -- system -----------------------------------------------------------------

class SystemError_(ReachctlError):
    pass


class SignAmbiguous(SystemError_):
    """Neither orientation of the input-subspace normal makes the drift
    one-sided on the polytope; the equilibrium plane crosses its interior."""


class DegenerateO(SystemError_):
    """The equilibrium set is not a hyperplane (left-normal of the input
    subspace is also a left eigenvector of A with eigenvalue 0)."""


class AssumptionViolated(SystemError_):
    """One of the standing assumptions fails for the given instance."""

    def __init__(self, report, msg: str = ""):
        self.report = report
        super().__init__(msg or f"assumption check failed: {report}")


# -- reachability -----------------------------------------------------------

class ReachError(ReachctlError):
    pass


class EpsTooLarge(ReachError):
    """The requested cut margin would remove part of the target set."""


class CutConstructionFailed(ReachError):
    """No valid cut hyperplane could be constructed for the margin."""


# -- triangulation / covers -------------------------------------------------

class TriangulateError(ReachctlError):
    pass


class NoQualifyingVertex(TriangulateError):
    """No anchor vertex exists on the top face; the open-loop reachability
    premise is violated."""


class VStarInFbar(TriangulateError):
    """Every admissible anchor vertex lies on the facet containing the
    target; caller must fall back to a cover construction."""


class CoverIncomplete(TriangulateError):
    """The constructed pieces do not cover the polytope at this margin;
    retry with a smaller one."""

    def __init__(self, gap_volume: float, msg: str = ""):
        self.gap_volume = gap_volume
        super().__init__(msg or f"cover misses a region of volume {gap_volume:.3e}")


# -- synthesis --------------------------------------------------------------

class SynthError(ReachctlError):
    pass


class SingularVertexMatrix(SynthError):
    """The affine law misses a vertex control; the simplex is corrupt."""


class Stuck(SynthError):
    """Path generation cannot proceed; carries the unfinished frontier."""

    def __init__(self, frontier, msg: str = ""):
        self.frontier = frontier
        super().__init__(msg or f"path generation stuck with {len(frontier)} unfinished simplices")


class SynthesisFailed(SynthError):
    """A simplex controller failed verification; carries a certificate."""

    def __init__(self, certificate, msg: str = ""):
        self.certificate = certificate
        super().__init__(msg or f"synthesis failed: {certificate}")


class NotReachable(SynthError):
    """Target is not reachable and no usable sub-polytope remains."""

    def __init__(self, analysis, msg: str = ""):
        self.analysis = analysis
        super().__init__(msg or "target not reachable from the given polytope")
