"""Exception types used across the package.

Everything derives from WeinsteinError so callers can catch the whole
family at an API boundary (the command line driver does exactly that).
"""


class WeinsteinError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(WeinsteinError):
    """Malformed or inconsistent run configuration."""


class UnsupportedShape(WeinsteinError):
    """Operation requires a smooth boundary but the domain does not have one."""


class EmptyDomain(WeinsteinError):
    """Grid and domain do not overlap in any active node."""


class GridTooCoarse(WeinsteinError):
    """Domain is not resolved by enough cells for the requested operation."""


class SphereOutsideDomain(WeinsteinError):
    """A sphere used for averaging is not contained in the field's domain."""


class DegenerateDimension(WeinsteinError):
    """Parameter combination outside the validity range of a closed form."""


class PoleEvaluation(WeinsteinError):
    """Singular kernel evaluated at (or too close to) its pole."""


class MissingBoundaryData(WeinsteinError):
    """A stencil row touches the boundary but no Dirichlet data is attached."""


class StencilLeavesDomain(WeinsteinError):
    """A probe stencil needs values outside the active part of the grid."""


class ParityViolation(WeinsteinError):
    """Polynomial lacks the evenness required by a weighted operation."""


class NoConvergence(WeinsteinError):
    """Iterative solve stopped without reaching the residual target.

    Carries the best iterate and its report so callers can still
    inspect (and persist) the partial result.
    """

    def __init__(self, message, best=None, report=None):
        super().__init__(message)
        self.best = best
        self.report = report


class BreakdownDetected(WeinsteinError):
    """Krylov recurrence broke down twice (after one restart)."""

    def __init__(self, message, best=None, report=None):
        super().__init__(message)
        self.best = best
        self.report = report
