"""Exception types raised by the machlab solvers and harness."""


class MachlabError(Exception):
    """Base class for all machlab errors."""


class GeometryTooCoarse(MachlabError, ValueError):
    """Obstacle is not resolved by enough cells for a meaningful run."""


class OutOfHorizon(MachlabError, ValueError):
    """Motion path evaluated outside its time horizon."""


class NegativeDensity(MachlabError, ValueError):
    """Constitutive law evaluated at a negative density."""


class VacuumState(MachlabError, RuntimeError):
    """A fluid cell reached non-positive density."""


class CflViolation(MachlabError, ValueError):
    """Requested time step exceeds the stability bound."""


class NanDetected(MachlabError, RuntimeError):
    """Non-finite value appeared in a solver field."""


class PoissonFailure(MachlabError, RuntimeError):
    """The Neumann Poisson solve did not meet its residual tolerance."""


class DisconnectedDomain(MachlabError, ValueError):
    """Fluid region is not connected; the spectral calculus is ill-posed."""


class EigensolverFailure(MachlabError, RuntimeError):
    """Sparse eigensolver failed to converge."""


class KernelSingularity(MachlabError, ValueError):
    """Negative operator power applied to a field with a kernel component."""


class UnresolvedOscillation(MachlabError, ValueError):
    """Time-quadrature step too coarse for the fastest retained mode."""


class ScheduleMismatch(MachlabError, ValueError):
    """Trajectories passed to a comparison do not share snapshot times."""


class MissingArtifact(MachlabError, FileNotFoundError):
    """A run directory lacks a file promised by its manifest."""


class IncompleteRun(MachlabError, RuntimeError):
    """Run directory has no manifest; the producing run did not finish."""


class ConfigParseError(MachlabError, ValueError):
    """Config text is not well formed."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class ConfigValidationError(MachlabError, ValueError):
    """Config parsed but violates invariants; lists every violation."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid config:\n  " + "\n  ".join(self.violations))
