"""Exception types shared across the package."""


class FockError(Exception):
    """Base class for all package errors."""


class InvalidSpaceError(FockError):
    """Space parameters are inconsistent (e.g. fermions with M < N)."""


class InvalidConfigurationError(FockError):
    """A hole or occupation vector violates its space's constraints."""


class AddressError(FockError):
    """A configuration address J lies outside [1, N_conf]."""


class SpaceMismatchError(FockError):
    """Two objects refer to different Fock spaces."""


class ValidationError(FockError):
    """A coefficient table violates a structural constraint."""


class IntegralFormatError(FockError):
    """An integral file could not be parsed.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class WorkerCountError(FockError, ValueError):
    """A worker count (argument or FOCK_WORKERS) is not a positive integer."""


class SolverArgumentError(FockError, ValueError):
    """A solver argument (tolerance, step, iteration or Krylov bound, seed) is out of range or not finite.

    An argument of the wrong type (a string, a float where an integer belongs, a bool) raises it too.
    """


class SizeError(FockError):
    """A dense-oracle request exceeds the configured dimension cap."""


class ConvergenceError(FockError):
    """An iterative solver failed to reach its tolerance.

    ``best_residual`` holds the smallest residual norm seen.
    """

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


class StepFailureError(FockError):
    """A propagation step could not meet its error tolerance."""
