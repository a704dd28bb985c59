"""Exception types shared across the package.

`cli.main` maps these onto stable exit codes: the `cli.EXIT_*` constants.
"""


class WinterError(Exception):
    """Base class for package errors."""


class DomainError(WinterError, ValueError):
    """Input outside the mathematical domain of an operation (k = 0, g = 0, ...)."""


class PoleConvergenceError(WinterError, RuntimeError):
    """Newton iteration for a resonance pole failed to converge."""

    def __init__(self, msg, n=None, g=None):
        super().__init__(msg)
        self.n = n
        self.g = g


class OctantViolationError(PoleConvergenceError):
    """A root was found outside the admissible octant Im k < 0 < |Im k| < Re k.

    Signals either a wrong Newton basin or a coupling beyond the resonance
    regime; treated as a hard failure rather than a warning.
    """


class AccuracyError(WinterError, RuntimeError):
    """A quadrature could not reach the requested tolerance.

    Carries the best value obtained and the achieved error estimate so a
    caller can decide whether the result is still usable.
    """

    def __init__(self, msg, best=None, estimate=None):
        super().__init__(msg)
        self.best = best
        self.estimate = estimate


class IllConditionedError(WinterError, RuntimeError):
    """Dense linear algebra refused: condition estimate above threshold."""


class CrossingNotFoundError(WinterError, RuntimeError):
    """No sign change of the curve difference inside the search range."""
